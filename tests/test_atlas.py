"""Counting, codimension, adjacency and the stratification emitters."""

import csv
import io
import itertools
import json
import re
import tracemalloc
from fractions import Fraction

import pytest

from twoflags import atlas as atlas_mod
from twoflags.atlas import (
    MAX_COUNT_STEPS,
    AtlasRecord,
    adjacencies,
    adjacency_dot,
    atlas_csv,
    atlas_jsonl,
    build_atlas,
    codimension,
    count_classes,
    enumerate_words,
    iter_atlas,
    _json_lines,
)
from twoflags.classify import singularity_class_at, singularity_locus_equations
from twoflags.cli import main, run_verification
from twoflags.ekr import EkrSpec, Word, build_ekr
from twoflags.errors import BadSyntax, ChartMismatch

# the fourteen classes of length 4
LENGTH_FOUR_CLASSES = [
    "1.1.1.1",
    "1.1.1.2",
    "1.1.2.1",
    "1.1.2.2",
    "1.1.2.3",
    "1.2.1.1",
    "1.2.1.2",
    "1.2.1.3",
    "1.2.2.1",
    "1.2.2.2",
    "1.2.2.3",
    "1.2.3.1",
    "1.2.3.2",
    "1.2.3.3",
]


def test_enumerate_length_four_exact_set():
    words = enumerate_words(4)
    assert [str(w) for w in words] == LENGTH_FOUR_CLASSES


def test_enumerate_base_cases():
    assert [str(w) for w in enumerate_words(1)] == ["1"]
    assert len(enumerate_words(7)) == 365


def test_enumeration_is_sorted_and_valid():
    words = enumerate_words(5)
    assert words == sorted(words)
    assert len(set(words)) == len(words)


def test_library_enumeration_stops_at_the_length_bound():
    # no RecursionError: the bound is checked before any word is built
    for call in (
        lambda: enumerate_words(14),
        lambda: build_atlas(1200),
        lambda: iter_atlas(14),  # raised when called, before any record is read
        lambda: run_verification(1200, 0, 0, True),
    ):
        with pytest.raises(ChartMismatch, match="length must be <= 13"):
            call()


def test_count_table_row_length_seven():
    assert [count_classes(m, 7) for m in range(1, 7)] == [32, 365, 715, 855, 876, 877]


def test_count_width_two_formula():
    for r in range(1, 11):
        assert count_classes(2, r) == (1 + 3 ** (r - 1)) // 2
    assert count_classes(2, 4) == 14


def test_count_long_length_needs_no_recursion():
    assert count_classes(2, 5000) == (3**4999 + 1) // 2


def test_count_width_beyond_the_length_changes_nothing():
    # a word's running maximum never exceeds its length, so a huge width costs nothing
    assert count_classes(10**12, 6) == count_classes(5, 6) == 203


def test_count_matches_enumeration():
    for r in range(1, 7):
        assert count_classes(2, r) == len(enumerate_words(r))


def test_count_stops_at_the_step_bound():
    assert MAX_COUNT_STEPS == 300_000
    assert count_classes(499, 600) > 0  # 600 * 500 steps, at the bound
    for m, r in ((500, 600), (2, 100_001), (1, 150_001)):
        with pytest.raises(ChartMismatch, match="must be <= 300000"):
            count_classes(m, r)


def test_count_width_one():
    assert count_classes(1, 1) == 1
    assert count_classes(1, 2) == 1
    assert [count_classes(1, r) for r in range(3, 8)] == [2, 4, 8, 16, 32]


def test_sandwich_pattern_count():
    for r in range(1, 7):
        patterns = {rec.sandwich for rec in build_atlas(r)}
        assert len(patterns) == 2 ** (r - 1)


def test_record_sandwich_is_the_geometric_sandwich_up_to_length_five():
    # the sandwich word that singularity_class_at computes at the origin of the
    # pseudo-normal form with zero constants
    for r in range(1, 6):
        for rec in build_atlas(r):
            build = build_ekr(EkrSpec(rec.word))
            assert rec.sandwich == str(singularity_class_at(build, build.chart.origin()).sandwich), rec.text


@pytest.mark.parametrize(
    "text,expected",
    [("1.2.1.3", 3), ("1.1.1.1", 0), ("1.2.2.3", 4), ("1", 0), ("1.2.3.3", 5)],
)
def test_codimension(text, expected):
    assert codimension(Word.parse(text)) == expected


def test_adjacency_examples():
    assert {str(w) for w in adjacencies(Word.parse("1.2.3"))} == {"1.2.2"}
    assert {str(w) for w in adjacencies(Word.parse("1.2.3.2"))} == {"1.2.2.2", "1.2.3.1"}
    assert adjacencies(Word.parse("1.1.1")) == []


@pytest.mark.parametrize("function", [adjacencies, codimension, singularity_locus_equations])
@pytest.mark.parametrize("value", ["1.3", "1.2", (1, 2)])
def test_word_functions_take_only_a_word(function, value):
    # adjacencies("1.3") returned [Word(1.2)] for text that is no word, and
    # codimension("1.2") and singularity_locus_equations("1.2") raised AttributeError
    message = re.escape(f"word {value!r} is not a Word but a {type(value).__name__}: parse text with Word.parse")
    with pytest.raises(BadSyntax, match=message):
        function(value)


def test_adjacency_chains_from_the_text():
    # 1.2.3 -> 1.2.2 -> 1.1.2 -> 1.1.1 and 1.2.3.2 -> 1.2.3.1 -> 1.2.2.1
    chain = ["1.2.3", "1.2.2", "1.1.2", "1.1.1"]
    for here, there in zip(chain, chain[1:]):
        assert Word.parse(there) in adjacencies(Word.parse(here))
    chain = ["1.2.3.2", "1.2.3.1", "1.2.2.1"]
    for here, there in zip(chain, chain[1:]):
        assert Word.parse(there) in adjacencies(Word.parse(here))


def test_adjacency_lowers_codimension_by_one():
    for r in range(1, 6):
        for word in enumerate_words(r):
            for target in adjacencies(word):
                assert codimension(target) == codimension(word) - 1


def test_atlas_records_length_two():
    records = build_atlas(2)
    assert [(str(rec.word), rec.codimension) for rec in records] == [("1.1", 0), ("1.2", 1)]
    assert records[1].locus == ("x2=0",)


def test_atlas_records_length_four():
    records = build_atlas(4)
    assert len(records) == 14
    for rec in records:
        assert len(rec.locus) == rec.codimension
        for target in rec.adjacencies:
            assert str(target) in LENGTH_FOUR_CLASSES


def test_atlas_records_render_what_the_word_functions_give():
    # every field is joined from fields of the word's two halves, and no word
    # of length r is listed to make them; the Word-level functions, and the
    # codimension as a sum over letters, are the reference; at lengths 11 and
    # 12, where each half holds several letters, every 97th record is checked
    for r, step in [*((r, 1) for r in range(1, 11)), (11, 97), (12, 97)]:
        for rec, word in zip(itertools.islice(iter_atlas(r), 0, None, step), enumerate_words(r)[::step], strict=True):
            assert rec.word == word and rec.text == str(word) and rec.length == r
            assert rec.adjacencies == tuple(str(w) for w in adjacencies(word))
            assert rec.locus == singularity_locus_equations(word)
            expected = sum(1 for j in word.letters if j == 2) + 2 * sum(1 for j in word.letters if j == 3)
            assert rec.codimension == codimension(word) == expected
            assert rec.sandwich == rec.text.replace("3", "2")


def test_codimension_counts_the_locus_equations_up_to_length_eight():
    for r in range(1, 9):
        for word in enumerate_words(r):
            assert codimension(word) == len(singularity_locus_equations(word))


@pytest.mark.parametrize("r, message", [(0, ">= 1, got 0"), (-1, ">= 1, got -1"), (14, "<= 13, got 14")])
def test_iter_atlas_raises_on_a_bad_length_when_called(r, message):
    # the length named is r, not the length of a half
    with pytest.raises(ChartMismatch, match=f"^length must be {message}$"):
        iter_atlas(r)


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(3), "3"])
def test_a_length_that_is_not_an_int_is_named_with_its_type(bad):
    # True would print as a length True in jsonl and csv; 2.0 and "3" would
    # fail with a bare TypeError
    message = f"^length {re.escape(repr(bad))} is not an int but a {type(bad).__name__}$"
    for call in (
        lambda: build_atlas(bad),
        lambda: iter_atlas(bad),
        lambda: enumerate_words(bad),
        lambda: count_classes(2, bad),
    ):
        with pytest.raises(ChartMismatch, match=message):
            call()
    with pytest.raises(ChartMismatch, match=f"^width {re.escape(repr(bad))} is not an int but a {type(bad).__name__}$"):
        count_classes(bad, 3)


def test_draining_iter_atlas_holds_no_list_of_words():
    # the 88,574 words of length 12 alone take about 20 MB; the fields of the
    # halves and the shared sandwich strings about 1 MB
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_atlas(12)) == 88_574
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_atlas_record_of_length_one():
    # its right half is empty
    assert build_atlas(1) == [AtlasRecord("1", 1, 0, "1", (), ())]


def test_atlas_record_is_immutable():
    rec = build_atlas(3)[-1]
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    assert rec.word == Word.parse("1.2.3")
    assert rec.to_json() == {"word": "1.2.3", "length": 3, "codimension": 3, "sandwich": "1.2.2",
                             "locus": ["x2=0", "x3=0", "y3=0"], "adjacencies": ["1.2.2"]}


def test_atlas_csv_shape():
    text = atlas_csv(build_atlas(4))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["word", "length", "codimension", "sandwich", "locus", "adjacencies"]
    assert len(rows) == 15
    by_word = {row[0]: row for row in rows[1:]}
    assert by_word["1.2.1.3"][2] == "3"
    assert by_word["1.2.1.3"][4] == "x2=0;x4=0;y4=0"


def test_atlas_jsonl_and_json():
    records = build_atlas(2)
    lines = atlas_jsonl(records).strip().split("\n")
    assert [json.loads(line)["word"] for line in lines] == ["1.1", "1.2"]
    payload = json.loads(json_text(records))
    assert payload[1]["sandwich"] == "1.2"


def test_adjacency_dot_output():
    text = adjacency_dot(build_atlas(3))
    assert text.startswith("digraph")
    assert '"1.2.3" -> "1.2.2";' in text
    assert '"1.1.1" ->' not in text


def json_text(records):
    """The JSON array the atlas command streams, joined."""
    return "".join(_json_lines(records))


# the emitters as they were before each format had its own line formatter:
# json.dumps and csv.writer per record, and the DOT graph in two loops
def oracle_json(records):
    return json.dumps([rec.to_json() for rec in records], indent=2)


def oracle_jsonl(records):
    return "\n".join(json.dumps(rec.to_json()) for rec in records) + "\n"


def oracle_csv(records):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["word", "length", "codimension", "sandwich", "locus", "adjacencies"])
    for rec in records:
        writer.writerow(
            [str(rec.word), rec.length, rec.codimension, rec.sandwich, ";".join(rec.locus), ";".join(rec.adjacencies)]
        )
    return buffer.getvalue()


def oracle_dot(records):
    lines = ["digraph adjacencies {"]
    for rec in records:
        lines.append(f'    "{rec.word}";')
    for rec in records:
        name = str(rec.word)
        lines.extend(f'    "{name}" -> "{target}";' for target in rec.adjacencies)
    lines.append("}")
    return "\n".join(lines) + "\n"


EMITTERS = {
    "json": (json_text, oracle_json),
    "jsonl": (atlas_jsonl, oracle_jsonl),
    "csv": (atlas_csv, oracle_csv),
    "dot": (adjacency_dot, oracle_dot),
}


def test_emitters_equal_the_per_record_oracle_up_to_length_nine():
    for r in range(1, 10):
        records = build_atlas(r)
        assert list(iter_atlas(r)) == records
        for fmt, (emitter, oracle) in EMITTERS.items():
            assert emitter(records) == oracle(records), (fmt, r)


def test_emitters_of_no_records():
    # build_atlas never returns an empty list; JSON lines of no record are no lines
    for fmt in ("json", "csv", "dot"):
        emitter, oracle = EMITTERS[fmt]
        assert emitter([]) == oracle([]), fmt
    assert atlas_jsonl([]) == ""


@pytest.mark.parametrize("fmt", sorted(EMITTERS))
def test_streamed_cli_output_equals_the_list_emitter(fmt, capsys):
    # dot, whose node lines come from the half texts, up to length 10
    emitter = EMITTERS[fmt][0]
    for r in range(1, 11 if fmt == "dot" else 9):
        assert main(["atlas", "--length", str(r), "--format", fmt]) == 0
        captured = capsys.readouterr()
        # the CLI ends the json array with a newline, as it always has
        assert captured.out == emitter(build_atlas(r)) + ("\n" if fmt == "json" else ""), r
        assert captured.err == ""


def test_cli_dot_forms_each_record_once(monkeypatch, capsys):
    # node lines come from the half texts alone, so only the edge pass forms records
    formed = []

    class Counted(AtlasRecord):
        def __new__(cls, *fields):
            formed.append(fields[0])
            return super().__new__(cls, *fields)

    monkeypatch.setattr(atlas_mod, "AtlasRecord", Counted)
    assert main(["atlas", "--length", "8", "--format", "dot"]) == 0
    assert len(formed) == len(set(formed)) == 1_094
    monkeypatch.undo()
    assert capsys.readouterr().out == adjacency_dot(build_atlas(8))
