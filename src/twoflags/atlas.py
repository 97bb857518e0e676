"""Enumeration and combinatorics of singularity classes: counting,
codimension, guaranteed adjacencies, and stratification reports in
JSON-lines, CSV and DOT form.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .classify import _locus_equations, singularity_locus_equations
from .ekr import Word, _check_word
from .errors import ChartMismatch
from .exactalg import _check_int

# longest word enumerate_words lists and iter_atlas covers: build_atlas(12) with
# the jsonl, csv and dot emitters peaks near 187 MB, and the streamed
# `atlas --length 13` takes 1.0-1.7 s in every format at a 19 MB peak, which
# holds no list of words, on 2 cores; each letter triples the time and the output
MAX_LENGTH = 13
# largest length * min(width + 1, length) count_classes takes: about that many
# big-integer steps, each on numbers that grow with the length, so the
# narrowest table is the slowest; width 2 at length 100000 takes 1.5 s on
# 2 cores (width 5 at 50000, and width 546 at 547, take 1.0 s and 0.05 s)
MAX_COUNT_STEPS = 300_000


def _check_length(r: int) -> None:
    _check_int("length", r)
    if r < 1:
        raise ChartMismatch(f"length must be >= 1, got {r}")
    if r > MAX_LENGTH:
        raise ChartMismatch(f"length must be <= {MAX_LENGTH}, got {r}")


def enumerate_words(r: int) -> list[Word]:
    """All valid words of length r, in lexicographic order."""
    _check_length(r)
    prefixes = [(1,)]
    for _ in range(r - 1):
        # a letter rises at most one above the running maximum, which is 2 or 3 once a 2 occurs
        prefixes = [prefix + (letter,) for prefix in prefixes for letter in range(1, 4 if 2 in prefix else 3)]
    return [Word(prefix) for prefix in prefixes]


def _count_rule(length: int, top: int) -> int:
    """Words of the given length over {1, ..., top} starting with 1 whose
    letters never jump past the running maximum plus one."""
    prefixes = [0, 1] + [0] * (top - 1)  # running maximum -> number of prefixes
    for _ in range(length - 1):
        # a letter up to the maximum keeps it, the letter above it raises it
        prefixes = [0] + [m * prefixes[m] + prefixes[m - 1] for m in range(1, top + 1)]
    return sum(prefixes)


def count_classes(m: int, r: int) -> int:
    """Number of singularity classes of width-m flags in length r.

    Width m >= 2 counts the least-upward-jump words over {1, ..., m+1}.
    Width 1 counts the corresponding classes of 1-flags: 2^(r-2) for
    r >= 2 and a single class in length 1.
    """
    _check_int("width", m)
    _check_int("length", r)
    if m < 1 or r < 1:
        raise ChartMismatch(f"width and length must be >= 1, got m={m}, r={r}")
    # the running maximum of a word never exceeds its length
    top = min(m + 1, r)
    if r * top > MAX_COUNT_STEPS:
        raise ChartMismatch(
            f"length * min(width + 1, length) must be <= {MAX_COUNT_STEPS}, got {r * top} (m={m}, r={r})"
        )
    if m == 1:
        return 2 ** (r - 2) if r >= 2 else 1
    return _count_rule(r, top)


def codimension(word: Word) -> int:
    """Number of letters 2 plus twice the number of letters 3: one per locus equation."""
    return len(singularity_locus_equations(word))


def _lowered(text: str) -> tuple[list[str], list[str]]:
    """The texts of a word's guaranteed adjacencies, from its text: each 3
    lowered, and each 2 past the last 3 lowered."""
    threes, twos = [], []
    for lowered, letter, lower, start in ((threes, "3", "2", 0), (twos, "2", "1", text.rfind("3") + 1)):
        pos = text.find(letter, start)
        while pos >= 0:
            lowered.append(text[:pos] + lower + text[pos + 1 :])
            pos = text.find(letter, pos + 2)  # letters sit two characters apart
    return threes, twos


def adjacencies(word: Word) -> list[Word]:
    """The guaranteed adjacency set: words obtained by lowering one letter.

    Lowering j_l -> j_l - 1 is guaranteed when j_l = 3, or when j_l = 2
    and no letter 3 occurs past position l.  The full adjacency question
    is open; only these edges are emitted.  Text raises BadSyntax: parse
    it with Word.parse.
    """
    _check_word("word", word)
    threes, twos = _lowered(str(word))
    return [Word.parse(text) for text in threes + twos]


class AtlasRecord(NamedTuple):
    text: str
    length: int
    codimension: int
    sandwich: str
    locus: tuple[str, ...]
    adjacencies: tuple[str, ...]

    @property
    def word(self) -> Word:
        return Word.parse(self.text)

    def to_json(self) -> dict:
        return {"word": self.text, "length": self.length, "codimension": self.codimension, "sandwich": self.sandwich,
                "locus": list(self.locus), "adjacencies": list(self.adjacencies)}


def iter_atlas(r: int) -> Iterator[AtlasRecord]:
    """The records of build_atlas(r), one at a time; a bad length raises when
    it is called."""
    _check_length(r)
    return _records(r)


def _halves(r: int) -> Iterator[tuple[tuple, list[tuple]]]:
    """Each left half's fields, letters 1..h, with the fields of the right halves
    that may follow it, letters h+1..r, whose text puts a dot before each: each
    half is worked out once, and no list of the words of length r is made."""
    # about 3^(h-1)/2 left halves, each a word, and up to 3^(r-h) right
    # halves, any letters: h = (r + 1) // 2 keeps both near 3^(r/2)
    h = (r + 1) // 2

    def half(letters: tuple[int, ...], text: str, start: int) -> tuple:
        locus = _locus_equations(letters, start)
        return (text, len(locus), text.replace("3", "2"), locus, *_lowered(text))

    def rights(halves: Iterable[tuple[int, ...]]) -> list[tuple]:
        return [half(right, "".join(f".{j}" for j in right), h + 1) for right in halves]

    # a left half that holds a 2 may be followed by any letters; 1^h, the
    # first left half, only by the tail of a word of length r - h + 1; both
    # lists, like the left halves, are in lexicographic order, and so are the records
    after_two = rights(itertools.product((1, 2, 3), repeat=r - h))
    after_ones = rights(word.letters[1:] for word in enumerate_words(r - h + 1))
    for word in enumerate_words(h):
        yield half(word.letters, str(word), 1), after_two if 2 in word.letters else after_ones


def _texts(r: int) -> Iterator[str]:
    """The texts of the records of length r, in their order, without the records."""
    return (left[0] + right[0] for left, rights in _halves(r) for right in rights)


def _records(r: int) -> Iterator[AtlasRecord]:
    """Each record joins the fields of its word's two halves."""
    sandwiches = {}  # one string per pattern, shared by its records
    for (ta, ca, sa, la, threes_a, twos_a), rights in _halves(r):
        for tb, cb, sb, lb, threes_b, twos_b in rights:
            sandwich = sa + sb
            # _lowered on the whole text: every 3 lowered, then every 2 past the last 3,
            # which leaves out the left half's 2s when the right half holds a 3
            lowered = [t + tb for t in threes_a]
            lowered += [ta + t for t in threes_b]
            if not threes_b:
                lowered += [t + tb for t in twos_a]
            lowered += [ta + t for t in twos_b]
            yield AtlasRecord(ta + tb, r, ca + cb, sandwiches.setdefault(sandwich, sandwich), la + lb, tuple(lowered))


def build_atlas(r: int) -> list[AtlasRecord]:
    """One record per singularity class of length r, lexicographically ordered."""
    return list(iter_atlas(r))


# one line formatter per format, for the emitters below and the streaming CLI;
# no field holds a quote, comma or newline, so none is escaped
def _json_list(texts: tuple[str, ...]) -> str:
    return '["' + '", "'.join(texts) + '"]' if texts else "[]"


def _json_field_list(texts: tuple[str, ...]) -> str:
    """A record field's list as json.dumps(..., indent=2) writes it inside the array."""
    return '[\n      "' + '",\n      "'.join(texts) + '"\n    ]' if texts else "[]"


def _json_lines(records: Iterable[AtlasRecord]) -> Iterator[str]:
    """The text of json.dumps([rec.to_json() ...], indent=2), a record at a time."""
    opening = "["
    for rec in records:
        yield (f'{opening}\n  {{\n    "word": "{rec.text}",\n    "length": {rec.length},\n'
               f'    "codimension": {rec.codimension},\n    "sandwich": "{rec.sandwich}",\n'
               f'    "locus": {_json_field_list(rec.locus)},\n    "adjacencies": {_json_field_list(rec.adjacencies)}\n  }}')
        opening = ","
    yield "\n]" if opening == "," else "[]"


def _jsonl_line(rec: AtlasRecord) -> str:
    return (f'{{"word": "{rec.text}", "length": {rec.length}, "codimension": {rec.codimension}, '
            f'"sandwich": "{rec.sandwich}", "locus": {_json_list(rec.locus)}, "adjacencies": {_json_list(rec.adjacencies)}}}\n')


def _csv_lines(records: Iterable[AtlasRecord]) -> Iterator[str]:
    yield "word,length,codimension,sandwich,locus,adjacencies\n"
    for rec in records:
        yield f"{rec.text},{rec.length},{rec.codimension},{rec.sandwich},{';'.join(rec.locus)},{';'.join(rec.adjacencies)}\n"


def _dot_lines(texts: Iterable[str], records: Iterable[AtlasRecord]) -> Iterator[str]:
    """A node line per text, then the edge lines of each record as one string."""
    yield "digraph adjacencies {\n"
    for text in texts:
        yield f'    "{text}";\n'
    for rec in records:
        if rec.adjacencies:
            source = f'    "{rec.text}" -> "'
            yield source + f'";\n{source}'.join(rec.adjacencies) + '";\n'
    yield "}\n"


def atlas_jsonl(records: list[AtlasRecord]) -> str:
    return "".join(map(_jsonl_line, records))


def atlas_csv(records: list[AtlasRecord]) -> str:
    return "".join(_csv_lines(records))


def adjacency_dot(records: list[AtlasRecord]) -> str:
    return "".join(_dot_lines((rec.text for rec in records), records))
