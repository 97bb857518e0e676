"""Command-line behaviour: outputs, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoflags.atlas import count_classes
from twoflags.cli import main
from twoflags.ekr import MODEL_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_model_ex2(capsys):
    code, out, _ = run(capsys, "classify", "--model", "ex_2")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "1.2"


def test_classify_word_with_constants(capsys):
    code, out, _ = run(capsys, "classify", "--word", "1.2.1.3", "--c", "3=1", "--b", "3=1")
    assert code == 0
    assert json.loads(out)["word"] == "1.2.1.3"


def test_classify_at_point_off_hypersurface(capsys):
    code, out, _ = run(capsys, "classify", "--word", "1.2", "--point", "0,0,0,0,0,1,0")
    assert code == 0
    assert json.loads(out)["word"] == "1.1"


def test_classify_generic_geometry(capsys):
    code, out, _ = run(capsys, "classify", "--model", "ex_2", "--generic-geometry")
    assert code == 0
    assert json.loads(out)["word"] == "1.2"


def test_classify_constants_file(tmp_path, capsys):
    constants = tmp_path / "constants.json"
    constants.write_text('{"b": {"3": "1/2"}, "c": {"3": "-2", "4": "5"}}')
    code, out, _ = run(capsys, "classify", "--word", "1.2.1.2", "--constants", str(constants))
    assert code == 0
    assert json.loads(out)["word"] == "1.2.1.2"


def test_classify_invalid_word_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--word", "1.1.3")
    assert code == 2
    assert "3" in err


def test_classify_non_admitted_constant_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--word", "1.2", "--b", "2=1")
    assert code == 2
    assert "admits no b" in err


def test_classify_bad_point_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--word", "1.2", "--point", "1,2")
    assert code == 2


def test_classify_degenerate_model_exits_3(capsys):
    # the corank-2 model is not a rank-3 flag, so its big flag fails
    code, _, err = run(capsys, "classify", "--model", "bcd")
    assert code == 3
    assert "special 2-flag" in err


def test_verify_length_two(capsys):
    code, out, _ = run(capsys, "verify", "--length", "2", "--trials", "2", "--seed", "5")
    assert code == 0
    assert "2 words" in out and "0 failures" in out


def test_verify_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--length", "3", "--trials", "2", "--seed", "9", "--zero-constants")
    _, second, _ = run(capsys, "verify", "--length", "3", "--trials", "2", "--seed", "9", "--zero-constants")
    assert first == second
    _, third, _ = run(capsys, "verify", "--length", "3", "--trials", "2", "--seed", "10", "--zero-constants")
    assert first != third or "0 failures" in third  # different draws, same verdict


def test_classify_appendix_models_with_constants(capsys):
    code, out, _ = run(
        capsys, "classify", "--model", "appxB_D", "--b", "3=1/2", "--c", "3=-2", "--c", "4=5/3"
    )
    assert code == 0 and json.loads(out)["word"] == "1.2.1.2"
    code, out, _ = run(capsys, "classify", "--model", "appxB_E", "--b", "3=1/2", "--c", "3=-2")
    assert code == 0 and json.loads(out)["word"] == "1.2.1.3"


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "verify.txt"
    code, out, _ = run(
        capsys, "verify", "--length", "2", "--trials", "1", "--seed", "3", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert "0 failures" in target.read_text()


def test_count_table_values(capsys):
    code, out, _ = run(capsys, "count", "--width", "2", "--length", "7")
    assert code == 0 and out.strip() == "365"
    code, out, _ = run(capsys, "count", "--width", "6", "--length", "7")
    assert code == 0 and out.strip() == "877"


def test_count_prints_more_digits_than_int_to_str_allows(capsys):
    code, out, _ = run(capsys, "count", "--length", "10000")
    digits = out.strip()
    assert code == 0 and digits.isdigit() and len(digits) == 4771
    assert int(digits[-9:]) == count_classes(2, 10000) % 10**9


def test_module_entry_point_runs_the_cli(capsys):
    argv = ["count", "--width", "2", "--length", "3"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "twoflags", *argv], env=env, capture_output=True, text=True, timeout=60)
    code, out, _ = run(capsys, *argv)
    assert (done.returncode, done.stdout) == (code, out) == (0, "5\n")


def test_atlas_csv_row_count(capsys):
    code, out, _ = run(capsys, "atlas", "--length", "4", "--format", "csv")
    assert code == 0
    assert len(out.strip().split("\n")) == 15  # header + 14 records


def test_atlas_to_file(tmp_path, capsys):
    target = tmp_path / "atlas.jsonl"
    code, out, _ = run(capsys, "atlas", "--length", "2", "--format", "jsonl", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().strip().split("\n")
    assert [json.loads(line)["word"] for line in lines] == ["1.1", "1.2"]


def test_atlas_dot(capsys):
    code, out, _ = run(capsys, "atlas", "--length", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and '"1.2.3" -> "1.2.2";' in out


def test_locus_command(capsys):
    code, out, _ = run(capsys, "locus", "--word", "1.2.1.3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "word": "1.2.1.3",
        "codimension": 3,
        "equations": ["x2=0", "x4=0", "y4=0"],
    }


# each bad input, and the start of its one-line message; an argument after
# --constants is the text of the constants file
BAD_INPUTS = [
    (("classify", "--model", "appxB_E", "--c", "4=5"), "operation 3 at step 4 admits no c constant"),
    (("classify", "--model", "ex_2", "--b", "1=2"), "model ex_2 admits no b1 constant"),
    (("classify", "--model", "bcd", "--b", "1=2"), "model bcd admits no constants"),
    (("classify", "--word", "1.2", "--constants", '{"d": {}}'), "unknown keys in spec: ['d']"),
    (("classify", "--model", "ca_2", "--constants", '{"d": {}}'), "unknown keys in spec: ['d']"),
    (("classify", "--word", "1.2", "--constants", '{"word": "1.1"}'), "constants file holds"),
    (("classify", "--word", "1.2", "--constants", '{"b": ["1"]}'), "constants file holds"),
    (("classify", "--word", "1.2", "--constants", '{"word": {}}'), "constants file holds"),
    (("classify", "--word", "1.2", "--constants", ""), "constants.json: Expecting value"),
    (("classify", "--word", "1.2", "--constants", '{"b": {"\u0661": "1"}}'), "bad step"),
    (("classify", "--word", "1.2.1.3", "--cap", "0"), "--cap must be >= 1, got 0"),
    (("verify", "--length", "2", "--cap", "-5"), "--cap must be >= 1, got -5"),
    (("classify", "--word", "1.02"), "bad segment '02'"),
    (("classify", "--word", "1.\u0662"), "bad segment"),
    (("classify", "--word", "1.2", "--b", "1=\u0663/4"), "--b at step 1: not a rational literal"),
    (("classify", "--word", "1.2", "--b", "1=x"), "--b at step 1: not a rational literal: 'x'"),
    (("classify", "--model", "appxB_D", "--c", "4=nan"), "--c at step 4: not a rational literal: 'nan'"),
    (("classify", "--word", "1.2", "--constants", '{"b": {"1": NaN}}'), "constants.json: b constant at step 1: not a rational literal: 'NaN'"),
    (("classify", "--word", "1.2", "--constants", '{"c": {"2": 0.5}}'), "constants.json: c constant at step 2: not a rational literal: '0.5'"),
    (("classify", "--word", "1.2", "--c", "1=2", "--c", "1=3"), "repeated c constant at step 1"),
    (("classify", "--word", "1.2", "--constants", '{"c": {"1": "2", "1": "5"}}'), "repeated c constant at step 1"),
    (("verify", "--length", "2", "--trials", "-1"), "--trials must be >= 0, got -1"),
    (("verify", "--length", "2", "--trials", "0"), "verify made no classification"),
    (("classify", "--word", "1.2", "--point", ""), "--point coordinate 1: not a rational literal: ''"),
    (("classify", "--word", "1.2", "--point", "0,0,0,0,x,0,0"), "--point coordinate 5: not a rational literal: 'x'"),
    (("atlas", "--length", "1200"), "--length must be <= 13, got 1200"),
    (("atlas", "--length", "14"), "--length must be <= 13, got 14"),
    (("verify", "--length", "1200"), "--length must be <= 13, got 1200"),
    (("count", "--length", "100001"), "length * min(width + 1, length) must be <= 300000, got 300003"),
    (("count", "--width", "1000", "--length", "1000"), "must be <= 300000, got 1000000"),
    # integer options take ASCII -?[0-9]+ only; argparse rejects anything else
    (("count", "--length", "\u0663"), "argument --length: expected an integer, got '\u0663'"),
    (("count", "--length", " 3 "), "argument --length: expected an integer, got ' 3 '"),
    (("count", "--length", "3_0"), "argument --length: expected an integer, got '3_0'"),
    (("count", "--width", "\uff12", "--length", "3"), "argument --width: expected an integer"),
    (("atlas", "--length", "+3"), "argument --length: expected an integer, got '+3'"),
    (("classify", "--word", "1.2", "--cap", "\u0663"), "argument --cap: expected an integer"),
    (("verify", "--length", "2", "--trials", "1_0"), "argument --trials: expected an integer"),
    (("verify", "--length", "2", "--seed", "5\n"), "argument --seed: expected an integer"),
]
# atlas streams its lines, so each format must fail before its first line; an
# argument after --out is a name under a fresh directory
for fmt in ("json", "jsonl", "csv", "dot"):
    BAD_INPUTS += [
        (("atlas", "--length", "0", "--format", fmt), "length must be >= 1, got 0"),
        (("atlas", "--length", "3", "--format", fmt, "--out", "."), "Is a directory"),
        (("atlas", "--length", "3", "--format", fmt, "--out", "missing/atlas.txt"), "No such file or directory"),
    ]


@pytest.mark.parametrize("argv, message", BAD_INPUTS, ids=[" ".join(case[0]) for case in BAD_INPUTS])
def test_bad_input_exits_2_with_one_error_line(argv, message, tmp_path, capsys):
    argv = list(argv)
    if "--constants" in argv:
        at = argv.index("--constants") + 1
        constants = tmp_path / "constants.json"
        constants.write_text(argv[at])
        argv[at] = str(constants)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit as exc:  # argparse rejected a value: its usage, then its one error line
        code, (out, err) = exc.code, capsys.readouterr()
        usage, _, err = err.partition(f"twoflags {argv[0]}: ")
        assert usage.startswith(f"usage: twoflags {argv[0]} ")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


LONG = "1" + "0" * 5000
# a literal of more digits than int() converts, in each input that takes one:
# the message names the input and the bound, not sys.set_int_max_str_digits()
LONG_LITERALS = [
    (("classify", "--word", "1.2", "--b", f"1={LONG}"), "--b at step 1: "),
    (("classify", "--word", "1.2", "--c", f"2=-3/{LONG}"), "--c at step 2: "),
    (("classify", "--word", "1.2", "--point", f"0,0,0,0,{LONG},0,0"), "--point coordinate 5: "),
    (("classify", "--word", "1.2", "--constants", f'{{"b": {{"1": {LONG}}}}}'), "constants.json: b constant at step 1: "),
    (("classify", "--word", "1.2", "--constants", f'{{"c": {{"1": "{LONG}/7"}}}}'), "constants.json: c constant at step 1: "),
    (("classify", "--word", "1.2", "--b", f"{LONG}=1"), "bad step in the b constants: "),
    (("classify", "--word", f"1.{LONG}"), "bad segment in word: "),
    (("classify", "--word", "1.2", "--cap", LONG), "error: argument --cap: "),
    (("verify", "--length", "3", "--trials", LONG), "error: argument --trials: "),
    (("verify", "--length", "3", "--seed", LONG), "error: argument --seed: "),
    (("count", "--width", LONG, "--length", "3"), "error: argument --width: "),
    (("count", "--length", LONG), "error: argument --length: "),
]


@pytest.mark.parametrize(
    "argv, source",
    LONG_LITERALS,
    ids=["b", "c", "point", "file-number", "file-text", "step", "word", "cap", "trials", "seed", "width", "length"],
)
def test_a_literal_over_the_digit_bound_names_its_input_and_the_bound(argv, source, tmp_path, capsys):
    argv = list(argv)
    if "--constants" in argv:
        at = argv.index("--constants") + 1
        constants = tmp_path / "constants.json"
        constants.write_text(argv[at])
        argv[at] = str(constants)
    try:
        code, out, err = run(capsys, *argv)
    except SystemExit as exc:  # argparse rejected an integer option: its usage, then its one error line
        code, (out, err) = exc.code, capsys.readouterr()
        usage, _, err = err.partition(f"twoflags {argv[0]}: ")
        assert usage.startswith(f"usage: twoflags {argv[0]} ")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and source in err
    assert f"literal of 5001 digits, over the bound of {sys.get_int_max_str_digits()} digits" in err
    assert "set_int_max_str_digits" not in err and len(err) < 200


def test_atlas_with_a_bad_length_writes_no_file(tmp_path, capsys):
    for fmt in ("json", "jsonl", "csv", "dot"):
        target = tmp_path / f"atlas.{fmt}"
        code, out, err = run(capsys, "atlas", "--length", "0", "--format", fmt, "--out", str(target))
        assert (code, out, err.count("\n")) == (2, "", 1) and not target.exists()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])  # neither --word nor --model
    assert exc.value.code == 2


# near misses of valid input: each strategy mixes valid text with malformed text
NUMBERS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(
        ["", "01", "+2", " 1", "1.5", "1e3", "x", "--1", "\u0663", "99999999999999999999",
         "1_0", " 3 ", "2\n", "\uff13", "-0", "\u0660\u0661", LONG]
    ),
)
RATIONALS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str),
    NUMBERS,
    st.sampled_from(["1/0", "-0/3", "1/-2", "/2", "1//2", "0.5", "1/2/3", "nan", "NaN", "-inf", f"1/{LONG}"]),
)
STEPS = st.one_of(st.tuples(NUMBERS, RATIONALS).map("=".join), RATIONALS)
LETTERS = st.sampled_from(["1", "2", "3", "0", "4", "01", "", "a", " 2", "\u0662"])


def words(max_letters: int):
    """Words that start with 1 and mostly use the letters 1-3, or any letters."""
    valid = st.lists(st.sampled_from("1123"), max_size=max_letters - 1).map(lambda tail: ".".join(["1", *tail]))
    return st.one_of(valid, st.lists(LETTERS, max_size=max_letters).map(".".join))


def optional(flag: str, values):
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


@st.composite
def classify_argv(draw) -> list[str]:
    word = draw(words(6))
    if draw(st.booleans()):
        argv = ["classify", "--word", word]
    else:
        argv = ["classify", "--model", draw(st.sampled_from(MODEL_NAMES + ("ex_3",)))]
    for kind in ("--b", "--c"):
        for step in draw(st.lists(STEPS, max_size=1)):
            argv += [kind, step]
    argv += draw(optional("--point", st.lists(RATIONALS, max_size=9).map(",".join)))
    argv += draw(optional("--cap", NUMBERS))
    # the generic route only on words of at most 3 letters, to keep each run short
    if argv[1] == "--word" and word.count(".") < 3 and draw(st.booleans()):
        argv.append("--generic-geometry")
    return argv


@st.composite
def verify_argv(draw) -> list[str]:
    argv = ["verify", "--length", draw(st.sampled_from(["-1", "0", "1", "2", "3", "x", "", "14", "1200", "\u0663", "0_1"]))]
    argv += draw(optional("--trials", st.sampled_from(["-1", "0", "1", "2", "x"])))
    argv += draw(optional("--seed", NUMBERS))
    argv += draw(optional("--cap", NUMBERS))
    argv += draw(st.sampled_from([[], ["--zero-constants"]]))
    argv += draw(st.sampled_from([[], ["--generic-geometry"]]))
    return argv


# --constants files that must be refused with exit 2: not JSON ("\udcff" is the
# byte 0xff, written through surrogateescape), not an object of objects, a
# word, a repeated key, a bad step, a float and non-ASCII digits
BAD_CONSTANTS = st.sampled_from([
    "", "{", "b=1", "{'b': {}}", "\udcff",
    "[]", '["b"]', "1", '"b"', "null",
    '{"word": "1.2"}', '{"word": "1.2", "b": {}}',
    '{"b": 1}', '{"b": ["1"]}', '{"c": "1=2"}', '{"b": null}',
    '{"b": {}, "b": {}}', '{"c": {"1": "2", "1": "5"}}', '{"b": {"1": "1"}, "c": {}, "b": {"1": "1"}}',
    '{"b": {"x": "1"}}', '{"b": {"": "1"}}', '{"b": {" 1": "1"}}', '{"c": {"01": "1"}}', '{"c": {"1=2": "1"}}',
    '{"b": {"1": 0.5}}', '{"c": {"1": 1.0}}', '{"b": {"1": 1e400}}', '{"b": {"1": NaN}}', '{"c": {"1": -Infinity}}',
    f'{{"b": {{"1": {LONG}}}}}', f'{{"c": {{"1": -{LONG}}}}}', f'{{"b": {{"1": "{LONG}"}}}}', f'{{"c": {{"1": "1/{LONG}"}}}}',
    '{"b": {"\u0661": "1"}}', '{"b": {"1": "\u0663"}}', '{"c": {"1": "1/\u0662"}}', '{"c": {"\uff11": "1"}}',
])


@st.composite
def malformed_constants_argv(draw) -> list[str]:
    argv = draw(classify_argv())
    return [*argv[:3], "--constants", draw(BAD_CONSTANTS), *argv[3:]]


# an --out value names a path under a fresh directory: the directory itself, a
# file in a missing directory, or a new file
OUT = optional("--out", st.sampled_from([".", "", "missing/out.txt", "out.txt"]))
COMMANDS = st.one_of(
    classify_argv(),
    malformed_constants_argv(),
    verify_argv(),
    st.tuples(NUMBERS, optional("--width", NUMBERS), OUT).map(lambda case: ["count", "--length", case[0], *case[1], *case[2]]),
    st.tuples(words(8), OUT).map(lambda case: ["locus", "--word", case[0], *case[1]]),
    st.tuples(
        st.sampled_from(["-1", "0", "1", "2", "3", "x", "14", "\u0663"]),
        optional("--format", st.sampled_from(["json", "jsonl", "csv", "dot", "xml"])),
        OUT,
    ).map(lambda case: ["atlas", "--length", case[0], *case[1], *case[2]]),
)


@settings(max_examples=150, deadline=None)
@given(COMMANDS)
def test_malformed_arguments_exit_0_to_3_with_at_most_one_error_line(argv):
    # main runs in-process, so an exception it lets through fails the test
    out, err = io.StringIO(), io.StringIO()
    malformed = "--constants" in argv
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        if malformed:
            at = argv.index("--constants") + 1
            path = os.path.join(tmp, "constants.json")
            with open(path, "wb") as handle:
                handle.write(argv[at].encode("utf-8", "surrogateescape"))
            argv = [*argv[:at], path, *argv[at + 1 :]]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv = [*argv[:at], os.path.join(tmp, argv[at]), *argv[at + 1 :]]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    errors = err.getvalue()
    assert code in ((2,) if malformed else (0, 1, 2, 3)), (argv, errors)
    assert errors.count("error:") == (code in (2, 3)), (argv, errors)
    assert "Traceback" not in errors, (argv, errors)
    assert "set_int_max_str_digits" not in errors, (argv, errors)
    if code in (2, 3) or "--out" in argv:
        assert out.getvalue() == "", argv
