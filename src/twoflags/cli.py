"""Command-line front end.

Commands: classify, verify, atlas, count, locus.  All input and output is
exact rational text; identical seeds and arguments produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 usage or
validation error, 3 geometric degeneracy at the requested point or a
generator count over the cap.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from . import atlas as atlas_mod
from .classify import singularity_class_at
from .ekr import EkrBuild, EkrSpec, Word, _JsonObject, _admits_b, _admits_c, build_ekr, model, model_build, MODEL_NAMES
from .errors import (
    BadSyntax,
    DegeneratePivot,
    GeneratorBlowup,
    NotSpecialFlag,
    TwoflagsError,
)
from .exactalg import _decimal, parse_rational
from .geometry import DEFAULT_GENERATOR_CAP, Distribution


@dataclass(frozen=True)
class VerificationOutcome:
    word: Word
    spec: EkrSpec
    computed: Word

    @property
    def passed(self) -> bool:
        return self.computed == self.word


def draw_nonzero_rational(rng: random.Random) -> Fraction:
    """A random p/q with 1 <= |p|, q <= 10; never the degenerate value 0."""
    num = rng.randint(1, 10) * rng.choice((1, -1))
    den = rng.randint(1, 10)
    return Fraction(num, den)


def draw_constants(word: Word, rng: random.Random) -> EkrSpec:
    """Random nonzero values for every admitted constant of the word."""
    b = {}
    c = {}
    for step, letter in enumerate(word.letters, start=1):
        if _admits_b(letter):
            b[step] = draw_nonzero_rational(rng)
        if _admits_c(letter):
            c[step] = draw_nonzero_rational(rng)
    return EkrSpec(word, b, c)


def run_verification(
    length: int,
    trials: int,
    seed: int,
    zero_constants: bool,
    cap: int = DEFAULT_GENERATOR_CAP,
    generic: bool = False,
) -> list[VerificationOutcome]:
    """Classify every word of the given length at the origin, for the seeded
    random constant draws (plus the all-zero draw when requested), and
    compare against the word itself."""
    outcomes = []
    for word in atlas_mod.enumerate_words(length):
        specs = []
        if zero_constants:
            specs.append(EkrSpec(word))
        for trial in range(trials):
            rng = random.Random(f"{seed}|{word}|{trial}")
            specs.append(draw_constants(word, rng))
        for spec in specs:
            build = build_ekr(spec)
            report = singularity_class_at(build, build.chart.origin(), generic=generic, cap=cap)
            outcomes.append(VerificationOutcome(word=word, spec=spec, computed=report.word))
    return outcomes


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _integer(text: str) -> int:
    """An integer option's value: ASCII -?[0-9]+ only, since int() also takes
    other digits, spaces and underscores.  A value of more digits than int()
    converts names the count and the bound, not the value."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:
        return _decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational(text: str, source: str) -> Fraction:
    """A rational literal from the input named by ``source``, which a bad one names."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise BadSyntax(f"{source}: {exc}") from None


def _parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(part, f"--point coordinate {i}") for i, part in enumerate(text.split(","), start=1))


def _constants(args) -> dict:
    """The --constants file with the --b/--c flags laid over it, in the form
    of EkrSpec.from_json without the word; steps stay text.  Each value is
    parsed where its source is known, so a bad one names the file or the
    flag, the kind and the step.  A step given twice in the file, or twice by
    the flags, is an error."""
    data = {}
    if args.constants:
        with open(args.constants) as handle:
            try:
                # every number stays the text written: parse_rational takes
                # it, and names the bound of a literal with too many digits
                data = json.load(handle, object_pairs_hook=_JsonObject, parse_int=str, parse_float=str, parse_constant=str)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise BadSyntax(f"{args.constants}: {exc}") from None
        if not isinstance(data, dict) or "word" in data or not all(isinstance(v, dict) for v in data.values()):
            raise BadSyntax(f'{args.constants}: a constants file holds {{"b": {{...}}, "c": {{...}}}}')
        if data.repeated:
            raise BadSyntax(f"{args.constants}: repeated entry {data.repeated[0]!r}")
        for kind in ("b", "c"):
            values = data.get(kind, {})
            for step, value in values.items():
                values[step] = _rational(str(value), f"{args.constants}: {kind} constant at step {step}")
    for kind, pairs in (("b", args.b), ("c", args.c)):
        given = set()
        for pair in pairs or []:
            step, equals, value = pair.partition("=")
            if not equals:
                raise ValueError(f"expected l=value, got {pair!r}")
            if step in given:
                raise ValueError(f"repeated {kind} constant at step {step}")
            given.add(step)
            data.setdefault(kind, {})[step] = _rational(value, f"--{kind} at step {step}")
    return data


def _build_subject(args) -> EkrBuild | Distribution:
    """The object to classify: a pseudo-normal form or a raw model distribution."""
    constants = _constants(args)
    if args.word:
        return build_ekr(EkrSpec.from_json({"word": args.word, **constants}))
    return model_build(args.model, constants) or model(args.model, constants)


def _emit(lines: Iterable[str], out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _cmd_classify(args) -> int:
    subject = _build_subject(args)
    chart = subject.chart
    point = _parse_point(args.point) if args.point is not None else chart.origin()
    report = singularity_class_at(subject, point, generic=args.generic_geometry, cap=args.cap)
    _emit([report.to_json_text() + "\n"], args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    outcomes = run_verification(
        length=args.length,
        trials=args.trials,
        seed=args.seed,
        zero_constants=args.zero_constants,
        cap=args.cap,
        generic=args.generic_geometry,
    )
    if not outcomes:
        raise ValueError("verify made no classification: --trials is 0 and --zero-constants is not set")
    failures = [o for o in outcomes if not o.passed]
    lines = [f"FAIL word={o.word} constants={json.dumps(o.spec.to_json())} computed={o.computed}" for o in failures]
    words = len({o.word for o in outcomes})
    lines.append(f"verify length={args.length}: {words} words, {len(outcomes)} classifications, "
                 f"{len(failures)} failures (seed={args.seed})")
    _emit(["\n".join(lines) + "\n"], args.out)
    return 1 if failures else 0


def _cmd_atlas(args) -> int:
    atlas_mod._check_length(args.length)  # before the first line is written, so a bad length writes nothing
    if args.format == "dot":  # node lines from the record texts alone, edge lines from the records
        lines = atlas_mod._dot_lines(atlas_mod._texts(args.length), atlas_mod.iter_atlas(args.length))
    elif args.format == "json":
        lines = itertools.chain(atlas_mod._json_lines(atlas_mod.iter_atlas(args.length)), "\n")
    elif args.format == "jsonl":
        lines = map(atlas_mod._jsonl_line, atlas_mod.iter_atlas(args.length))
    else:
        lines = atlas_mod._csv_lines(atlas_mod.iter_atlas(args.length))
    _emit(lines, args.out)
    return 0


def _cmd_count(args) -> int:
    # Decimal prints an int of any size; str(int) stops at 4300 digits
    _emit([str(Decimal(atlas_mod.count_classes(args.width, args.length))) + "\n"], args.out)
    return 0


def _cmd_locus(args) -> int:
    word = Word.parse(args.word)
    payload = {
        "word": str(word),
        "codimension": atlas_mod.codimension(word),
        "equations": list(atlas_mod.singularity_locus_equations(word)),
    }
    _emit([json.dumps(payload) + "\n"], args.out)
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoflags",
        description="Build, classify and enumerate pseudo-normal forms of special 2-flags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="singularity class of a germ at a point")
    group = classify.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help="dot-separated word such as 1.2.1.3")
    group.add_argument("--model", choices=MODEL_NAMES, help="named model distribution")
    classify.add_argument("--constants", help="JSON file with b/c constants")
    classify.add_argument("--b", action="append", metavar="l=v", help="b constant, repeatable")
    classify.add_argument("--c", action="append", metavar="l=v", help="c constant, repeatable")
    classify.add_argument("--point", help="comma-separated rational coordinates (default origin)")
    classify.add_argument("--generic-geometry", action="store_true", help="recompute all geometry generically")
    classify.add_argument("--cap", type=_integer, default=DEFAULT_GENERATOR_CAP)
    classify.add_argument("--out", help="write output to a file instead of stdout")
    classify.set_defaults(func=_cmd_classify)

    verify = sub.add_parser("verify", help="sweep every word of a length and check the classifier")
    verify.add_argument("--length", type=_integer, required=True)
    verify.add_argument("--trials", type=_integer, default=3, help="random constant draws per word")
    verify.add_argument("--seed", type=_integer, default=0)
    verify.add_argument("--zero-constants", action="store_true", help="also run the all-zero draw")
    verify.add_argument("--generic-geometry", action="store_true")
    verify.add_argument("--cap", type=_integer, default=DEFAULT_GENERATOR_CAP)
    verify.add_argument("--out", help="write output to a file instead of stdout")
    verify.set_defaults(func=_cmd_verify)

    atlas_cmd = sub.add_parser("atlas", help="emit the stratification records of a length")
    atlas_cmd.add_argument("--length", type=_integer, required=True)
    atlas_cmd.add_argument("--format", choices=("json", "jsonl", "csv", "dot"), default="json")
    atlas_cmd.add_argument("--out", help="write output to a file instead of stdout")
    atlas_cmd.set_defaults(func=_cmd_atlas)

    count = sub.add_parser("count", help="number of singularity classes")
    count.add_argument("--width", type=_integer, default=2)
    count.add_argument("--length", type=_integer, required=True)
    count.add_argument("--out", help="write output to a file instead of stdout")
    count.set_defaults(func=_cmd_count)

    locus = sub.add_parser("locus", help="locus equations of a class in its own chart")
    locus.add_argument("--word", required=True)
    locus.add_argument("--out", help="write output to a file instead of stdout")
    locus.set_defaults(func=_cmd_locus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "cap", 1) < 1:
            raise ValueError(f"--cap must be >= 1, got {args.cap}")
        if args.command in ("atlas", "verify") and args.length > atlas_mod.MAX_LENGTH:
            raise ValueError(f"--length must be <= {atlas_mod.MAX_LENGTH}, got {args.length}")
        return args.func(args)
    except (NotSpecialFlag, DegeneratePivot, GeneratorBlowup) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TwoflagsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
