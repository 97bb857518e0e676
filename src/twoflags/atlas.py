"""Enumeration and combinatorics of singularity classes: counting,
codimension, guaranteed adjacencies, and stratification reports in
JSON-lines, CSV and DOT form.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .classify import singularity_locus_equations
from .ekr import Word
from .errors import ChartMismatch

# longest word enumerate_words lists: build_atlas(12) with the jsonl, csv and
# dot emitters peaks near 251 MB, `atlas --length 13 --format csv` takes 7 s
# at 405 MB on 2 cores, and every further letter triples both
MAX_LENGTH = 13
# largest length * min(width + 1, length) count_classes takes: about that many
# big-integer steps, each on numbers that grow with the length, so the
# narrowest table is the slowest; width 2 at length 100000 takes 1.5 s on
# 2 cores (width 5 at 50000, and width 546 at 547, take 1.0 s and 0.05 s)
MAX_COUNT_STEPS = 300_000


def enumerate_words(r: int) -> list[Word]:
    """All valid words of length r, in lexicographic order."""
    if r < 1:
        raise ChartMismatch(f"length must be >= 1, got {r}")
    if r > MAX_LENGTH:
        raise ChartMismatch(f"length must be <= {MAX_LENGTH}, got {r}")
    words: list[Word] = []

    def extend(prefix: list[int], running_max: int) -> None:
        if len(prefix) == r:
            words.append(Word(tuple(prefix)))
            return
        for letter in range(1, min(running_max + 1, 3) + 1):
            prefix.append(letter)
            extend(prefix, max(running_max, letter))
            prefix.pop()

    extend([1], 1)
    return words


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
    """Number of letters 2 plus twice the number of letters 3."""
    letters = word.letters
    return letters.count(2) + 2 * letters.count(3)


def _lowerable(letters: tuple[int, ...]) -> list[int]:
    """The 0-based positions a guaranteed adjacency lowers: every 3, and
    every 2 past the last 3."""
    last_three = len(letters) - 1 - letters[::-1].index(3) if 3 in letters else 0
    return [pos for pos, letter in enumerate(letters) if letter == 3 or (letter == 2 and pos > last_three)]


def adjacencies(word: Word) -> list[Word]:
    """The guaranteed adjacency set: words obtained by lowering one letter.

    Lowering j_l -> j_l - 1 is guaranteed when j_l = 3, or when j_l = 2
    and no letter 3 occurs past position l.  The full adjacency question
    is open; only these edges are emitted.
    """
    letters = word.letters
    return [Word(letters[:pos] + (letters[pos] - 1,) + letters[pos + 1 :]) for pos in _lowerable(letters)]


def sandwich_collapse(word: Word) -> str:
    """The sandwich pattern of a word: every letter above 1 collapses to 2."""
    return str(word).replace("3", "2")


@dataclass(frozen=True)
class AtlasRecord:
    word: Word
    length: int
    codimension: int
    sandwich: str
    locus: tuple[str, ...]
    adjacencies: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "word": str(self.word),
            "length": self.length,
            "codimension": self.codimension,
            "sandwich": self.sandwich,
            "locus": list(self.locus),
            "adjacencies": list(self.adjacencies),
        }


def build_atlas(r: int) -> list[AtlasRecord]:
    """One record per singularity class of length r, lexicographically ordered."""
    records = []
    # what each position adds to a locus, by its letter 1, 2 or 3: the
    # equations singularity_locus_equations writes, formatted once per length
    equations = [((), (f"x{pos}=0",), (f"x{pos}=0", f"y{pos}=0")) for pos in range(1, r + 1)]
    for word in enumerate_words(r):
        letters = word.letters
        text = str(word)
        locus = sum([added[letter - 1] for added, letter in zip(equations, letters)], ())
        codim = codimension(word)
        assert len(locus) == codim
        records.append(
            AtlasRecord(
                word=word,
                length=r,
                codimension=codim,
                sandwich=text.replace("3", "2"),  # sandwich_collapse on the formatted text
                locus=locus,
                # letters are single digits, so letter pos sits at text[2 * pos]
                adjacencies=tuple(
                    text[: 2 * pos] + str(letters[pos] - 1) + text[2 * pos + 1 :] for pos in _lowerable(letters)
                ),
            )
        )
    return records


def atlas_json(records: list[AtlasRecord]) -> str:
    return json.dumps([rec.to_json() for rec in records], indent=2)


def atlas_jsonl(records: list[AtlasRecord]) -> str:
    return "\n".join(json.dumps(rec.to_json()) for rec in records) + "\n"


def atlas_csv(records: list[AtlasRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["word", "length", "codimension", "sandwich", "locus", "adjacencies"])
    for rec in records:
        writer.writerow(
            [
                str(rec.word),
                rec.length,
                rec.codimension,
                rec.sandwich,
                ";".join(rec.locus),
                ";".join(rec.adjacencies),
            ]
        )
    return buffer.getvalue()


def adjacency_dot(records: list[AtlasRecord]) -> str:
    lines = ["digraph adjacencies {"]
    for rec in records:
        lines.append(f'    "{rec.word}";')
    for rec in records:
        name = str(rec.word)
        lines.extend(f'    "{name}" -> "{target}";' for target in rec.adjacencies)
    lines.append("}")
    return "\n".join(lines) + "\n"
