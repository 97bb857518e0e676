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

# longest word enumerate_words lists: build_atlas(12) peaks near 364 MB and
# every further letter triples that
MAX_LENGTH = 13


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
    if m == 1:
        return 2 ** (r - 2) if r >= 2 else 1
    # the running maximum of a word never exceeds its length
    return _count_rule(r, min(m + 1, r))


def codimension(word: Word) -> int:
    """Number of letters 2 plus twice the number of letters 3."""
    return sum(1 for j in word.letters if j == 2) + 2 * sum(1 for j in word.letters if j == 3)


def adjacencies(word: Word) -> list[Word]:
    """The guaranteed adjacency set: words obtained by lowering one letter.

    Lowering j_l -> j_l - 1 is guaranteed when j_l = 3, or when j_l = 2
    and no letter 3 occurs past position l.  The full adjacency question
    is open; only these edges are emitted.
    """
    out = []
    letters = word.letters
    for pos in range(1, len(letters)):
        letter = letters[pos]
        if letter == 1:
            continue
        if letter == 2 and any(later == 3 for later in letters[pos + 1 :]):
            continue
        lowered = letters[:pos] + (letter - 1,) + letters[pos + 1 :]
        out.append(Word(lowered))
    return out


def sandwich_collapse(word: Word) -> str:
    """The sandwich pattern of a word: every letter above 1 collapses to 2."""
    return ".".join(str(min(letter, 2)) for letter in word.letters)


@dataclass(frozen=True)
class AtlasRecord:
    word: Word
    length: int
    codimension: int
    sandwich: str
    locus: tuple[str, ...]
    adjacencies: tuple[Word, ...]

    def to_json(self) -> dict:
        return {
            "word": str(self.word),
            "length": self.length,
            "codimension": self.codimension,
            "sandwich": self.sandwich,
            "locus": list(self.locus),
            "adjacencies": [str(w) for w in self.adjacencies],
        }


def build_atlas(r: int) -> list[AtlasRecord]:
    """One record per singularity class of length r, lexicographically ordered."""
    records = []
    for word in enumerate_words(r):
        locus = singularity_locus_equations(word)
        codim = codimension(word)
        assert len(locus) == codim
        records.append(
            AtlasRecord(
                word=word,
                length=r,
                codimension=codim,
                sandwich=sandwich_collapse(word),
                locus=locus,
                adjacencies=tuple(adjacencies(word)),
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
                ";".join(str(w) for w in rec.adjacencies),
            ]
        )
    return buffer.getvalue()


def adjacency_dot(records: list[AtlasRecord]) -> str:
    lines = ["digraph adjacencies {"]
    for rec in records:
        lines.append(f'    "{rec.word}";')
    for rec in records:
        for target in rec.adjacencies:
            lines.append(f'    "{rec.word}" -> "{target}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
