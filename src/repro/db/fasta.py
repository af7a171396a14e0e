"""Streaming FASTA reader/writer.

Step (1) of the paper's Algorithm 1 — "load query and database
sequences".  The reader is a generator so databases larger than memory
can be filtered/streamed; the writer wraps at a fixed column width and
round-trips exactly (a property the test suite checks with hypothesis).
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from ..exceptions import FastaError

__all__ = ["FastaRecord", "read_fasta", "parse_fasta_text", "write_fasta"]

#: Finds the first whitespace character at C speed; ``\s`` matches
#: exactly the characters for which ``str.isspace()`` is true.
_WHITESPACE = re.compile(r"\s").search


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA entry: ``>header`` line (without ``>``) plus sequence."""

    header: str
    sequence: str

    def __post_init__(self) -> None:
        if not self.header.strip():
            raise FastaError("FASTA record must have a non-empty header")
        if not self.sequence:
            raise FastaError(f"FASTA record {self.header!r} has an empty sequence")
        if _WHITESPACE(self.sequence):
            raise FastaError(
                f"FASTA record {self.header!r} contains whitespace in its sequence"
            )

    @property
    def accession(self) -> str:
        """First whitespace-delimited token of the header."""
        return self.header.split()[0]

    def __len__(self) -> int:
        return len(self.sequence)


def _records_from_lines(lines: Iterable[str]) -> Iterator[FastaRecord]:
    header: str | None = None
    chunks: list[str] = []
    saw_any = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                yield FastaRecord(header, "".join(chunks))
            header = line[1:].strip()
            if not header:
                raise FastaError(f"line {lineno}: empty FASTA header")
            chunks = []
            saw_any = True
        else:
            if header is None:
                raise FastaError(
                    f"line {lineno}: sequence data before any '>' header"
                )
            chunks.append(line.strip())
    if header is not None:
        yield FastaRecord(header, "".join(chunks))
    elif not saw_any:
        return


def read_fasta(path: str | Path) -> Iterator[FastaRecord]:
    """Stream records from a FASTA file.

    Raises
    ------
    FastaError
        On malformed input (data before a header, empty header/sequence).
    """
    with open(path, "r", encoding="utf-8") as fh:
        yield from _records_from_lines(fh)


def parse_fasta_text(text: str) -> list[FastaRecord]:
    """Parse FASTA records from an in-memory string."""
    return list(_records_from_lines(io.StringIO(text)))


def write_fasta(
    records: Iterable[FastaRecord],
    target: str | Path | TextIO,
    *,
    width: int = 60,
) -> int:
    """Write records to a path or file object; returns the record count.

    Sequences are wrapped at ``width`` columns (set ``width=0`` for
    single-line sequences).
    """
    if width < 0:
        raise FastaError(f"wrap width must be non-negative, got {width}")

    def _emit(fh: TextIO) -> int:
        count = 0
        for rec in records:
            fh.write(f">{rec.header}\n")
            if width == 0:
                fh.write(rec.sequence + "\n")
            else:
                for off in range(0, len(rec.sequence), width):
                    fh.write(rec.sequence[off : off + width] + "\n")
            count += 1
        return count

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            return _emit(fh)
    return _emit(target)
