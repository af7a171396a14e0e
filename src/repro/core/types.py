"""Result and accounting types shared by all alignment engines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AlignmentResult", "BatchResult", "Traceback", "CellCounter"]


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one local alignment.

    Attributes
    ----------
    score:
        The optimal local alignment score ``G`` (Eq. 6); never negative.
    end_query, end_db:
        1-based coordinates of the highest-scoring cell — the *tail* of
        the optimal local alignment (``0`` means "empty alignment").
    cells:
        Number of DP cells evaluated (``|query| * |db|``); the quantity
        GCUPS is normalised by.
    """

    score: int
    end_query: int = 0
    end_db: int = 0
    cells: int = 0

    def __post_init__(self) -> None:
        if self.score < 0:
            raise ValueError(f"local alignment score cannot be negative: {self.score}")


@dataclass(frozen=True)
class Traceback:
    """A fully materialised optimal local alignment.

    ``aligned_query``/``aligned_db`` are equal-length strings with ``-``
    at gap positions; the alignment spans query positions
    ``[start_query, end_query]`` and database positions
    ``[start_db, end_db]`` (1-based, inclusive).
    """

    score: int
    aligned_query: str
    aligned_db: str
    start_query: int
    end_query: int
    start_db: int
    end_db: int

    def __post_init__(self) -> None:
        if len(self.aligned_query) != len(self.aligned_db):
            raise ValueError("aligned strings must have equal length")

    @property
    def length(self) -> int:
        """Number of alignment columns (matches + mismatches + gaps)."""
        return len(self.aligned_query)

    @property
    def identity(self) -> float:
        """Fraction of columns with identical residues (0 for empty)."""
        if not self.aligned_query:
            return 0.0
        same = sum(
            a == b and a != "-"
            for a, b in zip(self.aligned_query, self.aligned_db)
        )
        return same / self.length

    @property
    def gaps(self) -> int:
        """Total number of gap columns in either row."""
        return self.aligned_query.count("-") + self.aligned_db.count("-")

    def cigar(self) -> str:
        """CIGAR string of the alignment (M/I/D run-length encoded).

        ``I`` is an insertion to the query (gap in the database row),
        ``D`` a deletion from the query (gap in the query row).
        """
        ops: list[str] = []
        for a, b in zip(self.aligned_query, self.aligned_db):
            if a == "-":
                ops.append("D")
            elif b == "-":
                ops.append("I")
            else:
                ops.append("M")
        out: list[str] = []
        i = 0
        while i < len(ops):
            j = i
            while j < len(ops) and ops[j] == ops[i]:
                j += 1
            out.append(f"{j - i}{ops[i]}")
            i = j
        return "".join(out)

    def pretty(self, width: int = 60) -> str:
        """Multi-line BLAST-style rendering of the alignment."""
        lines: list[str] = [
            f"score={self.score} identity={self.identity:.1%} "
            f"query[{self.start_query}-{self.end_query}] "
            f"db[{self.start_db}-{self.end_db}]"
        ]
        for off in range(0, self.length, width):
            qa = self.aligned_query[off : off + width]
            da = self.aligned_db[off : off + width]
            mid = "".join(
                "|" if a == b and a != "-" else ("." if a != "-" and b != "-" else " ")
                for a, b in zip(qa, da)
            )
            lines.extend((f"Q {qa}", f"  {mid}", f"D {da}", ""))
        return "\n".join(lines).rstrip()


@dataclass
class BatchResult:
    """Scores for a batch of database sequences against one query.

    Attributes
    ----------
    scores:
        ``int64`` array, one optimal score per database sequence, in the
        order the sequences were supplied.
    cells:
        Total DP cells evaluated across the batch.
    saturated:
        Indices of sequences whose narrow-integer computation saturated
        and were recomputed wider (empty when running in wide integers).
    """

    scores: np.ndarray
    cells: int
    saturated: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.scores.shape[0])


@dataclass
class CellCounter:
    """Mutable accumulator for DP-cell accounting (feeds GCUPS).

    Engines add to this as they run so drivers can report the exact cell
    count regardless of padding/blocking internals: padded lanes are NOT
    counted — only real query x database cells, matching how the paper
    (and the GCUPS convention generally) normalises throughput.
    """

    cells: int = 0
    alignments: int = 0

    def add(self, query_len: int, db_len: int) -> None:
        """Record one alignment of the given dimensions."""
        if query_len <= 0 or db_len <= 0:
            raise ValueError("alignment dimensions must be positive")
        self.cells += query_len * db_len
        self.alignments += 1

    def merge(self, other: "CellCounter") -> None:
        """Fold another counter's totals into this one."""
        self.cells += other.cells
        self.alignments += other.alignments

    def reset(self) -> None:
        """Zero the accumulator."""
        self.cells = 0
        self.alignments = 0
