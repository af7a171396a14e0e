"""Search results: ranked hits plus timing/throughput accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.types import Traceback
from ..exceptions import PipelineError
from .gcups import gcups

__all__ = ["Hit", "SearchResult"]


@dataclass(frozen=True)
class Hit:
    """One database hit of a search."""

    index: int          # position in the (original-order) database
    header: str
    length: int
    score: int
    alignment: Traceback | None = None

    @property
    def accession(self) -> str:
        """First token of the FASTA header.

        Empty or whitespace-only headers (programmatically built
        databases can carry them) yield the stable placeholder
        ``"<unnamed>"`` rather than crashing report formatting.
        """
        parts = self.header.split()
        return parts[0] if parts else "<unnamed>"


@dataclass
class SearchResult:
    """Outcome of one query-vs-database search (Algorithm 1 step 4).

    ``hits`` is sorted by descending score (ties broken by database
    order, matching the deterministic sort the paper's step 4 implies).
    """

    query_name: str
    query_length: int
    database_name: str
    scores: np.ndarray          # all scores, original database order
    hits: list[Hit]             # ranked
    cells: int
    wall_seconds: float
    modeled_seconds: float | None = None
    #: Sequences the numpy kernel redid past its first rung: those whose
    #: exact score reached the first rung's clamp (116 at int8 for
    #: BLOSUM62 10/2).  Each rung has one fixed clamp, so lane width, chunk
    #: size and lane neighbours never change the count.
    saturated_recomputed: int = 0
    corrupted_redone: int = 0  # groups recomputed after a checksum mismatch
    #: Trace provenance, set when the search ran under an active tracer:
    #: the root span's id and name, linking this outcome to the exported
    #: span tree (:mod:`repro.obs`).
    trace: dict | None = None

    def __post_init__(self) -> None:
        if self.cells < 0:
            raise PipelineError("cell count cannot be negative")
        for a, b in zip(self.hits, self.hits[1:]):
            if b.score > a.score:
                raise PipelineError("hits must be sorted by descending score")

    @property
    def wall_gcups(self) -> float:
        """Throughput of this Python run (for pytest-benchmark tracking)."""
        return gcups(self.cells, self.wall_seconds)

    @property
    def gcups(self) -> float:
        """Headline throughput (:class:`~repro.search.SearchOutcome`).

        For this real-compute result that is the wall-clock GCUPS.
        """
        return self.wall_gcups

    @property
    def provenance(self) -> dict:
        """Identifying fields (:class:`~repro.search.SearchOutcome`)."""
        prov = {
            "kind": "search",
            "query_name": self.query_name,
            "query_length": self.query_length,
            "database_name": self.database_name,
            "sequences": len(self.scores),
        }
        if self.trace is not None:
            prov["trace"] = dict(self.trace)
        return prov

    @property
    def modeled_gcups(self) -> float | None:
        """Modelled device throughput, when a device model was attached."""
        if self.modeled_seconds is None:
            return None
        return gcups(self.cells, self.modeled_seconds)

    def top(self, k: int = 10) -> list[Hit]:
        """The best ``k`` hits."""
        if k < 0:
            raise PipelineError(f"k must be non-negative, got {k}")
        return self.hits[:k]

    def best_score(self) -> int:
        """Highest alignment score found (0 for an empty database)."""
        return int(self.scores.max()) if self.scores.size else 0

    def to_tsv(self, *, stats=None) -> str:
        """Tabular hit report (BLAST outfmt-6 flavoured).

        Columns: query, subject accession, score, subject length, and —
        when alignments were computed — identity %, alignment length,
        and the aligned coordinate ranges.  With ``stats`` (a
        :class:`~repro.search.stats.GumbelFit`) two more columns carry
        bit score and E-value.  One line per ranked hit.
        """
        from .stats import bitscore, evalue

        db_residues = max(self.cells // max(self.query_length, 1), 1)
        lines = []
        for hit in self.hits:
            fields = [self.query_name, hit.accession, str(hit.score),
                      str(hit.length)]
            if hit.alignment is not None and hit.alignment.length:
                a = hit.alignment
                fields += [
                    f"{a.identity * 100:.1f}", str(a.length),
                    str(a.start_query), str(a.end_query),
                    str(a.start_db), str(a.end_db),
                ]
            if stats is not None:
                fields += [
                    f"{bitscore(hit.score, stats):.1f}",
                    f"{evalue(hit.score, self.query_length, db_residues, stats):.2e}",
                ]
            lines.append("\t".join(fields))
        return "\n".join(lines)

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        lines = [
            f"query {self.query_name} (len {self.query_length}) vs "
            f"{self.database_name}: {len(self.scores)} sequences, "
            f"{self.cells / 1e9:.3f} Gcells in {self.wall_seconds:.3f}s "
            f"({self.wall_gcups:.4f} GCUPS wall"
            + (
                f", {self.modeled_gcups:.1f} GCUPS modelled"
                if self.modeled_seconds is not None
                else ""
            )
            + ")"
        ]
        for rank, hit in enumerate(self.top(10), start=1):
            lines.append(
                f"  #{rank:<2d} score {hit.score:>6d}  {hit.accession} "
                f"(len {hit.length})"
            )
        return "\n".join(lines)
