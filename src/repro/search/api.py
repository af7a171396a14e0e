"""The unified search API: options, requests, and the outcome protocol.

Three entrypoints grew out of the paper's algorithms —``SearchPipeline``
(Algorithm 1), ``StreamingSearch`` (out-of-core Algorithm 1) and
``HybridSearchPipeline`` (Algorithm 2) — and each accreted its own
overlapping keyword surface.  This module is the single vocabulary they
all share:

* :class:`SearchOptions` — every search-semantic knob (scoring scheme,
  lane width, kernel, fault injector, ...) in one frozen dataclass.
  All three entrypoints accept it as their ``options`` argument — the
  *only* spelling of search semantics, because the wire schema of
  :mod:`repro.serve` requires exactly one spelling of every option.
  A deadline is not an option: every search method takes it per call.
* :class:`SearchRequest` — one query of a batch, as consumed by
  :class:`repro.service.SearchService`.
* :class:`SearchOutcome` — the structural protocol every result type
  satisfies (``hits``, ``best_score()``, ``gcups``, ``provenance``), so
  callers can rank/report without caring which engine produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Protocol, Sequence, runtime_checkable

from ..alphabet import PROTEIN, Alphabet
from ..exceptions import PipelineError
from ..faults.injection import FaultInjector
from ..faults.policy import Deadline
from ..scoring.gaps import GapModel, paper_gap_model
from ..scoring.matrices import SubstitutionMatrix

__all__ = [
    "UNSET",
    "SearchOptions",
    "SearchRequest",
    "SearchOutcome",
    "unify_options",
]


class _Unset:
    """Sentinel distinguishing "not passed" from an explicit ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNSET"


#: "Not passed" marker for :meth:`SearchOptions.merged` overrides —
#: UNSET entries are dropped instead of overwriting the field.
UNSET = _Unset()


@dataclass(frozen=True)
class SearchOptions:
    """Search semantics shared by every entrypoint.

    ``None`` fields mean "the library default": BLOSUM62, the paper's
    10/2 gap model, and a lane width chosen by the consumer (the
    kernel's default width for the plain pipeline, the device's native
    width in hybrid paths).

    Parameters
    ----------
    matrix, gaps:
        Scoring scheme.
    lanes:
        Inter-task vector width; ``None`` lets each consumer pick (the
        chosen kernel's default width).
    kernel:
        Scoring kernel for the inter-task engine: ``"python"`` (the
        instruction-faithful SIMD emulation), ``"numpy"`` (the
        array-vectorised kernel of :mod:`repro.core.vectorized`), or
        ``None`` to follow the ``REPRO_KERNEL`` environment variable
        (default ``"python"``).  Scores, hit order and cell accounting
        are bit-identical across kernels.
    profile:
        ``"sequence"`` (SP) or ``"query"`` (QP) score addressing.
    mode:
        Search tier: ``"exact"`` (the default — exhaustive SW over
        every sequence, bit-identical to every release so far),
        ``"sensitive"`` or ``"fast"`` (the tiered heuristic path of
        :mod:`repro.search.tiered`: k-mer seeding prunes candidates,
        the banded engine verifies survivors, and only the final
        candidate set is rescored with exact SW — so every *reported*
        score is an exact SW score, but low-similarity sequences may
        be pruned before rescoring and miss the ranking).
    top_k:
        Default number of ranked hits returned; ``0`` means scores
        only — the search still runs and accounts, but keeps no
        ranked hits (the work-queue scheduler uses this internally).
    chunk_size:
        Streaming batch size (records per chunk).
    alphabet:
        Residue alphabet.
    injector:
        Optional fault injector; payloads then cross a checksum guard.
        Exhaustive scans only: rejected together with a tiered ``mode``.

    A :class:`~repro.faults.Deadline` is not an option: it belongs to
    one call, so every search method takes it as its ``deadline``
    argument.
    """

    matrix: SubstitutionMatrix | None = None
    gaps: GapModel | None = None
    lanes: int | None = None
    kernel: str | None = None
    profile: str = "sequence"
    mode: str = "exact"
    top_k: int = 10
    chunk_size: int = 512
    alphabet: Alphabet = field(default_factory=lambda: PROTEIN)
    injector: FaultInjector | None = None

    def __post_init__(self) -> None:
        if self.lanes is not None and self.lanes < 1:
            raise PipelineError(f"lanes must be positive, got {self.lanes}")
        if self.top_k < 0:
            raise PipelineError(
                f"top_k must be non-negative, got {self.top_k}"
            )
        if self.chunk_size < 1:
            raise PipelineError(
                f"chunk size must be positive, got {self.chunk_size}"
            )
        if self.profile not in ("sequence", "query"):
            raise PipelineError(
                f"profile must be 'sequence' or 'query', got {self.profile!r}"
            )
        if self.kernel is not None and self.kernel not in ("python", "numpy"):
            raise PipelineError(
                f"kernel must be 'python' or 'numpy', got {self.kernel!r}"
            )
        if self.mode not in ("exact", "sensitive", "fast"):
            raise PipelineError(
                f"mode must be 'exact', 'sensitive' or 'fast', "
                f"got {self.mode!r}"
            )
        if self.mode != "exact" and self.injector is not None:
            raise PipelineError(
                f"fault injection is not supported with mode={self.mode!r} "
                f"(faults target the lane groups the tiered path never "
                f"forms) — use mode='exact'"
            )

    # ------------------------------------------------------------------
    def resolved_matrix(self) -> SubstitutionMatrix:
        """The substitution matrix, defaulting to the paper's BLOSUM62."""
        if self.matrix is not None:
            return self.matrix
        from ..scoring.data_blosum import BLOSUM62

        return BLOSUM62

    def resolved_gaps(self) -> GapModel:
        """The gap model, defaulting to the paper's 10/2."""
        return self.gaps if self.gaps is not None else paper_gap_model()

    def resolved_lanes(self, default: int = 8) -> int:
        """The lane width, falling back to the consumer's ``default``."""
        return self.lanes if self.lanes is not None else default

    def resolved_kernel(self) -> str:
        """The scoring kernel, falling back to ``REPRO_KERNEL`` or python.

        The environment hook lets CI force the whole tier-1 suite through
        the numpy kernel without touching any call site.
        """
        if self.kernel is not None:
            return self.kernel
        import os

        env = os.environ.get("REPRO_KERNEL", "python")
        if env not in ("python", "numpy"):
            raise PipelineError(
                f"REPRO_KERNEL must be 'python' or 'numpy', got {env!r}"
            )
        return env

    def merged(self, **overrides: Any) -> "SearchOptions":
        """A copy with ``overrides`` applied (UNSET entries dropped)."""
        present = {k: v for k, v in overrides.items() if v is not UNSET}
        return replace(self, **present) if present else self

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The unified option vocabulary (used by the API-surface test)."""
        return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class SearchRequest:
    """One query of a service batch.

    ``top_k`` overrides the batch-wide :attr:`SearchOptions.top_k` for
    this request only; ``None`` inherits it.  ``deadline`` bounds this
    request alone (``None``: no deadline).
    """

    query: Any  # residue string or encoded uint8 array
    name: str = "query"
    top_k: int | None = None
    traceback: bool = False
    deadline: Deadline | None = None

    def __post_init__(self) -> None:
        if self.top_k is not None and self.top_k < 0:
            raise PipelineError(f"top_k must be non-negative, got {self.top_k}")


@runtime_checkable
class SearchOutcome(Protocol):
    """What every search result type exposes, whatever produced it.

    ``gcups`` is the outcome's *headline* throughput: wall-clock GCUPS
    for the real-compute types (:class:`~repro.search.SearchResult`,
    :class:`~repro.search.StreamingResult`), modelled-makespan GCUPS for
    the heterogeneous types whose reason to exist is the timing model.
    ``provenance`` carries the identifying fields (query, database,
    executor kind) for reports and logs.
    """

    @property
    def hits(self) -> Sequence[Any]: ...

    def best_score(self) -> int: ...

    @property
    def gcups(self) -> float: ...

    @property
    def provenance(self) -> Mapping[str, Any]: ...


def unify_options(options: Any, *, owner: str) -> SearchOptions:
    """Resolve an entrypoint's ``options`` argument — one spelling only.

    ``options`` must be a :class:`SearchOptions` or ``None`` (library
    defaults).
    """
    if options is None:
        return SearchOptions()
    if isinstance(options, SearchOptions):
        return options
    if isinstance(options, SubstitutionMatrix):
        # The pre-unification positional call: SearchPipeline(BLOSUM62).
        raise TypeError(
            f"{owner}(matrix) positional substitution matrices were "
            f"removed; pass repro.SearchOptions(matrix=...) instead"
        )
    raise PipelineError(
        f"{owner}: expected SearchOptions, got {type(options).__name__}"
    )
