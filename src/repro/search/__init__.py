"""Database-search pipeline — the paper's Algorithm 1 end to end.

(1) load query and database, (2) pre-process (sort by length, pack lane
groups), (3) align every group, (4) sort scores descending.  Alignments
are computed for real by the engines and timed on the wall clock;
:class:`HybridSearchPipeline` adds the paper's modelled device time for
Algorithm 2.
"""

from .api import SearchOptions, SearchOutcome, SearchRequest, unify_options
from .result import Hit, SearchResult
from .pipeline import SearchPipeline
from .gcups import gcups, Stopwatch
from .journal import ScanJournal, ScanState
from .scan import ScanContext, TopK, rank_hits
from .streaming import PartialResult, StreamingSearch, StreamingResult
from .sharded import ShardedStreamingSearch
from .tiered import (
    TIER_PRESETS,
    TieredFilter,
    TieredSearch,
    TieredSearchResult,
    TierPreset,
    TierStats,
)
from .hybrid_pipeline import HybridSearchPipeline, HybridSearchResult
from .stats import (
    GumbelFit,
    attach_statistics,
    bitscore,
    evalue,
    ungapped_lambda,
)

__all__ = [
    "SearchOptions",
    "SearchOutcome",
    "SearchRequest",
    "unify_options",
    "Hit",
    "SearchResult",
    "SearchPipeline",
    "gcups",
    "Stopwatch",
    "GumbelFit",
    "attach_statistics",
    "bitscore",
    "evalue",
    "ungapped_lambda",
    "StreamingSearch",
    "StreamingResult",
    "PartialResult",
    "ShardedStreamingSearch",
    "TIER_PRESETS",
    "TierPreset",
    "TierStats",
    "TieredFilter",
    "TieredSearch",
    "TieredSearchResult",
    "ScanJournal",
    "ScanState",
    "ScanContext",
    "TopK",
    "rank_hits",
    "HybridSearchPipeline",
    "HybridSearchResult",
]
