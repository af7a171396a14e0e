"""repro — Smith-Waterman on heterogeneous systems, reproduced in Python.

A full reproduction of *"Smith-Waterman Algorithm on Heterogeneous
Systems: A Case Study"* (Rucci, De Giusti, Naiouf, Botella, García,
Prieto-Matías — IEEE CLUSTER 2014): five cross-validated affine-gap
Smith-Waterman engines (including the paper's inter-task lane-parallel
scheme with query/sequence profiles and cache blocking), a simulated
hardware substrate (AVX-256 vs MIC-512 vector units with instruction
accounting, OpenMP scheduling, SMT and cache models for the dual
Xeon E5-2670 host and the 60-core Xeon Phi), an offload/hybrid runtime,
and a calibrated performance model that regenerates every figure of the
paper's evaluation.

Quick start::

    >>> from repro import sw_score
    >>> sw_score("HEAGAWGHEE", "PAWHEAE")
    17

Database search::

    >>> from repro import SearchPipeline, SyntheticSwissProt
    >>> db = SyntheticSwissProt().generate(scale=0.0001)
    >>> result = SearchPipeline().search("MKTAYIAKQR" * 10, db)
    >>> result.hits[0].score >= result.hits[-1].score
    True

Batched serving with shared options::

    >>> from repro import SearchOptions, SearchRequest, SearchService
    >>> service = SearchService(SearchOptions(top_k=3))
    >>> batch = service.run([SearchRequest(query="MKTAYIAKQR" * 10)], db)
    >>> len(batch.outcomes)
    1
"""

from .alphabet import DNA, PROTEIN, Alphabet, encode, decode
from .core import (
    AlignmentEngine,
    BandedEngine,
    AlignmentResult,
    BatchResult,
    DiagonalEngine,
    InterTaskEngine,
    LaneGroup,
    ScalarEngine,
    ScanEngine,
    StripedEngine,
    VectorizedEngine,
    Traceback,
    align_pair,
    available_engines,
    build_lane_groups,
    get_engine,
    global_align,
    semiglobal_align,
    sw_score,
    waterman_eggert,
)
from .heuristic import MiniBlast
from .db import (
    PAPER_QUERIES,
    SequenceDatabase,
    SyntheticSwissProt,
    ShardSpec,
    iter_shards,
    make_query_set,
    preprocess_database,
    read_fasta,
    split_database,
    write_fasta,
)
from .devices import (
    XEON_E5_2670_DUAL,
    XEON_PHI_57XX,
    DeviceSpec,
    ParallelFor,
    Schedule,
)
from .exceptions import ReproError
from .faults import (
    CircuitBreaker,
    Deadline,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    Timeout,
)
from .metrics import (
    METRICS,
    MetricsRegistry,
    StatsdEmitter,
    append_jsonl_snapshot,
    read_jsonl_snapshots,
    to_prometheus,
)
from .obs import (
    TRACE_HEADER,
    NullTracer,
    Span,
    TraceCollector,
    TraceContext,
    Tracer,
    adopt_spans,
    current_context,
    get_tracer,
    set_tracer,
    to_chrome_trace,
    to_jsonl,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
)
from .parallel import PackedDatabase, ProcessPoolBackend
from .perfmodel import DevicePerformanceModel, RunConfig, Workload
from .runtime import (
    HybridExecutor,
    PCIE_GEN2_X16,
    ResilientHybridExecutor,
    ResilientResult,
)
from .scoring import (
    BLOSUM45,
    BLOSUM50,
    BLOSUM62,
    BLOSUM80,
    BLOSUM90,
    PAM30,
    PAM70,
    PAM250,
    GapModel,
    SubstitutionMatrix,
    get_matrix,
    paper_gap_model,
)
from .serve import (
    WIRE_SCHEMA_VERSION,
    RemoteSearchResult,
    SearchClient,
    SearchServer,
)
from .search import (
    HybridSearchPipeline,
    HybridSearchResult,
    PartialResult,
    ScanJournal,
    ScanState,
    SearchOptions,
    SearchOutcome,
    SearchPipeline,
    SearchRequest,
    SearchResult,
    ShardedStreamingSearch,
    StreamingResult,
    StreamingSearch,
    TieredSearch,
    TieredSearchResult,
    gcups,
)
from .service import (
    PreprocessCache,
    QueueSearchOutcome,
    SearchService,
    ServiceBatchResult,
    WorkQueueScheduler,
)

__version__ = "1.0.0"

__all__ = [
    # alphabet
    "PROTEIN", "DNA", "Alphabet", "encode", "decode",
    # engines
    "AlignmentEngine", "AlignmentResult", "BatchResult", "Traceback",
    "ScalarEngine", "ScanEngine", "DiagonalEngine", "StripedEngine",
    "InterTaskEngine", "VectorizedEngine", "BandedEngine",
    "LaneGroup", "build_lane_groups",
    "global_align", "semiglobal_align", "MiniBlast",
    "available_engines", "get_engine", "sw_score", "align_pair",
    # scoring
    "SubstitutionMatrix", "GapModel", "paper_gap_model", "get_matrix",
    "BLOSUM45", "BLOSUM50", "BLOSUM62", "BLOSUM80", "BLOSUM90",
    "PAM30", "PAM70", "PAM250",
    # db
    "SequenceDatabase", "SyntheticSwissProt", "PAPER_QUERIES",
    "make_query_set", "read_fasta", "write_fasta",
    "preprocess_database", "split_database",
    "ShardSpec", "iter_shards",
    # devices / model / runtime
    "DeviceSpec", "XEON_E5_2670_DUAL", "XEON_PHI_57XX",
    "ParallelFor", "Schedule",
    "DevicePerformanceModel", "RunConfig", "Workload",
    "HybridExecutor", "PCIE_GEN2_X16",
    # faults / resilience
    "FaultPlan", "FaultInjector", "RetryPolicy", "Timeout", "Deadline",
    "CircuitBreaker", "ResilientHybridExecutor", "ResilientResult",
    # search
    "SearchOptions", "SearchRequest", "SearchOutcome",
    "SearchPipeline", "SearchResult", "gcups",
    "StreamingSearch", "StreamingResult", "ShardedStreamingSearch",
    "TieredSearch", "TieredSearchResult",
    "PartialResult", "ScanJournal", "ScanState",
    "HybridSearchPipeline", "HybridSearchResult",
    "waterman_eggert",
    # service
    "SearchService", "ServiceBatchResult",
    "WorkQueueScheduler", "QueueSearchOutcome", "PreprocessCache",
    # serving layer
    "SearchServer", "SearchClient", "RemoteSearchResult",
    "WIRE_SCHEMA_VERSION",
    # parallel execution
    "ProcessPoolBackend", "PackedDatabase",
    # observability
    "Tracer", "NullTracer", "Span", "TraceCollector",
    "get_tracer", "set_tracer", "use_tracer",
    "to_chrome_trace", "write_chrome_trace", "to_jsonl", "write_jsonl",
    "TraceContext", "TRACE_HEADER", "current_context", "adopt_spans",
    "MetricsRegistry", "METRICS",
    "to_prometheus", "StatsdEmitter",
    "append_jsonl_snapshot", "read_jsonl_snapshots",
    # errors
    "ReproError",
    "__version__",
]
