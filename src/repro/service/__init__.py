"""Batched search serving: shared pre-processing + dynamic scheduling.

This package layers a service interface over the local search
pipeline: :class:`SearchService` accepts batches of
:class:`~repro.search.SearchRequest` and amortises Algorithm 1's
sort/lane-pack step across requests through :class:`PreprocessCache`.
:class:`WorkQueueScheduler` replaces the paper's hand-tuned static
host/device split with a dynamic shared-queue distribution whose
makespan is reported next to the static reference; it is driven by
:class:`~repro.search.HybridSearchPipeline` (``scheduler="queue"``),
not by the service.
"""

from .cache import PreprocessCache
from .scheduler import QueueSearchOutcome, WorkQueueScheduler
from .service import SearchService, ServiceBatchResult

__all__ = [
    "PreprocessCache",
    "QueueSearchOutcome",
    "SearchService",
    "ServiceBatchResult",
    "WorkQueueScheduler",
]
