"""Smith-Waterman alignment engines — the paper's computational core.

Five interchangeable engines implement the affine-gap local alignment
recurrences of the paper's Section II (Eq. 1-6):

================  ====================================================
Engine            Role
================  ====================================================
``scalar``        Reference implementation: plain Gotoh loops, supports
                  traceback.  The oracle the others are validated against.
``diagonal``      Anti-diagonal wavefront, numpy-vectorised along each
                  diagonal — the *intra-task* SIMD scheme the paper
                  contrasts with (Farrar [13] family).
``scan``          Prefix-max reformulation: one numpy pass per query row
                  (``np.maximum.accumulate`` resolves the horizontal gap
                  recurrence).  Fastest single-pair engine in Python.
``striped``       Farrar's striped layout with the lazy-F loop, the
                  intra-task comparator cited by the paper.
``intertask``     The paper's scheme (after SWIPE [4]): L vector lanes
                  align L *different* database sequences against the same
                  query simultaneously; supports query-profile and
                  sequence-profile addressing and cache blocking.
``vectorized``    The array-parallel realisation of ``intertask``: packed
                  numpy lane matrices, one vector op per DP anti-step,
                  narrow int16/int8 scoring with full-width redo of
                  saturated lanes (the ``kernel="numpy"`` search kernel).
================  ====================================================

All engines return identical scores (a property-test invariant).
"""

from .types import AlignmentResult, BatchResult, Traceback, CellCounter
from .engine import AlignmentEngine, available_engines, get_engine, sw_score
from .scalar import ScalarEngine
from .diagonal import DiagonalEngine
from .scan import ScanEngine
from .striped import StripedEngine
from .intertask import InterTaskEngine, LaneGroup, build_lane_groups
from .vectorized import (
    DEFAULT_LANES,
    KERNEL_NAMES,
    KernelStats,
    VectorizedEngine,
    make_intertask_engine,
)
from .profiles import QueryProfile, SequenceProfile, ProfileKind
from .traceback import align_pair
from .banded import BandedEngine
from .global_align import global_align, semiglobal_align
from .suboptimal import waterman_eggert
from .allpairs import score_all_pairs, similarity_matrix

__all__ = [
    "AlignmentResult",
    "BatchResult",
    "Traceback",
    "CellCounter",
    "AlignmentEngine",
    "available_engines",
    "get_engine",
    "sw_score",
    "ScalarEngine",
    "DiagonalEngine",
    "ScanEngine",
    "StripedEngine",
    "InterTaskEngine",
    "VectorizedEngine",
    "KernelStats",
    "make_intertask_engine",
    "KERNEL_NAMES",
    "DEFAULT_LANES",
    "LaneGroup",
    "build_lane_groups",
    "QueryProfile",
    "SequenceProfile",
    "ProfileKind",
    "align_pair",
    "BandedEngine",
    "global_align",
    "semiglobal_align",
    "waterman_eggert",
    "score_all_pairs",
    "similarity_matrix",
]
