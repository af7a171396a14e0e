#!/usr/bin/env python3
"""Protein database search — the paper's full 20-query workload.

Recreates the experimental protocol of Section V-B at laptop scale:
the 20 benchmark queries (accessions P02232...Q9UKN1, lengths 144-5478)
against a synthetic Swiss-Prot sample, scored with BLOSUM62 and gap
penalties 10/2, searched with the inter-task engine — and reports wall
GCUPS next to the *modelled* GCUPS of the paper's dual-Xeon host (32
threads, dynamic OpenMP schedule) for the same workload.

Run:  python examples/protein_search.py [scale]
"""

import sys

from repro import (
    DevicePerformanceModel,
    RunConfig,
    SearchOptions,
    SearchPipeline,
    SyntheticSwissProt,
    Workload,
    XEON_E5_2670_DUAL,
    make_query_set,
)
from repro.db import PAPER_QUERIES
from repro.metrics import format_table


def main(scale: float = 0.0003) -> None:
    print(f"Synthetic Swiss-Prot at scale {scale} ...")
    db = SyntheticSwissProt().generate(scale=scale)
    print(f"  {len(db)} sequences, {db.total_residues:,} residues, "
          f"longest {db.max_length}")

    queries = make_query_set()
    pipeline = SearchPipeline(SearchOptions(
        lanes=8,                 # one AVX register of 32-bit lanes
        profile="sequence",      # the paper's winning SP scheme
    ))
    # The paper's host: both Xeons, 32 threads, dynamic schedule.
    model = DevicePerformanceModel(XEON_E5_2670_DUAL)
    workload = Workload.from_lengths(db.lengths, 8)
    host_config = RunConfig(threads=32, schedule="dynamic")

    rows = []
    # A representative subset of the sweep keeps the runtime friendly;
    # pass a larger scale to run more.
    subset = [PAPER_QUERIES[i] for i in (0, 4, 9, 14, 19)]
    for spec in subset:
        q = queries[spec.accession]
        result = pipeline.search(q, db, query_name=spec.accession, top_k=3)
        best = result.hits[0]
        rows.append((
            spec.accession,
            spec.length,
            result.wall_seconds,
            result.wall_gcups,
            model.gcups(workload, len(q), host_config),
            f"{best.accession}:{best.score}",
        ))

    print()
    print(format_table(
        ["query", "qlen", "wall s", "wall GCUPS", "modelled GCUPS (Xeon)", "best hit"],
        rows,
        title="20-query benchmark protocol (subset), Section V-B parameters",
    ))
    print(
        "\nThe modelled column is what the paper's 32-thread dual-Xeon "
        "host would sustain on this workload (fixed overheads included); "
        "the wall column is this Python process."
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.0003)
