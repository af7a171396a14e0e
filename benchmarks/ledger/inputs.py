"""Seeded input generation for the performance ledger.

Everything a workload feeds the program is generated here from the
``--seed`` alone, with numpy and the standard library — never with the
program's own generators (``SyntheticSwissProt``, ``repro.db.mutate``),
so a change to the program cannot change the workload.  The program
receives only the files written by :func:`write_inputs`.

Database lengths are the *quantiles* of the Swiss-Prot-like lognormal
(mu=5.68, sigma=0.70, clipped to 11..4000) rather than draws from it,
and records come in one fixed, seed-independent order: every seed then
has the same lengths in the same places, hence the same DP work (the
streamed scan's chunks included), and the seed changes only residues
and homolog mutations.  That keeps seed-to-seed spread down to machine
noise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from statistics import NormalDist

import numpy as np

LETTERS = np.array(list("ARNDCQEGHILKMFPSTWYV"))

#: Robinson & Robinson (1991) background frequencies, ARNDCQEGHILKMFPSTWYV.
ROBINSON = np.array([
    0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295,
    0.07377, 0.02199, 0.05142, 0.09019, 0.05744, 0.02243, 0.03856,
    0.05203, 0.07120, 0.05841, 0.01330, 0.03216, 0.06441,
])
ROBINSON = ROBINSON / ROBINSON.sum()

LOG_MU, LOG_SIGMA = 5.68, 0.70
MIN_LENGTH, MAX_LENGTH = 11, 4000

#: Queries with the lengths of the paper's P02232/P07327/P21177.
QUERY_LENGTHS = {"P02232": 144, "P07327": 375, "P21177": 729}
HOMOLOG_RATES = (0.1, 0.3, 0.5)
WARMUP_LENGTH = 32

#: One cycle of the served query mix: 80% 15-30 aa (evenly spread), 15%
#: 60 aa, 5% 200 aa.  The pool repeats it in a fixed shuffled order.
#: The mix is an unverified assumption taken over from
#: ``benchmarks/bench_serve_load.py`` (``QUERY_MIX``), which cites no
#: measurement of a protein search service's query lengths.
SERVE_CYCLE = [15 + k % 16 for k in range(80)] + [60] * 15 + [200] * 5
SERVE_POOL_CYCLES = 30

WORKLOADS = ("scan-exact", "scan-tiered", "stream-fasta", "serve-mixed")

#: Background database sequences per workload (homologs come on top).
SIZES = {
    "full": {"scan-exact": 750, "scan-tiered": 100, "stream-fasta": 400,
             "serve-mixed": 20},
    "tiny": {"scan-exact": 40, "scan-tiered": 20, "stream-fasta": 30,
             "serve-mixed": 8},
}


def swissprot_lengths(n: int) -> np.ndarray:
    """The ``n`` mid-quantiles of the clipped Swiss-Prot lognormal."""
    normal = NormalDist(LOG_MU, LOG_SIGMA)
    logs = [normal.inv_cdf((k + 0.5) / n) for k in range(n)]
    return np.clip(np.rint(np.exp(logs)), MIN_LENGTH, MAX_LENGTH).astype(int)


def _order(n: int) -> np.ndarray:
    """The fixed record order of an ``n``-record database (any seed)."""
    return np.random.default_rng(n).permutation(n)


def serve_lengths() -> np.ndarray:
    """Query lengths of the served pool: whole mix cycles, fixed order."""
    order = np.random.default_rng(len(SERVE_CYCLE))
    return np.concatenate(
        [order.permutation(SERVE_CYCLE) for _ in range(SERVE_POOL_CYCLES)]
    )


def residues(rng: np.random.Generator, n: int) -> str:
    """``n`` residues drawn from the Robinson-Robinson background."""
    return "".join(rng.choice(LETTERS, size=n, p=ROBINSON))


def mutate(rng: np.random.Generator, seq: str, rate: float) -> str:
    """A homolog of ``seq``: each position mutated with probability ``rate``.

    A mutation event is a substitution (90%) or an indel (10%: half
    deletions, half insertions of 1-3 background residues).
    """
    out: list[str] = []
    for residue in seq:
        if rng.random() >= rate:
            out.append(residue)
        elif rng.random() < 0.1:
            if rng.random() < 0.5:
                out.append(residue)
                out.append(residues(rng, int(rng.integers(1, 4))))
        else:
            out.append(residues(rng, 1))
    return "".join(out)


def scan_queries(seed: int) -> dict[str, str]:
    """The three paper-length queries (shared by every scan workload)."""
    rng = np.random.default_rng([seed, 0])
    return {name: residues(rng, n) for name, n in QUERY_LENGTHS.items()}


def _database(
    rng: np.random.Generator, n: int, queries: dict[str, str]
) -> tuple[list[tuple[str, str]], list[tuple[str, int]]]:
    """Background records plus planted homologs, in the fixed order.

    Returns the records and ``(query name, record index)`` per homolog.
    """
    records = [
        (f"BG{k:05d} background", residues(rng, int(length)))
        for k, length in enumerate(swissprot_lengths(n)[_order(n)])
    ]
    parents = []
    for name, query in queries.items():
        for rate in HOMOLOG_RATES:
            records.append(
                (f"HOM|{name}|rate={rate:g} planted homolog",
                 mutate(rng, query, rate))
            )
            parents.append(name)
    order = _order(len(records))
    position = {int(old): new for new, old in enumerate(order)}
    planted = [
        (name, position[n + k]) for k, name in enumerate(parents)
    ]
    return [records[int(k)] for k in order], planted


def _write_fasta(records: list[tuple[str, str]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for header, seq in records:
            fh.write(f">{header}\n")
            for off in range(0, len(seq), 60):
                fh.write(seq[off:off + 60] + "\n")


def write_inputs(
    workload: str, seed: int, size: str, directory: Path
) -> dict[str, str]:
    """Write ``<workload>.fasta`` and ``<workload>.json`` into ``directory``.

    Returns ``{file name: sha256}`` of what was written.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    n = SIZES[size][workload]
    rng = np.random.default_rng([seed, 1 + WORKLOADS.index(workload)])
    if workload == "serve-mixed":
        records = [
            (f"SV{k:03d} served", residues(rng, int(length)))
            for k, length in enumerate(swissprot_lengths(n)[_order(n)])
        ]
        pool = [residues(rng, int(length)) for length in serve_lengths()]
        doc = {"pool": pool, "warmup": residues(rng, WARMUP_LENGTH)}
    else:
        queries = scan_queries(seed)
        records, planted = _database(rng, n, queries)
        doc = {
            "queries": list(queries.items()),
            "planted": planted,
            "warmup": queries["P02232"][:WARMUP_LENGTH],
        }
    directory.mkdir(parents=True, exist_ok=True)
    fasta = directory / f"{workload}.fasta"
    meta = directory / f"{workload}.json"
    _write_fasta(records, fasta)
    meta.write_text(json.dumps(doc), encoding="utf-8")
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (fasta, meta)
    }
