"""Recall@k and work reduction of the tiered search modes vs exhaustive.

The tiered executor (``SearchOptions.mode = "sensitive" | "fast"``)
trades sensitivity for asymptotics: seeds prune, the banded engine
verifies, exact SW rescoring runs only on survivors.  This harness makes
that trade a *measured curve*: for each divergence level it plants known
mutated homologs of a fixed query into a synthetic background
(:func:`repro.db.mutate.plant_homologs`), runs the exhaustive scan as
ground truth, and records per mode:

* **recall@k** — fraction of the exhaustive top-k the tiered mode
  returned (planted homologs dominate the top-k, so this is recall on
  known homologs at that divergence);
* **score exactness** — every returned hit's score must equal the
  exhaustive score for that sequence bit-for-bit (the tiered contract);
* **exact-cell reduction** — exhaustive exact-SW cells per exact-SW
  cell the tiered path actually paid (the acceptance bar is >= 10x for
  ``sensitive``);
* **GCUPS-equivalent throughput** — exhaustive-equivalent cells per
  second of wall time, i.e. what the pruning is worth end to end.

Each pipeline searches once to warm up (that result gives recall and
exactness), then its wall time is the best of ``REPEATS`` more
searches on the same pipeline.

Run directly::

    PYTHONPATH=src python benchmarks/bench_tiered_recall.py

CI gate (regenerates the committed fixture's databases, checks their
digests, and fails unless ``sensitive`` holds recall@10 >= 0.95 at
>= 10x exact-cell reduction)::

    PYTHONPATH=src python benchmarks/bench_tiered_recall.py \
        --gate benchmarks/baselines/tiered_recall_fixture.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from repro.alphabet import PROTEIN
from repro.db import SequenceDatabase, SyntheticSwissProt
from repro.db.mutate import PlantedHomolog, plant_homologs
from repro.metrics import format_table
from repro.search import SearchOptions, SearchPipeline, SearchResult

#: Fixed 150-residue query (uniform over the 20 standard residues,
#: rng seed 7) — committed as a literal so the fixture digests are
#: reproducible from this file alone.
QUERY = (
    "YMFWKSTCREQWYAITNSNITEEQPQVHILKKLVTSPMEVICTDWMNAHANLVITYTMHLQIGCVA"
    "RDVFWCPGIAMTFDLQVWDLYTPMAPIRCLPLMWFGMKNRFGKECDGTHGKVGKHMHMLFVDKHGC"
    "RHTRHVVCAFAEIWRFLN"
)
SCALE = 0.001
BACKGROUND_SEED = 31
PLANT_SEED = 99
PER_RATE = 10
RATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
TOP_K = 10
MODES = ("sensitive", "fast")
#: Timed searches per pipeline after its warm-up search; the best counts.
REPEATS = 3

FIXTURE = Path(__file__).parent / "baselines" / "tiered_recall_fixture.json"


def build_database(
    rate: float,
    *,
    scale: float = SCALE,
    per_rate: int = PER_RATE,
    background_seed: int = BACKGROUND_SEED,
    plant_seed: int = PLANT_SEED,
    query: str = QUERY,
) -> tuple[SequenceDatabase, list[PlantedHomolog]]:
    """One divergence level: background + known homologs at ``rate``."""
    background = SyntheticSwissProt(seed=background_seed).generate(scale=scale)
    return plant_homologs(
        background,
        {"bench-query": PROTEIN.encode(query)},
        [rate],
        per_rate=per_rate,
        seed=plant_seed,
    )


def db_digest(db: SequenceDatabase) -> str:
    """Content digest of a database (headers + residue codes, in order)."""
    h = hashlib.sha256()
    for header, seq in zip(db.headers, db.sequences):
        h.update(header.encode("utf-8"))
        h.update(b"\x00")
        h.update(seq.tobytes())
        h.update(b"\x00")
    return h.hexdigest()


def first_and_best(
    pipe: SearchPipeline, query: str, db: SequenceDatabase, repeats: int
) -> tuple[SearchResult, float | None]:
    """The pipeline's first result and its best wall time after it.

    The first search warms the pipeline (preprocessing, word tables) and
    supplies the result; the best of ``repeats`` more searches on the
    same pipeline is the wall time (``None`` when ``repeats`` is 0).
    """
    first = pipe.search(query, db, query_name="bench-query")
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        pipe.search(query, db, query_name="bench-query")
        walls.append(time.perf_counter() - t0)
    return first, min(walls, default=None)


def measure_rate(
    rate: float,
    *,
    modes: tuple[str, ...] = MODES,
    top_k: int = TOP_K,
    repeats: int = REPEATS,
    **db_kwargs,
) -> list[dict]:
    """Exhaustive ground truth plus every tiered mode at one rate.

    Recall and exactness come from each pipeline's first search; wall
    times are the best of ``repeats`` searches after it (``repeats=0``
    skips timing, and every speed field is ``None``).
    """
    db, _planted = build_database(rate, **db_kwargs)
    query = db_kwargs.get("query", QUERY)

    with SearchPipeline(SearchOptions(top_k=top_k)) as exact:
        reference, exact_wall = first_and_best(exact, query, db, repeats)
    ref_top = [h.index for h in reference.hits]

    rows: list[dict] = []
    for mode in modes:
        with SearchPipeline(SearchOptions(mode=mode, top_k=top_k)) as pipe:
            result, wall = first_and_best(pipe, query, db, repeats)
        returned = {h.index for h in result.hits}
        tier = result.tier
        timed = wall is not None
        rows.append({
            "rate": rate,
            "mode": mode,
            "recall": sum(1 for i in ref_top if i in returned) / len(ref_top),
            "score_exact": all(
                h.score == int(reference.scores[h.index])
                for h in result.hits
            ),
            "exact_cell_reduction": tier.exact_cell_reduction,
            "cells_saved": tier.cells_saved,
            "wall_seconds": wall,
            "exact_wall_seconds": exact_wall,
            "speedup": exact_wall / wall if timed else None,
            "equivalent_gcups": (
                tier.exhaustive_cells / wall / 1e9 if timed else None
            ),
            "exhaustive_gcups": (
                reference.cells / exact_wall / 1e9 if timed else None
            ),
        })
    return rows


def run_sweep(
    rates: tuple[float, ...] = RATES, modes: tuple[str, ...] = MODES
) -> list[dict]:
    rows: list[dict] = []
    for rate in rates:
        rows.extend(measure_rate(rate, modes=modes))
    return rows


def report(rows: list[dict]) -> str:
    return format_table(
        ["rate", "mode", "recall@10", "exact", "SW-cell redux",
         "speedup", "eq. GCUPS"],
        [
            (
                f"{r['rate']:.2f}", r["mode"], f"{r['recall']:.2f}",
                "yes" if r["score_exact"] else "NO",
                f"{r['exact_cell_reduction']:.1f}x",
                f"{r['speedup']:.1f}x",
                f"{r['equivalent_gcups']:.3f}",
            )
            for r in rows
        ],
        title=(
            f"tiered recall vs exhaustive (query {len(QUERY)}aa, "
            f"{PER_RATE} planted homologs/rate, background scale {SCALE})"
        ),
    )


# ----------------------------------------------------------------------
# CI gate against the committed fixture
# ----------------------------------------------------------------------
def run_gate(fixture_path: str | Path) -> list[str]:
    """Check the committed fixture's bars; returns failure messages."""
    with open(fixture_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    db_kwargs = dict(
        scale=spec["scale"],
        per_rate=spec["per_rate"],
        background_seed=spec["background_seed"],
        plant_seed=spec["plant_seed"],
        query=spec["query"],
    )
    failures: list[str] = []
    recalls: list[float] = []
    for rate_str, digest in spec["rates"].items():
        rate = float(rate_str)
        db, _ = build_database(rate, **db_kwargs)
        actual = db_digest(db)
        if actual != digest:
            failures.append(
                f"rate {rate}: regenerated database digest {actual[:12]}... "
                f"!= committed {digest[:12]}... (generator drift — the "
                "fixture no longer measures what was committed)"
            )
            continue
        # The gate reads no timings: one search per pipeline.
        (row,) = measure_rate(
            rate, modes=(spec["mode"],), top_k=spec["top_k"], repeats=0,
            **db_kwargs,
        )
        recalls.append(row["recall"])
        if not row["score_exact"]:
            failures.append(
                f"rate {rate}: a returned {spec['mode']} hit's score is "
                "not bit-identical to the exhaustive score"
            )
        if row["exact_cell_reduction"] < spec["min_exact_cell_reduction"]:
            failures.append(
                f"rate {rate}: exact-cell reduction "
                f"{row['exact_cell_reduction']:.1f}x < required "
                f"{spec['min_exact_cell_reduction']:.0f}x"
            )
        print(
            f"gate rate={rate:.2f}: recall@{spec['top_k']} "
            f"{row['recall']:.2f}, {row['exact_cell_reduction']:.1f}x "
            f"fewer exact-SW cells, scores exact: {row['score_exact']}"
        )
    if recalls:
        mean_recall = sum(recalls) / len(recalls)
        print(f"gate mean recall@{spec['top_k']}: {mean_recall:.3f} "
              f"(required >= {spec['min_recall']})")
        if mean_recall < spec["min_recall"]:
            failures.append(
                f"mean recall@{spec['top_k']} {mean_recall:.3f} < "
                f"required {spec['min_recall']}"
            )
    return failures


def write_fixture(path: str | Path, rates: tuple[float, ...]) -> None:
    """(Re)generate the committed fixture spec with fresh digests."""
    spec = {
        "description": (
            "Mutated-homolog recall fixture for the tiered search gate: "
            "regenerate each database from the seeds below, verify the "
            "digest, and hold the sensitive mode to the recall and "
            "cell-reduction bars."
        ),
        "query": QUERY,
        "scale": SCALE,
        "background_seed": BACKGROUND_SEED,
        "plant_seed": PLANT_SEED,
        "per_rate": PER_RATE,
        "top_k": TOP_K,
        "mode": "sensitive",
        "min_recall": 0.95,
        "min_exact_cell_reduction": 10.0,
        "rates": {
            f"{rate:g}": db_digest(build_database(rate)[0]) for rate in rates
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def test_sensitive_recall_gate():
    """The committed fixture's bars hold: recall@10 >= 0.95 at >= 10x."""
    failures = run_gate(FIXTURE)
    assert not failures, "\n".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--gate", metavar="FIXTURE", default=None,
        help="run the CI gate against this committed fixture spec "
             "instead of the full sweep; exit 1 on any bar failing",
    )
    parser.add_argument(
        "--write-fixture", metavar="PATH", default=None,
        help="(re)generate the fixture spec with fresh database digests",
    )
    parser.add_argument(
        "--rates", type=float, nargs="+", default=list(RATES),
        help="divergence levels to sweep (mutation rate per residue)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the sweep rows as JSON to PATH",
    )
    args = parser.parse_args(argv)

    if args.write_fixture:
        write_fixture(args.write_fixture, tuple(args.rates))
        print(f"wrote {args.write_fixture}")
        return 0
    if args.gate:
        failures = run_gate(args.gate)
        for f in failures:
            print(f"GATE FAILURE: {f}", file=sys.stderr)
        print("tiered recall gate:", "FAIL" if failures else "PASS")
        return 1 if failures else 0

    rows = run_sweep(tuple(args.rates))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    print(report(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
