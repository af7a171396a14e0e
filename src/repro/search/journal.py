"""Resumable-scan journal: per-shard merge state on disk.

A sharded out-of-core scan over a multi-gigabase database can run for
hours; losing the whole merge to a crash or an expired deadline means
paying the full scan again.  :class:`ScanJournal` makes the scan
restartable: after every merged shard the driver writes a small JSON
snapshot — records consumed, accounting counters, and the top-k heap —
atomically (temp file + ``os.replace``) next to where it will be read
back.

Correctness rests on two facts:

* **Aligned prefix** — shard boundaries are multiples of the streaming
  ``chunk_size`` (``align_records``), so the journalled prefix always
  covers whole serial chunks.  Re-slicing the *remaining* records with
  the same :class:`~repro.db.ShardSpec` reproduces the uninterrupted
  run's shard layout, global record indices, and fault-injection units
  exactly — which is what makes a resumed scan bit-identical.
* **Fingerprint keying** — the snapshot is keyed by a digest of the
  query codes and *every* scan parameter that shapes scores or
  accounting: database name, top-k, chunk size, shard bounds,
  substitution matrix (name and cell values), gap penalties, alphabet,
  and the fault plan.  A journal written by a different query,
  database, or configuration is treated as absent, never silently
  merged.
* **Prefix checksum** — the fingerprint cannot see the stream's
  *content* (two different streams can share the default
  ``database_name``), so the snapshot also carries a chained digest of
  every record merged so far.  ``resume`` re-hashes the records it
  skips and refuses to continue over a stream whose prefix does not
  match — a wrong stream is an error, never a silently corrupted
  merge.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..exceptions import PipelineError
from .result import Hit

__all__ = ["ScanJournal", "ScanState", "chain_record_digest"]

#: On-disk format version; bump on incompatible layout changes.
#: v2 added the chained ``prefix_digest`` over merged records.
_VERSION = 2


def chain_record_digest(digest: str, header: str, codes) -> str:
    """Fold one record into a chained stream digest.

    ``digest`` is the hex digest covering every earlier record (``""``
    for the first).  Each record is framed (length-prefixed header
    bytes, then length-prefixed encoded residues) so no two distinct
    streams can collide by shifting bytes between header and sequence,
    and the chain is independent of shard or chunk boundaries — only
    record order and content matter.
    """
    h = hashlib.blake2b(digest_size=16)
    if digest:
        h.update(bytes.fromhex(digest))
    head = str(header).encode()
    h.update(len(head).to_bytes(4, "little"))
    h.update(head)
    body = np.asarray(codes, dtype=np.uint8).tobytes()
    h.update(len(body).to_bytes(8, "little"))
    h.update(body)
    return h.hexdigest()


@dataclass
class ScanState:
    """Everything needed to continue a sharded scan mid-stream."""

    records_done: int = 0        # records fully merged (whole shards)
    shards_merged: int = 0
    scanned: int = 0
    cells: int = 0
    chunks: int = 0
    corrupted_redone: int = 0
    saturated_recomputed: int = 0
    #: Chained :func:`chain_record_digest` over the merged prefix —
    #: lets ``resume`` verify it was handed the *same* stream.
    prefix_digest: str = ""
    #: Serialized top-k heap entries ``(score, -index, hit)`` in heap
    #: order — a list that *is* a valid heap can be reloaded verbatim.
    heap: list = field(default_factory=list)

    def heap_entries(self) -> list:
        """The heap as live ``(score, -index, Hit)`` tuples."""
        return [
            (
                int(score),
                int(neg_idx),
                Hit(
                    index=int(h["index"]),
                    header=h["header"],
                    length=int(h["length"]),
                    score=int(h["score"]),
                ),
            )
            for score, neg_idx, h in self.heap
        ]

    @staticmethod
    def pack_heap(heap) -> list:
        """Serialize live heap entries (JSON-safe, order-preserving)."""
        return [
            [
                int(score),
                int(neg_idx),
                {
                    "index": int(hit.index),
                    "header": hit.header,
                    "length": int(hit.length),
                    "score": int(hit.score),
                },
            ]
            for score, neg_idx, hit in heap
        ]


class ScanJournal:
    """Fingerprint-keyed, atomically written scan snapshot."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(
        query_codes: np.ndarray,
        *,
        database_name: str,
        top_k: int,
        chunk_size: int,
        max_residues: int | None,
        max_records: int | None,
        matrix=None,
        gaps=None,
        alphabet=None,
        plan=None,
    ) -> str:
        """Digest of everything that shapes the merge state.

        Beyond the stream layout parameters, the digest covers the
        scoring configuration — substitution ``matrix`` (name *and*
        cell values), ``gaps``, ``alphabet`` — and the fault ``plan``,
        because all of them shape scores and ``corrupted_redone``
        accounting: resuming a journal written under any different
        value would silently merge incompatible heap state.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.asarray(query_codes, dtype=np.uint8).tobytes())
        digest.update(
            f"|{database_name}|{top_k}|{chunk_size}"
            f"|{max_residues}|{max_records}".encode()
        )
        if matrix is None:
            digest.update(b"|matrix:none")
        else:
            digest.update(f"|matrix:{matrix.name}".encode())
            digest.update(
                np.ascontiguousarray(matrix.data, dtype=np.int32).tobytes()
            )
        if gaps is None:
            digest.update(b"|gaps:none")
        else:
            digest.update(f"|gaps:{gaps.open},{gaps.extend}".encode())
        if alphabet is None:
            digest.update(b"|alphabet:none")
        else:
            digest.update(
                f"|alphabet:{alphabet.letters}:{alphabet.wildcard}".encode()
            )
        # FaultPlan is a frozen dataclass of scalars/tuples: its repr is
        # a stable, total serialization of the plan.
        digest.update(f"|plan:{plan!r}".encode())
        return digest.hexdigest()

    @property
    def exists(self) -> bool:
        return self.path.exists()

    # ------------------------------------------------------------------
    def save(self, fingerprint: str, state: ScanState) -> None:
        """Write the snapshot atomically (crash leaves old state intact)."""
        payload = {
            "version": _VERSION,
            "fingerprint": fingerprint,
            "records_done": state.records_done,
            "shards_merged": state.shards_merged,
            "scanned": state.scanned,
            "cells": state.cells,
            "chunks": state.chunks,
            "corrupted_redone": state.corrupted_redone,
            "saturated_recomputed": state.saturated_recomputed,
            "prefix_digest": state.prefix_digest,
            "heap": state.heap,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, self.path)

    def load(self, fingerprint: str) -> ScanState | None:
        """The journalled state, or ``None`` when there is nothing usable.

        Missing file, unreadable JSON, a version from the future, or a
        fingerprint written by a different scan all mean "start from the
        beginning" — never an exception, because a stale journal must
        not be able to block a fresh scan.
        """
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != _VERSION:
            return None
        if payload.get("fingerprint") != fingerprint:
            return None
        try:
            return ScanState(
                records_done=int(payload["records_done"]),
                shards_merged=int(payload["shards_merged"]),
                scanned=int(payload["scanned"]),
                cells=int(payload["cells"]),
                chunks=int(payload["chunks"]),
                corrupted_redone=int(payload["corrupted_redone"]),
                # Journals written before this count existed lack it.
                saturated_recomputed=int(
                    payload.get("saturated_recomputed", 0)
                ),
                prefix_digest=str(payload["prefix_digest"]),
                heap=list(payload["heap"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def clear(self) -> None:
        """Remove the snapshot (a completed scan needs no resume)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        except OSError as exc:  # pragma: no cover - permission races
            raise PipelineError(
                f"could not remove scan journal {self.path}: {exc}"
            ) from exc
