"""Placement: which worker serves which request.

The orchestrator places work by rendezvous (highest-random-weight)
hashing of a routing key against each worker's stable name (Thaler &
Ravishankar, "Using name-based mappings to increase hit rates",
IEEE/ACM ToN 1998). :func:`rank` orders the live workers for one key;
the orchestrator forwards to the first and *fails over* down the rest
of the ranking when a worker dies mid-request, so the ranking doubles
as the failover order.

The same key always ranks the workers identically, so identical-topology
requests land on the same worker and its
:class:`~repro.evaluate.cache.StructureCache` /
:class:`~repro.service.diskcache.DiskScoreCache` stay hot for that
shard; when a worker is evicted, only the keys it owned move (to their
second-ranked worker) — every other key keeps its owner.

The routing key of a task is its canonical *structure fingerprint*
(:func:`task_routing_key`): topology up to firing times. Same timing
fingerprint implies same structure fingerprint, so affinity keeps both
the score memo and the shared reachability explorations hot.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence

from repro.service.catalog import WorkerInfo

#: The placement named in the orchestrator's ``ping`` and ``stats`` replies.
STRATEGY = "fingerprint_affinity"


def _weight(key: str, name: str) -> int:
    payload = f"{key}|{name}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def rank(key: str, workers: Sequence[WorkerInfo]) -> list[WorkerInfo]:
    """Workers ordered best-first for ``key`` (the failover order).

    Every ``(key, worker)`` pair gets an independent pseudo-random
    weight; the ranking sorts workers by weight, descending, with the
    name as tie-break. Properties the fleet relies on (asserted in
    ``tests/test_fleet.py``):

    * deterministic — the same key produces the same ranking on every
      orchestrator, every run, whatever order ``workers`` comes in;
    * minimal disruption — evicting a worker moves exactly the keys it
      owned (each to its second choice); adding one steals ~1/N of the
      keys and touches nothing else.
    """
    return sorted(
        workers, key=lambda w: (_weight(key, w.name), w.name), reverse=True
    )


def task_routing_key(task: object, model_default: str = "overlap") -> str:
    """Canonical routing key of one wire-format task.

    The key is the ``repr`` of the mapping's *structure fingerprint*
    (topology up to firing times), so every request that could share a
    cached reachability exploration — and a fortiori every identical
    computation — carries the same key. A task the key derivation cannot
    interpret still routes (stable fallback on its canonical JSON): the
    worker owns rejecting it with a structured per-task failure, the
    router does not.
    """
    from repro.campaign.spec import SystemSpec
    from repro.evaluate.fingerprint import structure_fingerprint

    try:
        mapping = SystemSpec.from_dict(task["system"]).build()
        return repr(
            structure_fingerprint(mapping, task.get("model", model_default))
        )
    except Exception:
        try:
            return json.dumps(task, sort_keys=True, default=repr)
        except (TypeError, ValueError):
            return repr(task)
