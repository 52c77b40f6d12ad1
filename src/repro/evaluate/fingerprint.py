"""Canonical mapping fingerprints for the solver structure cache.

Two mappings with the same *timing fingerprint* are throughput-isomorphic:
the unrolled timed event graphs (both models) and the symbolic component
DAG depend only on the replication vector, the per-slot computation means
and the per-row communication means — not on processor identities. The
fingerprint canonicalizes exactly that data, so relabelled platforms,
repeated candidates and structurally identical neighbours all collapse
onto one cache entry.

A coarser *structure fingerprint* keeps only the topology (model,
replication vector, builder options). The reachable-marking graph of a
bounded net depends on the topology alone — firing times only decorate
the CTMC rates — so one reachability exploration serves every candidate
sharing the structure key (e.g. all swap moves of a hill climb).
"""

from __future__ import annotations

import hashlib
import math

from repro.mapping.mapping import Mapping
from repro.types import ExecutionModel

#: Timing fingerprint: nested tuples of ints/floats, hashable and
#: ``repr``-stable (floats round-trip exactly through ``repr``).
Fingerprint = tuple


def mapping_fingerprint(
    mapping: Mapping, model: ExecutionModel | str = "overlap"
) -> Fingerprint:
    """Canonical timing fingerprint of a mapping under one model.

    Collects, slot-wise, every mean time entering the throughput
    computation: computation means per team position and communication
    means per row of each adjacent-pair unrolling (period
    ``lcm(R_i, R_{i+1})``, after which the round-robin pairing repeats).

    Computed once per mapping instance and model: a mapping does not
    change after construction (its teams are tuples, its platform's
    bandwidth matrix is read-only), so the memo lives in the instance's
    ``__dict__`` beside the cached ``replication``.
    """
    model = ExecutionModel.coerce(model)
    memo = mapping.__dict__.setdefault("_fingerprints", {})
    fingerprint = memo.get(model)
    if fingerprint is None:
        fingerprint = memo[model] = _timing_fingerprint(mapping, model)
    return fingerprint


def _timing_fingerprint(mapping: Mapping, model: ExecutionModel) -> Fingerprint:
    n = mapping.n_stages
    reps = mapping.replication
    compute = tuple(
        tuple(mapping.compute_time(i, p) for p in team)
        for i, team in enumerate(mapping.teams)
    )
    comm = []
    for i in range(n - 1):
        r_i, r_j = reps[i], reps[i + 1]
        period = r_i * r_j // math.gcd(r_i, r_j)
        comm.append(
            tuple(
                mapping.comm_time(
                    i,
                    mapping.teams[i][j % r_i],
                    mapping.teams[i + 1][j % r_j],
                )
                for j in range(period)
            )
        )
    return (model.value, reps, compute, tuple(comm))


def structure_fingerprint(
    mapping: Mapping,
    model: ExecutionModel | str = "overlap",
    **builder_options,
) -> Fingerprint:
    """Topology-only fingerprint: the unrolled net up to firing times."""
    model = ExecutionModel.coerce(model)
    return (
        model.value,
        mapping.replication,
        tuple(sorted(builder_options.items())),
    )


def fingerprint_digest(fingerprint: Fingerprint) -> int:
    """Stable 64-bit digest of a fingerprint.

    Used to derive per-candidate simulation seeds: ``hash()`` would do for
    tuples of numbers, but a content digest stays stable across Python
    builds and documents the intent.
    """
    payload = repr(fingerprint).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
