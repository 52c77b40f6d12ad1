"""Direct simulation of the mapped system (SimGrid stand-in, Section 7).

This simulator never builds a Petri net: it evaluates the Section 2
operational semantics as explicit recurrences over data sets, which makes
it an *independent* implementation against which the event-graph model's
fidelity is checked (paper Section 7.4).

Let ``C[i][n]`` be the completion time of stage ``i`` on data set ``n``
and ``D[i][n]`` the completion time of the transfer of file ``F_{i+1}``
for data set ``n``; write ``R_i`` for the replication of stage ``i``
(data set ``n`` is served at stage ``i`` by team slot ``n mod R_i``).

Overlap model::

    C[i][n] = max(D[i-1][n],  C[i][n - R_i])               + c_i(n)
    D[i][n] = max(C[i][n],    D[i][n - R_i], D[i][n - R_{i+1}]) + d_i(n)

(the processor waits for its previous computation; the transfer waits for
the data, the sender's output port and the receiver's input port, each of
which serves its transfers in round-robin order).

Strict model (receive → compute → send serialized per processor)::

    D[i][n] = max(C[i][n],  Free_recv)  + d_i(n)
    C[i][n] = max(D[i-1][n], Free_comp) + c_i(n)

where ``Free_recv`` is the receiver's previous *send* completion
(``D[i+1-1][n - R_{i+1}]`` — its chain wraps after its send; the
computation for the last stage) and ``Free_comp`` is, for the first
stage, the processor's previous send ``D[0][n - R_0]``.

:func:`simulate_system` evaluates these on Python floats: Overlap one
stage at a time, Strict one data set at a time.
:func:`simulate_system_batch` steps every replication together in a
float64 pass over data sets; both perform the same IEEE max and add
operations in the same order per value, so their results are
bit-identical.

Random times honour the per-resource I.I.D. hypothesis: each operation
time is its deterministic mean multiplied by a unit-mean draw of the
requested law. The *associated* case of Section 6.2 is supported with
``correlation="associated"``: the unit draws are attached to ``(stage, n)``
(random task sizes shared by every processor touching that task) instead
of being independent per operation.
"""

from __future__ import annotations

import time as _time
from collections.abc import Sequence
from itertools import islice

import numpy as np

from repro.exceptions import UnsupportedModelError
from repro.mapping.mapping import Mapping
from repro.sim.results import SimulationResult
from repro.sim.sampling import as_factory
from repro.types import ExecutionModel


def _unit_draws(
    law, rng: np.random.Generator, shape: tuple[int, int]
) -> np.ndarray:
    """Matrix of unit-mean multipliers of the requested law."""
    factory = as_factory(law)
    dist = factory(1.0)
    if dist.name == "deterministic":
        return np.ones(shape)
    flat = dist.sample(rng, shape[0] * shape[1])
    return np.asarray(flat, dtype=float).reshape(shape)


def _validate_sim_args(
    n_datasets: int, bandwidth_efficiency: float, correlation: str
) -> None:
    if n_datasets < 1:
        raise ValueError("n_datasets must be >= 1")
    if not 0.0 < bandwidth_efficiency <= 1.0:
        raise ValueError("bandwidth_efficiency must be in (0, 1]")
    if correlation not in ("independent", "associated"):
        raise ValueError(f"unknown correlation mode {correlation!r}")


def _mean_times(
    mapping: Mapping, n_ops: int, bandwidth_efficiency: float
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic mean times per (stage, data set), period-m periodic.

    Precomputed per team slot then gathered — fully vectorized, and
    shared across every replication of a batched run (the means depend
    only on the mapping, never on the random stream).
    """
    n = mapping.n_stages
    reps = mapping.replication
    comp_mean = np.empty((n, n_ops))
    comm_mean = np.zeros((max(n - 1, 0), n_ops))
    slots = np.arange(n_ops)
    for i in range(n):
        per_slot = np.array(
            [mapping.compute_time(i, p) for p in mapping.teams[i]]
        )
        comp_mean[i] = per_slot[slots % reps[i]]
    for i in range(n - 1):
        pair_times = np.array(
            [
                [mapping.comm_time(i, p, q) for q in mapping.teams[i + 1]]
                for p in mapping.teams[i]
            ]
        )
        comm_mean[i] = (
            pair_times[slots % reps[i], slots % reps[i + 1]]
            / bandwidth_efficiency
        )
    return comp_mean, comm_mean


def _multipliers(
    law, rng: np.random.Generator, n: int, n_ops: int, correlation: str
) -> tuple[np.ndarray, np.ndarray]:
    """One replication's unit-mean multiplier matrices, in draw order.

    This is the *only* consumer of the random stream: computations first,
    transfers second. Both the serial and the batched engine draw through
    here, which is what makes their per-replication streams identical.
    """
    if correlation == "independent":
        comp_mult = _unit_draws(law, rng, (n, n_ops))
        comm_mult = _unit_draws(law, rng, (max(n - 1, 0), n_ops))
    else:
        # Associated (Section 6.2): random instance sizes on deterministic
        # hardware. The output file of stage i inherits the stage's size
        # draw, positively correlating the computation time and the
        # subsequent transfer time of the same data set (Lemma 1's
        # association), while draws stay I.I.D. across data sets.
        comp_mult = _unit_draws(law, rng, (n, n_ops))
        comm_mult = comp_mult[: max(n - 1, 0), :].copy()
    return comp_mult, comm_mult


def _overlap_pass(
    comp_rows: list[list[float]],
    comm_rows: list[list[float]],
    reps: Sequence[int],
) -> tuple[list[float], list[float]]:
    """Overlap completions ``C[0]`` and ``C[n-1]``, one stage at a time.

    Stage ``i`` reads stage ``i - 1`` only at the same data set, so each
    stage's rows are finished before the next stage starts. A row that
    reads itself ``lag`` data sets back starts with ``lag`` zeros (the
    resource is free at 0): iterating it from the front then yields
    ``X[k - lag]`` while the loop appends ``X[k]`` at the back.
    """
    n = len(comp_rows)
    ready = [0.0] * len(comp_rows[0])  # every input is there at 0
    for i, times in enumerate(comp_rows):
        lag = reps[i]
        done = [0.0] * lag
        append = done.append
        for arrived, free, t in zip(ready, done, times):
            append((free if free > arrived else arrived) + t)
        done = done[lag:]
        if i == 0:
            first = done
        if i < n - 1:
            out_lag, in_lag = reps[i], reps[i + 1]
            pad = max(out_lag, in_lag)
            sent = [0.0] * pad
            append = sent.append
            for computed, out_free, in_free, t in zip(
                done,
                islice(sent, pad - out_lag, None),
                islice(sent, pad - in_lag, None),
                comm_rows[i],
            ):
                start = out_free if out_free > computed else computed
                append((in_free if in_free > start else start) + t)
            ready = sent[pad:]
    return first, done


def _strict_pass(
    comp_rows: list[list[float]],
    comm_rows: list[list[float]],
    reps: Sequence[int],
) -> tuple[list[float], list[float]]:
    """Strict completions ``C[0]`` and ``C[n-1]``, one data set at a time.

    Stage ``i``'s processor is free again after its last operation on
    the data set ``R_i`` earlier: its send ``D[i]``, or its computation
    for the last stage. That send is written while stage ``i + 1``
    receives, so a stage's reception waits for the next stage's earlier
    send and the stages cannot run one after another. ``free[i]`` holds
    that row behind ``R_i`` leading zeros, so ``free[i][k]`` is the
    value at data set ``k - R_i``.
    """
    n = len(comp_rows)
    free = [[0.0] * lag for lag in reps]
    first: list[float] = []
    for k, t in enumerate(comp_rows[0]):
        done = free[0][k] + t
        first.append(done)
        for i in range(1, n):
            # Reception = the transfer; compute follows directly.
            idle = free[i][k]
            start = idle if idle > done else done
            sent = start + comm_rows[i - 1][k]
            free[i - 1].append(sent)
            done = sent + comp_rows[i][k]
        free[n - 1].append(done)
    return first, free[n - 1][reps[n - 1]:]


def simulate_system(
    mapping: Mapping,
    model: ExecutionModel | str,
    *,
    n_datasets: int,
    law="deterministic",
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    bandwidth_efficiency: float = 1.0,
    correlation: str = "independent",
) -> SimulationResult:
    """Simulate ``n_datasets`` data sets through the mapped pipeline.

    Parameters
    ----------
    bandwidth_efficiency:
        Fraction of the nominal bandwidth actually usable (the paper's
        SimGrid delivers 92%; pass ``0.92`` to mimic it, or keep ``1.0``
        for the corrected platform the paper uses in its comparisons).
    correlation:
        ``"independent"`` draws one multiplier per operation;
        ``"associated"`` draws one multiplier per (stage, data set) for
        computations and one per (file, data set) for transfers, realizing
        the associated model of Section 6.2 (random task/file sizes on
        deterministic hardware).
    """
    model = ExecutionModel.coerce(model)
    _validate_sim_args(n_datasets, bandwidth_efficiency, correlation)
    if rng is None:
        rng = np.random.default_rng(seed)

    t0 = _time.perf_counter()
    n = mapping.n_stages
    reps = mapping.replication
    n_ops = n_datasets

    comp_mean, comm_mean = _mean_times(mapping, n_ops, bandwidth_efficiency)
    comp_mult, comm_mult = _multipliers(law, rng, n, n_ops, correlation)
    comp_times = comp_mean * comp_mult
    comm_times = comm_mean * comm_mult

    # Python floats: max and add are the same IEEE operations as on
    # float64, without boxing a numpy scalar on every element access.
    comp_rows = comp_times.tolist()
    comm_rows = comm_times.tolist()
    if model is ExecutionModel.OVERLAP:
        first, last = _overlap_pass(comp_rows, comm_rows, reps)
    elif model is ExecutionModel.STRICT:
        first, last = _strict_pass(comp_rows, comm_rows, reps)
    else:  # pragma: no cover
        raise UnsupportedModelError(str(model))
    comp_first, comp_last = np.array([first, last])

    # Latency of data set n: from the start of its first computation to
    # the end of its last one.
    entries = comp_first - comp_times[0]
    latencies = comp_last - entries

    return SimulationResult(
        completion_times=comp_last,
        n_events=n_ops * (2 * n - 1),
        wall_time=_time.perf_counter() - t0,
        latencies=latencies,
    )


# ----------------------------------------------------------------------
# Batched engine: replications as an axis, not a loop
# ----------------------------------------------------------------------
def simulate_system_batch(
    mapping: Mapping,
    model: ExecutionModel | str,
    *,
    n_datasets: int,
    rngs: Sequence[np.random.Generator],
    law="deterministic",
    bandwidth_efficiency: float = 1.0,
    correlation: str = "independent",
) -> list[SimulationResult]:
    """Evaluate one independent replication per generator in ``rngs``.

    The Section 2 recurrences are sequential in the data-set index but
    fully independent across replications, so every state array is lifted
    from shape ``(R_i lags,)`` to ``(R,)`` and the recurrence runs once,
    stepping all replications together. Each replication's multipliers
    are drawn as a block from *its own* generator in the serial draw
    order, so result ``r`` is bit-identical to
    ``simulate_system(..., rng=rngs[r])`` — the batch is a faster
    evaluation order, never a different experiment. Every result carries
    the whole batch's ``wall_time``.
    """
    model = ExecutionModel.coerce(model)
    _validate_sim_args(n_datasets, bandwidth_efficiency, correlation)
    n_reps = len(rngs)
    if n_reps < 1:
        raise ValueError("rngs must hold at least one generator")

    t0 = _time.perf_counter()
    n = mapping.n_stages
    reps = mapping.replication
    n_ops = n_datasets

    comp_mean, comm_mean = _mean_times(mapping, n_ops, bandwidth_efficiency)

    # (stage, data set, replication): the replication axis is last, so the
    # inner-loop operands comp_times[i, k] are contiguous (R,) vectors.
    comp_times = np.empty((n, n_ops, n_reps))
    comm_times = np.empty((max(n - 1, 0), n_ops, n_reps))
    for r, rng in enumerate(rngs):
        comp_mult, comm_mult = _multipliers(law, rng, n, n_ops, correlation)
        comp_times[:, :, r] = comp_mean * comp_mult
        comm_times[:, :, r] = comm_mean * comm_mult

    comp_done = np.zeros((n, n_ops, n_reps))
    comm_done = np.zeros((max(n - 1, 0), n_ops, n_reps))
    zeros = np.zeros(n_reps)

    def prev(arr_stage: np.ndarray, idx: int, lag: int) -> np.ndarray:
        j = idx - lag
        return arr_stage[j] if j >= 0 else zeros

    if model is ExecutionModel.OVERLAP:
        for k in range(n_ops):
            for i in range(n):
                ready = comm_done[i - 1, k] if i > 0 else zeros
                free = prev(comp_done[i], k, reps[i])
                out = comp_done[i, k]
                np.maximum(ready, free, out=out)
                out += comp_times[i, k]
                if i < n - 1:
                    out_free = prev(comm_done[i], k, reps[i])
                    in_free = prev(comm_done[i], k, reps[i + 1])
                    done = comm_done[i, k]
                    np.maximum(out, out_free, out=done)
                    np.maximum(done, in_free, out=done)
                    done += comm_times[i, k]
    elif model is ExecutionModel.STRICT:
        for k in range(n_ops):
            for i in range(n):
                if i == 0:
                    # Chain: comp -> send -> next comp.
                    free = (
                        prev(comm_done[0], k, reps[0])
                        if n > 1
                        else prev(comp_done[0], k, reps[0])
                    )
                    np.add(free, comp_times[0, k], out=comp_done[0, k])
                else:
                    # Reception = the transfer; compute follows directly.
                    recv_free = (
                        prev(comm_done[i], k, reps[i])
                        if i < n - 1
                        else prev(comp_done[i], k, reps[i])
                    )
                    done = comm_done[i - 1, k]
                    np.maximum(comp_done[i - 1, k], recv_free, out=done)
                    done += comm_times[i - 1, k]
                    np.add(done, comp_times[i, k], out=comp_done[i, k])
    else:  # pragma: no cover
        raise UnsupportedModelError(str(model))

    # Same derived quantities as the serial path, along the batch axis;
    # columns hold replications until the transpose.
    entries = comp_done[0] - comp_times[0]
    latencies = comp_done[n - 1] - entries
    wall_time = _time.perf_counter() - t0
    return [
        SimulationResult(
            completion_times=completions,
            n_events=n_ops * (2 * n - 1),
            wall_time=wall_time,
            latencies=sojourns,
        )
        for completions, sojourns in zip(
            np.ascontiguousarray(comp_done[n - 1].T),
            np.ascontiguousarray(latencies.T),
        )
    ]
