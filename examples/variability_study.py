#!/usr/bin/env python3
"""How much does execution-time variability cost? (Sections 6-7)

A practitioner question the paper answers precisely: given a mapped
pipeline, how far can random execution times push the throughput below
its deterministic design point?

* For any N.B.U.E. law the answer is bounded by Theorem 7: never below
  the same-means exponential system.
* For heavy-tailed (non-N.B.U.E.) noise all bets are off — we measure
  gamma(shape<1) and hyperexponential laws crossing the floor.

The example sweeps a realistic grid of laws on a replicated pipeline and
prints the throughput retained vs the deterministic value.

Run: ``python examples/variability_study.py``
"""

from repro import Application, Mapping, Platform, StreamingSystem
from repro.distributions import make_distribution


LAWS = [
    ("deterministic", {}),
    ("erlang", {"k": 8}),
    ("truncnorm", {"sigma": 0.3}),
    ("beta", {"shape": 2.0}),
    ("uniform", {}),
    ("gamma", {"shape": 2.0}),
    ("exponential", {}),
    ("gamma", {"shape": 0.5}),
    ("hyperexponential", {"cv2": 6.0}),
    ("lognormal", {"sigma": 1.2}),
]


def main() -> None:
    # Light computations around a heavy shuffle: the 3→4 replicated
    # communication is the bottleneck, which is where randomness hurts the
    # most (the Theorem 7 sandwich is widest on communication patterns).
    app = Application.from_work(
        work=[1e9, 3e9, 3e9, 1e9],
        files=[120e6, 2.5e9, 120e6],
    )
    platform = Platform.homogeneous(n=9, speed=3e9, bandwidth=1.5e9)
    mapping = Mapping(
        app, platform, teams=[[0], [1, 2, 3], [4, 5, 6, 7], [8]]
    )
    system = StreamingSystem(mapping, "overlap")

    bounds = system.throughput_bounds()
    det = bounds.upper
    print(f"pipeline: {mapping}")
    print(f"deterministic design point : {det:.4f} data sets/s")
    print(
        f"Theorem 7 floor (N.B.U.E.) : {bounds.lower:.4f} "
        f"({100 * bounds.lower / det:.1f}% retained)\n"
    )
    print(f"{'law':28s} {'cv²':>6s} {'NBUE':>5s} {'throughput':>11s} {'retained':>9s}")
    for family, params in LAWS:
        dist = make_distribution(family, 1.0, **params)
        sim = system.simulate(
            n_datasets=15_000, law=family, law_params=params, seed=101
        )
        rho = sim.steady_state_throughput()
        label = f"{family}({', '.join(f'{k}={v}' for k, v in params.items())})"
        flag = "*" if rho < bounds.lower * 0.98 else ""
        print(
            f"{label:28s} {dist.cv2:6.2f} {str(dist.is_nbue):>5s} "
            f"{rho:11.4f} {100 * rho / det:8.1f}%{flag}"
        )
    print("\n* = below the Theorem 7 floor (only possible for non-N.B.U.E. laws)")

    # How trustworthy is one simulated estimate? Section 7.3's answer:
    # replicate it. A ReplicationSpec runs all replications through one
    # vectorized recurrence pass, so this costs little more than a
    # single run.
    from repro.sim import ReplicationSpec, replicate

    summary = replicate(
        ReplicationSpec(mapping, "overlap", n_datasets=5_000, law="exponential"),
        n_replications=200,
        seed=101,
    )
    print(
        f"\nexponential estimator over {summary.n_replications} replications "
        f"(one vectorized pass): mean {summary.mean:.4f}, "
        f"std {100 * summary.relative_std:.2f}% of mean, "
        f"range [{summary.min:.4f}, {summary.max:.4f}]"
    )


if __name__ == "__main__":
    main()
