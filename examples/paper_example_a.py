#!/usr/bin/env python3
"""The paper's Example A, end to end (Fig. 1, Sections 3-4).

Reconstructs the 4-stage / 7-processor mapping with replication, builds
the timed Petri nets of both execution models (Figs. 2 and 3), and
reproduces the paper's structural observations:

* 6 round-robin paths (Proposition 1);
* the Overlap net is feed-forward, the Strict net is strongly connected;
* the Overlap throughput is pinned by a critical resource while the
  Strict model can lose throughput on mixed-resource cycles
  (period > Mct, Section 4.2).

Run: ``python examples/paper_example_a.py``
"""

from repro import StreamingSystem
from repro.mapping import example_a, max_cycle_time
from repro.petri import (
    build_overlap_tpn,
    build_strict_tpn,
    is_feed_forward,
    is_strongly_connected,
    strongly_connected_components,
)


def main() -> None:
    mp = example_a()
    print(f"Example A: {mp}")
    print("teams:", mp.teams)
    print("paths (Proposition 1):")
    for j, path in enumerate(mp.paths()):
        print(f"  data sets {j} mod 6 -> " + " -> ".join(f"P{p}" for p in path))

    overlap = build_overlap_tpn(mp)
    strict = build_strict_tpn(mp)
    print(f"\nOverlap TPN: {overlap}")
    print(f"  feed-forward: {is_feed_forward(overlap)}")
    print(f"Strict TPN:  {strict}")
    print(f"  strongly connected: {is_strongly_connected(strict)}")

    comps = strongly_connected_components(overlap)
    print(f"\nOverlap SCCs: {len(comps)} components")

    for model in ("overlap", "strict"):
        rho = StreamingSystem(mp, model).deterministic_throughput()
        mct = max_cycle_time(mp, model)
        gap = (1 / mct - rho) / (1 / mct)
        print(
            f"\n{model:8s}: period = {1 / rho:8.3f}  Mct = {mct:8.3f}  "
            f"gap = {100 * gap:5.2f}%"
            + ("  <- no critical resource!" if gap > 1e-6 else "")
        )

    # Probabilistic view: exponential value and the N.B.U.E. sandwich.
    sys_ = StreamingSystem(mp, "overlap")
    bounds = sys_.throughput_bounds()
    print(
        f"\nOverlap N.B.U.E. sandwich: "
        f"[{bounds.lower:.5f}, {bounds.upper:.5f}] data sets per time unit"
    )
    sim = sys_.simulate(n_datasets=20_000, law="exponential", seed=0)
    print(f"exponential simulation   : {sim.steady_state_throughput():.5f}")


if __name__ == "__main__":
    main()
