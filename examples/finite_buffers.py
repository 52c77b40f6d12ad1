#!/usr/bin/env python3
"""Finite buffers: what the paper's unbounded model costs in practice.

The paper's Overlap event graph is feed-forward, i.e. it assumes
unbounded inter-stage buffers. Real deployments bound them. This example
uses the library's capacitated extension (capacity places + the exact
marking CTMC of Theorem 2) to answer:

* how much throughput does a B-slot buffer retain vs the unbounded ideal?
* how does that interact with execution-time variability?

The punchline: with constant times B=2 already retains 100 % (there is no
jitter to absorb); with exponential times a balanced pipeline converges
only like 1 − O(1/B), so provisioning buffers is a *variability* question
— one the Theorem 7 machinery quantifies before any deployment.

Run: ``python examples/finite_buffers.py``
"""

from repro import Application, Mapping, Platform
from repro.core import exponential_throughput, overlap_throughput
from repro.petri import build_overlap_tpn
from repro.sim.tpn_sim import simulate_tpn


def main() -> None:
    app = Application.from_work([1e9, 1e9, 1e9], files=[1e8, 1e8])
    platform = Platform.homogeneous(n=3, speed=1e9, bandwidth=1e9)
    mapping = Mapping(app, platform, teams=[[0], [1], [2]])

    unbounded_exp = overlap_throughput(mapping, "exponential")
    unbounded_det = overlap_throughput(mapping, "deterministic")
    print("3-stage balanced pipeline, Overlap model")
    print(f"unbounded throughput: det = {unbounded_det:.4f}, "
          f"exp = {unbounded_exp:.4f}\n")

    print("buffer B | exp (exact CTMC) | retained | det (TPN) | retained")
    for cap in (1, 2, 4, 8):
        rho_exp = exponential_throughput(
            mapping, "overlap", buffer_capacity=cap, max_states=500_000,
        )
        tpn = build_overlap_tpn(mapping, buffer_capacity=cap)
        rho_det = simulate_tpn(
            tpn, n_datasets=4000, law="deterministic", seed=0
        ).steady_state_throughput()
        print(
            f"{cap:8d} | {rho_exp:16.4f} | {100 * rho_exp / unbounded_exp:7.1f}% "
            f"| {rho_det:9.4f} | {100 * rho_det / unbounded_det:7.1f}%"
        )

    print(
        "\nconstant times reach 100% from B = 2 (B = 1 still serializes "
        "each computation with its transfer); exponential times converge "
        "like 1 - O(1/B) to the unbounded value."
    )


if __name__ == "__main__":
    main()
