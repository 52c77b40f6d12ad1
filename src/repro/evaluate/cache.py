"""Shared structure cache backing the throughput solvers.

One :class:`StructureCache` instance memoizes, across any number of
``evaluate`` / ``evaluate_many`` calls:

* **scores** — ``(solver, options, timing fingerprint)`` → throughput.
  This is the memo behind the mapping-search guarantee that no candidate
  is ever evaluated twice;
* **nets** — timing fingerprint → built :class:`TimedEventGraph` (with
  its lazily built incidence kernel), shared between solvers looking at
  the same mapping (e.g. both halves of the Theorem 7 sandwich);
* **reachability** — structure fingerprint → :class:`ReachabilityResult`.
  The reachable-marking graph of a bounded net depends only on the
  topology, so candidates differing only in their times (every swap move
  of a hill climb) reuse one exploration and pay only the CTMC solve.

The cache is a plain in-process object: share one instance to share
work, pass ``StructureCache(enabled=False)`` to measure the uncached
cost.

A long-lived holder — the :mod:`repro.service` daemon keeps one cache
for its whole lifetime — can bound memory with ``max_entries``: each of
the three maps becomes an LRU of at most that many entries, and
evictions are counted in :meth:`stats` (the service surfaces them in
its ``ping`` reply).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.evaluate.fingerprint import mapping_fingerprint, structure_fingerprint
from repro.mapping.mapping import Mapping
from repro.telemetry.profile import profile_span
from repro.types import ExecutionModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.petri.net import TimedEventGraph
    from repro.petri.reachability import ReachabilityResult


class StructureCache:
    """Score memo + structural artefact cache for the solver registry."""

    def __init__(
        self, *, enabled: bool = True, max_entries: int | None = None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.enabled = enabled
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._scores: OrderedDict[tuple, float] = OrderedDict()
        self._nets: OrderedDict[tuple, TimedEventGraph] = OrderedDict()
        self._reach: OrderedDict[tuple, ReachabilityResult] = OrderedDict()

    # ------------------------------------------------------------------
    # LRU plumbing
    # ------------------------------------------------------------------
    def _touch(self, table: OrderedDict, key: tuple) -> None:
        """Mark ``key`` most-recently-used (no-op when unbounded)."""
        if self.max_entries is not None:
            table.move_to_end(key)

    def _insert(self, table: OrderedDict, key: tuple, value) -> None:
        """Insert, evicting the least-recently-used entry when over cap."""
        table[key] = value
        if self.max_entries is not None and len(table) > self.max_entries:
            table.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Score memo
    # ------------------------------------------------------------------
    def score_key(
        self,
        mapping: Mapping,
        model: ExecutionModel | str,
        solver_name: str,
        options_key: tuple,
    ) -> tuple:
        with profile_span("fingerprint"):
            return (solver_name, options_key, mapping_fingerprint(mapping, model))

    def lookup(self, key: tuple) -> float | None:
        """Memoized score for ``key``; counts the hit when present."""
        with profile_span("cache_lookup"):
            if self.enabled and key in self._scores:
                self.hits += 1
                self._touch(self._scores, key)
                return self._scores[key]
            return None

    def store(self, key: tuple, value: float) -> float:
        """Record a freshly computed score (counts the miss)."""
        self.misses += 1
        if self.enabled:
            self._insert(self._scores, key, value)
        return value

    def score(self, key: tuple, compute: Callable[[], float]) -> float:
        cached = self.lookup(key)
        if cached is not None:
            return cached
        return self.store(key, compute())

    # ------------------------------------------------------------------
    # Structural artefacts
    # ------------------------------------------------------------------
    def net(
        self,
        mapping: Mapping,
        model: ExecutionModel | str,
        build: Callable[[], "TimedEventGraph"],
        **builder_options,
    ) -> "TimedEventGraph":
        """Built (and kernel-cached) net for a timing fingerprint."""
        if not self.enabled:
            return build()
        key = (
            mapping_fingerprint(mapping, model),
            tuple(sorted(builder_options.items())),
        )
        net = self._nets.get(key)
        if net is None:
            net = build()
            self._insert(self._nets, key, net)
        else:
            self._touch(self._nets, key)
        return net

    def reachability(
        self,
        mapping: Mapping,
        model: ExecutionModel | str,
        explore: Callable[[], "ReachabilityResult"],
        *,
        max_states: int,
        place_bound: int,
        **builder_options,
    ) -> "ReachabilityResult":
        """Reachability result shared across a structure fingerprint.

        ``max_states``/``place_bound`` join the key so a cached success
        can never mask the :class:`StateSpaceLimitError` a stricter limit
        would have raised.
        """
        if not self.enabled:
            return explore()
        key = (
            structure_fingerprint(mapping, model, **builder_options),
            max_states,
            place_bound,
        )
        reach = self._reach.get(key)
        if reach is None:
            reach = explore()
            self._insert(self._reach, key, reach)
        else:
            self._touch(self._reach, key)
        return reach

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        """Total score requests routed through the memo."""
        return self.hits + self.misses

    def stats(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "nets": len(self._nets),
            "reachability": len(self._reach),
            "scores": len(self._scores),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"StructureCache(requests={s['requests']}, hits={s['hits']}, "
            f"misses={s['misses']}, evictions={s['evictions']}, "
            f"nets={s['nets']}, reach={s['reachability']}, "
            f"enabled={self.enabled})"
        )
