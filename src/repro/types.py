"""Shared enums and type aliases used across the library."""

from __future__ import annotations

import enum
from typing import Union

import numpy as np

#: Anything accepted where a float is expected (numpy scalars included).
Real = Union[int, float, np.floating]

#: Index of a processor in a platform (0-based).
ProcIndex = int

#: Index of a stage in an application (0-based; the paper uses 1-based T_i).
StageIndex = int


class ExecutionModel(enum.Enum):
    """The two execution models of the paper (Section 2.1).

    * ``OVERLAP`` — a processor can simultaneously receive the next data
      set, compute the current one and send the previous one (full duplex,
      one-port per direction).
    * ``STRICT`` — receive, compute and send are serialized on each
      processor (single-threaded, one-port).
    """

    OVERLAP = "overlap"
    STRICT = "strict"

    @classmethod
    def coerce(cls, value: "ExecutionModel | str") -> "ExecutionModel":
        """Accept either an enum member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:  # pragma: no cover - defensive
            raise ValueError(f"unknown execution model: {value!r}") from exc


class TransitionKind(enum.Enum):
    """What a timed-Petri-net transition models."""

    COMPUTE = "compute"
    COMM = "comm"


class PlaceKind(enum.Enum):
    """Why a place exists in the timed Petri net (Section 3 constraints).

    * ``FLOW`` — data dependence along a row (constraint set 1);
    * ``PROC_CYCLE`` — round-robin of a processor's computations
      (Overlap constraint 2);
    * ``OUT_PORT`` — one-port round-robin on a processor's sends
      (Overlap constraint 3);
    * ``IN_PORT`` — one-port round-robin on a processor's receptions
      (Overlap constraint 4);
    * ``STRICT_CYCLE`` — serialization receive→compute→send→receive of the
      Strict model (Section 3.3);
    * ``CAPACITY`` — optional finite-buffer back-pressure place (library
      extension, not in the paper: ``build_overlap_tpn(buffer_capacity=B)``
      bounds every flow place at ``B`` tokens).
    """

    FLOW = "flow"
    PROC_CYCLE = "proc-cycle"
    OUT_PORT = "out-port"
    IN_PORT = "in-port"
    STRICT_CYCLE = "strict-cycle"
    CAPACITY = "capacity"
