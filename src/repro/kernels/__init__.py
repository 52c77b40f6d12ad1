"""Array kernels of the reachability explorer.

The kernel layer turns a :class:`~repro.petri.net.TimedEventGraph` into
dense numpy incidence matrices once, so the batched reachability BFS
(whose arcs the Markov builder then assembles into a CTMC) works on
contiguous arrays instead of Python lists of dataclasses.
"""

from repro.kernels.incidence import IncidenceKernel

__all__ = ["IncidenceKernel"]
