"""How fast the host runs Python right now, from a fixed reference kernel.

The host's speed drifts by up to a factor of two over minutes (other tenants
share its cores and caches), and a wall time taken inside one run cannot
remove drift that lasts longer than the run. The benchmark therefore runs
`probe()` between compiles and divides each wall time by the host's slowdown
at that moment: the probe's time over `NOMINAL_S`. The kernel uses no
`ionpd` code, so a change to the program does not move it. It mixes the kind
of work the program does: a networkx planarity test (the library `planar`
calls most), dictionary updates in a plain loop, and building and sorting
many small objects.
"""

from __future__ import annotations

import gc
import time

import networkx as nx

# the kernel's time on the reference host; results are reported in seconds
# of that host
NOMINAL_S = 0.040
# after a compile, probe for this share of its wall time, at least once
PROBE_SHARE = 0.1

_GRID = nx.grid_2d_graph(20, 20)
_LOOP = 30_000
_OBJECTS = 15_000
# bound at import, so the traced run's counting wrapper never sees the probe
_check_planarity = nx.check_planarity


def _kernel() -> None:
    _check_planarity(_GRID)
    counts: dict[int, int] = {}
    for i in range(_LOOP):
        counts[i % 997] = counts.get(i % 997, 0) + i
    rows = [(i * 7919 % _OBJECTS, [i], {"id": i}) for i in range(_OBJECTS)]
    rows.sort(key=lambda row: row[0])


_kernel()  # warm up, so the first probe of a process is not an outlier


def probe() -> float:
    """The host's slowdown now: the kernel's wall time over `NOMINAL_S`.

    The garbage collector is off meanwhile: a collection would walk the
    objects the program left alive, and the probe would time the heap."""
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return (time.perf_counter() - start) / NOMINAL_S
    finally:
        gc.enable()


def probe_after(seconds: float) -> list[float]:
    """Slowdowns right after `seconds` of work: one probe, and more until
    the probes have run for `PROBE_SHARE` of that time."""
    slowdowns = [probe()]
    while sum(slowdowns) * NOMINAL_S < PROBE_SHARE * seconds:
        slowdowns.append(probe())
    return slowdowns
