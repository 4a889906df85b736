"""How fast the host runs the interpreter right now, from a fixed probe.

The benchmark shares a few cores of a host whose speed flips between a fast
and a slow state, about 1.8x apart, every second or so, for every kind of
work alike.  So the untraced run brackets every op (and every set-up) with a
fixed reference computation and reports its time scaled to a host on which
that probe takes `REFERENCE_MS`: the op's time is multiplied by
`REFERENCE_MS` over the mean of the probes just before and just after it.
The probe is benchmark code, so a change to the workbench moves the ops and
not the probe, and the scaled times move by the change alone.  The probe
runs between ops, never inside one, with the cyclic collector off so that it
never collects the workbench's garbage.
"""

import gc
from time import perf_counter

# About the probe's time on the 2-vCPU Xeon host the bounds were tuned on,
# in its slow state; scaled times there read close to wall-clock times.
REFERENCE_MS = 1.0
WARM_UP = 20


class _Node:
    __slots__ = ("kind", "key", "uses")

    def __init__(self, kind, key):
        self.kind = kind
        self.key = key
        self.uses = 0


def reference():
    """Hash-consing in miniature: tuple keys, dict lookups, small objects."""
    table = {}
    for i in range(1200):
        key = (i & 31, i >> 5, "ab"[i & 1])
        node = table.get(key)
        if node is None:
            table[key] = node = _Node(key[2], key)
        node.uses += 1
    return len(table)


class SpeedProbe:
    def __init__(self):
        for _ in range(WARM_UP):
            self.last = self._time()
        self.samples = []

    def _time(self):
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference()
        seconds = perf_counter() - start
        if enabled:
            gc.enable()
        return seconds

    def bracket(self):
        """Probe now.  Returns the factor that turns a time measured since
        the last probe into a time at reference speed."""
        now = self._time()
        self.samples.append(now)
        local, self.last = (self.last + now) / 2, now
        return REFERENCE_MS / 1e3 / local

    @property
    def spent(self):
        """Seconds spent probing since the warm-up."""
        return sum(self.samples)
