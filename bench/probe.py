"""A fixed reference workload that measures how fast the machine runs right
now.

The benchmark runs on shared machines whose speed drifts by a third over
minutes, which would swamp any change to featherline.  Every timed pass
also times a probe between ops, and each reported time is scaled by the
probe's nominal time over its mean time in that pass: the time the op would
have taken on the machine the nominal value was taken on.  `probe_ns` does
the kind of work the in-process ops do (exact rational arithmetic on
tuples, dict lookups, formatting); the cli-gallery workload instead starts
a bare interpreter (see gallery.py).  Neither touches featherline, so no
change to the engine can move them.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Probe time on the reference machine: Python 3.11.7, 2 vCPUs at 2.1 GHz,
# in a quiet spell.
NOMINAL_NS = 1_000_000

_XS = tuple(Fraction(i, 7 + i % 5) for i in range(60))


def probe_ns() -> int:
    t0 = time.perf_counter_ns()
    for _ in range(4):
        acc = Fraction(0)
        out = []
        for x in _XS:
            acc += x
            out.append(acc)
        out = tuple(out)
        all(out[i] <= out[i + 1] for i in range(len(out) - 1))
        {p: i for i, p in enumerate(out[:30])}
        ",".join("%d/%d" % (v.numerator, v.denominator) for v in out[::4])
    return time.perf_counter_ns() - t0


class Calibration:
    """Accumulates probe times; `scale()` converts measured times to
    nominal-machine times."""

    def __init__(self, probe=probe_ns, nominal_ns=NOMINAL_NS):
        self.probe = probe
        self.nominal_ns = nominal_ns
        self.total_ns = 0
        self.count = 0

    def sample(self):
        self.total_ns += self.probe()
        self.count += 1

    def scale(self) -> float:
        return self.nominal_ns * self.count / self.total_ns
