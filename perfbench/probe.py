"""Host speed probe: a fixed piece of pure-Python work timed next to each op.

The CPU speed this benchmark gets from its host shifts by up to half between
regimes that last from a second to minutes.  A run that lands in a slow
regime reads slower although the program did not change.  The probe does
the kind of work `pwenum` does (table walks, tuple-keyed dict tallies, small
slotted objects, sorting and string building) but none of `pwenum`'s code,
so a change to the program never changes the probe.  The benchmark scales
each op's time by REFERENCE_MS / (probe time next to it): every timing is
reported at one fixed host speed, the speed at which the probe takes
REFERENCE_MS.

This module is stdlib only and does not import `pwenum`.
"""

from __future__ import annotations

import gc
from time import perf_counter

# The probe's time on the 2-vCPU VM used to build the benchmark, in its fast
# regime.  A constant, so that scaled timings of two commits compare.
REFERENCE_MS = 1.2

_ADD = [[(a + b) % 16 for b in range(16)] for a in range(16)]
_MUL = [[(a * b) % 16 for b in range(16)] for a in range(16)]


class _Elt:
    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        return _Elt(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])


def _poly_mul(p, r):
    out = {}
    for ka, va in p.items():
        for kb, vb in r.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _work() -> int:
    total = 0
    for rep in range(4):
        tally = {}
        for b in range(16):
            row = _MUL[b]
            for u in range(24):
                acc = 0
                for x in (u, u + 3, u + 5, u + 7):
                    acc = _ADD[acc][row[(x + rep) % 16]]
                key = (b, acc)
                tally[key] = tally.get(key, 0) + 1
        p = {(i, 3 - i): i + 1 for i in range(4)}
        r = {(i % 2, i // 2): i - 1 for i in range(4)}
        poly = _poly_mul(_poly_mul(p, r), p)
        x = _Elt(8, range(4))
        for _ in range(30):
            x = x + _Elt(8, (1, 0, rep, 1))
        words = sorted(f"{k[0]}:{k[1]}={v}" for k, v in tally.items())
        total += len(poly) + x.coeffs[0] + len(",".join(words).split(":"))
    return total


def probe_ms() -> float:
    """Time one pass of the probe work, with the garbage collector held off.

    Collecting the previous op's garbage here would charge it to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return (perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()
