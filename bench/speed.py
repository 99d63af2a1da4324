"""A fixed loop that measures how fast the host runs Python right now.

The benchmark runs on shared hosts, where a neighbour's load slows every
instruction of a run by up to ~1.9x for seconds to minutes.  `probe_loop`
is a small copy of the shape of lerchsum's hot path (a complex power series
fed through a Neumaier-compensated sum, with a log and an exp per term),
written here so that no change to lerchsum changes it.  Its fastest time
over a run says how fast the host was, and run.py scales the run's times by
it.  Nothing here imports lerchsum.
"""

from __future__ import annotations

import cmath
import math
import time

PROBE_TERMS = 300
_S = complex(-0.6, 1.3)
_Z = cmath.rect(0.97, 2.1)
# probe_time() on the reference host (a 2-core shared Xeon VM at 2.0 GHz)
# when no neighbour slows it.  It only fixes the unit: scaled times are
# seconds at this speed.
PROBE_REF_S = 4.0e-4


class _Neumaier:
    __slots__ = ("sr", "si", "cr", "ci")

    def __init__(self):
        self.sr = self.si = self.cr = self.ci = 0.0

    def add(self, term: complex) -> None:
        term = complex(term)
        tr, ti = term.real, term.imag
        if not (math.isfinite(tr) and math.isfinite(ti)):
            raise OverflowError("non-finite term")
        sr, si = self.sr, self.si
        t = sr + tr
        self.cr += (sr - t) + tr if abs(sr) >= abs(tr) else (tr - t) + sr
        self.sr = t
        t = si + ti
        self.ci += (si - t) + ti if abs(si) >= abs(ti) else (ti - t) + si
        self.si = t

    @property
    def value(self) -> complex:
        return complex(self.sr + self.cr, self.si + self.ci)


def _log(w: complex) -> complex:
    return complex(math.log(abs(w)), math.atan2(w.imag, w.real))


def probe_loop(terms: int = PROBE_TERMS) -> complex:
    """sum_k z^k (k + v)^-s over `terms` terms, compensated."""
    acc = _Neumaier()
    zpow = 1.0 + 0j
    for k in range(terms):
        acc.add(cmath.exp(-_S * _log(complex(0.75 + k, 0.5))) * zpow)
        zpow *= _Z
    return acc.value


def probe_time() -> float:
    """Seconds taken by one probe_loop()."""
    start = time.perf_counter()
    probe_loop()
    return time.perf_counter() - start
