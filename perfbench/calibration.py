"""A fixed kernel that measures how fast the host runs right now.

On a shared host the speed of one vCPU moves by a third or more within
seconds and between minutes (turbo states, a busy hyperthread sibling), and
it moves every operation of a run alike.  The runner therefore runs this
kernel between operations, about every ``INTERVAL_S`` seconds, and scales
each operation's time by how fast the kernel ran in the seconds around it:
an operation that took ``t`` seconds while the kernel took ``k`` seconds
counts as ``t * REFERENCE_S / k`` speed-normalised seconds.

The kernel does, in small measure, the kinds of work the program does:
Python integer arithmetic as in finite-field characters, ``Fraction`` sums
as in NLC games, Jacobi-style row and column updates of a small complex
matrix driven from Python, and a vectorised one-hot scoring as in classical
enumeration.  It never calls ``nlgames``, so a change to the program cannot
change it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

# A typical kernel time on the 2-vCPU Intel Xeon host the benchmark was
# tuned on, where it ran in 0.019 to 0.034 s; normalised seconds are seconds
# at the speed where the kernel takes this long.
REFERENCE_S = 0.025
INTERVAL_S = 0.4
WINDOW_S = 1.0
WARMUP_RUNS = 5

_RNG = np.random.default_rng(2015)
_HERMITIAN = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_HERMITIAN = _HERMITIAN @ _HERMITIAN.conj().T
_TABLE = _RNG.integers(0, 3, size=(7, 4))
_WEIGHTS = _RNG.integers(1, 10, size=(7, 4))
_DIGITS = (np.arange(3**7)[:, None] // 3 ** np.arange(7)) % 3


def _field_products() -> list[int]:
    """Repeated products of polynomials over GF(7) modulo x^3 - 4."""
    acc = [1, 0, 0]
    for k in range(4000):
        prod = [0] * 5
        for i, x in enumerate(acc):
            for j, y in enumerate((k % 7, 1, 3)):
                prod[i + j] += x * y
        acc = [(prod[0] + 4 * prod[3]) % 7, (prod[1] + 4 * prod[4]) % 7, prod[2] % 7]
    return acc


def _fraction_sums() -> Fraction:
    total = Fraction(0)
    for _ in range(12):
        for k in range(1, 150):
            total += Fraction(k % 5, k)
    return total


def _phase_sweeps() -> np.ndarray:
    a = _HERMITIAN.copy()
    for _ in range(12):
        for p in range(15):
            for q in range(p + 1, 16):
                e = (a[p, q] / abs(a[p, q])).conjugate()
                a[:, q] *= e
                a[q, :] *= e.conjugate()
    return a


def _one_hot_scores() -> int:
    diff = (_TABLE[None] - _DIGITS[:, :, None]) % 3
    onehot = (diff[..., None] == np.arange(3)).astype(np.int64)
    return int(np.einsum("uv,cuvg->cvg", _WEIGHTS, onehot).max(axis=2).sum(axis=1).max())


def kernel() -> None:
    """One run of the fixed work, about ``REFERENCE_S`` seconds at reference speed."""
    _field_products()
    _fraction_sums()
    _phase_sweeps()
    _one_hot_scores()
    _one_hot_scores()


class Calibrator:
    """Runs the kernel between operations and gives each operation its speed.

    ``tick()`` is called after every timed operation and runs the kernel
    once ``INTERVAL_S`` has passed since its last run; ``tick(force=True)``
    runs it at once.  ``speed(start, end)`` is the median kernel time over
    the runs from ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after
    ``end``, always counting the last run before and the first run after.
    """

    def __init__(self):
        for _ in range(WARMUP_RUNS):
            kernel()
        self.midpoints: list[float] = []
        self.samples: list[float] = []  # seconds per kernel run
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._at >= INTERVAL_S:
            start = time.perf_counter()
            kernel()
            self._at = time.perf_counter()
            self.midpoints.append((start + self._at) / 2)
            self.samples.append(self._at - start)

    def speed(self, start: float, end: float) -> float:
        lo = min(
            bisect.bisect_left(self.midpoints, start - WINDOW_S),
            max(bisect.bisect_right(self.midpoints, start) - 1, 0),
        )
        hi = max(
            bisect.bisect_right(self.midpoints, end + WINDOW_S),
            bisect.bisect_left(self.midpoints, end) + 1,
        )
        return statistics.median(self.samples[lo:hi])
