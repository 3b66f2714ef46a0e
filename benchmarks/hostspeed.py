"""A fixed probe of the host's speed, timed between the program's operations.

The benchmark runs on a few cores of a shared host whose speed drifts by
a quarter or more over tens of seconds.  ``probe`` does the same fixed
work every time, in the three kinds the program does: interpreter work
on small Python objects, numpy calls on small arrays, and a product,
argmax and gather over a 7,000-row matrix.  The median of its timings
over a run gives the run's host speed.  It uses no code of the program,
so a change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20240)
_DESIGN = _rng.standard_normal((7000, 13))
_UNITS = _rng.standard_normal((4, 13))
_SMALL = _rng.standard_normal((60, 13))
_ROWS = np.arange(7000)


def _interpreter() -> int:
    table = {}
    for i in range(7500):
        key = f"k{i % 97}"
        table.setdefault(key, []).append((i, i * 0.5))
    return sum(len(v) for v in table.values())


def _small_arrays() -> float:
    total = 0.0
    for i in range(750):
        row = _SMALL[i % 60] * 0.9 + _SMALL[(i * 7) % 60] * 0.1
        total += float(np.abs(row).max())
    return total


def _matrix() -> float:
    total = 0.0
    for _ in range(9):
        excitation = _DESIGN @ _UNITS.T
        winners = np.argmax(excitation, axis=1)
        total += float(np.mean(excitation[_ROWS, winners] ** 2))
    return total


def probe() -> float:
    """Seconds taken by the fixed work (about 18 ms on a quiet 2 GHz core)."""
    t0 = time.perf_counter()
    _interpreter()
    _small_arrays()
    _matrix()
    return time.perf_counter() - t0
