"""Host-speed calibration: a fixed kernel timed between the workload's calls.

The benchmark was built on a shared 2-core host whose speed drifts by 15-20%
between 50-second runs (other tenants, SMT siblings, steal). That drift moves
every timing of a run together. The calibration kernel samples the host's
speed all through a run, and the gated timings are scaled by it:

    scaled = mean(call seconds) * REFERENCE_S / mean(kernel seconds)

i.e. the call's time on a host where one kernel pass takes REFERENCE_S.

The kernel uses numpy and plain Python only, never eegnn, so a change to
eegnn cannot change it. It mixes what eegnn's calls spend their time on: a
small dense matmul, a gather and scatter-add over random arcs (spmm), an
elementwise activation, many numpy calls on small arrays (the eigensolver),
and many small Python objects (tape nodes). Changing the kernel or
REFERENCE_S changes every scaled metric, so a change to them is a change of
the benchmark, measured again on the parent.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.06
_rng = np.random.default_rng(12345)
_H0 = _rng.standard_normal((900, 32))
_W = 0.1 * _rng.standard_normal((32, 32))
_SRC = _rng.integers(0, 900, 7000)
_DST = np.sort(_rng.integers(0, 900, 7000))
_SMALL = _rng.standard_normal((24, 24))


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents):
        self.value, self.parents = value, parents


def kernel() -> float:
    """One pass: ten rounds of a 900-row layer (matmul, gather and
    scatter-add, tanh), Givens rotations on a 24 x 24 matrix (many small numpy
    calls, as in eegnn's QR eigensolver), and a list of small objects."""
    h, tape = _H0, []
    for _ in range(10):
        z = h @ _W
        m = np.zeros_like(z)
        np.add.at(m, _DST, z[_SRC])
        h = np.tanh(z + 0.01 * m)
        tape.append(_Node(h, (z, m)))
        a = _SMALL.copy()
        for i in range(23):
            x, y = a[i, i], a[i + 1, i]
            r = np.hypot(x, y)
            rot = np.array([[x, y], [-y, x]]) / r
            a[i:i + 2, :] = rot @ a[i:i + 2, :]
        tape.append(_Node(a, (h,)))
        for j in range(150):
            tape.append(_Node(j, (j,)))
    return float(h[0, 0] + a[0, 0])


class Calibrator:
    """Seconds of every kernel pass of one run. A disabled one samples
    nothing, so that the traced run's spans hold no kernel passes."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []

    def sample(self) -> None:
        if not self.enabled:
            return
        t = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t)

    def total(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        """REFERENCE_S over the mean kernel pass: multiply a time by it to get
        the time at reference speed."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
