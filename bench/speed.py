"""Machine-speed calibration: times in reference seconds.

On a shared host the same pass can take 1.5 times as long from one minute to
the next, with the process on the CPU all the while: its neighbours slow the
core, not the scheduler. A fixed calibration kernel, made of the kind of
work a workload does and run right before and right after each timed
interval, measures that slowdown. `RefClock.time` scales the interval by the
kernel's reference time over the mean of those two kernel times. The result
is the interval in reference seconds: how long it would have taken on a
machine where the kernel takes its reference time. The kernels are the
benchmark's own code and never call moilab, so a change to moilab moves
reference seconds just as it moves wall seconds.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20261017)
_SMALL = tuple(_rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6)) for _ in range(40))
_TEXT = json.dumps(_rng.standard_normal((96, 128, 2)).tolist())
_MID = _rng.standard_normal((16, 32, 32)) + 0j
_STACK = _rng.standard_normal((32, 64, 64)) + 1j * _rng.standard_normal((32, 64, 64))
_PROJS = _rng.standard_normal((16, 1, 64, 64)) + 0j


def python_kernel() -> None:
    """Interpreter-bound work in about equal parts: a dict loop, small
    complex SVDs/QRs/einsums, and JSON text to an array."""
    counts: dict[int, int] = {}
    for k in range(120_000):
        counts[k & 255] = counts.get(k & 255, 0) + k % 7
    for m in _SMALL:
        for _ in range(8):
            np.linalg.svd(m, compute_uv=False)
            np.linalg.qr(m)
            np.einsum("ij,jk->ik", m, m)
    np.asarray(json.loads(_TEXT))


def contraction_kernel() -> None:
    """BLAS- and memory-bound work: two folds of a (32, 64, 64) complex
    stack through a middle table, with 32 MiB intermediate blocks."""
    for _ in range(2):
        c = np.tensordot(_MID, _STACK, axes=([1], [0]))
        np.matmul(c, _PROJS).sum(axis=0)


# each kernel's median time, in seconds, on a 2-vCPU virtual machine
# (Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread)
KERNELS = {
    "python": (python_kernel, 0.045),
    "contraction": (contraction_kernel, 0.120),
}


class RefClock:
    """Times calls in reference seconds of the named kernel. Consecutive
    calls share the kernel run between them, so the kernel runs once more
    than there are calls."""

    def __init__(self, kernel: str):
        self.kernel, self.ref_kernel_s = KERNELS[kernel]
        self.kernel()  # warm-up: lazy library set-up is not a sample
        self.kernel_s = [self._kernel_seconds()]
        self.raw_s = 0.0  # wall seconds of every call timed, summed

    def _kernel_seconds(self) -> float:
        start = perf_counter()
        self.kernel()
        return perf_counter() - start

    def time(self, fn, *args):
        """(fn(*args), its wall seconds, its reference seconds)."""
        start = perf_counter()
        result = fn(*args)
        raw = perf_counter() - start
        before = self.kernel_s[-1]
        self.kernel_s.append(self._kernel_seconds())
        ref = raw * self.ref_kernel_s * 2 / (before + self.kernel_s[-1])
        self.raw_s += raw
        return result, raw, ref
