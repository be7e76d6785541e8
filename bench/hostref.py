"""Host reference kernel and roofline probes.

Nothing here imports the program under test: the reference kernel is a
fixed piece of numpy/scipy/pure-Python work whose run time says how fast
*this host* is *right now*.  The harness runs it immediately before and
after every timed repetition and divides it out, so that a repetition
timed while a hypervisor neighbour is busy reads the same "seconds on the
nominal host" as one timed while the box is quiet.  Because the filter
and the scaling look only at this file's work, they cannot favour one
version of the program over another.

The mix mirrors what the program's time is made of, because the host's
slow states do not slow all code alike (measured here: batched small
matmuls 1.9x, irregular sparse products 1.3x, gathers and sorts 1.2x):
irregular gather/scatter/sort on index arrays (assembly, symbolic phase),
an irregular-column CSR matvec plus BLAS-1 (the CG loop), batched 3x3
products (numeric factorization), and interpreter dispatch.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

REF_NOMINAL_S = 0.200
"""Run time of the reference kernel on the nominal host.  A constant, not
a calibration: ``host_factor = REF_NOMINAL_S / measured`` only has to be
the *same* constant on both sides of a comparison."""

REF_ROWS = 40_000
REF_NNZ_PER_ROW = 27
REF_MATVECS = 40
REF_INDEX_SIZE = 400_000
REF_INDEX_ROUNDS = 2
REF_BLOCKS = 20_000
REF_BLOCK_PRODUCTS = 35
REF_LOOP_STEPS = 200_000
BRACKET_TOLERANCE = 0.10
"""A repetition is invalid when its two bracketing reference timings
differ by more than this share of their mean."""

TRIAD_BYTES_PER_ARRAY = 16 * 2**20
"""Each triad/dot array: 4x the 4 MiB per-core L2 of the benchmark
host.  The shared L3 there is 260 MiB, so three such arrays stay
L3-resident: the number is an "L3-resident or DRAM" bandwidth, not a
pure DRAM one."""
L2_BYTES_ASSUMED = 4 * 2**20


class ReferenceKernel:
    """The fixed operands of the reference kernel (built once per run)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        rows = np.repeat(np.arange(REF_ROWS), REF_NNZ_PER_ROW)
        cols = rng.integers(0, REF_ROWS, rows.size)
        self.a = sp.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(REF_ROWS, REF_ROWS)
        )
        self.x = rng.standard_normal(REF_ROWS)
        self.y = np.empty(REF_ROWS)
        self.z = np.empty(REF_ROWS)
        self.index = rng.integers(0, REF_INDEX_SIZE, REF_INDEX_SIZE)
        self.values = rng.standard_normal(REF_INDEX_SIZE)
        self.blocks = rng.standard_normal((REF_BLOCKS, 3, 3))

    def run(self) -> float:
        """One reference measurement; returns its wall time in seconds."""
        a, x, y, z = self.a, self.x, self.y, self.z
        index, values, blocks = self.index, self.values, self.blocks
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(REF_INDEX_ROUNDS):
            gathered = values[index]
            scattered = np.zeros(REF_INDEX_SIZE)
            np.add.at(scattered, index[:50_000], gathered[:50_000])
            order = np.argsort(index[:100_000], kind="stable")
            acc += float(scattered[order[0]]) + np.unique(index[:100_000]).size
        for _ in range(REF_MATVECS):
            y[:] = a @ x
            np.multiply(y, 0.5, out=z)
            np.add(z, x, out=z)
            acc += float(np.dot(z, y))
        for _ in range(REF_BLOCK_PRODUCTS):
            product = np.matmul(blocks, blocks)
        acc += float(product[0, 0, 0])
        k = 0
        for i in range(REF_LOOP_STEPS):
            k = (k * 31 + i) & 0xFFFF
        if not np.isfinite(acc) or k < 0:  # consume every result
            raise RuntimeError("reference kernel produced a non-finite value")
        return time.perf_counter() - t0


def host_factor(ref_before: float, ref_after: float) -> float:
    """Scale from raw seconds to seconds on the nominal host."""
    return REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


def bracket_valid(ref_before: float, ref_after: float) -> bool:
    """False when the host changed state between the two brackets."""
    mean = 0.5 * (ref_before + ref_after)
    return abs(ref_after - ref_before) <= BRACKET_TOLERANCE * mean


def measure_roofline(repeats: int = 5) -> dict[str, float]:
    """STREAM-triad bandwidth and dot-product rate of one core.

    Best of *repeats*; the triad moves 3 arrays (2 reads + 1 write,
    write-allocate traffic not counted) of ``TRIAD_BYTES_PER_ARRAY``.
    """
    n = TRIAD_BYTES_PER_ARRAY // 8
    b = np.full(n, 1.5)
    c = np.full(n, 2.5)
    a = np.empty(n)
    best_triad = best_dot = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best_triad = min(best_triad, time.perf_counter() - t0)
        t0 = time.perf_counter()
        s = float(np.dot(b, c))
        best_dot = min(best_dot, time.perf_counter() - t0)
    if not np.isfinite(s) or not np.isfinite(a[-1]):
        raise RuntimeError("roofline probe produced a non-finite value")
    # numpy has no fused triad: a = 3c then a += b touches 5 arrays' worth
    # of memory (read c, write a, read a, read b, write a)
    return {
        "triad_gbs": 5 * TRIAD_BYTES_PER_ARRAY / best_triad / 1e9,
        "dot_gflops": 2 * n / best_dot / 1e9,
        "array_bytes": float(TRIAD_BYTES_PER_ARRAY),
        "l2_bytes_assumed": float(L2_BYTES_ASSUMED),
    }
