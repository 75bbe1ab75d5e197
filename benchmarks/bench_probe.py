"""Machine-speed probe that runs beside the benchmark on the same CPU.

On a shared virtual machine the speed of one vCPU changes by up to 1.5x
for stretches of seconds, also in the middle of a long operation.  This
script, started by ``SpeedTrace``, pins itself to the benchmark's CPU and,
every ``INTERVAL_S``, runs a fixed kernel for ``BURST_S`` of its own CPU
time.  It prints one line per burst: the monotonic clock and the kernel's
rate relative to ``NOMINAL_RATE``.  Counting its own CPU time keeps the
rate independent of how the scheduler interleaves it with the benchmark.

The kernel is one eigh-based step at the workload's matrix size:
decompose a complex Hermitian matrix, exponentiate, multiply.  At 2x2 that
is mostly NumPy call overhead, at 60x60 mostly LAPACK, as in the
workloads; contention on the host slows the two by different amounts.
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import time

INTERVAL_S = 0.2
BURST_S = 0.01
WINDOW_S = 1.0
# Kernel iterations per CPU second on the development VM (Intel Xeon,
# 2 vCPU), by matrix size.
NOMINAL_RATE = {2: 40000.0, 60: 1150.0}


def probe(cpu: int, dim: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a + a.conj().T
    nominal = NOMINAL_RATE[dim]
    while True:
        time.sleep(INTERVAL_S)
        n, c0 = 0, time.thread_time()
        while True:
            w, v = np.linalg.eigh(m)
            u = (v * np.exp(1j * w)) @ v.conj().T
            float(np.abs(u @ m).max())
            n += 1
            used = time.thread_time() - c0
            if used >= BURST_S:
                break
        print(f"{time.monotonic():.6f} {n / used / nominal:.6f}", flush=True)


class SpeedTrace:
    """Runs the probe process for the lifetime of this object.

    ``close()`` stops the probe and collects its samples; ``speed(t0, t1)``
    is then the mean speed over a monotonic-clock interval.
    """

    def __init__(self, cpu: int, dim: int):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu), str(dim)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self.times: list = []
        self.speeds: list = []

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        out, _ = self._proc.communicate(timeout=30)
        for line in out.splitlines():
            t, s = line.split()
            self.times.append(float(t))
            self.speeds.append(float(s))

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1], widened to at least ``WINDOW_S``
        around its midpoint so that short intervals average several
        samples."""
        if not self.speeds:
            raise RuntimeError("the speed probe produced no samples")
        half = max(0.5 * (t1 - t0), 0.5 * WINDOW_S)
        mid = 0.5 * (t0 + t1)
        lo = bisect.bisect_left(self.times, mid - half)
        hi = bisect.bisect_right(self.times, mid + half + BURST_S)
        window = self.speeds[lo:hi] or self.speeds[max(lo - 1, 0):lo + 1]
        return sum(window) / len(window)


if __name__ == "__main__":
    probe(int(sys.argv[1]), int(sys.argv[2]))
