"""Host-speed calibration for the end-to-end times.

A shared host can run every process tens of percent slower for seconds to
minutes at a time, so raw wall times of identical runs spread by more than
any useful regression bound.  Before each invocation, and once after the
last, the benchmark times a fixed kernel that does not use sde_gridopt on
two worker processes at once, one per core of the reference host.  Each
invocation's times are scaled by REF_S over the mean of the two readings
that bracket it: the result is seconds at the speed at which the kernel
takes REF_S.  REF_S is a typical reading on the 2-core x86-64 host of the
recorded baseline (numpy 2.4.6, scipy 1.17.1).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

REF_S = 0.95
STEPS = 25_000
WORKERS = 2
WAIT_S = 30.0
# One BLAS thread per worker: idle BLAS threads of two processes spinning
# on two cores starve each other.  Only the workers get these variables,
# never the benchmarked commands.
_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def kernel() -> float:
    """Seconds for ``scipy.linalg.expm`` on 4x4 matrices, small products and
    interpreter-bound arithmetic, the mix the workloads run."""
    import numpy as np
    from scipy.linalg import expm

    a = np.array([[-1.0, 0.5, 0, 0], [0, -0.5, 1.0, 0], [0, 0, -2.0, 0.3], [0.2, 0, 0, -1.5]])
    ones = np.ones(4)
    acc = 0.0
    for steps in (STEPS // 10, STEPS):  # the first, shorter pass takes first-call costs
        t0 = time.perf_counter()
        for k in range(steps):
            e = expm(a * (1e-3 * (k + 1)))
            acc += float(ones @ e @ e.T @ ones)
            for j in range(60):
                acc += j * 1e-9
    return time.perf_counter() - t0


def serve() -> None:
    """Worker loop: run kernel() for each line on stdin, answer with its time."""
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


class Calibrator:
    """WORKERS processes that run kernel() together on request.

    The workers are plain child processes of this one, fed through their
    stdin; leaving the ``with`` block, by any path, closes their stdin and
    waits for each to exit (killing it after WAIT_S).
    """

    def __enter__(self):
        self._procs = []
        self.readings = []
        try:
            for _ in range(WORKERS):
                self._procs.append(
                    subprocess.Popen(
                        [sys.executable, os.path.abspath(__file__), "--serve"],
                        stdin=subprocess.PIPE,
                        stdout=subprocess.PIPE,
                        text=True,
                        env={**os.environ, **_ONE_THREAD},
                    )
                )
        except BaseException:
            self.__exit__()
            raise
        return self

    def read(self) -> None:
        """Run the kernel on every worker at once; record their mean time."""
        for proc in self._procs:
            proc.stdin.write("1\n")
            proc.stdin.flush()
        times = []
        for proc in self._procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"calibration worker exited with {proc.wait()}")
            times.append(float(line))
        self.readings.append(statistics.mean(times))

    def speeds(self) -> list[float]:
        """Per interval between consecutive readings, the factor that turns
        seconds spent in it into seconds at reference speed."""
        return [2 * REF_S / (a + b) for a, b in zip(self.readings, self.readings[1:])]

    def __exit__(self, *exc):
        for proc in self._procs:
            try:
                proc.stdin.close()
            except OSError:
                pass
        for proc in self._procs:
            try:
                proc.wait(timeout=WAIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve()
