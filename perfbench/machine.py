"""Machine facts recorded with every result, and the host-rate calibration.

A shared host gives this process a CPU rate that swings by up to 1.6x for
seconds to minutes at a time, in CPU time as much as in wall time.  A fixed
calibration kernel, timed every ``CALIBRATION_INTERVAL_S`` during a pass,
tracks the rate the pass itself gets; ``calibrated_seconds`` scales each
stretch of the pass to the rate at which the kernel takes
``CALIBRATION_NOMINAL_S``.
"""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = os.cpu_count() or 1
    for name in THREAD_VARIABLES:
        try:
            wanted = int(os.environ.get(name, nproc))
        except ValueError:
            wanted = nproc
        os.environ[name] = str(max(1, min(wanted, nproc)))


CALIBRATION_INTERVAL_S = 0.1
# a round figure near the kernel's time at the full rate of a 2-vCPU Intel
# Xeon 2.0 GHz VM, so calibrated times read close to that host's wall times
CALIBRATION_NOMINAL_S = 2.0e-3
# samples in the running median that smooths one sample's timer jitter
RATE_WINDOW = 3


class CalibrationKernel:
    """A fixed mix of the library's two kinds of work: a 2D FFT whose 1 MiB
    arrays leave the core's own caches, and short numpy operations driven
    from Python.  Building it runs it once, untimed, so numpy is imported
    and the FFT plan is cached before the first sample."""

    def __init__(self):
        import numpy as np

        # bound now, so a tracer installed later never wraps the kernel's FFT
        self._fft2 = np.fft.fft2
        self.grid = np.exp(2j * np.pi * np.arange(256 * 256).reshape(256, 256) / 7.0)
        # a fixed output array, so a sample adds nothing to the peak RSS
        self.out = np.empty_like(self.grid)
        self.csum = np.cumsum(np.abs(np.sin(np.arange(1024.0))))
        self()

    def __call__(self) -> None:
        self._fft2(self.grid, out=self.out)
        for width in range(1, 100):
            float((self.csum[width:] - self.csum[:-width]).max())

    def seconds(self) -> float:
        start = time.perf_counter()
        self()
        return time.perf_counter() - start


def host_speed_probe(kernel: CalibrationKernel, samples: int = 5) -> float:
    """Median seconds of the calibration kernel; it reads higher when the host is slow."""
    return statistics.median(kernel.seconds() for _ in range(samples))


class HostRateSampler:
    """Time the calibration kernel on entry, on exit and every ``interval``
    seconds in between.

    A SIGALRM handler runs the kernel in the main thread, between the
    program's own bytecodes, so a sample sees the CPU rate the program gets.
    ``marks`` holds each sample's (start, end) on ``time.monotonic``, a clock
    shared with other processes.
    """

    def __init__(self, kernel: CalibrationKernel, interval: float = CALIBRATION_INTERVAL_S):
        self.interval = interval
        self.kernel = kernel
        self.marks: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        start = time.monotonic()
        self.kernel()
        self.marks.append((start, time.monotonic()))

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late alarm during a sample is dropped
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def __enter__(self) -> HostRateSampler:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def calibrated_seconds(marks, start: float | None = None, end: float | None = None) -> dict:
    """Program time between the samples in ``marks``, raw and calibrated.

    Each stretch between two samples is scaled by ``CALIBRATION_NOMINAL_S``
    over the kernel time there (the mean of the two samples' running
    medians).  With ``start`` and ``end``, the stretch from ``start`` to the
    first sample and from the last sample to ``end`` count too, at the rate
    of the nearest sample.  The samples' own time is left out.
    """
    times = [b - a for a, b in marks]
    half = RATE_WINDOW // 2
    smoothed = [statistics.median(times[max(0, i - half) : i + half + 1]) for i in range(len(times))]
    # (length of the stretch, kernel time there)
    stretches = [
        (b[0] - a[1], (ka + kb) / 2) for a, b, ka, kb in zip(marks, marks[1:], smoothed, smoothed[1:])
    ]
    if start is not None:
        stretches.append((marks[0][0] - start, smoothed[0]))
    if end is not None:
        stretches.append((end - marks[-1][1], smoothed[-1]))
    return {
        "raw_s": math.fsum(w for w, _ in stretches),
        "calibrated_s": math.fsum(w * CALIBRATION_NOMINAL_S / k for w, k in stretches),
        "kernel_median_s": statistics.median(times),
        "samples": len(times),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def _git_state(root: Path) -> dict:
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}

    def git(*args):
        result = subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
        return result.stdout.strip() if result.returncode == 0 else None

    try:
        rev = git("rev-parse", "HEAD")
        status = git("status", "--porcelain") if rev else None
    except (OSError, subprocess.TimeoutExpired):
        rev, status = None, None
    return {"git_rev": rev, "git_dirty": bool(status) if status is not None else None}


def machine_facts(root: Path) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        **_git_state(root),
    }
