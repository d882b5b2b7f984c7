"""Machine-speed reference for the benchmark's timings.

On a shared 2-vCPU x86_64 VM (Python 3.11.7, numpy 2.4.6) the same pass on
the same scenario ran up to 50% slower for minutes at a time, with no steal
time reported. A fixed kernel of small dense solves and index-set updates,
the kind of call the simplex makes, slows down with it. Over six 30-s runs
of the same five solver_mid scenarios the mean pass time varied with a CV
of 13.6%, its ratio to this kernel's mean time by 3.0%; over five such runs
on wide_field, 10.7% against 1.3%.

So the benchmark times this kernel before every pass and reports its times
at the reference speed: seconds measured x ``REFERENCE_S`` / the run's mean
kernel time. ``REFERENCE_S`` is this kernel's typical time on that VM, so the
reported numbers read as seconds there. The kernel is benchmark code: a
change to clusterhop cannot move it.

Fresh-interpreter start-up drifts too, and the kernel does not track it
(over three sets of 15 start-ups the median set-up time scaled by the kernel
moved by 9%, the median ratio to a fresh ``import numpy`` next to it by 2%).
So set-up times are reported as their ratio to ``startup_seconds()`` timed
right after them, times ``STARTUP_REFERENCE_S``, that start-up's typical
time on the same VM.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.025
STARTUP_REFERENCE_S = 0.14
_RNG = np.random.default_rng(20240)
_A = _RNG.standard_normal((16, 16)) + 16.0 * np.eye(16)
_B = _RNG.standard_normal(16)
_ALL = np.arange(40)


def kernel_seconds() -> float:
    """Wall time of one fixed run of the kernel."""
    start = time.perf_counter()
    for i in range(600):
        x = np.linalg.solve(_A, _B)
        np.setdiff1d(_ALL, [i % 40])
        np.argmin(x)
    return time.perf_counter() - start


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # quantizes the measurement.
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start
