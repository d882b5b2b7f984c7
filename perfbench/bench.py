"""One benchmark run: a closed loop with one client over a fixed scenario list.

A pass is the reference pipeline, ``clusterhop.cli.run`` for ``plan``, then
``compare``, then ``leakage``, on one scenario file, as
``scripts/run_reference_pipeline.py`` does it. Passes run one at a time in
this process. With tracing off the run makes whole cycles over the seed's
scenario list (``Workload.scenarios`` of them) and reports the mean pass
time over those cycles: the same seed times the same work on any commit,
and a faster commit only adds cycles of it. A new cycle starts only when
the last one's duration still fits before the deadline; the first always
runs. Scenario 0 runs once untimed first, and every repeat of a scenario
must write byte-identical artifacts. The speed kernel of ``speed.py`` is
timed before every pass, and every reported pass time is scaled to its
reference speed. ``SETUP_REPEATS`` fresh interpreters doing what every CLI
call does before it works (import ``clusterhop.cli``, load the scenario and
the DVB-S2 table) are spread over the first cycle, each followed by the
start-up reference of ``speed.py``.

With tracing on the run goes once through the list until the deadline (at
least one scenario): each scenario runs untraced, then traced, the two
passes must write identical artifacts, and the run reports the per-layer
metrics of the traced passes plus the tracing overhead.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from clusterhop import cli
from clusterhop.scenariogen import write_scenario

import checks
import speed
import tracing
from workloads import SCALING_WALL, Workload

COMMANDS = ("plan", "compare", "leakage")
SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys\n"
    "from clusterhop import cli, precoding\n"
    "cli.load_scenario(sys.argv[1])\n"
    "precoding.load_dvbs2_table()\n"
)


def _blas_threads() -> int | None:
    """Thread count OpenBLAS uses now, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _setup_ratio(src: Path, scenario_path: Path) -> tuple[float, float]:
    """Wall time of a fresh interpreter paying the per-command set-up, and
    of the start-up reference timed right after it."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    # No timeout: see speed.startup_seconds.
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario_path)],
                   env=env, check=True)
    return time.perf_counter() - start, speed.startup_seconds()


def _run_pass(scenario_path: Path, out_dir: Path) -> dict[str, float]:
    """Wall times of one plan+compare+leakage pass, per command and in all."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    times = {}
    start = time.perf_counter()
    for command in COMMANDS:
        t0 = time.perf_counter()
        cli.run(cli.RunManifest(scenario_path=str(scenario_path),
                                out_dir=str(out_dir), command=command))
        times[command] = time.perf_counter() - t0
    times["pipeline"] = time.perf_counter() - start
    return times


def _tail(values: list[float]) -> str:
    ordered = sorted(values)
    p90 = ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]
    return (f"median {statistics.median(values):.4f} p90 {p90:.4f} "
            f"max {ordered[-1]:.4f} (n={len(values)})")


class Run:
    """State of one run: its scenarios, pass counts, kernel times and spans."""

    def __init__(self, workload: Workload, seed: int, trace: bool,
                 root: Path):
        self.workload = workload
        self.seed = seed
        self.src = root / "src"
        name = f"{workload.name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
        self.dir = root / ".perfbench" / name
        self.spans_path = root / ".perfbench" / f"{name}.spans.json"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.expected = checks.load_expected().get(workload.name, {})
        self.tracer = tracing.Tracer()
        self.kernel_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._scenarios: dict[int, tuple] = {}
        self._digests: dict[int, dict[str, str]] = {}

    def scenario(self, k: int):
        """Path, reference and recorded answer of scenario ``k``."""
        if k not in self._scenarios:
            scenario_seed = self.workload.scenario_seed(self.seed, k)
            doc = self.workload.scenario(scenario_seed)
            path = self.dir / f"scenario_{k}.json"
            write_scenario(doc, path)
            self._scenarios[k] = (path, checks.reference(doc),
                                  self.expected.get(str(scenario_seed)))
        return self._scenarios[k]

    def checked_pass(self, k: int, out_dir: Path,
                     traced: bool = False) -> dict[str, float] | None:
        """Times of a pass on scenario ``k``, or None when it failed.

        A pass fails when it raises, fails an answer check, or writes other
        bytes than an earlier pass on the same scenario.
        """
        path, ref, expected = self.scenario(k)
        self.attempted += 1
        self.kernel_s.append(speed.kernel_seconds())
        try:
            if traced:
                with self.tracer.active(k):
                    times = _run_pass(path, out_dir)
            else:
                times = _run_pass(path, out_dir)
            problems = checks.check_pass(out_dir, ref, expected)
            digests = checks.artifact_digests(out_dir)
            if self._digests.setdefault(k, digests) != digests:
                problems.append("artifacts differ from an earlier pass")
        except Exception as exc:  # a failed pass is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{path.name}: {p}" for p in problems)
            return None
        return times


def _cycles(run: Run, deadline: float):
    """Whole cycles over the scenario list, with the set-up timings."""
    n = run.workload.scenarios
    due = [i * n // SETUP_REPEATS for i in range(SETUP_REPEATS)]
    setup, cycles = [], []
    while True:
        started = time.perf_counter()
        times = []
        for k in range(n):
            if not cycles:
                path = run.scenario(k)[0]
                setup.extend(_setup_ratio(run.src, path)
                             for _ in range(due.count(k)))
            plain = run.checked_pass(k, run.dir / "out")
            if plain is not None:
                times.append(plain)
        cycles.append(times)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return setup, cycles


def _traced(run: Run, deadline: float):
    """Untraced and traced passes on each scenario in turn until the
    deadline; at least one scenario."""
    untraced, traced, overhead = [], [], []
    for k in range(run.workload.scenarios):
        if k > 0 and time.perf_counter() >= deadline:
            break
        plain = run.checked_pass(k, run.dir / "out")
        traced_pass = run.checked_pass(k, run.dir / "traced", traced=True)
        if plain is not None and traced_pass is not None:
            untraced.append(plain)
            traced.append(tracing.layer_metrics(run.tracer.pass_spans(k)))
            overhead.append(traced_pass["pipeline"] / plain["pipeline"])
    return untraced, traced, overhead


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path) -> dict:
    """Run the closed loop for ``seconds`` and return the result object."""
    started = time.perf_counter()
    deadline = started + seconds
    run = Run(workload, seed, trace, root)
    try:
        speed.kernel_seconds()  # warm-up, untimed
        run.checked_pass(0, run.dir / "warmup")  # untimed
        if trace:
            untraced, traced, overhead = _traced(run, deadline)
            setup, cycles = [], [untraced]
        else:
            setup, cycles = _cycles(run, deadline)
    finally:
        shutil.rmtree(run.dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        run.tracer.write(run.spans_path, started)

    for problem in run.problems:
        print(f"FAILED {problem}")
    passes = [t for times in cycles for t in times]
    if not passes or (trace and not traced):
        raise SystemExit("no pass succeeded; no metrics to report")

    kernel_s = statistics.fmean(run.kernel_s)
    scale = speed.REFERENCE_S / kernel_s
    raw = {"kernel_s": kernel_s, "cycles": len(cycles),
           "passes": len(passes)}
    for name in ("pipeline",) + COMMANDS:
        raw[f"{name}_s"] = statistics.fmean(t[name] for t in passes)
    print(f"workload {workload.name}: {workload.why}")
    print(f"scaling wall: {SCALING_WALL}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(f"scenarios {workload.scenarios}, cycles {len(cycles)}, passes "
          f"attempted {run.attempted}, failed {run.failed}, failed_frac "
          f"{run.failed / run.attempted:.4f}")
    print(f"speed kernel {_tail(run.kernel_s)}; times below are raw, the "
          f"result's are scaled by {scale:.4f}")
    if setup:
        raw["setup_s"] = statistics.median(s for s, _ in setup)
        raw["startup_s"] = statistics.median(b for _, b in setup)
        print(f"setup_s {_tail([s for s, _ in setup])}")
        print(f"startup reference {_tail([b for _, b in setup])}")
    for name in ("pipeline",) + COMMANDS:
        print(f"{name}_s {_tail([t[name] for t in passes])}")
    # Unscaled means, for reading the result without the speed correction.
    print("raw: " + json.dumps(raw, sort_keys=True))

    if trace:
        layers = tracing.median_metrics(traced)
        layers["trace.overhead"] = statistics.median(overhead)
        print(f"spans written to {run.spans_path}")
        metrics = {}
        for name, value in layers.items():
            unit = _unit(name)
            metrics[name] = (value * scale if unit in ("s", "ms") else value,
                             unit)
    else:
        metrics = {
            "pipeline_s": (raw["pipeline_s"] * scale, "s"),
            "plan_s": (raw["plan_s"] * scale, "s"),
            "compare_s": (raw["compare_s"] * scale, "s"),
            "setup_s": (statistics.median(s / b for s, b in setup)
                        * speed.STARTUP_REFERENCE_S, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_per_call"):
        return "ms"
    if name == "trace.overhead":
        return "ratio"
    return "count"
