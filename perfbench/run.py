#!/usr/bin/env python3
"""clusterhop benchmark: wall times of the reference pipeline, checked.

    python3 perfbench/run.py --workload solver_mid --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports clusterhop from its
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it are diagnostics: tail percentiles with sample counts,
``failed_frac``, the environment, why the workload was chosen and the known
scaling wall. Scratch files and the span dump go to ``.perfbench/``.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clusterhop"


def import_source() -> None:
    """Put the checkout's ``src/`` first on the path; stop without it."""
    if not (PACKAGE / "cli.py").is_file():
        raise SystemExit(f"error: {PACKAGE} not found; run the benchmark "
                         "from a clusterhop source checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import clusterhop
    if Path(clusterhop.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: imported clusterhop from {clusterhop.__file__}"
                         f", not from {PACKAGE}")


def main(argv=None) -> int:
    import_source()
    from bench import measure
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), ROOT)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
