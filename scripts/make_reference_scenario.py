#!/usr/bin/env python3
"""Regenerate the bundled 71-beam / 12-cluster reference scenario."""
import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clusterhop.scenariogen import hex_scenario_dict, write_scenario  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.relpath(
        ROOT / "scenarios" / "ref_71beam.json"))
    args = parser.parse_args()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_scenario(hex_scenario_dict(), args.out)
    print(f"wrote {args.out}: 71 beams, 12 clusters")


if __name__ == "__main__":
    main()
