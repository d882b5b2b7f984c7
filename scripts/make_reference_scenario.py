#!/usr/bin/env python3
"""Regenerate the bundled 71-beam / 12-cluster reference scenario."""
import argparse
from pathlib import Path

from clusterhop.scenariogen import hex_scenario_dict, write_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="scenarios/ref_71beam.json")
    args = parser.parse_args()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_scenario(hex_scenario_dict(), args.out)
    print(f"wrote {args.out}: 71 beams, 12 clusters")


if __name__ == "__main__":
    main()
