#!/usr/bin/env python3
"""Run a seeded census sweep for a builtin (or .mlt file) over a range of
carrier sizes and write one CSV with all rows.

Example:
    python3 scripts/census_sweep.py maltsev --sizes 8,16,32 \
        --samples 10000 --seed 7 --property subalg2,minority2 -o sweep.csv
"""

import argparse
import sys
from pathlib import Path

from maltkit.census import sweep_census, write_csv
from maltkit.library import FAMILIES, builtin_system
from maltkit.terms import parse_system


def load(source: str):
    if source in FAMILIES:
        return builtin_system(source)
    p = Path(source)
    return parse_system(p.read_text(), name=p.stem)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("system", help="builtin family name or .mlt path")
    ap.add_argument("--sizes", default="8,16,32")
    ap.add_argument("--samples", type=int, default=10000)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--property", default="subalg2")
    ap.add_argument("-o", "--output")
    args = ap.parse_args()

    spec = load(args.system)
    sizes = [int(s) for s in args.sizes.split(",")]
    props = tuple(p.strip() for p in args.property.split(","))
    reports = sweep_census(spec, sizes, args.samples, args.seed, props)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            write_csv(reports, fh)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        write_csv(reports, sys.stdout)


if __name__ == "__main__":
    main()
