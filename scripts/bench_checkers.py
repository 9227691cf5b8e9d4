#!/usr/bin/env python3
"""Time the per-sample checkers of the census on a fixed matrix of systems
and sizes, and record the medians in BENCH_checkers.json at the repository
root.

Each case realizes 30 seeded census samples once.  Each checker, the
census registry's table evaluator over its checker internal, is timed on
every sample as the best of REPEATS calls, and the median over the samples
is recorded in ms.  The file keeps one entry per label, so the same script
run against another tree's package sits beside this one:

    PYTHONPATH=src python3 scripts/bench_checkers.py --label change
    PYTHONPATH=../parent/src python3 scripts/bench_checkers.py --label parent
"""

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from maltkit.census import PROPERTIES, CensusEngine
from maltkit.factory import draw_values, mix
from maltkit.library import builtin_system

OUT = Path(__file__).resolve().parent.parent / "BENCH_checkers.json"
CASES = ((("hagemann-mitschke", 3), 16), (("near-unanimity", 5), 14),
         (("maltsev",), 64), (("majority",), 32), (("day", 2), 16))
CHECKERS = ("subalgGT1", "automorphism", "cross")
SAMPLES = 30
SEED = 901
REPEATS = 5


def case_name(args, n) -> str:
    return "-".join(str(a) for a in args) + f" n={n}"


def time_case(args, n) -> dict:
    ctx = CensusEngine(builtin_system(*args)).context(n)
    samples = [ctx.realize_np(draw_values(mix(SEED, j), n, ctx.total_draws))
               for j in range(SAMPLES)]
    out = {}
    for name in CHECKERS:
        table = PROPERTIES[name].table
        per_sample = []
        for tabs in samples:
            best = float("inf")
            for _ in range(REPEATS):
                t = time.perf_counter()
                table(tabs, n, None)
                best = min(best, time.perf_counter() - t)
            per_sample.append(best)
        out[name] = round(1e3 * statistics.median(per_sample), 4)
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True,
                    help="key of this run in the JSON, e.g. parent or change")
    args = ap.parse_args()

    cases = {}
    for system, n in CASES:
        cases[case_name(system, n)] = time_case(system, n)
        print(case_name(system, n), cases[case_name(system, n)], flush=True)
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc.update({
        "what": "per-sample median ms of each census checker, best of "
                f"{REPEATS} calls per sample, {SAMPLES} samples, seeds mix({SEED}, j)",
        "cases": [case_name(system, n) for system, n in CASES],
    })
    doc.setdefault("runs", {})[args.label] = {
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "nproc": os.cpu_count(),
                        "cpu": cpu_model()},
        "median_ms": cases,
    }
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT.name}")


if __name__ == "__main__":
    main()
