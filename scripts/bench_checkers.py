#!/usr/bin/env python3
"""Time the per-sample checkers and census evaluators, and the per-n
compile, on a fixed matrix of systems and sizes, and record the medians in
BENCH_checkers.json at the repository root.

Each checker case draws 30 seeded census samples and realizes their
tables once.  Every row is timed on every sample as the best of REPEATS
calls, and the median over the samples is recorded in ms:

- subalgGT1, automorphism, cross: the census registry's table evaluator
  over its checker internal, on the realized tables;
- minority2: the same for the minority-pair search on the first ternary
  symbol, in the cases whose signature has one;
- automorphism.extend_calls: not a time but the mean number of
  checkers._extend calls per sample in one automorphism evaluation, the
  candidate images tried beyond the generator chain's own;
- census.realize_np: realizing one sample's tables from its draws;
- census.subalg2, census.subalg3, census.cross: what a census pays for
  the property on a sample whose tables no property has realized yet (a
  fresh sample evaluator on the draws, which realizing the tables has
  already made in full);
- census.sample: what a census pays for one sample deciding those three
  properties from its seed, the draws made inside the timed call;
- census.draws_made: not a time but the mean share of a sample's draws
  made by then.

Each compile case builds the orbit index (factory.orbit_index) and then
the gather plan (factory.TablePlan) once in a fresh process, as a census
does, and records each one's wall time in ms and the process's peak RSS
after both in MB.  It then builds both again under tracemalloc and
records each one's traced peak above what was traced before it, in MB.

The file keeps one entry per label.  --tree LABEL=SRC, given once per
tree, times the package under each SRC directory in subprocesses,
alternating the trees case by case for ROUNDS rounds (the first tree leads
in even rounds) and keeping each row's median over the rounds, so that
both trees meet the same slow and fast phases of a shared machine.  A
single in-process run moves by up to 50% between runs on such a machine,
so even one tree is timed this way.  With two trees the file also keeps,
under "ratio", each row's median over the rounds of the second tree's
value over the first's in the same round: the two runs of a round follow
each other, so the ratio cancels most of a phase that a median over the
rounds of either tree alone still holds:

    python3 scripts/bench_checkers.py --tree parent=../parent/src --tree change=src
    python3 scripts/bench_checkers.py --tree change=src
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "BENCH_checkers.json"
CASES = ((("hagemann-mitschke", 3), 16), (("near-unanimity", 5), 14),
         (("maltsev",), 64), (("majority",), 32), (("day", 2), 16),
         (("olsak",), 8), (("cyclic", 2), 8), (("cyclic", 2), 12),
         (("cyclic", 2), 16), (("minority2",), 12), (("minority3",), 8),
         (("minority3",), 12), (("minority3",), 16), (("cube", 2), 8))
COMPILE_CASES = ((("hagemann-mitschke", 3), 16), (("near-unanimity", 5), 14),
                 (("olsak",), 10), (("near-unanimity", 5), 24),
                 (("near-unanimity", 5), 32), (("olsak",), 16))
CHECKERS = ("subalgGT1", "automorphism", "cross")
CENSUS = ("subalg2", "subalg3", "cross")
SAMPLES = 30
SEED = 901
REPEATS = 5
ROUNDS = 5


def case_name(args, n) -> str:
    return "-".join(str(a) for a in args) + f" n={n}"


def time_case(args, n) -> dict:
    # imported here: only the subprocesses import maltkit, each from its
    # own tree
    from maltkit import checkers
    from maltkit.census import PROPERTIES, CensusEngine, _SampleEval
    from maltkit.factory import draw_values, mix
    from maltkit.library import builtin_system

    ctx = CensusEngine(builtin_system(*args)).context(n)
    ctx.pair_arrays()
    ctx.triple_arrays()
    flats = [draw_values(mix(SEED, j), n, ctx.total_draws) for j in range(SAMPLES)]
    samples = [ctx.realize_np(flat) for flat in flats]

    def median_ms(call, inputs):
        per_sample = []
        for x in inputs:
            best = float("inf")
            for _ in range(REPEATS):
                t = time.perf_counter()
                call(x)
                best = min(best, time.perf_counter() - t)
            per_sample.append(best)
        return round(1e3 * statistics.median(per_sample), 4)

    out = {name: median_ms(lambda tabs: PROPERTIES[name].table(tabs, n, None), samples)
           for name in CHECKERS}
    ternary = [s for s, (_, d) in enumerate(ctx.engine.spec.signature.symbols) if d == 3]
    if ternary:
        out["minority2"] = median_ms(
            lambda tabs: PROPERTIES["minority2"].table(tabs, n, ternary[0]), samples)
    extend, calls = checkers._extend, []
    checkers._extend = lambda *a: calls.append(1) or extend(*a)
    for tabs in samples:
        PROPERTIES["automorphism"].table(tabs, n, None)
    checkers._extend = extend
    out["automorphism.extend_calls"] = len(calls) / SAMPLES
    out["census.realize_np"] = median_ms(ctx.realize_np, flats)
    for name in CENSUS:
        out["census." + name] = median_ms(
            lambda flat: _SampleEval(ctx, flat, {}).evaluate(name), flats)

    def census_sample(seed):
        draws = draw_values(seed, n, ctx.total_draws)
        ev = _SampleEval(ctx, draws, {})
        for name in CENSUS:
            ev.evaluate(name)
        return draws

    seeds = [mix(SEED, j) for j in range(SAMPLES)]
    out["census.sample"] = median_ms(census_sample, seeds)
    # an array of draws, as draw_values returned before draws were made
    # as far as read, has made them all
    out["census.draws_made"] = statistics.mean(
        getattr(census_sample(seed), "made", ctx.total_draws) / ctx.total_draws
        for seed in seeds)
    return out


def time_compile(args, n) -> dict:
    from maltkit import factory
    from maltkit.census import CensusEngine
    from maltkit.library import builtin_system

    engine = CensusEngine(builtin_system(*args))
    builds = (("factory.orbit_index", lambda: factory.orbit_index(engine.transversal, n)),
              ("TablePlan", lambda: factory.TablePlan(engine.dispatch, n)))
    out, held = {}, []
    for name, build in builds:
        t = time.perf_counter()
        held.append(build())
        out[name + "_ms"] = round(1e3 * (time.perf_counter() - t), 4)
    out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    held.clear()
    factory.orbit_index.cache_clear()
    tracemalloc.start()
    for name, build in builds:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        held.append(build())
        out[name + "_peak_mb"] = round(
            (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20, 2)
    tracemalloc.stop()
    return out


JOBS = ([(time_case, system, n) for system, n in CASES]
        + [(time_compile, system, n) for system, n in COMPILE_CASES])


def time_trees(trees: dict) -> tuple[dict, dict]:
    """({label: {job kind: {case: {row: median over the rounds}}}}, ratios),
    each job run in one subprocess per tree and round, the trees
    alternating.  With two trees, ratios is {job kind: {case: {row: median
    over the rounds of second / first}}} over the rows whose first value is
    never 0; else it is empty."""
    runs, ratios = {label: {} for label in trees}, {}
    for i, (job, system, n) in enumerate(JOBS):
        rounds = {label: [] for label in trees}
        for r in range(ROUNDS):
            order = list(trees.items())
            for label, src in order if r % 2 == 0 else order[::-1]:
                env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
                proc = subprocess.run([sys.executable, __file__, "--case", str(i)],
                                      env=env, capture_output=True, text=True,
                                      check=True)
                rounds[label].append(json.loads(proc.stdout))
        for label, got in rounds.items():
            row = {name: round(statistics.median(g[name] for g in got), 4)
                   for name in got[0]}
            runs[label].setdefault(job.__name__, {})[case_name(system, n)] = row
            print(label, case_name(system, n), row, flush=True)
        if len(trees) == 2:
            first, second = rounds.values()
            row = {name: round(statistics.median(b[name] / a[name]
                                                 for a, b in zip(first, second)), 4)
                   for name in first[0] if all(a[name] for a in first)}
            ratios.setdefault(job.__name__, {})[case_name(system, n)] = row
            print("ratio", case_name(system, n), row, flush=True)
    return runs, ratios


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu_model()}


def tree(text: str) -> tuple[str, str]:
    label, eq, src = text.partition("=")
    if not eq or not label or not src:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {text!r}")
    return label, src


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tree", type=tree, action="append",
                      help="LABEL=SRC: time the package in SRC under LABEL; "
                           "repeat to alternate trees")
    mode.add_argument("--case", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.case is not None:
        job, system, n = JOBS[args.case]
        print(json.dumps(job(system, n)))
        return
    trees = dict(args.tree)
    how = (f"median over {ROUNDS} rounds, trees alternating case by case "
           f"in subprocesses ({', '.join(trees)})")
    runs, ratios = time_trees(trees)
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc.update({
        "what": "per-sample median ms, best of "
                f"{REPEATS} calls per sample, {SAMPLES} samples, seeds "
                f"mix({SEED}, j): the checkers' table evaluators on realized "
                "tables, census.* the census path on a sample's draws, and "
                "census.sample one sample's census properties from its seed, "
                "draws included; automorphism.extend_calls is no time but the "
                "mean number of checkers._extend calls per sample, and "
                "census.draws_made the mean share of a sample's draws made",
        "cases": [case_name(system, n) for system, n in CASES],
        "compile_what": "per-n compile in a fresh process: *_ms the wall time "
                        "of the first factory.orbit_index and TablePlan build, "
                        "peak_rss_mb the process's peak RSS after both, "
                        "*_peak_mb each build's tracemalloc peak above what "
                        "was traced before it",
        "compile_cases": [case_name(system, n) for system, n in COMPILE_CASES],
    })
    for label, jobs in runs.items():
        doc.setdefault("runs", {})[label] = {
            "environment": environment(), "how": how,
            "median_ms": jobs["time_case"], "compile": jobs["time_compile"]}
    doc.pop("ratio", None)
    if ratios:
        first, second = trees
        doc["ratio"] = {"of": f"{second}/{first}",
                        "what": f"per row, the median over the {ROUNDS} rounds of "
                                f"{second}'s value over {first}'s in the same round",
                        "median_ms": ratios["time_case"], "compile": ratios["time_compile"]}
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT.name}")


if __name__ == "__main__":
    main()
