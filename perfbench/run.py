"""The maltkit benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from perfbench/workloads.py for about S seconds, one job
after another, each job in a fresh worker process with one thread, and
prints each metric by name and unit.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

- --trace 0: the end-to-end metrics.  sample_ms_p75 and sample_ms_p50 are
  percentiles of the time per sample, pooled over every sample of the run's
  jobs; wall_s, setup_s, samples_per_s and peak_rss_mb are medians over the
  jobs.  The result line carries the gated ones (workloads.END_TO_END); the
  others (workloads.ALSO_REPORTED) are printed above it.
- --trace 1: the per-layer metrics.  Jobs alternate untraced and traced,
  starting untraced, so both kinds see the same machine; trace.overhead_s is
  the traced jobs' median wall time minus the untraced jobs' median.

A job fails when it raises or when an output check fails; fail_share is
failed / attempted.  The inputs come from --seed: census and sample
workloads use case seed % CASES as the master seed; analyze-fixtures has
no random input and analyzes every fixture in sorted order whatever the
seed, since the fixture order changes what the closure cache holds while
cube-3 runs, and with it the peak RSS.  The run's first job also runs the
workload's output check; every job's output digest and work counts are
compared with perfbench/golden.json.  Job records, traces and the
environment go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (ALSO_REPORTED, CASES, END_TO_END, PER_LAYER,  # noqa: E402
                       WORKLOADS)

GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench"
# a run must end within 180 s; no job may start or run past this
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(job: dict, timeout: float) -> dict:
    """One job in a fresh process; the worker's record, or one with errors."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"errors": [f"job exceeded its {timeout:.0f} s time limit"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = None
    if proc.returncode != 0 or not isinstance(record, dict):
        return {"errors": [f"worker exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}"]}
    return record


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench(name: str, workload: dict, seed: int, seconds: float, trace: bool, *,
          golden: Path | None = GOLDEN, out_dir: Path = OUT_DIR) -> dict | None:
    """Run one workload; the result record, or None if no job produced
    timings."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "traces").mkdir(exist_ok=True)
    case = seed % CASES
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu_model": cpu_model(), "loadavg_start": os.getloadavg()}
    start = time.monotonic()
    jobs: list[dict] = []
    measured = 0.0
    while True:
        index = len(jobs)
        job = {
            "name": name, "workload": workload, "case": case,
            "trace": trace and index % 2 == 1, "check": index == 0,
            "golden": str(golden) if golden else None,
            "out": str(out_dir / f"{name}.out"),
            "trace_id": f"{name}-seed{seed}-job{index}",
            "trace_path": str(out_dir / "traces" / f"{name}-seed{seed}-job{index}.json"),
        }
        t = time.monotonic()
        record = run_worker(job, HARD_LIMIT_S - (t - start))
        took = time.monotonic() - t - record.get("check_s", 0.0)
        record["traced"] = job["trace"]
        jobs.append(record)
        measured += took
        if "wall_s" not in record:
            break  # the job raised; a rerun would too
        if trace and index == 0:
            continue  # a traced run needs one traced job after the reference
        if measured + took > seconds:
            break
        if time.monotonic() - start + 2 * took > HARD_LIMIT_S:
            break
    env["loadavg_end"] = os.getloadavg()
    env["numpy"] = next((j["versions"]["numpy"] for j in jobs if "versions" in j), None)

    failed = sum(1 for j in jobs if j.get("errors") or "wall_s" not in j)
    untraced = [j for j in jobs if "wall_s" in j and not j["traced"]]
    traced = [j for j in jobs if "layers" in j]
    if trace:
        if not traced or not untraced:
            return None
        metrics = {}
        for key, unit in PER_LAYER.items():
            if key == "trace.overhead_s":
                value = (statistics.median(j["wall_s"] for j in traced)
                         - statistics.median(j["wall_s"] for j in untraced))
            else:
                value = statistics.median(j["layers"].get(key, j["counts"].get(key, 0))
                                          for j in traced)
            metrics[key] = {"value": value, "unit": unit}
    else:
        sample_s = [t for j in untraced for t in j["sample_s"]]
        if len(sample_s) < 2:
            return None
        q1, q2, q3 = statistics.quantiles(sample_s, n=4, method="inclusive")
        values = {"sample_ms_p50": 1e3 * q2, "sample_ms_p75": 1e3 * q3}
        for key in ("wall_s", "setup_s", "samples_per_s", "peak_rss_mb"):
            values[key] = statistics.median(j[key] for j in untraced)
        units = END_TO_END | ALSO_REPORTED
        metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    return {"workload": name, "seed": seed, "case": case, "seconds": seconds,
            "trace": int(trace), "correct": failed == 0, "attempted": len(jobs),
            "failed": failed, "metrics": metrics, "env": env, "jobs": jobs}


def result_line(result: dict) -> str:
    """The last line of stdout: the gated metrics, without ALSO_REPORTED."""
    gated = {k: v for k, v in result["metrics"].items() if k not in ALSO_REPORTED}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": gated})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="maltkit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps a
    # running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "maltkit" / "__init__.py").is_file():
        print(f"error: no maltkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: missing {GOLDEN}", file=sys.stderr)
        return 2
    result = bench(args.workload, WORKLOADS[args.workload], args.seed,
                   args.seconds, bool(args.trace))
    if result is None:
        print("error: no job produced timings", file=sys.stderr)
        return 1
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1))
    for j, job in enumerate(result["jobs"]):
        for err in job.get("errors", []):
            print(f"job {j} failed: {err}")
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"fail_share {share:.6g} ({result['failed']}/{result['attempted']} jobs)")
    print("env " + json.dumps(result["env"]))
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
