"""Record the reference output digests and work counts in golden.json.

    python3 perfbench/record.py [WORKLOAD ...]

Run it at the commit whose outputs are the reference (the recorded file
was made at the seed commit).  For census and sample workloads it records
every case 0..CASES-1; analyze-fixtures records one digest per fixture.
The first case of each workload also runs the workload's output check, and
nothing is recorded if any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import GOLDEN, OUT_DIR, run_worker
from workloads import CASES, WORKLOADS


def record_workload(name: str, workload: dict, out_dir: Path, cases=range(CASES)) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    entry: dict = {}
    for case in cases:
        job = {"name": name, "workload": workload, "case": case,
               "trace": False, "check": case == cases[0], "golden": None,
               "out": str(out_dir / f"{name}.record.out")}
        result = run_worker(job, timeout=600)
        if result.get("errors") or "digest" not in result:
            raise SystemExit(f"{name} case {case}: {result.get('errors')}")
        if workload["kind"] == "analyze":
            return {"fixtures": result["fixture_digests"], "counts": result["counts"]}
        entry[str(case)] = {"digest": result["digest"], "counts": result["counts"]}
        print(f"{name} case {case}: {result['digest'][:16]}", file=sys.stderr)
    return entry


def main(argv) -> int:
    names = argv[1:] or sorted(WORKLOADS)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for name in names:
        golden[name] = record_workload(name, WORKLOADS[name], OUT_DIR)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
