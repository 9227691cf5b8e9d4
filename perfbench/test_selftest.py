"""Fast self-test of the benchmark harness at toy sizes.

    python3 perfbench/test_selftest.py      (or: python3 -m pytest perfbench)

It records reference digests for toy workloads (n <= 4, a few samples, two
small fixtures) into .perfbench/selftest/, then checks that every
end-to-end and per-layer metric is reported, that every output check runs
and passes on correct output, and that a wrong digest, a wrong work count,
a wrong model, verdict or cross-check count and a missing source tree are
each reported as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from record import record_workload  # noqa: E402
from workloads import ALSO_REPORTED, END_TO_END, PER_LAYER, WORK_COUNTS  # noqa: E402

SCRATCH = run.OUT_DIR / "selftest"

TOY = {
    "toy-checkers": {"kind": "census", "system": "maltsev", "n": 4, "samples": 3,
                     "properties": ["subalg2", "subalgGT1", "automorphism",
                                    "cross", "idemprimal"],
                     "cross_check": 3},
    "toy-compile": {"kind": "census", "system": "near-unanimity-3", "n": 4,
                    "samples": 3, "properties": ["subalg2", "subalg3", "cross"],
                    "cross_check": 2},
    "toy-analyze": {"kind": "analyze", "systems": ["maltsev", "majority"]},
    "toy-sample": {"kind": "sample", "system": "maltsev", "n": 4, "count": 3},
}

# per toy workload, per-layer metrics that must be positive
EXERCISED = {
    "toy-checkers": ["checkers.subalgGT1_ms", "checkers.automorphism_ms",
                     "checkers.cross_ms", "census.subalg2_ms", "census.realizer_s",
                     "census.index_arrays_s", "census.realize_np_ms",
                     "census.sample_ms_p50", "census.sample_ms_p90",
                     "factory.orbit_index_s", "factory.dispatch_s", "factory.draw_ms",
                     "params.eval_s"],
    "toy-compile": ["census.subalg3_ms", "checkers.cross_ms", "census.realizer_s"],
    "toy-analyze": ["analysis.minimal_s", "analysis.class_infos_s",
                    "analysis.transversal_s", "closure.compute_s", "terms.parse_s",
                    "params.eval_s"],
    "toy-sample": ["factory.mfamily_ms", "factory.realize_ms_p50",
                   "factory.realize_ms_p90", "factory.json_ms", "factory.draw_ms"],
}


def setUpModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    golden = {name: record_workload(name, w, SCRATCH, cases=[0])
              for name, w in TOY.items()}
    (SCRATCH / "golden.json").write_text(json.dumps(golden))


def _bench(name, trace, golden=None):
    return run.bench(name, TOY[name], 0, 1, trace,
                     golden=golden or SCRATCH / "golden.json", out_dir=SCRATCH)


def _corrupt(edit) -> Path:
    golden = json.loads((SCRATCH / "golden.json").read_text())
    edit(golden)
    path = SCRATCH / "golden-corrupt.json"
    path.write_text(json.dumps(golden))
    return path


class EndToEnd(unittest.TestCase):
    def test_every_metric_positive_and_no_failure(self):
        for name in TOY:
            with self.subTest(workload=name):
                res = _bench(name, False)
                self.assertTrue(res["correct"], res["jobs"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                units = END_TO_END | ALSO_REPORTED
                self.assertEqual(set(res["metrics"]), set(units))
                for key, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, key)
                    self.assertEqual(m["unit"], units[key])
                for job in res["jobs"]:
                    self.assertEqual(len(job["sample_s"]), job["items"] - 1)
                line = json.loads(run.result_line(res))
                self.assertEqual(set(line), {"correct", "attempted", "failed",
                                             "metrics"})
                self.assertEqual(set(line["metrics"]), set(END_TO_END))
                env = res["env"]
                for key in ("python", "numpy", "nproc", "cpu_model",
                            "loadavg_start", "loadavg_end"):
                    self.assertIsNotNone(env.get(key), key)


class PerLayer(unittest.TestCase):
    def test_layers_reported_and_replay_is_faithful(self):
        for name in TOY:
            with self.subTest(workload=name):
                res = _bench(name, True)
                self.assertTrue(res["correct"], res["jobs"])
                self.assertEqual(set(res["metrics"]), set(PER_LAYER))
                for key in EXERCISED[name]:
                    self.assertGreater(res["metrics"][key]["value"], 0, key)
                ref = res["jobs"][0]
                self.assertFalse(ref["traced"])
                self.assertTrue(res["jobs"][1]["traced"])
                for j in res["jobs"][1:]:
                    self.assertEqual(j["traced"], "layers" in j)
                    self.assertEqual(j["digest"], ref["digest"])
                    self.assertEqual(j["counts"], ref["counts"])
                for key in WORK_COUNTS:
                    self.assertEqual(res["metrics"][key]["value"], ref["counts"][key])

    def test_trace_file_written(self):
        res = _bench("toy-checkers", True)
        self.assertTrue(res["correct"])
        spans = json.loads((SCRATCH / "traces" / "toy-checkers-seed0-job1.json")
                           .read_text())["spans"]
        names = {s["name"] for s in spans}
        self.assertIn("checkers.automorphism", names)
        for s in spans:
            self.assertLessEqual(s["self"], s["end"] - s["start"] + 1e-9)


class FailurePath(unittest.TestCase):
    def test_corrupted_digest_fails_every_job(self):
        def edit(g):
            g["toy-checkers"]["0"]["digest"] = "0" * 64
        res = _bench("toy-checkers", False, golden=_corrupt(edit))
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])

    def test_corrupted_fixture_digest_fails(self):
        def edit(g):
            g["toy-analyze"]["fixtures"]["majority"] = "0" * 64
        res = _bench("toy-analyze", False, golden=_corrupt(edit))
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_changed_work_count_fails(self):
        def edit(g):
            g["toy-sample"]["0"]["counts"]["factory.draws"] += 1
        res = _bench("toy-sample", False, golden=_corrupt(edit))
        self.assertFalse(res["correct"])
        self.assertIn("factory.draws", " ".join(res["jobs"][0]["errors"]))

    def test_missing_recorded_case_fails(self):
        res = run.bench("toy-sample", TOY["toy-sample"], 1, 1, False,
                        golden=SCRATCH / "golden.json", out_dir=SCRATCH)
        self.assertFalse(res["correct"])

    def test_invalid_model_fails_validation(self):
        w = TOY["toy-sample"]
        out = SCRATCH / "bad-models.out"
        spec = worker.terms.parse_system(
            (worker.SYSTEMS / "maltsev.mlt").read_text(), name="maltsev")
        good = worker.factory.algebra_to_json(worker.factory.FiniteAlgebra(
            1, spec.signature, ((0,),)))
        bad = json.loads(good)
        bad["n"] = 2
        bad["operations"]["f"]["table"] = [1] * 8
        out.write_text("\n".join([good, good, json.dumps(bad)]) + "\n")
        errors = worker.sample_check(w, (spec,), out)
        self.assertEqual(len(errors), 1)
        self.assertIn("model 2", errors[0])

    def test_wrong_verdict_fails(self):
        text = json.dumps({"verdict": {"almost_surely_idemprimal": True}})
        self.assertEqual(worker.analyze_check({"majority": text}) != [], True)
        text = json.dumps({"verdict": {"almost_surely_idemprimal": False}})
        self.assertEqual(worker.analyze_check({"majority": text}), [])

    def test_cross_check_detects_disagreement(self):
        w = TOY["toy-checkers"]
        spec = worker.terms.parse_system(
            (worker.SYSTEMS / "maltsev.mlt").read_text(), name="maltsev")
        engine = worker.census.CensusEngine(spec)
        self.assertEqual(worker.census_cross_check(w, 0, engine), [])
        original = worker.public_property
        worker.public_property = lambda alg, prop: not original(alg, prop)
        try:
            errors = worker.census_cross_check(w, 0, engine)
        finally:
            worker.public_property = original
        self.assertTrue(errors)

    def test_refuses_to_run_without_source(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if (run.ROOT / "BENCHMARK.json").is_file():
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "census-checkers",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
