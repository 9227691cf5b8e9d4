"""Run one benchmark job in a fresh process and print its record as JSON.

    python3 perfbench/worker.py '<job spec as JSON>'

The harness (run.py) starts one worker per job, so the package's module
caches (closure._cache, factory._orbit_cache, the class infos kept on a
closure) start cold, as they do for a CLI user.  A job drives the public
API in the order the CLI does: terms -> closure -> analysis -> params ->
factory -> census/checkers.

With tracing on, the worker wraps the package's public functions in spans
(name, start, end, parent, sample index) before the job starts, keeps the
spans in memory and writes them out when the job ends.  A span's self time
is its duration minus the time covered by its child spans.  With tracing
off only marks are taken: the start of each sample (each draw of a census
job, each sample_mfamily of a sample job, each fixture of an analyze job),
the first draw (the end of a census or sample job's set-up) and the end of
each fixture's first transversal (the end of an analyze job's set-up).

Every output is checked after the timed region: the output digest and the
work counts against perfbench/golden.json, and, on a run's first job, the
workload's own output check (census cross-check against the second
realizer and the public checkers, validation of every sampled model, or
the expected idemprimality verdicts).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import maltkit  # noqa: E402
from maltkit import (analysis, census, checkers, cli, closure,  # noqa: E402
                     factory, library, params, terms)
from maltkit.errors import DomainError  # noqa: E402

SYSTEMS = Path(maltkit.__file__).resolve().parent / "systems"

# census property -> span name; the checkers do the work of the last three
EVAL_SPANS = {
    "subalg2": "census.subalg2",
    "subalg3": "census.subalg3",
    "subalgGT1": "checkers.subalgGT1",
    "automorphism": "checkers.automorphism",
    "cross": "checkers.cross",
}

# per-layer metric -> span name, summed over the job
SUM_S = {
    "terms.parse_s": "terms.parse",
    "closure.compute_s": "closure.compute",
    "analysis.class_infos_s": "analysis.class_infos",
    "analysis.transversal_s": "analysis.transversal",
    "analysis.minimal_s": "analysis.minimal",
    "params.eval_s": "params.eval",
    "factory.dispatch_s": "factory.dispatch",
    "factory.orbit_index_s": "factory.orbit_index",
    "census.context_s": "census.context",
    "census.realizer_s": "census.realizer",
    "census.index_arrays_s": "census.index_arrays",
}

# per-layer metric -> span name, median over samples of per-sample self time
PER_SAMPLE_MS = {
    "factory.draw_ms": "factory.draw",
    "census.realize_np_ms": "census.realize_np",
    "census.subalg2_ms": "census.subalg2",
    "census.subalg3_ms": "census.subalg3",
    "checkers.subalgGT1_ms": "checkers.subalgGT1",
    "checkers.automorphism_ms": "checkers.automorphism",
    "checkers.cross_ms": "checkers.cross",
    "factory.mfamily_ms": "factory.mfamily",
    "factory.json_ms": "factory.json",
}

# the span that opens a new sample, per workload kind
SAMPLE_MARKER = {"census": "factory.draw", "sample": "factory.mfamily"}


def _trace_targets():
    """(owner, attribute, span name) for every public call the trace spans.
    A module function is replaced under every name the package's modules
    bind it to; a method is replaced on its class."""
    ctx, ev = census._NContext, census._SampleEval
    out = [
        (terms, "parse_system", "terms.parse"),
        (closure, "compute_closure", "closure.compute"),
        (closure, "validate_assumptions", "closure.compute"),
        (analysis, "class_infos", "analysis.class_infos"),
        (analysis, "canonical_transversal", "analysis.transversal"),
        (analysis, "orbit_partition", "analysis.transversal"),
        (analysis, "minimal_terms", "analysis.minimal"),
        (analysis, "classify_minimal", "analysis.minimal"),
        (census, "theory_for", "params.eval"),
        (factory, "build_dispatch", "factory.dispatch"),
        (factory, "orbit_index", "factory.orbit_index"),
        (factory, "draw_values", "factory.draw"),
        (factory, "sample_mfamily", "factory.mfamily"),
        (factory, "realize", "factory.realize"),
        (factory, "algebra_to_json", "factory.json"),
        (ctx, "__init__", "census.context"),
        (ctx, "realizer", "census.realizer"),
        (ctx, "realize_np", "census.realize_np"),
        (ev, "evaluate", lambda args: EVAL_SPANS.get(args[1], "census." + args[1])),
    ]
    for fn in ("parameters", "p_of_k", "asymptotic_table", "idemprimality_verdict",
               "fixed_subalgebra_probability"):
        out.append((params, fn, "params.eval"))
    for fn in ("pair_arrays", "triple_arrays", "fixed_b_arrays", "minority_arrays"):
        out.append((ctx, fn, "census.index_arrays"))
    return out


def _mark_targets():
    return [(factory, "draw_values", "factory.draw"),
            (factory, "sample_mfamily", "factory.mfamily"),
            (analysis, "canonical_transversal", "analysis.transversal")]


class Recorder:
    """Spans (with tracing on) and the sample and set-up marks (always)."""

    def __init__(self, trace: bool, marker: str | None):
        self.trace = trace
        self.marker = marker
        self.spans: list[dict] = []
        # open spans: [name, start, child time, span index, parent index, sample]
        self._stack: list[list] = []
        self.sample = -1
        self.sample_starts: list[float] = []
        self.first_draw: float | None = None
        self.fixture_start: float | None = None
        self.fixture_setup_s = 0.0
        self._patched: list[tuple] = []

    def enter(self, name: str):
        now = time.perf_counter()
        if name == "factory.draw" and self.first_draw is None:
            self.first_draw = now
        if name == self.marker:
            self.sample += 1
            self.sample_starts.append(now)
        parent = self._stack[-1][3] if self._stack else None
        if self.trace:
            self.spans.append(None)  # filled in by exit, keeps start order
            index = len(self.spans) - 1
        else:
            index = None
        self._stack.append([name, now, 0.0, index, parent, self.sample])

    def exit(self):
        now = time.perf_counter()
        name, start, child, index, parent, sample = self._stack.pop()
        if name == "analysis.transversal" and self.fixture_start is not None:
            self.fixture_setup_s += now - self.fixture_start
            self.fixture_start = None
        if self.trace:
            dur = now - start
            if self._stack:
                self._stack[-1][2] += dur
            self.spans[index] = {"name": name, "start": start, "end": now,
                                 "self": dur - child, "parent": parent,
                                 "sample": sample}

    def _wrap(self, fn, name):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.enter(name(args) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit()
        return wrapper

    def install(self):
        targets = _trace_targets() if self.trace else _mark_targets()
        modules = [m for k, m in sys.modules.items()
                   if k == "maltkit" or k.startswith("maltkit.")]
        for owner, attr, name in targets:
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- per-layer metrics ------------------------------------------------

    def layers(self, kind: str) -> dict[str, float]:
        out = {}
        for metric, span in SUM_S.items():
            out[metric] = sum((s["self"] for s in self.spans if s["name"] == span), 0.0)
        nsamples = self.sample + 1
        per: dict[str, list[float]] = {}
        totals = [0.0] * nsamples
        for s in self.spans:
            k = s["sample"]
            if k < 0:
                continue
            per.setdefault(s["name"], [0.0] * nsamples)[k] += s["self"]
            p = s["parent"]
            if p is None or self.spans[p]["sample"] != k:
                totals[k] += s["end"] - s["start"]
        for metric, span in PER_SAMPLE_MS.items():
            out[metric] = 1e3 * _pct(per.get(span, []), 50)
        realize = per.get("factory.realize", [])
        out["factory.realize_ms_p50"] = 1e3 * _pct(realize, 50)
        out["factory.realize_ms_p90"] = 1e3 * _pct(realize, 90)
        sample_totals = totals if kind == "census" else []
        out["census.sample_ms_p50"] = 1e3 * _pct(sample_totals, 50)
        out["census.sample_ms_p90"] = 1e3 * _pct(sample_totals, 90)
        return out


def _pct(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cells(sig, n: int) -> int:
    return sum(n ** ar for _, ar in sig.symbols)


def _system_counts(clo, trans) -> dict[str, int]:
    infos = analysis.class_infos(clo)
    return {"closure.universe_terms": clo.universe.size,
            "analysis.classes": len(infos),
            "analysis.orbits": len({i.orbit_id for i in infos.values()}),
            "analysis.entries": len(trans)}


# ---------------------------------------------------------------------------
# Jobs.  Each returns (t0, t1, set-up seconds, items, state for the checks).


def census_job(w, case, out: Path, rec: Recorder):
    path = SYSTEMS / f"{w['system']}.mlt"
    t0 = time.perf_counter()
    spec = terms.parse_system(path.read_text(), name=path.stem)
    engine = census.CensusEngine(spec)
    exp = census.Experiment(system=spec, n=w["n"], num_samples=w["samples"],
                            master_seed=case, properties=tuple(w["properties"]))
    report = census.run_census(exp, engine=engine)
    with open(out, "w", newline="") as fh:
        census.write_csv([report], fh)
    t1 = time.perf_counter()
    return t0, t1, rec.first_draw - t0, w["samples"], engine


def sample_job(w, case, out: Path, rec: Recorder):
    path = SYSTEMS / f"{w['system']}.mlt"
    n = w["n"]
    t0 = time.perf_counter()
    spec = terms.parse_system(path.read_text(), name=path.stem)
    report = closure.validate_assumptions(spec)
    if not report.ok:
        raise DomainError(f"system assumptions fail: {report.detail}")
    clo = closure.compute_closure(spec)
    trans = analysis.canonical_transversal(clo)
    dispatch = factory.build_dispatch(clo, trans, spec.signature)
    with open(out, "w") as fh:
        for i in range(w["count"]):
            fam = factory.sample_mfamily(trans, n, factory.mix(case, i))
            alg = factory.realize(dispatch, fam)
            fh.write(factory.algebra_to_json(alg) + "\n")
    t1 = time.perf_counter()
    return t0, t1, rec.first_draw - t0, w["count"], (spec, clo, trans)


def analyze_job(w, out: Path, rec: Recorder):
    names = w["systems"] or sorted(p.stem for p in SYSTEMS.glob("*.mlt"))
    outputs = {}
    t0 = time.perf_counter()
    with open(out, "w") as fh:
        for name in names:
            rec.fixture_start = time.perf_counter()
            rec.sample_starts.append(rec.fixture_start)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["analyze", "--json", str(SYSTEMS / f"{name}.mlt")])
            if code != 0:
                raise DomainError(f"analyze {name} exited with {code}")
            fh.write(buf.getvalue())
            outputs[name] = buf.getvalue()
    t1 = time.perf_counter()
    return t0, t1, rec.fixture_setup_s, len(names), outputs


# ---------------------------------------------------------------------------
# Counts and output checks, all outside the timed region.


def census_counts(w, engine) -> dict[str, int]:
    counts = _system_counts(engine.closure, engine.transversal)
    counts["factory.draws"] = engine.context(w["n"]).total_draws
    counts["factory.cells"] = _cells(engine.spec.signature, w["n"])
    return counts


def sample_counts(w, state) -> dict[str, int]:
    spec, clo, trans = state
    counts = _system_counts(clo, trans)
    counts["factory.draws"] = factory.orbit_index(trans, w["n"]).total
    counts["factory.cells"] = _cells(spec.signature, w["n"])
    return counts


def analyze_counts(outputs) -> dict[str, int]:
    counts = dict.fromkeys(("closure.universe_terms", "analysis.classes",
                            "analysis.orbits", "analysis.entries",
                            "factory.draws", "factory.cells"), 0)
    for name, text in outputs.items():
        payload = json.loads(text)
        spec = terms.parse_system((SYSTEMS / f"{name}.mlt").read_text(), name=name)
        counts["closure.universe_terms"] += closure.compute_closure(spec).universe.size
        counts["analysis.classes"] += payload["num_classes"]
        counts["analysis.orbits"] += payload["num_orbits"]
        counts["analysis.entries"] += len(payload["transversal"])
    return counts


def public_property(alg, prop: str) -> bool:
    """A census property decided by the public checkers on a whole table."""
    n = alg.n
    if prop == "subalg2":
        return n >= 3 and any(checkers.is_subuniverse(alg, B).holds
                              for B in combinations(range(n), 2))
    if prop == "subalg3":
        return n >= 4 and any(checkers.is_subuniverse(alg, B).holds
                              for B in combinations(range(n), 3))
    if prop == "subalgGT1":
        return n >= 3 and checkers.has_proper_subalgebra_size_gt1(alg).holds
    if prop == "automorphism":
        return n > 1 and checkers.has_nontrivial_automorphism(alg).holds
    if prop == "cross":
        return any(checkers.cross_compatible(alg, a).holds for a in range(n))
    if prop == "idemprimal":
        return checkers.is_idemprimal(alg).holds
    raise ValueError(f"no public check for census property {prop!r}")


def census_cross_check(w, case, engine) -> list[str]:
    """Build the first few samples through factory.realize, compare their
    tables with the census realizer, and their property counts from the
    public checkers with a run_census over the same indices."""
    n, k, props = w["n"], w["cross_check"], tuple(w["properties"])
    small = census.run_census(census.Experiment(engine.spec, n, k, case, props),
                              engine=engine)
    want = {row.property: row.successes for row in small.rows}
    got = dict.fromkeys(props, 0)
    ctx = engine.context(n)
    errors = []
    for j in range(k):
        seed = factory.mix(case, j)
        alg = factory.realize(engine.dispatch,
                              factory.sample_mfamily(engine.transversal, n, seed))
        tabs = ctx.realize_np(factory.draw_values(seed, n, ctx.total_draws))
        for sym, (table, _) in enumerate(tabs):
            if table.tolist() != list(alg.tables[sym]):
                errors.append(f"sample {j}: the two realizers disagree on "
                              f"symbol {sym}")
        for p in props:
            got[p] += public_property(alg, p)
    if got != want:
        errors.append(f"cross-check counts over {k} samples: public checkers "
                      f"{got}, run_census {want}")
    return errors


def sample_check(w, state, out: Path) -> list[str]:
    spec = state[0]
    lines = out.read_text().splitlines()
    errors = []
    if len(lines) != w["count"]:
        errors.append(f"{len(lines)} models emitted, {w['count']} expected")
    for i, line in enumerate(lines):
        ok, witness = factory.validate_model(spec, factory.algebra_from_json(line))
        if not ok:
            errors.append(f"model {i} fails identity {witness[0]} at {witness[1]}")
    return errors


def analyze_check(outputs) -> list[str]:
    instances = {library.builtin_label(f, *a): (f, a)
                 for f, a in library.default_instances()}
    errors = []
    for name, text in outputs.items():
        if name not in instances:
            continue
        family, args = instances[name]
        want = library.expected_verdict(family, *args)
        if want is None or want.advisory:
            continue
        got = json.loads(text)["verdict"]["almost_surely_idemprimal"]
        if got != want.almost_surely:
            errors.append(f"{name}: verdict {got}, expected {want.almost_surely}")
    return errors


def compare_golden(job, golden_path, name, case, result) -> list[str]:
    """Output digests and work counts against the recorded ones."""
    golden = json.loads(Path(golden_path).read_text()).get(name)
    if golden is None:
        return [f"no recorded outputs for workload {name!r}"]
    errors = []
    if job["workload"]["kind"] == "analyze":
        ref = golden
        for fixture, digest in result["fixture_digests"].items():
            if ref["fixtures"].get(fixture) != digest:
                errors.append(f"{fixture}: payload digest differs from the "
                              "recorded one")
    else:
        ref = golden.get(str(case))
        if ref is None:
            return [f"no recorded outputs for case {case}"]
        if ref["digest"] != result["digest"]:
            errors.append("output digest differs from the recorded one")
    for key, value in ref["counts"].items():
        if result["counts"].get(key) != value:
            errors.append(f"work count {key} = {result['counts'].get(key)}, "
                          f"recorded {value}")
    return errors


# ---------------------------------------------------------------------------


def run_job(job: dict) -> dict:
    w = job["workload"]
    kind = w["kind"]
    out = Path(job["out"])
    rec = Recorder(job["trace"], SAMPLE_MARKER.get(kind))
    rec.install()
    try:
        if kind == "census":
            t0, t1, setup, items, state = census_job(w, job["case"], out, rec)
        elif kind == "sample":
            t0, t1, setup, items, state = sample_job(w, job["case"], out, rec)
        elif kind == "analyze":
            t0, t1, setup, items, state = analyze_job(w, out, rec)
        else:
            raise ValueError(f"unknown workload kind {kind!r}")
    finally:
        rec.uninstall()
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "traced": rec.trace,
        "wall_s": t1 - t0,
        "setup_s": setup,
        "items": items,
        # analyze has no steady state after set-up: each fixture is its own
        "samples_per_s": items / ((t1 - t0) if kind == "analyze" else (t1 - t0 - setup)),
        # from one sample's start to the next one's; the last sample, whose
        # end is mixed with writing the output, is not timed
        "sample_s": [b - a for a, b in zip(rec.sample_starts, rec.sample_starts[1:])],
        "peak_rss_mb": usage / 1024,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
    }
    if rec.trace:
        result["layers"] = rec.layers(kind)
        Path(job["trace_path"]).write_text(json.dumps(
            {"job": job["trace_id"], "spans": rec.spans}))

    c0 = time.perf_counter()
    if kind == "analyze":
        result["fixture_digests"] = {k: _sha256(v.encode()) for k, v in state.items()}
        result["counts"] = analyze_counts(state)
    elif kind == "census":
        result["counts"] = census_counts(w, state)
    else:
        result["counts"] = sample_counts(w, state)
    result["digest"] = _sha256(out.read_bytes())
    errors = []
    if job.get("golden"):
        errors += compare_golden(job, job["golden"], job["name"], job["case"], result)
    if job.get("check"):
        if kind == "census":
            errors += census_cross_check(w, job["case"], state)
        elif kind == "sample":
            errors += sample_check(w, state, out)
        else:
            errors += analyze_check(state)
    result["errors"] = errors
    result["check_s"] = time.perf_counter() - c0
    return result


def main(argv) -> int:
    job = json.loads(argv[1])
    if not Path(maltkit.__file__).resolve().is_relative_to(SRC):
        print(json.dumps({"errors": [f"maltkit imported from {maltkit.__file__}, "
                                     f"not from {SRC}"]}))
        return 0
    try:
        result = run_job(job)
    except Exception:
        result = {"errors": [traceback.format_exc()]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
