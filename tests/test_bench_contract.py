"""The names the benchmark worker (perfbench/worker.py) patches and calls
must exist, so that a rename fails here instead of failing every
benchmark job."""

import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from maltkit import census, closure, factory, params
from maltkit.analysis import canonical_transversal
from maltkit.checkers import _tabs
from maltkit.library import builtin_system
from maltkit.terms import parse_system

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKER = PERFBENCH / "worker.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def worker():
    return load_module("perfbench_worker", WORKER)


def test_trace_and_mark_targets_resolve(worker):
    for owner, attr, _ in worker._trace_targets() + worker._mark_targets():
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_count_functions_run(worker):
    spec = builtin_system("maltsev")
    engine = census.CensusEngine(spec)
    draws = params.p_of_k(engine.params, 3)
    counts = worker.census_counts({"n": 3}, engine)
    assert counts["factory.draws"] == draws
    assert counts["factory.cells"] == 27
    clo = closure.compute_closure(spec)
    trans = canonical_transversal(clo)
    assert worker.sample_counts({"n": 3}, (spec, clo, trans)) == counts
    assert factory.orbit_index(trans, 3).total == draws


def test_public_property_matches_the_registry(worker):
    """The output check decides census properties with the public
    checkers; on maltsev samples at n=4 they agree with the registry."""
    spec = builtin_system("maltsev")
    clo = closure.compute_closure(spec)
    trans = canonical_transversal(clo)
    dispatch = factory.build_dispatch(clo, trans, spec.signature)
    props = ("subalg2", "subalg3", "subalgGT1", "automorphism", "cross",
             "idemprimal")
    held = dict.fromkeys(props, 0)
    for i in range(12):
        alg = factory.realize(dispatch, factory.sample_mfamily(trans, 4,
                                                               factory.mix(7, i)))
        for prop in props:
            holds = census.PROPERTIES[prop].decide(_tabs(alg), 4, None)[0]
            assert worker.public_property(alg, prop) == holds, (prop, i)
            held[prop] += holds
    # both outcomes occur for the pair and idemprimal properties
    assert 0 < held["subalg2"] < 12 and 0 < held["idemprimal"] < 12


WORKLOADS = load_module("perfbench_workloads", PERFBENCH / "workloads.py").WORKLOADS
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("name,case", [("census-checkers", case) for case in range(16)]
                         + [("census-compile", 0), ("census-compile", 1)])
def test_census_output_matches_the_golden_digest(name, case):
    """The census CSV that the benchmark's census job writes (case is the
    master seed) hashes to the digest recorded in golden.json, so an output
    drift fails here before any benchmark run."""
    w = WORKLOADS[name]
    path = Path(census.__file__).resolve().parent / "systems" / f"{w['system']}.mlt"
    spec = parse_system(path.read_text(), name=path.stem)
    exp = census.Experiment(system=spec, n=w["n"], num_samples=w["samples"],
                            master_seed=case, properties=tuple(w["properties"]))
    buf = io.StringIO(newline="")
    census.write_csv([census.run_census(exp)], buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[name][str(case)]["digest"]
