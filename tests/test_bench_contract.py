"""The names the benchmark worker (perfbench/worker.py) patches and calls
must exist, so that a rename fails here instead of failing every
benchmark job."""

import importlib.util
from pathlib import Path

import pytest

from maltkit import census, closure, factory, params
from maltkit.analysis import canonical_transversal
from maltkit.checkers import _tabs
from maltkit.library import builtin_system

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
