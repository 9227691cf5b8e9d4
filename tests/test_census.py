import io
import math
from itertools import combinations

import pytest

from maltkit.census import (CSV_HEADER, PROPERTIES, CensusEngine, Experiment,
                            csv_text, minority_pair_probability,
                            parse_fixed_b, parse_properties, run_census,
                            sweep_census, theory_for, wilson_interval,
                            write_csv)
from maltkit.checkers import (cross_compatible, has_minority_two_subalgebra,
                              has_nontrivial_automorphism,
                              has_proper_subalgebra_size_gt1, is_idemprimal,
                              is_subuniverse)
from maltkit.errors import DomainError
from maltkit.library import builtin_system
from maltkit.terms import parse_system


@pytest.fixture(scope="module")
def maltsev_engine(maltsev_spec):
    return CensusEngine(maltsev_spec)


def run(engine, spec, n, samples, seed, props):
    exp = Experiment(system=spec, n=n, num_samples=samples, master_seed=seed,
                     properties=props)
    return run_census(exp, engine=engine)


# ---------------------------------------------------------------------------
# plumbing


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert 0.40 < lo < 0.5 < hi < 0.60
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == pytest.approx(0.0, abs=1e-12) and hi0 > 0
    lo1, hi1 = wilson_interval(100, 100)
    assert hi1 == pytest.approx(1.0, abs=1e-12) and lo1 < 1


def test_parse_fixed_b():
    assert parse_fixed_b("fixedB=0+1") == (0, 1)
    assert parse_fixed_b("fixedB=3+1+2") == (1, 2, 3)
    with pytest.raises(DomainError):
        parse_fixed_b("fixedB=")


def test_experiment_validation(maltsev_spec):
    with pytest.raises(DomainError):
        Experiment(system=maltsev_spec, n=2, num_samples=10, master_seed=0,
                   properties=("idemprimal",))
    from maltkit.errors import BudgetError
    with pytest.raises(BudgetError):
        Experiment(system=maltsev_spec, n=100, num_samples=10, master_seed=0,
                   properties=("subalg2",))
    with pytest.raises(DomainError):
        Experiment(system=maltsev_spec, n=4, num_samples=10, master_seed=0,
                   properties=("nonsense",))


def test_engine_rejects_bad_assumptions():
    spec = parse_system("signature f/2\nidentity f(x,y) = f(y,x)\n")
    with pytest.raises(DomainError):
        CensusEngine(spec)


# ---------------------------------------------------------------------------
# theory values


def test_theory_fixed_b(maltsev_engine, maltsev_spec):
    kind, val = theory_for(maltsev_engine, "fixedB=0+1", 8)
    assert kind == "exact_finite_n"
    assert abs(val - 1 / 16) < 1e-15


def test_theory_subalg2(maltsev_engine):
    kind, val = theory_for(maltsev_engine, "subalg2", 16)
    assert kind == "exact_finite_n"
    assert abs(val - (1 - (1 - 1 / 64) ** 120)) < 1e-12


def test_theory_minority2_maltsev(maltsev_engine):
    sym = 0
    assert abs(minority_pair_probability(maltsev_engine, sym, 16) - 1 / 256) < 1e-15
    kind, val = theory_for(maltsev_engine, "minority2", 16)
    assert kind == "exact_finite_n"
    assert abs(val - (1 - (1 - 1 / 256) ** 120)) < 1e-12


def test_theory_minority2_minority_system():
    engine = CensusEngine(builtin_system("minority1"))
    # every pair of a minority model is a minority subalgebra
    assert minority_pair_probability(engine, 0, 8) == 1.0
    kind, val = theory_for(engine, "minority2", 8)
    assert kind == "exact_finite_n" and val == 1.0


def test_theory_idemprimal(maltsev_engine):
    kind, val = theory_for(maltsev_engine, "idemprimal", 16)
    assert kind == "asymptotic"
    assert abs(val - math.exp(-2)) < 1e-15


def test_theory_automorphism_cross(maltsev_engine):
    for prop in ("automorphism", "cross"):
        kind, val = theory_for(maltsev_engine, prop, 16)
        assert kind == "asymptotic" and val == 0.0


def test_theory_subalg3_open():
    engine = CensusEngine(builtin_system("minority3"))
    kind, val = theory_for(engine, "subalg3", 12)
    # d_M = 3: a size-3 subalgebra is the d_M case, exact formula applies
    assert kind == "exact_finite_n"
    # and the open cell shows up for size d_M + 1 = 4
    from maltkit.params import asymptotic_table
    assert asymptotic_table(engine.params).at_d_plus_1.kind == "open"


# ---------------------------------------------------------------------------
# census runs


def test_census_deterministic_across_runs(maltsev_engine, maltsev_spec):
    a = run(maltsev_engine, maltsev_spec, 6, 500, 7, ("idemprimal",))
    b = run(maltsev_engine, maltsev_spec, 6, 500, 7, ("idemprimal",))
    assert csv_text([a]) == csv_text([b])


# property string -> its decision by the public checkers on an algebra;
# every registry entry needs one
ORACLES = {
    "subalg2": lambda alg: alg.n >= 3 and any(
        is_subuniverse(alg, B).holds for B in combinations(range(alg.n), 2)),
    "subalg3": lambda alg: alg.n >= 4 and any(
        is_subuniverse(alg, B).holds for B in combinations(range(alg.n), 3)),
    "subalgGT1": lambda alg: alg.n >= 3 and has_proper_subalgebra_size_gt1(alg).holds,
    "automorphism": lambda alg: has_nontrivial_automorphism(alg).holds,
    "cross": lambda alg: any(cross_compatible(alg, a).holds for a in range(alg.n)),
    "idemprimal": lambda alg: is_idemprimal(alg).holds,
    "minority2": lambda alg: has_minority_two_subalgebra(
        alg, next(i for i, (_, d) in enumerate(alg.signature.symbols) if d == 3)).holds,
    "fixedB=0+1": lambda alg: is_subuniverse(alg, (0, 1)).holds,
}


def test_oracles_cover_the_registry():
    assert {p.partition("=")[0] for p in ORACLES} == set(PROPERTIES)


def test_census_vectorized_matches_checkers():
    """Every registry entry, in the census (family-level fast path where
    there is one) and on concrete tables (what check runs), agrees with
    the public checkers on every sample.  Majority models at n=3 supply
    the automorphisms and crosses the other two families rarely have."""
    from maltkit.analysis import canonical_transversal
    from maltkit.checkers import _tabs
    from maltkit.closure import compute_closure
    from maltkit.factory import build_dispatch, mix, realize, sample_mfamily

    seed = 1234
    props = tuple(ORACLES)
    for spec, n, samples in ((builtin_system("maltsev"), 5, 200),
                             (builtin_system("hagemann-mitschke", 3), 5, 120),
                             (builtin_system("majority"), 3, 120)):
        engine = CensusEngine(spec)
        clo = compute_closure(spec)
        trans = canonical_transversal(clo)
        dispatch = build_dispatch(clo, trans, spec.signature)
        report = run(engine, spec, n, samples, seed, props)
        counts = {row.property: row.successes for row in report.rows}
        parsed = parse_properties(props, spec.signature, n)
        expect = dict.fromkeys(props, 0)
        for i in range(samples):
            alg = realize(dispatch, sample_mfamily(trans, n, mix(seed, i)))
            for prop, oracle in ORACLES.items():
                want = bool(oracle(alg))
                entry, arg = parsed[prop]
                assert entry.decide(_tabs(alg), n, arg)[0] == want, (spec.name, prop, i)
                expect[prop] += want
        assert counts == expect, spec.name


def test_census_idemprimal_consistency(maltsev_spec, maltsev_engine):
    props = ("subalgGT1", "automorphism", "cross", "idemprimal")
    report = run(maltsev_engine, maltsev_spec, 5, 400, 5, props)
    c = {row.property: row.successes for row in report.rows}
    # idemprimal samples are a subset of the complement of each obstruction
    assert c["idemprimal"] <= 400 - c["subalgGT1"]
    assert c["idemprimal"] <= 400 - c["automorphism"]
    assert c["idemprimal"] <= 400 - c["cross"]


def test_sweep_census(maltsev_spec):
    reports = sweep_census(maltsev_spec, [4, 6], 300, 11, ("subalg2",))
    assert [r.n for r in reports] == [4, 6]
    # sub-seeds differ per n
    assert reports[0].master_seed != reports[1].master_seed


# ---------------------------------------------------------------------------
# CSV format


def test_csv_format(maltsev_engine, maltsev_spec):
    report = run(maltsev_engine, maltsev_spec, 6, 200, 3,
                 ("subalg2", "automorphism"))
    buf = io.StringIO()
    write_csv([report], buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[-1] == ""
    assert len(lines) == 4  # header + 2 rows + trailing newline
    row = lines[1].split(",")
    assert row[0].startswith("maltsev#")
    assert row[1:5] == ["6", "200", "3", "subalg2"]
    assert text == csv_text([report])


def test_csv_float_formatting(maltsev_engine, maltsev_spec):
    report = run(maltsev_engine, maltsev_spec, 6, 128, 3, ("subalg2",))
    row = csv_text([report]).split("\n")[1].split(",")
    freq = float(row[6])
    assert row[6] == format(freq, ".10g")
