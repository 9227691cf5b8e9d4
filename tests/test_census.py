import functools
import hashlib
import io
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maltkit import census
from maltkit.census import (CSV_HEADER, PROPERTIES, CensusEngine, Experiment,
                            _in_rows, _SampleEval,
                            minority_pair_probability,
                            parse_fixed_b, parse_properties, run_census,
                            sweep_census, theory_for, wilson_interval,
                            write_csv)
from maltkit.checkers import (_minority_pair, _subalgebras, _tabs, cross_compatible,
                              has_nontrivial_automorphism,
                              has_proper_subalgebra_size_gt1, is_idemprimal,
                              is_subuniverse)
from maltkit.errors import DomainError
from maltkit.factory import TablePlan, draw_values, mix
from maltkit.library import builtin_system, default_instances
from maltkit.params import p_of_k
from maltkit.terms import parse_system
from oracles import (cross_only_algebra, csv_text, oracle_any_cross,
                     oracle_has_minority_two_subalgebra,
                     oracle_is_idemprimal, oracle_is_subuniverse,
                     oracle_nontrivial_automorphism,
                     oracle_pair_generated_proper, oracle_subalgebra,
                     oracle_subset_family, small_algebras)


SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"


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


def test_subalg_gt1_theory_is_the_idemprimality_complement():
    """The subalgGT1 limit on every fixture against the case split on d_M
    and p(2) that it replaced."""
    seen = set()
    for path in sorted(SYSTEMS_DIR.glob("*.mlt")):
        engine = CensusEngine(parse_system(path.read_text(), name=path.stem))
        p2 = p_of_k(engine.params, 2)
        if engine.params.d_M >= 3 or p2 < 2:
            expected = 1.0
        else:
            expected = 0.0 if p2 > 2 else 1.0 - math.exp(-2.0)
        assert theory_for(engine, "subalgGT1", 16) == ("asymptotic", expected), path.stem
        seen.add(expected)
    assert seen == {0.0, 1.0, 1.0 - math.exp(-2.0)}


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
    assert asymptotic_table(engine.params)[2] == ("= 4", "open", None)


# repr of every theory value on the grid of test_theory_values_are_pinned,
# recorded before the theory formulas moved into plain params values
THEORY_GRID_DIGEST = "5bed38f26839d5a1b0ae74aa72cae93410d48448a428fbd7aaf5f9635d9386b8"


def test_theory_values_are_pinned():
    """Every printed theory value stays bit-identical: theory_for over each
    default instance at small and budget-edge n, hashed by repr."""
    digest = hashlib.sha256()
    for family, args in default_instances():
        engine = CensusEngine(builtin_system(family, *args))
        ternary = any(ar == 3 for _, ar in engine.spec.signature.symbols)
        for n in (*range(1, 9), 12, 16, 32, 64):
            props = ["subalg2", "subalg3", "subalgGT1", "automorphism", "cross",
                     "idemprimal", *(["minority2"] if ternary else [])]
            props += ["fixedB=" + "+".join(map(str, range(k)))
                      for k in range(1, min(n, 6) + 1)]
            for prop in props:
                try:
                    value = theory_for(engine, prop, n)
                except DomainError as exc:  # idemprimal below n = 3
                    value = ("DomainError", str(exc))
                digest.update(repr((family, args, n, prop, value)).encode())
    assert digest.hexdigest() == THEORY_GRID_DIGEST


# ---------------------------------------------------------------------------
# census runs


def test_census_deterministic_across_runs(maltsev_engine, maltsev_spec):
    a = run(maltsev_engine, maltsev_spec, 6, 500, 7, ("idemprimal",))
    b = run(maltsev_engine, maltsev_spec, 6, 500, 7, ("idemprimal",))
    assert csv_text([a]) == csv_text([b])


def found(witness):
    """(holds, witness) of a property that holds when there is a witness."""
    return witness is not None, witness


def result(res):
    return res.holds, res.witness


def fixed_b(res):
    """A subuniverse result as the fixedB entry reports it: no witness
    when B is closed, else the arguments of the first cell leaving B."""
    return res.holds, None if res.holds else res.witness[1]


# registry name -> (algebra, parsed argument) -> (holds, witness) by the
# oracles, independent of maltkit.checkers' decision procedures; every
# registry entry needs one.  Below an entry's min_n see oracle_decide.
ORACLES = {
    "subalg2": lambda alg, _: found(oracle_subalgebra(alg, 2)),
    "subalg3": lambda alg, _: found(oracle_subalgebra(alg, 3)),
    "subalgGT1": lambda alg, _: found(oracle_pair_generated_proper(_tabs(alg), alg.n)),
    "automorphism": lambda alg, _: found(oracle_nontrivial_automorphism(_tabs(alg),
                                                                        alg.n)),
    "cross": lambda alg, _: found(oracle_any_cross(alg)),
    "idemprimal": lambda alg, _: result(oracle_is_idemprimal(alg)),
    "minority2": lambda alg, sym: result(oracle_has_minority_two_subalgebra(alg, sym)),
    "fixedB": lambda alg, B: fixed_b(oracle_is_subuniverse(alg, B)),
}

# the same by the public checkers, or the checker internals where no
# public checker is left, defined at n >= min_n
PUBLIC = {
    "subalg2": lambda alg, _: found(next(_subalgebras(_tabs(alg), alg.n, 2), None)),
    "subalg3": lambda alg, _: found(next(_subalgebras(_tabs(alg), alg.n, 3), None)),
    "subalgGT1": lambda alg, _: result(has_proper_subalgebra_size_gt1(alg)),
    "automorphism": lambda alg, _: result(has_nontrivial_automorphism(alg)),
    "cross": lambda alg, _: found(next((a for a in range(alg.n)
                                        if cross_compatible(alg, a).holds), None)),
    "idemprimal": lambda alg, _: result(is_idemprimal(alg)),
    "minority2": lambda alg, sym: found(_minority_pair(_tabs(alg), alg.n, sym)),
    "fixedB": lambda alg, B: fixed_b(is_subuniverse(alg, B)),
}


def oracle_decide(alg, name, arg):
    """Every subalgebra counted is proper, so below min_n nothing holds."""
    if alg.n < PROPERTIES[name].min_n:
        return False, None
    return ORACLES[name](alg, arg)


def as_json(value):
    return json.loads(json.dumps(value))


def test_oracles_cover_the_registry():
    assert set(ORACLES) == set(PROPERTIES) == set(PUBLIC)


def assert_witnesses_agree(alg, props):
    """Each property's registry decision, as check prints it, equals the
    public checker's and the oracle's."""
    tabs, n = _tabs(alg), alg.n
    for prop, (entry, arg) in parse_properties(props, alg.signature, n).items():
        got = as_json(entry.decide(tabs, n, arg))
        assert got == as_json(oracle_decide(alg, entry.name, arg)), prop
        if n >= entry.min_n:
            assert got == as_json(PUBLIC[entry.name](alg, arg)), prop


@given(small_algebras(), st.data())
@settings(max_examples=300, deadline=None)
def test_registry_witnesses_match_public_checkers_and_oracles(alg, data):
    n = alg.n
    B = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    props = ["subalg2", "subalg3", "subalgGT1", "automorphism", "cross",
             "fixedB=" + "+".join(map(str, sorted(B)))]
    if n >= 3:
        props.append("idemprimal")
    if any(d == 3 for _, d in alg.signature.symbols):
        props.append("minority2")
    assert_witnesses_agree(alg, props)


def test_cross_only_obstruction_witnesses_agree():
    assert_witnesses_agree(cross_only_algebra(), ("cross", "idemprimal"))


def test_census_vectorized_matches_checkers():
    """Every registry entry, in the census (family-level fast path where
    there is one) and on concrete tables (what check runs), agrees with
    the oracles on every sample.  Majority models at n=3 supply the
    automorphisms and crosses the other two families rarely have."""
    from maltkit.analysis import canonical_transversal
    from maltkit.closure import compute_closure
    from maltkit.factory import build_dispatch, mix, realize, sample_mfamily

    seed = 1234
    props = ("subalg2", "subalg3", "subalgGT1", "automorphism", "cross",
             "idemprimal", "minority2", "fixedB=0+1")
    for spec, n, samples in ((builtin_system("maltsev"), 5, 200),
                             (builtin_system("hagemann-mitschke", 3), 5, 120),
                             (builtin_system("majority"), 3, 120)):
        engine = CensusEngine(spec)
        clo = compute_closure(spec)
        trans = canonical_transversal(clo)
        dispatch = build_dispatch(clo, trans)
        report = run(engine, spec, n, samples, seed, props)
        counts = {row.property: row.successes for row in report.rows}
        parsed = parse_properties(props, spec.signature, n)
        expect = dict.fromkeys(props, 0)
        for i in range(samples):
            alg = realize(dispatch, sample_mfamily(trans, n, mix(seed, i)))
            for prop, (entry, arg) in parsed.items():
                want = oracle_decide(alg, entry.name, arg)[0]
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


def test_subset_and_cross_census_realizes_no_table(monkeypatch):
    """subalg2 and subalg3 read the draws and cross the plan's cell views,
    so the census gathers no whole table; its counts are those of the
    table evaluators on realized tables."""
    spec = builtin_system("near-unanimity", 5)
    engine = CensusEngine(spec)
    props = ("subalg2", "subalg3", "cross")
    ctx = engine.context(6)
    want = dict.fromkeys(props, 0)
    for j in range(60):
        tabs = ctx.realize_np(draw_values(mix(3, j), 6, ctx.total_draws))
        for p in props:
            want[p] += PROPERTIES[p].decide(tabs, 6, None)[0]

    def no_tables(self, flat):
        raise AssertionError("a table was realized")
    monkeypatch.setattr(TablePlan, "tables", no_tables)
    report = run(engine, spec, 6, 60, 3, props)
    assert {row.property: row.successes for row in report.rows} == want


def test_idemprimal_census_realizes_each_sample_once(monkeypatch):
    """With automorphism among the properties every sample's tables are
    realized, once, and cross reads them instead of cell views."""
    calls = []
    tables = TablePlan.tables

    def counted(self, flat):
        calls.append(1)
        return tables(self, flat)

    def no_cells(self, flat):
        raise AssertionError("cell views read although tables exist")
    monkeypatch.setattr(TablePlan, "tables", counted)
    monkeypatch.setattr(TablePlan, "cells", no_cells)
    spec = builtin_system("hagemann-mitschke", 3)
    run(CensusEngine(spec), spec, 6, 50, 8,
        ("subalg2", "subalgGT1", "automorphism", "cross", "idemprimal"))
    assert len(calls) == 50


# ---------------------------------------------------------------------------
# draws made only as far as a sample reads them


LAZY_PROPERTIES = ("subalg2", "subalg3", "cross", "fixedB=0+1", "subalgGT1",
                   "idemprimal")


@pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.mlt")), ids=lambda p: p.stem)
def test_lazy_draws_census_equals_eager_draws(path, monkeypatch):
    """On every shipped fixture the census CSV is the same when each
    sample's draws are made as far as read and when they are all made up
    front; the properties that read few draws come first."""
    spec = parse_system(path.read_text(), path.stem)
    engine = CensusEngine(spec)
    ternary = any(ar == 3 for _, ar in spec.signature.symbols)
    props = ("minority2",) * ternary + LAZY_PROPERTIES
    lazy = [run(engine, spec, n, 30, 5, props) for n in (4, 6)]
    monkeypatch.setattr(census, "draw_values",
                        lambda seed, n, count: np.asarray(draw_values(seed, n, count)))
    assert csv_text(lazy) == csv_text([run(engine, spec, n, 30, 5, props) for n in (4, 6)])


@pytest.mark.parametrize("system, n", [(("near-unanimity", 5), 6), (("majority",), 5),
                                       (("hagemann-mitschke", 3), 8), (("olsak",), 4)])
def test_plan_reads_no_draw_it_has_not_made(system, n):
    """With the storage of the draws not yet made filled with a value out
    of range, the plan's tables and cell views, read in any order, equal
    those of the one-shot draws: a variable cell's position reads such a
    value, which is overwritten, and every other read makes its draws
    first."""
    ctx = CensusEngine(builtin_system(*system)).context(n)
    plan, rng = ctx.realizer(), np.random.default_rng(n)

    def poisoned(seed):
        draws = draw_values(seed, n, ctx.total_draws)
        draws._values[:] = 2 ** 40
        return draws

    partial = 0  # reads answered while part of the stream was not made
    for j in range(5):
        seed = mix(17, j)
        want = plan.tables(np.asarray(draw_values(seed, n, ctx.total_draws)))
        got = plan.tables(poisoned(seed))
        assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(got, want))
        draws = poisoned(seed)
        views = plan.cells(draws)
        for _ in range(40):
            s = int(rng.integers(len(views)))
            # cells below a mostly low draw position, the variable ones
            # (pos < 0) among them, so most reads leave the stream partial
            pos = views[s][0].pos
            cells = np.flatnonzero(pos < ctx.total_draws * rng.random() ** 8)
            idx = rng.choice(cells, size=int(rng.integers(1, 50)))
            assert np.array_equal(views[s][0][idx], want[s][0][idx]), (system, j, s)
            partial += draws.made < len(draws)
    assert partial >= 20


def test_subset_and_cross_census_makes_few_draws(monkeypatch):
    """A NU-5 census at n=14 deciding subalg2, subalg3 and cross makes at
    most a fifth of each sample's p(14) draws."""
    made = []

    def recorded(seed, n, count):
        made.append(draw_values(seed, n, count))
        return made[-1]
    monkeypatch.setattr(census, "draw_values", recorded)
    spec = builtin_system("near-unanimity", 5)
    engine = CensusEngine(spec)
    run(engine, spec, 14, 40, 3, ("subalg2", "subalg3", "cross"))
    total = engine.context(14).total_draws
    assert len(made) == 40
    assert max(draws.made for draws in made) <= 0.2 * total


# (system, n): pair and triple arrays wider than the first column block;
# at HM-3 n=4 a pair holds all its 6 draws in about one sample in ten
STAGED_CASES = ((("near-unanimity", 5), 4), (("near-unanimity", 5), 5),
                (("hagemann-mitschke", 3), 4))


@functools.lru_cache(maxsize=None)
def census_context(system, n):
    return CensusEngine(builtin_system(*system)).context(n)


def staged_and_full(system, n, seed, k):
    """(census subset test, full-width oracle, whether a subset holds all
    draws of the first column block) on one sample."""
    ctx = census_context(system, n)
    flat = draw_values(seed, n, ctx.total_draws)
    P, S = ctx.pair_arrays() if k == 2 else ctx.triple_arrays()
    assert P.shape[1] > census._HEAD_COLUMNS
    head = _in_rows(flat[P[:, :census._HEAD_COLUMNS]], S).all(axis=1).any()
    return (_SampleEval(ctx, flat, {}).evaluate(f"subalg{k}"),
            oracle_subset_family(ctx, flat, k), bool(head))


def test_staged_subset_test_matches_full_width():
    """The staged test agrees with the full-width one on samples where
    rows survive the first column block and then fail, where a subset
    holds, and where no row survives the block."""
    outcomes = set()
    for system, n in STAGED_CASES:
        for k in (2, 3):
            for j in range(150):
                got, want, head = staged_and_full(system, n, mix(61, j), k)
                assert got == want, (system, n, k, j)
                outcomes.add((head, got))
    assert outcomes == {(True, False), (True, True), (False, False)}


@given(st.integers(0, 2 ** 64 - 1), st.sampled_from(STAGED_CASES),
       st.sampled_from((2, 3)))
@settings(max_examples=150, deadline=None)
def test_staged_subset_test_matches_full_width_on_any_seed(seed, case, k):
    got, want, _ = staged_and_full(*case, seed, k)
    assert got == want


def test_sweep_census(maltsev_spec):
    reports = sweep_census(maltsev_spec, [4, 6], 300, 11, ("subalg2",))
    assert [r.n for r in reports] == [4, 6]
    # sub-seeds differ per n
    assert reports[0].master_seed != reports[1].master_seed


def test_sweep_census_holds_one_size_at_a_time(maltsev_spec, monkeypatch):
    """When a size's census starts, the previous size's context, table
    plan and draw layout are gone, and the sweep's reports are those of
    separate censuses."""
    held, run = [], census.run_census

    class HeldContext(census._NContext):
        def __init__(self, *args):
            super().__init__(*args)
            assert self.realizer().oi is self.oi  # one layout per size
            held.extend((weakref.ref(self), weakref.ref(self.oi)))

    def run_and_hold(exp, engine):
        assert all(ref() is None for ref in held), exp.n
        report = run(exp, engine)
        held.append(weakref.ref(engine.dispatch.plan(exp.n)))
        return report

    monkeypatch.setattr(census, "_NContext", HeldContext)
    monkeypatch.setattr(census, "run_census", run_and_hold)
    props = ("subalg2", "subalgGT1", "minority2")
    reports = sweep_census(maltsev_spec, [4, 6, 5], 40, 3, props)
    assert len(held) == 9 and all(ref() is None for ref in held)
    assert reports == [run(Experiment(maltsev_spec, n, 40, mix(3, n), props))
                       for n in (4, 6, 5)]


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
