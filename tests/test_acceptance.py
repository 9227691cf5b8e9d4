"""Acceptance suite: one test per criterion, each ending with a single
PASS line naming the criterion.  Tolerances follow the experiment design:
Monte Carlo frequencies must fall within 3 binomial standard deviations
of the exact finite-n value."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from maltkit.analysis import (canonical_transversal, class_infos,
                              minimal_terms, symmetry_group)
from maltkit.census import CensusEngine, Experiment, run_census
from maltkit.checkers import (cross_compatible, is_idemprimal,
                              is_subuniverse)
from maltkit.closure import compute_closure
from maltkit.factory import (DispatchTable, algebra_to_json, build_dispatch,
                             enumerate_models, mix, realize,
                             sample_mfamily)
from maltkit.library import builtin_system, expected_verdict
from maltkit.params import (idemprimality_verdict, murskii_tail, p_of_k,
                            parameters, zeta)
from maltkit.terms import LinearTerm, parse_system
from oracles import (csv_text, extract_mfamily, no_size_d_subalgebra_probability,
                     oracle_dispatch_rules, render_index)

CMALTSEV = ("signature f/3\nidentity f(x,x,y) = y\n"
            "identity f(x,y,z) = f(z,y,x)\n")


def three_sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


def census(spec, n, samples, seed, props, engine=None):
    engine = engine or CensusEngine(spec)
    exp = Experiment(system=spec, n=n, num_samples=samples, master_seed=seed,
                     properties=props)
    return run_census(exp, engine=engine), engine


def freq(report, prop):
    return next(r.frequency for r in report.rows if r.property == prop)


def test_criterion_01_table1_golden():
    t0 = time.time()
    spec = parse_system(CMALTSEV, name="cmaltsev")
    clo = compute_closure(spec, 3)
    uni = clo.universe
    classes = {frozenset(render_index(uni, i) for i in members)
               for members in clo.class_members().values()}
    expected = {
        frozenset({"x", "f(x,x,x)", "f(y,y,x)", "f(x,y,y)", "f(z,z,x)", "f(x,z,z)"}),
        frozenset({"y", "f(y,y,y)", "f(x,x,y)", "f(y,x,x)", "f(z,z,y)", "f(y,z,z)"}),
        frozenset({"z", "f(z,z,z)", "f(x,x,z)", "f(z,x,x)", "f(y,y,z)", "f(z,y,y)"}),
        frozenset({"f(x,y,x)"}), frozenset({"f(y,x,y)"}),
        frozenset({"f(x,z,x)"}), frozenset({"f(z,x,z)"}),
        frozenset({"f(y,z,y)"}), frozenset({"f(z,y,z)"}),
        frozenset({"f(x,y,z)", "f(z,y,x)"}),
        frozenset({"f(y,x,z)", "f(z,x,y)"}),
        frozenset({"f(x,z,y)", "f(y,z,x)"}),
    }
    assert classes == expected
    infos = class_infos(clo)
    names = {1: "x", 2: "y", 3: "z"}
    ess = {frozenset(render_index(uni, i) for i in info.members):
           {names[v] for v in info.essential_vars} for info in infos.values()}
    assert ess[frozenset({"f(x,y,x)"})] == {"x", "y"}
    assert ess[frozenset({"f(x,y,z)", "f(z,y,x)"})] == {"x", "y", "z"}
    # symmetry groups: trivial for the nine B/C classes (B classes have a
    # single essential variable; C classes are checked on their two
    # initial-segment members, the rest are relabelings in the same orbit),
    # order 2 with the end swap for each D class
    d_groups = [symmetry_group(clo, LinearTerm.app(0, perm))
                for perm in ((1, 2, 3), (2, 1, 3), (1, 3, 2))]
    assert all(len(g) == 2 for g in d_groups)
    assert (3, 2, 1) in symmetry_group(clo, LinearTerm.app(0, (1, 2, 3))).elements
    singles = [len(symmetry_group(clo, LinearTerm.app(0, args)))
               for args in ((1, 2, 1), (2, 1, 2))]
    assert singles == [1, 1]
    assert len({i.orbit_id for i in infos.values()}) == 3
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"CRITERION 1: PASS (Table 1 partition, essential sets, groups, "
          f"3 orbits; {elapsed:.3f}s)")


def test_criterion_02_parameter_goldens():
    t0 = time.time()
    pars = parameters(canonical_transversal(
        compute_closure(builtin_system("maltsev"))))
    assert pars.d_M == 2 and p_of_k(pars, 2) == 2
    p3 = []
    for name in ("minority1", "minority2", "minority3"):
        p = parameters(canonical_transversal(
            compute_closure(builtin_system(name))))
        p3.append(p_of_k(p, 3))
    assert p3 == [6, 2, 1]
    for k in range(2, 6):
        clo = compute_closure(builtin_system("hagemann-mitschke", k))
        assert len(minimal_terms(clo, canonical_transversal(clo))) == 2 * k - 3, k
    for k in (4, 5):
        pars = parameters(canonical_transversal(
            compute_closure(builtin_system("near-unanimity", k))))
        binary = sum(q for d, q in pars.entries if d == 2)
        assert binary == 2 ** k - 2 * k - 2, k
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"CRITERION 2: PASS (Maltsev/minority/HM/NU parameter goldens; "
          f"{elapsed:.1f}s)")


def test_criterion_03_verdict_table():
    blocking = ([("hagemann-mitschke", (k,)) for k in range(2, 6)]
                + [("jonsson", (k,)) for k in range(2, 6)]
                + [("near-unanimity", (k,)) for k in range(3, 6)]
                + [("minority1", ()), ("minority2", ()), ("minority3", ()),
                   ("majority", ()), ("two-thirds-minority", ()),
                   ("pixley-pair", ()), ("siggers4", ()), ("siggers6", ()),
                   ("olsak", ()), ("edge", (3,)), ("cube", (3,))])
    for fam, args in blocking:
        pars = parameters(canonical_transversal(
            compute_closure(builtin_system(fam, *args))))
        got = idemprimality_verdict(pars).almost_surely
        want = expected_verdict(fam, *args).almost_surely
        assert got == want, (fam, args)
    # advisory source-encoded families: report, never block
    advisory_ok = all(
        idemprimality_verdict(parameters(canonical_transversal(
            compute_closure(builtin_system(fam, *args))))).almost_surely
        == expected_verdict(fam, *args).almost_surely
        for fam, args in (("day", (2,)), ("gumm", (0,)), ("gumm", (1,)),
                          ("sd-join", (2,)), ("sd-join", (3,)), ("sd-join", (4,))))
    print(f"CRITERION 3: PASS ({len(blocking)} published verdicts matched "
          f"exactly; advisory families also agree: {advisory_ok})")


def test_criterion_04_bijection_oracle():
    t0 = time.time()
    for text, name in ((None, "maltsev"), (CMALTSEV, "cmaltsev")):
        spec = builtin_system("maltsev") if text is None else \
            parse_system(text, name=name)
        clo = compute_closure(spec)
        trans = canonical_transversal(clo)
        dispatch = build_dispatch(clo, trans)
        pars = parameters(trans)
        brute = {algebra_to_json(a)
                 for a in enumerate_models(spec, 2, backend="brute")}
        fam = list(enumerate_models(spec, 2, backend="family"))
        assert len(brute) == 4 == 2 ** p_of_k(pars, 2)
        assert {algebra_to_json(a) for a in fam} == brute
        for alg in fam:
            mf = extract_mfamily(trans, alg, spec=spec)
            assert realize(dispatch, mf) == alg
            assert extract_mfamily(trans, realize(dispatch, mf)) == mf
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"CRITERION 4: PASS (256-table brute force = 4 models = n^p(n), "
          f"family backend identical, round trips exact; {elapsed:.1f}s)")


def test_criterion_05_fixed_subalgebra_lemma():
    spec = builtin_system("maltsev")
    report, _ = census(spec, 8, 50_000, 20240517, ("fixedB=0+1",))
    theory = 1 / 16
    got = freq(report, "fixedB=0+1")
    tol = three_sigma(theory, 50_000)
    assert abs(got - theory) <= tol, (got, theory, tol)
    print(f"CRITERION 5: PASS (fixed B subuniverse frequency {got:.5f} "
          f"within 3 sigma ({tol:.5f}) of 1/16)")


@pytest.fixture(scope="module")
def criterion6_engine():
    return CensusEngine(builtin_system("maltsev"))


def _criterion6_run(engine):
    exp = Experiment(system=engine.spec, n=16, num_samples=20_000,
                     master_seed=777, properties=("subalg2", "minority2"))
    return run_census(exp, engine=engine)


def test_criterion_06_exact_finite_n_census(criterion6_engine):
    report = _criterion6_run(criterion6_engine)
    t_sub = 1 - (1 - 1 / 64) ** 120
    t_min = 1 - (1 - 1 / 256) ** 120
    assert abs(t_sub - 0.8489) < 5e-4 and abs(t_min - 0.3749) < 5e-4
    f_sub, f_min = freq(report, "subalg2"), freq(report, "minority2")
    assert abs(f_sub - t_sub) <= three_sigma(t_sub, 20_000)
    assert abs(f_min - t_min) <= three_sigma(t_min, 20_000)
    print(f"CRITERION 6: PASS (subalg2 {f_sub:.4f} ~ {t_sub:.4f}, "
          f"minority2 {f_min:.4f} ~ {t_min:.4f}, both within 3 sigma)")


def test_criterion_07_asymptotic_trend():
    spec = builtin_system("maltsev")
    engine = CensusEngine(spec)
    pars = engine.params
    exacts = []
    target = math.exp(-2)
    for n in (8, 16, 32):
        report, _ = census(spec, n, 10_000, mix(31337, n), ("subalg2",),
                           engine=engine)
        exact = float(no_size_d_subalgebra_probability(pars, n))
        got = 1 - freq(report, "subalg2")
        assert abs(got - exact) <= three_sigma(exact, 10_000), (n, got, exact)
        exacts.append(exact)
    assert exacts[0] > exacts[1] > exacts[2] > target
    print(f"CRITERION 7: PASS (no-2-subalgebra frequencies match exact values "
          f"{[round(e, 5) for e in exacts]} decreasing toward e^-2 = {target:.5f})")


def test_criterion_08_rarity_properties():
    spec = builtin_system("hagemann-mitschke", 3)
    report, _ = census(spec, 16, 2_000, 424242,
                       ("automorphism", "cross", "idemprimal"))
    f_aut = freq(report, "automorphism")
    f_cross = freq(report, "cross")
    f_idem = freq(report, "idemprimal")
    assert f_aut <= 0.01 and f_cross <= 0.01
    assert f_idem >= 0.9
    print(f"CRITERION 8: PASS (automorphism {f_aut:.4f} <= 1%, cross "
          f"{f_cross:.4f} <= 1%, idemprimal {f_idem:.4f} >= 0.9)")


def test_criterion_09_majority_sanity():
    spec = builtin_system("majority")
    clo = compute_closure(spec)
    trans = canonical_transversal(clo)
    dispatch = build_dispatch(clo, trans)
    for i in range(100):
        alg = realize(dispatch, sample_mfamily(trans, 7, mix(99, i)))
        for a in range(7):
            assert cross_compatible(alg, a).holds
        for pair in itertools.combinations(range(7), 2):
            assert is_subuniverse(alg, pair).holds
        assert not is_idemprimal(alg).holds
    print("CRITERION 9: PASS (100 majority models at n=7: all crosses "
          "compatible, all 2-subsets closed, none idemprimal)")


def test_criterion_10_uniformity():
    from scipy.stats import chisquare
    spec = builtin_system("maltsev")
    clo = compute_closure(spec)
    trans = canonical_transversal(clo)
    dispatch = build_dispatch(clo, trans)
    counts = {}
    for i in range(40_000):
        alg = realize(dispatch, sample_mfamily(trans, 2, mix(4096, i)))
        counts[alg.tables] = counts.get(alg.tables, 0) + 1
    assert len(counts) == 4
    stat, pvalue = chisquare(list(counts.values()))
    assert pvalue > 0.001, (counts, pvalue)
    print(f"CRITERION 10: PASS (chi-square over 4 models p = {pvalue:.3f} "
          f"> 0.001, counts {sorted(counts.values())})")


def test_criterion_11_dispatch_order_invariance():
    for text, name in ((None, "maltsev"), (CMALTSEV, "cmaltsev")):
        spec = builtin_system("maltsev") if text is None else \
            parse_system(text, name=name)
        clo = compute_closure(spec)
        trans = canonical_transversal(clo)
        baseline_dispatch = build_dispatch(clo, trans)
        fams = [sample_mfamily(trans, 5, mix(55, i)) for i in range(3)]
        baselines = [realize(baseline_dispatch, f) for f in fams]
        for trial in range(100):
            rules = oracle_dispatch_rules(clo, trans, random.Random(trial))
            shuffled = DispatchTable(spec, trans, rules)
            assert [realize(shuffled, f) for f in fams] == baselines
    print("CRITERION 11: PASS (100 randomized dispatch-search orders produce "
          "identical realized algebras on both systems)")


def test_criterion_12_tail_diagnostic():
    t0 = time.time()
    assert abs(zeta(100, 4) - 0.016062) <= 1e-6 + 5e-7
    for n in range(10, 1001):
        assert zeta(n, 4) <= (4 ** 6 / 24) / n ** 2 * (1 + 1e-12)
    tails = [murskii_tail(n) for n in (50, 100, 200)]
    assert tails[0] > tails[1] > tails[2]
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"CRITERION 12: PASS (zeta_100(4) = {zeta(100, 4):.6f}, bound holds "
          f"for n in 10..1000, murskii tail decreasing; {elapsed:.1f}s)")


def test_criterion_13_census_determinism(criterion6_engine):
    first, second = (csv_text([_criterion6_run(criterion6_engine)])
                     for _ in range(2))
    assert first == second
    # a fresh interpreter starts with cold closure and orbit caches
    src = Path(__file__).resolve().parent.parent / "src"
    cli = subprocess.run(
        [sys.executable, "-m", "maltkit.cli", "census",
         str(src / "maltkit" / "systems" / "maltsev.mlt"), "-n", "16",
         "--samples", "20000", "--seed", "777", "--property", "subalg2,minority2"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert cli.stdout == first
    print("CRITERION 13: PASS (criterion-6 census byte-identical in two runs "
          "on one engine and in a fresh `maltkit census` process)")
