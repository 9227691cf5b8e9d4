import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maltkit import closure
from maltkit.closure import (checked_closure, compute_closure, entails,
                             entails_auto, is_satisfiable, triviality_witness,
                             validate_assumptions)
from maltkit.errors import BudgetError, DomainError
from maltkit.terms import LinearTerm, parse_system, substitute

from oracles import oracle_closure_roots, render_index

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"

V = {"x": 1, "y": 2, "z": 3}


def term(text, spec):
    """Tiny helper: parse one term over x,y,z via a throwaway identity."""
    sig_line = "signature " + ", ".join(
        f"{nm}/{ar}" for nm, ar in spec.signature.symbols)
    # pad the rhs with the same variables so numbering stays x=1,y=2,z=3
    doc = f"{sig_line}\nidentity f_pad(x,y,z) = x\n"
    import re
    m = re.fullmatch(r"([A-Za-z_]\w*)\((.*)\)", text)
    if m:
        args = tuple(V[a.strip()] for a in m.group(2).split(","))
        return LinearTerm.app(spec.signature.index(m.group(1)), args)
    return LinearTerm.var(V[text])


# ---------------------------------------------------------------------------
# golden partition for the commutative Maltsev example


EXPECTED_CLASSES = [
    # (members, essential variable set)
    ({"x", "f(x,x,x)", "f(y,y,x)", "f(x,y,y)", "f(z,z,x)", "f(x,z,z)"}, {"x"}),
    ({"y", "f(y,y,y)", "f(x,x,y)", "f(y,x,x)", "f(z,z,y)", "f(y,z,z)"}, {"y"}),
    ({"z", "f(z,z,z)", "f(x,x,z)", "f(z,x,x)", "f(y,y,z)", "f(z,y,y)"}, {"z"}),
    ({"f(x,y,x)"}, {"x", "y"}),
    ({"f(y,x,y)"}, {"x", "y"}),
    ({"f(x,z,x)"}, {"x", "z"}),
    ({"f(z,x,z)"}, {"x", "z"}),
    ({"f(y,z,y)"}, {"y", "z"}),
    ({"f(z,y,z)"}, {"y", "z"}),
    ({"f(x,y,z)", "f(z,y,x)"}, {"x", "y", "z"}),
    ({"f(y,x,z)", "f(z,x,y)"}, {"x", "y", "z"}),
    ({"f(x,z,y)", "f(y,z,x)"}, {"x", "y", "z"}),
]


def test_cmaltsev_partition_golden(cmaltsev_spec, cmaltsev_closure):
    clo = cmaltsev_closure
    uni = clo.universe
    got = {}
    for root, members in clo.class_members().items():
        got[root] = {render_index(uni, i) for i in members}
    expected = {frozenset(m) for m, _ in EXPECTED_CLASSES}
    assert {frozenset(m) for m in got.values()} == expected
    assert len(got) == 12


def test_cmaltsev_essential_vars(cmaltsev_spec, cmaltsev_closure):
    from maltkit.analysis import class_infos
    infos = class_infos(cmaltsev_closure)
    uni = cmaltsev_closure.universe
    names = {1: "x", 2: "y", 3: "z"}
    by_members = {}
    for info in infos.values():
        mem = frozenset(render_index(uni, i)
                        for i in info.members)
        by_members[mem] = {names[v] for v in info.essential_vars}
    for members, ess in EXPECTED_CLASSES:
        assert by_members[frozenset(members)] == ess


def test_cmaltsev_satisfiable(cmaltsev_closure):
    assert is_satisfiable(cmaltsev_closure)


def test_cmaltsev_entailments(cmaltsev_spec, cmaltsev_closure):
    spec, clo = cmaltsev_spec, cmaltsev_closure
    assert entails(clo, term("f(y,y,x)", spec), term("x", spec))
    assert entails(clo, term("f(x,y,z)", spec), term("f(z,y,x)", spec))
    assert not entails(clo, term("f(x,y,x)", spec), term("x", spec))
    assert not entails(clo, term("f(x,y,z)", spec), term("f(y,x,z)", spec))


def test_idempotence_derived(cmaltsev_spec, cmaltsev_closure):
    assert entails(cmaltsev_closure,
                   term("f(x,x,x)", cmaltsev_spec), term("x", cmaltsev_spec))


def test_triviality_witness(cmaltsev_spec, cmaltsev_closure):
    assert triviality_witness(cmaltsev_closure,
                              term("f(y,y,x)", cmaltsev_spec)) == 1
    assert triviality_witness(cmaltsev_closure,
                              term("f(x,y,x)", cmaltsev_spec)) is None


def test_triviality_witness_unsatisfiable_is_least_variable():
    spec = parse_system("signature f/2\nidentity f(x,y) = x\nidentity f(x,y) = y\n")
    clo = compute_closure(spec)
    assert triviality_witness(clo, term("f(y,x)", spec)) == 1
    assert triviality_witness(clo, term("y", spec)) == 1


def test_unsatisfiable_system():
    spec = parse_system("signature f/3\nidentity f(x,y,z) = x\n"
                        "identity f(x,y,z) = z\n")
    clo = compute_closure(spec)
    assert not is_satisfiable(clo)
    report = validate_assumptions(spec)
    assert report.idempotent and not report.satisfiable and not report.ok


def test_validate_assumptions_non_idempotent():
    spec = parse_system("signature f/2\nidentity f(x,y) = f(y,x)\n")
    report = validate_assumptions(spec)
    assert not report.idempotent


def test_validate_assumptions_all_trivial():
    # projections only: no nontrivial linear term
    spec = parse_system("signature f/2\nidentity f(x,y) = x\n")
    report = validate_assumptions(spec)
    assert report.idempotent and report.satisfiable
    assert not report.has_nontrivial_term


def test_budget_guard():
    spec = parse_system("signature g/8\nidentity g(x,x,x,x,x,x,x,x) = x\n")
    with pytest.raises(BudgetError):
        compute_closure(spec)


def test_entails_auto_enlarges_m(maltsev_spec):
    # a 4-variable query against a 3-variable system
    s = LinearTerm.app(0, (1, 2, 3))
    t = LinearTerm.app(0, (3, 2, 1))
    assert not entails_auto(maltsev_spec, s, t)
    assert entails_auto(maltsev_spec, LinearTerm.app(0, (1, 2, 2)),
                        LinearTerm.var(1))


def test_entails_requires_enough_variables(maltsev_spec):
    with pytest.raises(DomainError):
        compute_closure(maltsev_spec, 2)
    clo = compute_closure(maltsev_spec, 3)
    s = LinearTerm.app(0, (1, 2, 3))
    t = LinearTerm.app(0, (3, 2, 4))  # four variables across the query
    with pytest.raises(DomainError):
        entails(clo, s, t)


def test_variable_budget_holds_on_a_warm_cache(maltsev_spec, monkeypatch):
    monkeypatch.setattr(closure, "_cache", {})
    with pytest.raises(BudgetError):
        compute_closure(maltsev_spec, max_vars=2)
    compute_closure(maltsev_spec)  # caches the m=3 closure
    with pytest.raises(BudgetError):
        compute_closure(maltsev_spec, max_vars=2)


def test_checked_closure(maltsev_spec):
    assert checked_closure(maltsev_spec) is compute_closure(maltsev_spec)
    spec = parse_system("signature f/2\nidentity f(x,y) = x\n")
    with pytest.raises(DomainError, match="every linear term is equivalent"):
        checked_closure(spec)


def test_closure_cache_returns_same_object(maltsev_spec):
    a = compute_closure(maltsev_spec)
    b = compute_closure(maltsev_spec)
    assert a is b


# ---------------------------------------------------------------------------
# structural properties of the closure


@pytest.fixture(scope="module")
def small_systems():
    from maltkit.library import builtin_system
    return [builtin_system(n) for n in
            ("maltsev", "commutative-maltsev", "majority", "minority2",
             "two-thirds-minority")]


def test_closure_is_substitution_closed(small_systems):
    # for every class and every variable map, both images land together
    for spec in small_systems:
        clo = compute_closure(spec)
        uni = clo.universe
        m = uni.m
        for root, members in clo.class_members().items():
            rep = uni.term_at(root)
            for other in members[:4]:
                t = uni.term_at(other)
                for gamma_vals in itertools.product(range(1, m + 1), repeat=m):
                    gamma = {v: gamma_vals[v - 1] for v in range(1, m + 1)}
                    assert clo.class_of(substitute(rep, gamma)) == \
                        clo.class_of(substitute(t, gamma))


def test_closure_permutation_invariance(small_systems):
    # permuting variables maps classes to classes bijectively
    for spec in small_systems:
        clo = compute_closure(spec)
        uni = clo.universe
        for perm in itertools.permutations(range(1, uni.m + 1)):
            gamma = {v: perm[v - 1] for v in range(1, uni.m + 1)}
            image_roots = set()
            for root, members in clo.class_members().items():
                imgs = {clo.class_of(substitute(uni.term_at(i), gamma))
                        for i in members}
                assert len(imgs) == 1
                image_roots.add(imgs.pop())
            assert len(image_roots) == len(clo.class_members())


def test_closure_monotone_in_identities(maltsev_spec):
    # adding an identity only merges classes, never splits them
    richer = parse_system(
        "signature f/3\nidentity f(x,y,y) = x\nidentity f(x,x,y) = y\n"
        "identity f(x,y,z) = f(z,y,x)\n")
    base = compute_closure(maltsev_spec)
    more = compute_closure(richer)
    for _, members in base.class_members().items():
        roots = set(more.roots()[members].tolist())
        assert len(roots) == 1


@pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.mlt")), ids=lambda p: p.stem)
def test_closure_seed_pairs_match_oracle(path):
    # hooking and pointer jumping over the seed pairs leaves the roots of
    # a union-find that keeps the smaller root: each class's least member
    spec = parse_system(path.read_text(), name=path.stem)
    clo = compute_closure(spec)
    assert clo.roots().tolist() == oracle_closure_roots(spec, clo.m)


def test_cached_closure_is_read_only(monkeypatch):
    """Every reader of a cached closure leaves its roots as they were:
    read-only and equal to those of a fresh build."""
    from maltkit.analysis import canonical_transversal, class_infos
    from maltkit.factory import build_dispatch
    spec = parse_system((SYSTEMS_DIR / "hagemann-mitschke-3.mlt").read_text())
    clo = compute_closure(spec)
    before = clo.roots().copy()
    t = LinearTerm.app(0, (1, 2, 2))
    clo.class_of(t)
    entails(clo, t, LinearTerm.var(1))
    validate_assumptions(spec)
    class_infos(clo)
    build_dispatch(clo, canonical_transversal(clo))
    assert compute_closure(spec) is clo
    roots = clo.roots()
    assert not roots.flags.writeable
    with pytest.raises(ValueError):
        roots[0] = 1
    monkeypatch.setattr(closure, "_cache", {})
    fresh = compute_closure(spec)
    assert fresh is not clo
    assert np.array_equal(roots, before) and np.array_equal(fresh.roots(), before)
