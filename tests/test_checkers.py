import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maltkit import checkers
from maltkit.analysis import canonical_transversal
from maltkit.checkers import (_any_cross_np, _generator_chain, _is_automorphism,
                              _minority_values, _nontrivial_automorphism,
                              _pair_generated_proper, _propagate, _tabs,
                              automorphisms, cross_compatible, cross_relation,
                              generated_subuniverse,
                              has_minority_two_subalgebra,
                              has_nontrivial_automorphism,
                              has_proper_subalgebra_size_gt1, is_compatible_relation,
                              is_idemprimal, is_subuniverse, subalgebras_of_size)
from maltkit.closure import compute_closure
from maltkit.census import PROPERTIES
from maltkit.errors import BudgetError, DomainError
from maltkit.factory import (FiniteAlgebra, build_dispatch, mix, realize,
                             sample_mfamily)
from maltkit.library import builtin_system
from maltkit.terms import Signature


def random_algebra(n, arities, rng):
    sig = Signature(tuple((f"f{i}", d) for i, d in enumerate(arities)))
    tables = []
    for d in arities:
        cells = rng.integers(0, n, size=n ** d)
        # force idempotence so the census invariants apply
        for a in range(n):
            idx = sum(a * n ** (d - 1 - j) for j in range(d))
            cells[idx] = a
        tables.append(tuple(int(x) for x in cells))
    return FiniteAlgebra(n, sig, tuple(tables))


def invariant_algebra(pi, arities, rng):
    """A random idempotent algebra with the permutation pi among its
    automorphisms: each pi-orbit of cells (pi acting coordinatewise) of
    length L takes a value whose pi-cycle length divides L, moved along
    with the cells."""
    n = len(pi)
    cycle = [1] * n
    for a in range(n):
        x = pi[a]
        while x != a:
            x, cycle[a] = pi[x], cycle[a] + 1
    sig = Signature(tuple((f"f{i}", d) for i, d in enumerate(arities)))
    tables = []
    for d in arities:
        cells = {}
        for u in itertools.product(range(n), repeat=d):
            if u in cells:
                continue
            L = math.lcm(*(cycle[a] for a in u))
            if len(set(u)) == 1:
                v = u[0]
            else:
                v = int(rng.choice([a for a in range(n) if L % cycle[a] == 0]))
            for _ in range(L):
                cells[u] = v
                u, v = tuple(int(pi[a]) for a in u), int(pi[v])
        tables.append(tuple(cells[u] for u in itertools.product(range(n), repeat=d)))
    return FiniteAlgebra(n, sig, tuple(tables))


def affine_algebra(n):
    """x - y + z mod n, whose automorphisms are the maps x -> ax + b with a
    a unit mod n."""
    table = tuple((x - y + z) % n for x, y, z in itertools.product(range(n), repeat=3))
    return FiniteAlgebra(n, Signature((("f", 3),)), (table,))


@st.composite
def small_algebras(draw):
    """Random idempotent algebras at n <= 6: plain random tables, tables
    invariant under a random permutation, and the affine algebra."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("random", "invariant", "affine")))
    if kind == "affine":
        return affine_algebra(n)
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        return random_algebra(n, arities, rng)
    return invariant_algebra(rng.permutation(n), arities, rng)


def sampled(name, n, seed, *args):
    spec = builtin_system(name, *args)
    clo = compute_closure(spec)
    trans = canonical_transversal(clo)
    dispatch = build_dispatch(clo, trans, spec.signature)
    return realize(dispatch, sample_mfamily(trans, n, seed))


# ---------------------------------------------------------------------------
# subuniverses


def test_is_subuniverse_basic():
    rng = np.random.default_rng(0)
    alg = random_algebra(4, (2,), rng)
    assert is_subuniverse(alg, range(4)).holds
    for a in range(4):
        assert is_subuniverse(alg, (a,)).holds  # idempotence


def test_generated_subuniverse_is_smallest():
    rng = np.random.default_rng(1)
    for trial in range(20):
        alg = random_algebra(5, (2, 3), rng)
        S = generated_subuniverse(alg, [0, 1])
        assert is_subuniverse(alg, S).holds
        assert {0, 1} <= set(S)
        # minimality: no proper subuniverse of S contains {0,1}
        for k in range(2, len(S)):
            for B in itertools.combinations(S, k):
                if {0, 1} <= set(B):
                    assert not is_subuniverse(alg, B).holds


def test_pair_shortcut_matches_exhaustive():
    """has_proper_subalgebra_size_gt1 agrees with brute-force subset search."""
    rng = np.random.default_rng(2)
    for trial in range(30):
        alg = random_algebra(5, (3,), rng)
        got = has_proper_subalgebra_size_gt1(alg).holds
        brute = any(subalgebras_of_size(alg, k) for k in (2, 3, 4))
        assert got == brute


def test_subalgebras_of_size_witnesses():
    alg = sampled("majority", 6, mix(9, 0))
    pairs = subalgebras_of_size(alg, 2)
    # majority: every 2-subset is closed (d_M = 3)
    assert len(pairs) == 15


# ---------------------------------------------------------------------------
# oracles: the checkers before pair closures stopped at known generating
# pairs and before automorphism candidates were filtered by invariants


def oracle_closure(tabs, n, seed):
    S = np.unique(np.asarray(sorted(seed), dtype=np.int64))
    while True:
        pieces = [S]
        for tab, d in tabs:
            grid = tab.reshape((n,) * d)
            pieces.append(grid[np.ix_(*([S] * d))].ravel())
        new = np.unique(np.concatenate(pieces))
        if len(new) == len(S):
            return new
        S = new


def oracle_pair_generated_proper(tabs, n):
    for a in range(n):
        for b in range(a + 1, n):
            S = oracle_closure(tabs, n, (a, b))
            if len(S) < n:
                return [int(x) for x in S]
    return None


def oracle_generator_chain(tabs, n):
    gens = []
    S = np.empty(0, dtype=np.int64)
    while len(S) < n:
        for g in range(n):
            if g not in S:
                break
        gens.append(g)
        S = oracle_closure(tabs, n, list(S) + [g])
    return gens


def oracle_automorphism_search(tabs, n, find_all):
    gens = oracle_generator_chain(tabs, n)
    total = 1
    for j in range(len(gens)):
        total *= n - j
    if total > 500_000:
        raise BudgetError(
            f"{total} candidate generator images exceed the search budget")
    found = []
    identity = tuple(gens)
    for imgs in itertools.permutations(range(n), len(gens)):
        phi = _propagate(tabs, n, gens, imgs)
        if phi is None or not _is_automorphism(tabs, n, phi):
            continue
        perm = tuple(int(x) for x in phi)
        found.append(perm)
        if not find_all and imgs != identity:
            # a nontrivial automorphism exists
            return found
    return found


def oracle_nontrivial_automorphism(tabs, n):
    ident = tuple(range(n))
    for perm in oracle_automorphism_search(tabs, n, find_all=False):
        if perm != ident:
            return perm
    return None


def reference_invariants(alg):
    """Per element, the counts _invariants computes, by a loop over cells."""
    n, rows = alg.n, []
    for x in range(n):
        row = []
        for sym, table in enumerate(alg.tables):
            cells = list(zip(itertools.product(range(n),
                                               repeat=alg.signature.arity(sym)),
                             table))
            row.append(sum(v == x for _, v in cells))
            for j in range(alg.signature.arity(sym)):
                row.append(sum(u[j] == x == v for u, v in cells))
        rows.append(tuple(row))
    return rows


@given(small_algebras())
@settings(max_examples=300, deadline=None)
def test_checkers_match_oracles(alg):
    tabs, n = _tabs(alg), alg.n
    assert _pair_generated_proper(tabs, n) == oracle_pair_generated_proper(tabs, n)
    assert _generator_chain(tabs, n) == oracle_generator_chain(tabs, n)
    assert _nontrivial_automorphism(tabs, n) == oracle_nontrivial_automorphism(tabs, n)
    assert automorphisms(alg) == sorted(oracle_automorphism_search(tabs, n, True))


@given(small_algebras())
@settings(max_examples=100, deadline=None)
def test_automorphism_candidates_are_the_invariant_classes(alg):
    """Every injective choice of images with the generators' invariants is
    tried, and no other."""
    tabs, n = _tabs(alg), alg.n
    inv = reference_invariants(alg)
    classes = [[y for y in range(n) if inv[y] == inv[g]]
               for g in _generator_chain(tabs, n)]
    want = sum(len(set(imgs)) == len(imgs) for imgs in itertools.product(*classes))
    tried = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checkers, "_propagate",
                  lambda *args: tried.append(args[3]) or _propagate(*args))
        automorphisms(alg)
    assert len(tried) == want


@pytest.mark.parametrize("n", range(1, 9))
def test_affine_automorphism_group(n):
    want = {tuple((a * x + b) % n for x in range(n))
            for a in range(n) if math.gcd(a, n) == 1 for b in range(n)}
    got = automorphisms(affine_algebra(n))
    assert len(want) == n * sum(math.gcd(a, n) == 1 for a in range(n))
    assert set(got) == want and len(got) == len(want)
    assert has_nontrivial_automorphism(affine_algebra(n)).holds == (n > 1)


def test_invariant_algebra_has_its_permutation():
    rng = np.random.default_rng(12)
    for trial in range(10):
        pi = rng.permutation(6)
        alg = invariant_algebra(pi, (2, 3), rng)
        assert tuple(int(x) for x in pi) in automorphisms(alg)


def test_automorphism_budget_checked_before_search(monkeypatch):
    """A first projection makes every subset a subuniverse, so the chain
    is all 10 elements and 10! images exceed the 500k budget."""
    table = tuple(x for x, y in itertools.product(range(10), repeat=2))
    alg = FiniteAlgebra(10, Signature((("f", 2),)), (table,))

    def no_candidates(*args):
        raise AssertionError("a candidate was tried before the budget check")

    monkeypatch.setattr(checkers, "_propagate", no_candidates)
    with pytest.raises(BudgetError, match="3628800 candidate"):
        automorphisms(alg)
    with pytest.raises(BudgetError):
        has_nontrivial_automorphism(alg)
    with pytest.raises(BudgetError):
        PROPERTIES["automorphism"].table(_tabs(alg), alg.n, None)


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphism_group_is_a_group():
    rng = np.random.default_rng(3)
    for trial in range(10):
        alg = random_algebra(4, (2,), rng)
        auts = automorphisms(alg)
        assert tuple(range(4)) in auts
        auts_set = set(auts)
        for f in auts:
            inv = tuple(np.argsort(np.array(f)))
            assert tuple(int(x) for x in inv) in auts_set
            for g in auts:
                comp = tuple(f[g[i]] for i in range(4))
                assert comp in auts_set


def test_automorphisms_match_bruteforce():
    rng = np.random.default_rng(4)
    for trial in range(10):
        alg = random_algebra(4, (3,), rng)
        got = set(automorphisms(alg))
        grid = np.asarray(alg.tables[0]).reshape(4, 4, 4)
        brute = set()
        for perm in itertools.permutations(range(4)):
            p = np.array(perm)
            if np.array_equal(p[grid], grid[np.ix_(p, p, p)]):
                brute.add(perm)
        assert got == brute


def test_has_nontrivial_automorphism_flags_swap():
    # the minority operation on {0,1} commutes with the transposition
    table = tuple(_minority_values(0, 1)[args]
                  for args in itertools.product((0, 1), repeat=3))
    alg = FiniteAlgebra(2, Signature((("f", 3),)), (table,))
    assert has_nontrivial_automorphism(alg).holds


# ---------------------------------------------------------------------------
# crosses


def test_cross_decoupling_matches_relation_check():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(3, 6))
        alg = random_algebra(n, (rng.integers(2, 4),), rng)
        for a in range(n):
            fast = cross_compatible(alg, a).holds
            slow = is_compatible_relation(alg, cross_relation(n, a)).holds
            assert fast == slow, (n, a)


def test_majority_cross_always_compatible():
    for i in range(5):
        alg = sampled("majority", 5, mix(31, i))
        for a in range(alg.n):
            assert cross_compatible(alg, a).holds


def test_any_cross(maltsev_spec):
    alg = sampled("maltsev", 5, mix(17, 0))
    a = _any_cross_np(_tabs(alg), alg.n)
    if a is not None:
        assert is_compatible_relation(alg, cross_relation(alg.n, a)).holds


# ---------------------------------------------------------------------------
# idemprimality


def test_idemprimal_needs_n_gt_2():
    alg = sampled("maltsev", 2, mix(1, 0))
    with pytest.raises(DomainError):
        is_idemprimal(alg)


def test_idemprimal_witness_tags():
    alg = sampled("majority", 5, mix(2, 0))
    res = is_idemprimal(alg)
    assert not res.holds
    assert res.witness[0] in ("proper-subalgebra", "automorphism", "cross")


def test_idemprimal_consistency():
    for i in range(10):
        alg = sampled("hagemann-mitschke", 6, mix(8, i), 3)
        res = is_idemprimal(alg)
        expect = (not has_proper_subalgebra_size_gt1(alg).holds
                  and not has_nontrivial_automorphism(alg).holds
                  and _any_cross_np(_tabs(alg), alg.n) is None)
        assert res.holds == expect


# ---------------------------------------------------------------------------
# minority pairs


def test_minority_values_table():
    vals = _minority_values(0, 1)
    assert vals[(0, 0, 0)] == 0 and vals[(1, 1, 1)] == 1
    assert vals[(0, 1, 1)] == 0 and vals[(1, 0, 1)] == 0 and vals[(1, 1, 0)] == 0
    assert vals[(1, 0, 0)] == 1 and vals[(0, 1, 0)] == 1 and vals[(0, 0, 1)] == 1


def test_minority_two_subalgebra_on_minority_model():
    # every 2-subset of a minority1 model is a minority subalgebra
    alg = sampled("minority1", 4, mix(5, 0))
    res = has_minority_two_subalgebra(alg, "f")
    assert res.holds


def test_minority_two_subalgebra_requires_ternary():
    rng = np.random.default_rng(6)
    alg = random_algebra(3, (2,), rng)
    with pytest.raises(DomainError):
        has_minority_two_subalgebra(alg, 0)


def test_compatible_relation_diagonal():
    rng = np.random.default_rng(7)
    alg = random_algebra(4, (2,), rng)
    diag = [(a, a) for a in range(4)]
    assert is_compatible_relation(alg, diag).holds
