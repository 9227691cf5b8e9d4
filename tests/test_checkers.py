import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from maltkit import checkers
from maltkit.analysis import canonical_transversal
from maltkit.checkers import (PropertyResult, _any_cross, _automorphism_search,
                              _candidates, _closure_np, _cross_failures, _extend,
                              _generator_chain, _is_automorphism,
                              _minority_pair, _minority_values,
                              _nontrivial_automorphism,
                              _pair_generated_proper, _pairs, _side_cells, _subalgebras,
                              _subuniverse, _tabs, cross_compatible,
                              has_nontrivial_automorphism,
                              has_proper_subalgebra_size_gt1,
                              is_idemprimal, is_subuniverse)
from maltkit.closure import compute_closure
from maltkit.census import PROPERTIES, CensusEngine, parse_properties
from maltkit.errors import BudgetError, DomainError
from maltkit.factory import (FiniteAlgebra, build_dispatch, draw_values, mix,
                             realize, sample_mfamily)
from maltkit.library import builtin_system
from maltkit.terms import Signature, parse_system
from oracles import (absorbing_algebra, affine_algebra, cross_only_algebra,
                     cross_relation, invariant_algebra, is_compatible_relation,
                     oracle_automorphism_search, oracle_candidates,
                     oracle_closure,
                     oracle_cross_compatible, oracle_generator_chain,
                     oracle_has_minority_two_subalgebra, oracle_is_idemprimal,
                     oracle_nontrivial_automorphism,
                     oracle_pair_generated_proper, oracle_pair_settling,
                     oracle_side_cells,
                     random_algebra, small_algebras)


SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"


def cross_results(tabs, n):
    """(ok, T) of the cross test at every a, from one pass over all a."""
    return [(T is None, T) for T in _cross_failures(tabs, n, range(n))]


def automorphisms(alg):
    """All automorphisms of alg, as sorted image tuples."""
    return sorted(_automorphism_search(_tabs(alg), alg.n))


def minority2(alg, name="f"):
    """(holds, witness) of the minority2=name registry entry, as check
    decides it."""
    (entry, arg), = parse_properties([f"minority2={name}"], alg.signature, alg.n).values()
    return entry.decide(_tabs(alg), alg.n, arg)


def sampled(name, n, seed, *args):
    spec = builtin_system(name, *args)
    clo = compute_closure(spec)
    trans = canonical_transversal(clo)
    dispatch = build_dispatch(clo, trans)
    return realize(dispatch, sample_mfamily(trans, n, seed))


# ---------------------------------------------------------------------------
# subuniverses


def test_is_subuniverse_basic():
    rng = np.random.default_rng(0)
    alg = random_algebra(4, (2,), rng)
    assert is_subuniverse(alg, range(4)).holds
    for a in range(4):
        assert is_subuniverse(alg, (a,)).holds  # idempotence


def test_is_subuniverse_rejects_elements_outside_the_carrier():
    alg = random_algebra(4, (2,), np.random.default_rng(0))
    for B in ((0, 4), (-1, 2)):
        with pytest.raises(DomainError, match="0..3"):
            is_subuniverse(alg, B)


def test_subset_budget_checked_before_scan(monkeypatch):
    """C(100, 4) = 3921225 subsets exceed the 2M budget before one is tried."""
    alg = FiniteAlgebra(100, Signature((("f", 1),)), (tuple(range(100)),))

    def no_subsets(*args):
        raise AssertionError("a subset was tried before the budget check")

    monkeypatch.setattr(checkers, "_subuniverse", no_subsets)
    with pytest.raises(BudgetError, match="3921225 subsets"):
        list(_subalgebras(_tabs(alg), alg.n, 4))


def test_relation_budget_checked_before_tuples(monkeypatch):
    """All 196 pairs over 14 elements under a ternary operation give
    196^3 > 5M row choices, rejected before any cell is read."""
    table = tuple(x for x, y, z in itertools.product(range(14), repeat=3))
    alg = FiniteAlgebra(14, Signature((("f", 3),)), (table,))

    def no_cells(*args):
        raise AssertionError("a tuple was tried before the budget check")

    monkeypatch.setattr(FiniteAlgebra, "value", no_cells)
    with pytest.raises(BudgetError, match="relation"):
        is_compatible_relation(alg, itertools.product(range(14), repeat=2))


def test_generated_subuniverse_is_smallest():
    rng = np.random.default_rng(1)
    for trial in range(20):
        alg = random_algebra(5, (2, 3), rng)
        S = _closure_np(_tabs(alg), alg.n, [0, 1]).tolist()
        assert is_subuniverse(alg, S).holds
        assert {0, 1} <= set(S)
        # minimality: no proper subuniverse of S contains {0,1}
        for k in range(2, len(S)):
            for B in itertools.combinations(S, k):
                if {0, 1} <= set(B):
                    assert not is_subuniverse(alg, B).holds


@pytest.mark.parametrize("n", range(1, 7))
def test_pairs_are_lexicographic_and_read_only(n):
    pairs = _pairs(n)
    assert np.array_equal(pairs, np.stack(np.triu_indices(n, 1), axis=1))
    assert pairs.shape == (n * (n - 1) // 2, 2)
    assert not pairs.flags.writeable

def test_pair_shortcut_matches_exhaustive():
    """has_proper_subalgebra_size_gt1 agrees with brute-force subset search."""
    rng = np.random.default_rng(2)
    for trial in range(30):
        alg = random_algebra(5, (3,), rng)
        got = has_proper_subalgebra_size_gt1(alg).holds
        brute = any(list(_subalgebras(_tabs(alg), alg.n, k)) for k in (2, 3, 4))
        assert got == brute


def test_subalgebras_of_size_witnesses():
    alg = sampled("majority", 6, mix(9, 0))
    pairs = list(_subalgebras(_tabs(alg), alg.n, 2))
    # majority: every 2-subset is closed (d_M = 3)
    assert len(pairs) == 15


# ---------------------------------------------------------------------------
# against the oracles (tests/oracles.py): every pair closed, without
# reachability, and automorphism candidates without the value-count
# filter, extended by propagation


def reference_value_counts(alg):
    """Per element, how often each table takes it, by a loop over cells."""
    return [tuple(sum(v == x for v in table) for table in alg.tables)
            for x in range(alg.n)]


def closed_pairs(tabs, n):
    """(closed, witness): the seeds _pair_generated_proper closes, in
    order, and its witness."""
    closure, closed = checkers._closure_np, []

    def record(tabs, n, seed):
        closed.append(tuple(int(x) for x in seed))
        return closure(tabs, n, seed)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(checkers, "_closure_np", record)
        got = _pair_generated_proper(tabs, n)
    return closed, got


@given(small_algebras())
@settings(max_examples=300, deadline=None)
def test_checkers_match_oracles(alg):
    tabs, n = _tabs(alg), alg.n
    closed, got = closed_pairs(tabs, n)
    assert got == oracle_pair_generated_proper(tabs, n)
    assert (closed, got) == oracle_pair_settling(tabs, n)
    assert _generator_chain(tabs, n) == oracle_generator_chain(tabs, n)
    assert _nontrivial_automorphism(tabs, n) == oracle_nontrivial_automorphism(tabs, n)
    assert automorphisms(alg) == sorted(oracle_automorphism_search(tabs, n, True))
    for a, got in enumerate(cross_results(tabs, n)):
        assert got == oracle_cross_compatible(tabs, n, a)


def test_checkers_match_oracles_on_census_samples():
    """Pair generation and the cross test agree with the oracles on census
    samples, where almost every pair generates A and most pairs are settled
    by reachability; the pairs closed, and their order, are the earlier
    settling loop's; some witness is found after pairs before it were
    settled without a closure."""
    settled_before_witness = 0
    for args, n, count in ((("hagemann-mitschke", 3), 16, 12),
                           (("maltsev",), 5, 60), (("maltsev",), 8, 40),
                           (("commutative-maltsev",), 5, 60),
                           (("near-unanimity", 5), 8, 6), (("majority",), 6, 20)):
        ctx = CensusEngine(builtin_system(*args)).context(n)
        for j in range(count):
            tabs = ctx.realize_np(draw_values(mix(77, j), n, ctx.total_draws))
            closed, got = closed_pairs(tabs, n)
            assert got == oracle_pair_generated_proper(tabs, n), (args, n, j)
            assert (closed, got) == oracle_pair_settling(tabs, n), (args, n, j)
            if got is not None:
                first = next(i for i, (a, b) in enumerate(
                    itertools.combinations(range(n), 2))
                    if len(oracle_closure(tabs, n, (a, b))) < n)
                settled_before_witness += len(closed) < first + 1
            for a, got in enumerate(cross_results(tabs, n)):
                assert got == oracle_cross_compatible(tabs, n, a), (args, n, j, a)
    assert settled_before_witness


def test_pair_test_memory_is_bounded_at_high_arity():
    """An arity-12 pair has 4096 one-step values, but they only set bits
    in n = 3 rows of one word each."""
    tabs = _tabs(random_algebra(3, (12,), np.random.default_rng(5)))
    tracemalloc.start()
    try:
        got = _pair_generated_proper(tabs, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == oracle_pair_generated_proper(tabs, 3)
    assert peak < 32 << 20, peak


@pytest.mark.parametrize("kind", ["successor", "random"])
def test_pair_settling_memory_is_bounded_at_n_200(kind):
    """At n = 200 a binary algebra has 19900 pairs.  The settling keeps
    one 19900-bit row per element and ANDs the rows of the newly
    generating pairs in chunks, so its traced peak stays under 8 MB.  In
    x + 1 off the diagonal every pair generates A, so the rows of all
    19900 pairs are read; the random table has a 2-element subalgebra.
    The pairs closed and the witness are the earlier loop's."""
    n = 200
    if kind == "successor":
        table = tuple(x if x == y else (x + 1) % n
                      for x, y in itertools.product(range(n), repeat=2))
        alg = FiniteAlgebra(n, Signature((("f", 2),)), (table,))
    else:
        alg = random_algebra(n, (2,), np.random.default_rng(200))
    tabs = _tabs(alg)
    tracemalloc.start()
    try:
        got = _pair_generated_proper(tabs, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert closed_pairs(tabs, n) == oracle_pair_settling(tabs, n)
    assert (got is None) == (kind == "successor")


def closed_pair_algebra(pair, d, rng):
    """A random idempotent arity-d algebra at n = 3 in which the cells
    over pair take values in pair, so pair is a subuniverse."""
    cells = np.array(random_algebra(3, (d,), rng).tables[0])
    over = np.array(list(itertools.product(pair, repeat=d)))
    flat = over @ 3 ** np.arange(d - 1, -1, -1)
    cells[flat] = np.where(rng.integers(0, 2, len(flat)), pair[0], pair[1])
    cells[flat[[0, -1]]] = pair
    return FiniteAlgebra(3, Signature((("f", d),)), (tuple(int(x) for x in cells),))


def test_pair_test_matches_oracle_at_arity_8():
    """With more one-step values than elements, most of them repeat;
    {0, 1} generates A, so the witness {1, 2} comes after the
    reachability pass."""
    rng = np.random.default_rng(8)
    algs = [random_algebra(3, (8,), rng) for _ in range(3)]
    algs.append(closed_pair_algebra((1, 2), 8, rng))
    for alg in algs:
        tabs = _tabs(alg)
        assert _pair_generated_proper(tabs, 3) == oracle_pair_generated_proper(tabs, 3)
    assert _pair_generated_proper(_tabs(algs[-1]), 3) == [1, 2]


@given(small_algebras())
@settings(max_examples=100, deadline=None)
def test_automorphism_candidates_are_the_invariant_classes(alg):
    """Every injective choice of images with the generators' invariants is
    tried, and no other; the chain's own images give the identity without
    extension."""
    tabs, n = _tabs(alg), alg.n
    inv = reference_value_counts(alg)
    chain = _generator_chain(tabs, n)
    classes = [[y for y in range(n) if inv[y] == inv[g]] for g in chain]
    want = sum(len(set(imgs)) == len(imgs) for imgs in itertools.product(*classes))
    tried = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checkers, "_extend",
                  lambda *args: tried.append(args[3]) or _extend(*args))
        group = automorphisms(alg)
    assert len(tried) == want - 1
    assert tuple(chain) not in tried
    assert tuple(range(n)) in group


def is_sublist(short, long):
    """Whether short is long with some entries left out, in order."""
    rest = iter(long)
    return all(x in rest for x in short)


def assert_candidates_cover_the_oracle(tabs, n, what) -> bool:
    """Asserts that each generator's oracle candidates are a sublist of
    its candidates; returns whether some generator has more."""
    gens = _generator_chain(tabs, n)
    got, old = _candidates(tabs, n, gens), oracle_candidates(tabs, n, gens)
    assert len(got) == len(old) == len(gens), what
    for g, new_g, old_g in zip(gens, got, old):
        assert g in old_g and is_sublist(old_g, new_g), (what, g)
    return got != old


@given(small_algebras())
@settings(max_examples=200, deadline=None)
def test_value_counts_keep_every_oracle_candidate_in_order(alg):
    """The value counts are part of the oracle's invariants, so each
    generator's oracle candidates are a sublist of its candidates, and the
    search tries the same automorphisms in the same order."""
    assert_candidates_cover_the_oracle(_tabs(alg), alg.n, alg)


def test_value_counts_keep_every_oracle_candidate_on_census_samples():
    """As above, on census samples, where some generator keeps more
    candidates than under the oracle (cyclic-2 at n = 12)."""
    wider = 0
    for args, n in ((("hagemann-mitschke", 3), 8), (("near-unanimity", 5), 6),
                    (("maltsev",), 8), (("cyclic", 2), 12)):
        ctx = CensusEngine(builtin_system(*args)).context(n)
        for j in range(10):
            tabs = ctx.realize_np(draw_values(mix(63, j), n, ctx.total_draws))
            wider += assert_candidates_cover_the_oracle(tabs, n, (args, j))
    assert wider


def test_extension_stops_short_of_a_non_generating_set():
    """Under a first projection {0} is a subuniverse: the extension of
    0 -> 1 stops after one round with -1 elsewhere, and is rejected."""
    table = tuple(x for x, y in itertools.product(range(4), repeat=2))
    tabs = _tabs(FiniteAlgebra(4, Signature((("f", 2),)), (table,)))
    phi = _extend(tabs, 4, [0], (1,))
    assert phi.tolist() == [1, -1, -1, -1]
    assert not _is_automorphism(tabs, 4, phi)


@pytest.mark.parametrize("n", [*range(1, 9), 12, 16, 32])
def test_affine_automorphism_group(n):
    """Also against the oracle's propagation, which rejects conflicting
    images, where the extension leaves them to _is_automorphism."""
    want = {tuple((a * x + b) % n for x in range(n))
            for a in range(n) if math.gcd(a, n) == 1 for b in range(n)}
    got = automorphisms(affine_algebra(n))
    assert len(want) == n * sum(math.gcd(a, n) == 1 for a in range(n))
    assert set(got) == want and len(got) == len(want)
    assert got == sorted(oracle_automorphism_search(_tabs(affine_algebra(n)), n, True))
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

    monkeypatch.setattr(checkers, "_extend", no_candidates)
    with pytest.raises(BudgetError, match="3628800 candidate"):
        automorphisms(alg)
    with pytest.raises(BudgetError):
        has_nontrivial_automorphism(alg)
    with pytest.raises(BudgetError):
        PROPERTIES["automorphism"].table(_tabs(alg), alg.n, None)


def test_automorphism_size_cap_on_every_path(monkeypatch):
    """n = 65 exceeds AUTOMORPHISM_MAX_N before any generator is chosen,
    in the public checkers and in the registry entries check runs."""
    # x + 1 off the diagonal: every pair generates A, so is_idemprimal
    # gets past the proper subalgebras to the automorphism search
    table = tuple(x if x == y else (x + 1) % 65
                  for x, y in itertools.product(range(65), repeat=2))
    alg = FiniteAlgebra(65, Signature((("f", 2),)), (table,))
    tabs = _tabs(alg)
    assert _pair_generated_proper(tabs, 65) is None

    def no_chain(*args):
        raise AssertionError("the search started above the size cap")

    monkeypatch.setattr(checkers, "_generator_chain", no_chain)
    for decide in (automorphisms, has_nontrivial_automorphism, is_idemprimal,
                   lambda alg: PROPERTIES["automorphism"].decide(tabs, 65, None),
                   lambda alg: PROPERTIES["idemprimal"].decide(tabs, 65, None)):
        with pytest.raises(BudgetError, match="n=65 exceeds the automorphism budget 64"):
            decide(alg)


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


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_side_cells_match_oracle(n):
    for d in range(1, 6):
        for k in range(d + 1):
            for pinned in itertools.combinations(range(d), k):
                stride, offsets = _side_cells(n, d, pinned)
                want_stride, want = oracle_side_cells(n, d, pinned)
                assert stride == want_stride and type(stride) is int, (d, pinned)
                assert offsets.dtype == want.dtype and np.array_equal(offsets, want), \
                    (d, pinned)
                assert not offsets.flags.writeable


def test_cross_compatible_rejects_elements_outside_the_carrier():
    """The cross test reads the cells at a * stride + offsets, so a
    negative a would read other elements' cells; it is refused first."""
    alg = random_algebra(4, (2, 3), np.random.default_rng(3))
    for a in (-1, -4, 4):
        with pytest.raises(DomainError, match="element"):
            cross_compatible(alg, a)


class ReadLog:
    """A cell view that records (view, idx) of every read."""

    def __init__(self, view, reads):
        self.view, self.reads = view, reads

    def __getitem__(self, idx):
        self.reads.append((self.view, idx))
        return self.view[idx]


def test_cross_through_cell_views_matches_tables_and_oracle():
    """On the samples of the pinned witness digest (every fixture but
    cube-3 at n = 3, 5 and 8, seeds mix(4242, j)), the pass over the
    plan's cell views, the pass over the realized tables and the oracle
    give the same T at every element.  Some of the cells read lie on the
    variable entry's cells, so those are answered from the plan."""
    variable_reads = 0
    for path in sorted(SYSTEMS_DIR.glob("*.mlt")):
        if path.stem == "cube-3":
            continue
        engine = CensusEngine(parse_system(path.read_text(), path.stem))
        for n in (3, 5, 8):
            ctx = engine.context(n)
            plan = ctx.realizer()
            for j in range(10):
                flat = draw_values(mix(4242, j), n, ctx.total_draws)
                tabs = ctx.realize_np(flat)
                want = [oracle_cross_compatible(tabs, n, a)[1] for a in range(n)]
                assert _cross_failures(tabs, n, range(n)) == want, (path.stem, n, j)
                reads = []
                views = [(ReadLog(view, reads), d) for view, d in plan.cells(flat)]
                assert _cross_failures(views, n, range(n)) == want, (path.stem, n, j)
                variable_reads += sum(int((view.pos[idx] < 0).sum())
                                      for view, idx in reads)
    assert variable_reads


def test_checkers_read_cell_views_as_tables():
    """Closures, pair generation, the generator chain, the extension of
    generator images, the automorphism test and search, subuniverse
    witnesses and minority pairs are the same on the plan's cell views as
    on the realized tables."""
    found, automorphic = set(), set()
    for args, n in ((("hagemann-mitschke", 3), 8), (("near-unanimity", 5), 6),
                    (("maltsev",), 8), (("majority",), 6), (("minority2",), 6)):
        ctx = CensusEngine(builtin_system(*args)).context(n)
        plan = ctx.realizer()
        for j in range(10):
            flat = draw_values(mix(91, j), n, ctx.total_draws)
            tabs, views = plan.tables(flat), plan.cells(flat)
            seed = (j % n, (j + 1) % n)
            closed = _closure_np(tabs, n, seed)
            assert np.array_equal(_closure_np(views, n, seed), closed), (args, j)
            witness = _pair_generated_proper(tabs, n)
            assert _pair_generated_proper(views, n) == witness, (args, j)
            gens = _generator_chain(tabs, n)
            assert _generator_chain(views, n) == gens, (args, j)
            imgs = tuple(np.random.default_rng(j).permutation(n)[gens])
            phi = _extend(tabs, n, gens, imgs)
            assert np.array_equal(_extend(views, n, gens, imgs), phi), (args, j)
            group = list(_automorphism_search(tabs, n))
            assert list(_automorphism_search(views, n)) == group, (args, j)
            perm = _nontrivial_automorphism(tabs, n)
            assert _nontrivial_automorphism(views, n) == perm, (args, j)
            for psi in (phi, np.arange(n), np.roll(np.arange(n), 1)):
                holds = _is_automorphism(tabs, n, psi)
                assert _is_automorphism(views, n, psi) == holds, (args, j)
                automorphic.add(holds)
            for B in (closed, witness or (0, 1), (0, 1, 2)):
                bad = _subuniverse(tabs, n, B)
                assert _subuniverse(views, n, B) == bad, (args, j, B)
                found.add(bad is None)
            for sym in (s for s, (_, d) in enumerate(tabs) if d == 3):
                pair = _minority_pair(tabs, n, sym)
                assert _minority_pair(views, n, sym) == pair, (args, j, sym)
                found.add(pair)
    assert {True, False, None} < found  # both subuniverse answers, some pair
    assert automorphic == {True, False}


def test_majority_cross_always_compatible():
    for i in range(5):
        alg = sampled("majority", 5, mix(31, i))
        for a in range(alg.n):
            assert cross_compatible(alg, a).holds


def test_any_cross(maltsev_spec):
    alg = sampled("maltsev", 5, mix(17, 0))
    a = _any_cross(_tabs(alg), alg.n)
    if a is not None:
        assert is_compatible_relation(alg, cross_relation(alg.n, a)).holds


@given(small_algebras())
@settings(max_examples=200, deadline=None)
def test_cross_pass_records_each_first_failing_T(alg):
    """The pass over all elements records, per element, the T at which the
    oracle's test of that element alone first fails; the elements that
    drop out earlier do not change it, nor does their order."""
    tabs, n = _tabs(alg), alg.n
    want = [oracle_cross_compatible(tabs, n, a)[1] for a in range(n)]
    assert _cross_failures(tabs, n, range(n)) == want
    assert _cross_failures(tabs, n, range(n - 1, -1, -1)) == want[::-1]
    for a in range(n):
        assert _cross_failures(tabs, n, [a]) == [want[a]]
        assert cross_compatible(alg, a).witness == (a if want[a] is None else want[a])


def test_cross_pass_on_non_idempotent_tables():
    """Off idempotent tables the diagonal can fail, so the side pinned on
    no coordinate, the whole grid, is reached; a constant table makes the
    cross at its value compatible and fails every other element at T = ()."""
    constant = (np.full(9, 1, dtype=np.int64), 2)
    assert _cross_failures([constant], 3, range(3)) == [(), None, ()]
    rng = np.random.default_rng(19)
    compatible = 0
    for trial in range(300):
        n = int(rng.integers(1, 5))
        tabs = []
        for d in rng.integers(1, 4, size=int(rng.integers(1, 3))).tolist():
            kind = trial % 3
            if kind == 0:
                tab = np.full(n ** d, rng.integers(n))
            else:
                # kind 2 keeps two values, so some diagonals hold
                tab = rng.integers(n if kind == 1 else min(n, 2), size=n ** d)
            tabs.append((tab.astype(np.int64), d))
        got = _cross_failures(tabs, n, range(n))
        assert got == [oracle_cross_compatible(tabs, n, a)[1] for a in range(n)]
        compatible += got.count(None)
    assert compatible


def test_any_cross_is_the_least_compatible_element():
    """n - 1 absorbs from the left, so its cross is compatible; when a
    smaller element's cross is too, that one is returned."""
    rng = np.random.default_rng(23)
    below = 0
    for trial in range(200):
        n = int(rng.integers(2, 6))
        arities = [int(d) for d in rng.integers(1, 3, size=int(rng.integers(1, 3)))]
        alg = absorbing_algebra(n, arities, n - 1, rng)
        tabs = _tabs(alg)
        least = next(a for a in range(n) if oracle_cross_compatible(tabs, n, a)[0])
        assert _any_cross(tabs, n) == least
        below += least < n - 1
    assert below


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


def test_idemprimal_cross_is_the_last_obstruction():
    alg = cross_only_algebra()
    assert not has_proper_subalgebra_size_gt1(alg).holds
    assert not has_nontrivial_automorphism(alg).holds
    assert is_compatible_relation(alg, cross_relation(3, 0)).holds
    res = is_idemprimal(alg)
    assert (res.holds, res.witness) == (False, ("cross", 0))
    assert res == oracle_is_idemprimal(alg)


def test_idemprimal_consistency():
    for i in range(10):
        alg = sampled("hagemann-mitschke", 6, mix(8, i), 3)
        res = is_idemprimal(alg)
        expect = (not has_proper_subalgebra_size_gt1(alg).holds
                  and not has_nontrivial_automorphism(alg).holds
                  and _any_cross(_tabs(alg), alg.n) is None)
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
    assert minority2(alg)[0]


def minority_table(n, a, b, rest):
    """A ternary table that is the minority operation on {a, b} and takes
    the value rest on every other cell."""
    table = [rest] * n ** 3
    for args, v in _minority_values(a, b).items():
        table[(args[0] * n + args[1]) * n + args[2]] = v
    return table


def test_minority_two_subalgebra_small_carriers():
    sig = Signature((("f", 3),))
    alg = FiniteAlgebra(1, sig, ((0,),))
    assert minority2(alg) == (False, None)
    assert oracle_has_minority_two_subalgebra(alg, 0).holds is False
    minority = FiniteAlgebra(2, sig, (tuple(minority_table(2, 0, 1, 0)),))
    assert minority2(minority) == (True, (0, 1))
    assert oracle_has_minority_two_subalgebra(minority, 0) == \
        PropertyResult("minority-2-subalgebra", True, (0, 1))
    # the majority operation on {0, 1} is idempotent but no minority
    majority = FiniteAlgebra(2, sig, (tuple(int(sum(args) >= 2) for args in
                                            itertools.product((0, 1), repeat=3)),))
    assert not minority2(majority)[0]
    assert not oracle_has_minority_two_subalgebra(majority, 0).holds


def test_minority_two_subalgebra_reads_the_constant_cells():
    """check accepts non-idempotent algebras, so the constant cells of a
    pair are part of the minority pattern: f(0,0,0) = 1 stays in {0, 1}
    but breaks minority there, and no other pair is one."""
    sig = Signature((("f", 3), ("g", 2)))
    g = tuple(min(a, b) for a in range(3) for b in range(3))
    table = minority_table(3, 0, 1, 2)
    alg = FiniteAlgebra(3, sig, (tuple(table), g))
    assert minority2(alg) == (True, (0, 1))
    table[0] = 1
    broken = FiniteAlgebra(3, sig, (tuple(table), g))
    assert is_subuniverse(broken, (0, 1)).holds
    assert minority2(broken) == (False, None)
    assert not oracle_has_minority_two_subalgebra(broken, 0).holds


def test_minority_two_subalgebra_requires_ternary():
    rng = np.random.default_rng(6)
    alg = random_algebra(3, (2,), rng)
    for prop in ("minority2", "minority2=f0"):
        with pytest.raises(DomainError, match="ternary"):
            parse_properties([prop], alg.signature, alg.n)


def test_compatible_relation_diagonal():
    rng = np.random.default_rng(7)
    alg = random_algebra(4, (2,), rng)
    diag = [(a, a) for a in range(4)]
    assert is_compatible_relation(alg, diag).holds
