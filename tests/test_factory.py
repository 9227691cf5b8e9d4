import functools
import itertools
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maltkit.analysis import (SymmetryGroup, Transversal, TransversalEntry,
                              canonical_transversal)
from maltkit.closure import compute_closure
from maltkit.errors import BudgetError, DomainError, ParseError
from maltkit import factory
from maltkit.factory import (DispatchTable, FiniteAlgebra, OrbitIndex, TablePlan,
                             algebra_from_json, algebra_to_json,
                             build_dispatch, draw_values, enumerate_models,
                             injective_blocks, mix, orbit_index, realize,
                             sample_mfamily, validate_model)
from maltkit.library import builtin_system
from maltkit.terms import LinearTerm, parse_system
from oracles import (extract_mfamily, oracle_dispatch_rules, oracle_orbit_codes,
                     oracle_plan_symbols, patterns_of_arity)

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"


@pytest.fixture(scope="module")
def maltsev_setup(maltsev_spec):
    clo = compute_closure(maltsev_spec)
    trans = canonical_transversal(clo)
    dispatch = build_dispatch(clo, trans)
    return maltsev_spec, clo, trans, dispatch


@pytest.fixture(scope="module")
def cmaltsev_setup(cmaltsev_spec):
    clo = compute_closure(cmaltsev_spec)
    trans = canonical_transversal(clo)
    dispatch = build_dispatch(clo, trans)
    return cmaltsev_spec, clo, trans, dispatch


# ---------------------------------------------------------------------------
# patterns and dispatch


def test_patterns_of_arity():
    assert patterns_of_arity(1) == [(0,)]
    assert patterns_of_arity(2) == [(0, 0), (0, 1)]
    assert len(patterns_of_arity(3)) == 5   # Bell number B_3
    assert len(patterns_of_arity(4)) == 15  # B_4


def test_maltsev_dispatch_golden(maltsev_setup):
    _, _, _, dispatch = maltsev_setup
    rules = dispatch.rules[0]
    assert rules[(0, 0, 1)] == (0, (3,))      # f(x,x,y) = y -> variable entry
    assert rules[(0, 1, 1)] == (0, (1,))      # f(x,y,y) = x
    assert rules[(0, 1, 0)] == (1, (1, 2))    # f(x,y,x) -> binary entry
    assert rules[(0, 1, 2)] == (2, (1, 2, 3)) # generic -> ternary entry
    assert rules[(0, 0, 0)] == (0, (1,))      # idempotence


def test_dispatch_covers_all_patterns(cmaltsev_setup):
    spec, _, _, dispatch = cmaltsev_setup
    for sym in range(len(spec.signature)):
        pats = {tuple(p) for p in patterns_of_arity(spec.signature.arity(sym))}
        assert set(dispatch.rules[sym]) == pats


def test_dispatch_order_invariance(maltsev_setup, cmaltsev_setup):
    """The realized algebra does not depend on the order in which the
    dispatch search tries injective assignments."""
    for spec, clo, trans, dispatch in (maltsev_setup, cmaltsev_setup):
        fam = sample_mfamily(trans, 5, mix(123, 0))
        baseline = realize(dispatch, fam)
        for trial in range(100):
            rules = oracle_dispatch_rules(clo, trans, random.Random(trial))
            assert realize(DispatchTable(spec, trans, rules), fam) == baseline


@pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.mlt")), ids=lambda p: p.stem)
def test_dispatch_rules_match_search_oracle(path):
    """The rules read off the class arrays are the search's first hits,
    symbol by symbol and pattern by pattern in the same order."""
    spec = parse_system(path.read_text(), name=path.stem)
    clo = compute_closure(spec)
    trans = canonical_transversal(clo)
    got, want = build_dispatch(clo, trans).rules, oracle_dispatch_rules(clo, trans)
    assert [(sym, list(rules.items())) for sym, rules in got.items()] == \
        [(sym, list(rules.items())) for sym, rules in want.items()]


# ---------------------------------------------------------------------------
# RNG contract


def test_mix_is_splitmix64_step():
    # fixed vectors pin the mixing function forever
    assert mix(0, 1) == 16294208416658607535
    assert mix(42, 7) == 4028864712777624925
    assert mix(42, 7) == mix(42, 7)
    assert mix(42, 7) != mix(42, 8)
    assert 0 <= mix(2 ** 64 - 1, 2 ** 32) < 2 ** 64


def test_draw_values_deterministic():
    a = draw_values(987, 8, 100)
    b = draw_values(987, 8, 100)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 8


# ---------------------------------------------------------------------------
# sampling, realization, bijection


def test_realized_models_validate(maltsev_setup):
    spec, _, trans, dispatch = maltsev_setup
    for i in range(20):
        fam = sample_mfamily(trans, 6, mix(5, i))
        alg = realize(dispatch, fam)
        ok, witness = validate_model(spec, alg)
        assert ok, witness


def test_realized_models_idempotent(cmaltsev_setup):
    spec, _, trans, dispatch = cmaltsev_setup
    for i in range(10):
        alg = realize(dispatch, sample_mfamily(trans, 5, mix(11, i)))
        for a in range(alg.n):
            assert alg.value(0, (a, a, a)) == a


@given(st.integers(0, 10 ** 6), st.integers(2, 8))
@settings(max_examples=50, deadline=None)
def test_bijection_round_trip(seed, n):
    spec = builtin_system("maltsev")
    clo = compute_closure(spec)
    trans = canonical_transversal(clo)
    dispatch = build_dispatch(clo, trans)
    fam = sample_mfamily(trans, n, seed)
    alg = realize(dispatch, fam)
    assert extract_mfamily(trans, alg, spec=spec) == fam
    assert realize(dispatch, extract_mfamily(trans, alg)) == alg


def test_enumerate_backends_agree():
    for name in ("maltsev", "commutative-maltsev"):
        spec = builtin_system(name)
        fam = {algebra_to_json(a) for a in enumerate_models(spec, 2)}
        brute = {algebra_to_json(a) for a in enumerate_models(spec, 2, backend="brute")}
        assert fam == brute
        assert len(fam) == 4


def test_enumerate_n3_counts(maltsev_spec):
    from maltkit.params import p_of_k, parameters
    clo = compute_closure(maltsev_spec)
    pars = parameters(canonical_transversal(clo))
    models = list(enumerate_models(maltsev_spec, 3))
    assert len(models) == 3 ** p_of_k(pars, 3)
    for alg in models[:50]:
        assert validate_model(maltsev_spec, alg)[0]


def test_enumerate_budget():
    spec = builtin_system("maltsev")
    with pytest.raises(BudgetError):
        list(enumerate_models(spec, 50))


def test_extract_rejects_non_model(maltsev_spec):
    clo = compute_closure(maltsev_spec)
    trans = canonical_transversal(clo)
    # the first projection is not a Maltsev operation
    table = tuple(a for a in range(2) for _ in range(4))
    alg = FiniteAlgebra(2, maltsev_spec.signature, (table,))
    assert not validate_model(maltsev_spec, alg)[0]
    with pytest.raises(DomainError):
        extract_mfamily(trans, alg, spec=maltsev_spec)


# ---------------------------------------------------------------------------
# orbit index


def test_orbit_index_counts(maltsev_setup, cmaltsev_setup):
    # total independent values = p(n) from the parameters
    from maltkit.params import p_of_k, parameters
    for setup in (maltsev_setup, cmaltsev_setup):
        _, _, trans, _ = setup
        pars = parameters(trans)
        for n in (2, 3, 5, 8):
            oi = orbit_index(trans, n)
            assert oi.total == p_of_k(pars, n)


def test_orbit_index_keys_in_draw_order(maltsev_setup):
    # the example in the README's determinism contract
    _, _, trans, _ = maltsev_setup
    assert orbit_index(trans, 3).keys(1).tolist() == [
        [0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]]


def test_orbit_index_canonical_constant_on_orbits(cmaltsev_setup):
    _, _, trans, _ = cmaltsev_setup
    oi = orbit_index(trans, 4)
    # ternary entry of the commutative Maltsev example has the (1 3) swap
    entry = next(i for i, e in enumerate(trans.entries) if e.d == 3)
    g = trans.entries[entry].group
    assert len(g) == 2
    for u in itertools.permutations(range(4), 3):
        orbit = [[u[p - 1] for p in perm] for perm in g.elements]
        assert len(set(oi.position(entry, orbit).tolist())) == 1
    # each key is read at its own position, and keys come in draw order
    keys = oi.keys(entry)
    positions = oi.position(entry, keys)
    assert np.array_equal(np.diff(positions), np.ones(len(keys) - 1))
    assert keys.tolist() == sorted(keys.tolist())


# ---------------------------------------------------------------------------
# per-n compile against the grid oracles


@functools.lru_cache(maxsize=None)
def fixture_dispatch(spec):
    clo = compute_closure(spec)
    return build_dispatch(clo, canonical_transversal(clo))


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def assert_compile_matches_oracle(dispatch, n):
    """Orbit index and gather plan, byte for byte, as the grid builds.
    Trivial-group entries hold no codes, so every entry's keys are
    compared as rows with the oracle's codes unravelled."""
    codes, offsets = oracle_orbit_codes(dispatch.transversal, n)
    oi = OrbitIndex(dispatch.transversal, n)
    assert oi.offsets == offsets
    assert oi.total == offsets[-1] + len(codes[-1])
    entries = range(1, len(dispatch.transversal))
    keys = [oi.keys(e) for e in entries]
    want_keys = [np.stack(np.unravel_index(codes[e], (n,) * oi.groups[e].degree), axis=-1)
                 for e in entries]
    assert [k.shape for k in keys] == [w.shape for w in want_keys]
    assert_same_arrays(keys, want_keys)
    plan, want = TablePlan(dispatch, n).symbols, oracle_plan_symbols(dispatch, n)
    assert [d for *_, d in plan] == [d for *_, d in want]
    for got_sym, want_sym in zip(plan, want):
        assert_same_arrays(got_sym[:3], want_sym[:3])


@pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.mlt")), ids=lambda p: p.stem)
def test_compile_matches_grid_oracle_on_fixtures(path):
    dispatch = fixture_dispatch(parse_system(path.read_text(), name=path.stem))
    for n in (1, 2, 3, 5):
        assert_compile_matches_oracle(dispatch, n)


@pytest.mark.parametrize("system,n", [
    (("near-unanimity", 5), 8), (("olsak",), 6), (("day", 2), 8),
    (("commutative-maltsev",), 6),  # its ternary entry has a group of order 2
])
def test_compile_in_small_blocks_matches_grid_oracle(system, n, monkeypatch):
    monkeypatch.setattr(factory, "BLOCK_ROWS", 4)
    # every arity runs several blocks, one or four leading values each
    assert all(len(list(injective_blocks(n, v))) > 1 for v in range(1, 4))
    orbit_index.cache_clear()
    try:
        assert_compile_matches_oracle(fixture_dispatch(builtin_system(*system)), n)
    finally:
        orbit_index.cache_clear()


@pytest.mark.parametrize("n,v", [(1, 1), (3, 1), (4, 2), (5, 3), (5, 5), (6, 4), (3, 4)])
@pytest.mark.parametrize("block_rows", [1, 5, 1 << 15])
def test_injective_blocks_enumerate_in_lex_order(n, v, block_rows, monkeypatch):
    monkeypatch.setattr(factory, "BLOCK_ROWS", block_rows)
    rows = [tuple(t) for b in injective_blocks(n, v) for t in b.T.tolist()]
    assert rows == list(itertools.permutations(range(n), v))


@pytest.mark.parametrize("n", [9, 3])
def test_trivial_group_positions_are_lex_ranks(n):
    # one trivial-group entry of each degree 1..5; at n=3 the entries of
    # degree 4 and 5 have no injective tuple and get an empty input
    def trivial(i, d):
        return TransversalEntry(i, LinearTerm.var(1), d,
                                SymmetryGroup(d, (tuple(range(1, d + 1)),)), 1)
    trans = Transversal((trivial(0, 1),) + tuple(trivial(d, d) for d in range(1, 6)))
    codes, offsets = oracle_orbit_codes(trans, n)
    oi = OrbitIndex(trans, n)
    rng = np.random.default_rng(n)
    for d in range(1, 6):
        U = (np.array([[rng.permutation(n)[:d] for _ in range(10)] for _ in range(20)])
             if d <= n else np.zeros((0, d), dtype=np.int64))
        want = offsets[d] + np.searchsorted(codes[d], U @ n ** np.arange(d - 1, -1, -1))
        got = oi.position(d, U)
        assert got.dtype == want.dtype and got.shape == U.shape[:-1]
        assert np.array_equal(got, want)


def test_orbit_index_holds_no_codes_for_trivial_groups():
    # every NU-5 entry has a trivial group; an array of the codes of all
    # injective 5-tuples at n=16 takes 4.2 MB
    trans = canonical_transversal(compute_closure(builtin_system("near-unanimity", 5)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        OrbitIndex(trans, 16)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_orbit_index_checks_its_budget_before_allocating():
    # the grid build asked for n^2 bytes for the first binary entry
    trans = canonical_transversal(compute_closure(builtin_system("near-unanimity", 5)))
    with pytest.raises(BudgetError, match=r"^orbit index at n=1000000 enumerates "
                                          r"\d+ injective tuples \(budget 100000000\)$"):
        sample_mfamily(trans, 10 ** 6, 1)


def test_plan_compile_memory_is_bounded_by_its_output():
    # NU-5 at n=16: pos is 16^5 int64 (8.4 MB); the grid build's equality
    # kernel, digit and index temporaries peaked at about 4.5 times that
    dispatch = fixture_dispatch(builtin_system("near-unanimity", 5))
    orbit_index(dispatch.transversal, 16)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = TablePlan(dispatch, 16)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * plan.symbols[0][0].nbytes


# ---------------------------------------------------------------------------
# JSON format


def test_algebra_json_round_trip(maltsev_setup):
    _, _, trans, dispatch = maltsev_setup
    alg = realize(dispatch, sample_mfamily(trans, 4, mix(3, 3)))
    text = algebra_to_json(alg)
    doc = json.loads(text)
    assert doc["n"] == 4
    assert list(doc["operations"]) == ["f"]
    assert doc["operations"]["f"]["arity"] == 3
    assert len(doc["operations"]["f"]["table"]) == 64
    assert algebra_from_json(text) == alg


def test_algebra_json_row_major(maltsev_setup):
    _, _, trans, dispatch = maltsev_setup
    alg = realize(dispatch, sample_mfamily(trans, 3, mix(4, 0)))
    doc = json.loads(algebra_to_json(alg))
    table = doc["operations"]["f"]["table"]
    for args in itertools.product(range(3), repeat=3):
        idx = args[0] * 9 + args[1] * 3 + args[2]
        assert table[idx] == alg.value(0, args)


def test_algebra_json_rejects_bad_table():
    """Only JSON integers are numbers (a bool or a float is not), and a
    parse error names the field."""
    with pytest.raises(DomainError):
        algebra_from_json('{"n": 2, "operations": {"f": {"arity": 3, "table": [0, 1]}}}')
    with pytest.raises(DomainError):
        algebra_from_json(
            '{"n": 2, "operations": {"f": {"arity": 1, "table": [0, 5]}}}')
    f1 = '"operations": {"f": {"arity": 1, "table": [0, 1, 2]}}'
    for doc, field in [
            ('{"n": 3.7, %s}' % f1, "n"),
            ('{"n": "3", %s}' % f1, "n"),
            ('{"n": true, %s}' % f1, "n"),
            ('{"n": 3, "operations": {"f": {"arity": 2.9, "table": [0, 1, 2]}}}',
             "operations.f.arity"),
            ('{"n": 2, "operations": {"f": {"arity": 1, "table": [0, 1.5]}}}',
             "operations.f.table"),
            ('{"n": 2, "operations": {"f": {"arity": 1, "table": [0, true]}}}',
             "operations.f.table"),
            ('{"n": 2, "operations": {"f": {"arity": 1, "table": [0, null]}}}',
             "operations.f.table"),
            ('{"n": 2, "operations": {"f": {"arity": 1, "table": "01"}}}',
             "operations.f.table"),
            ('{"n": 2, "operations": {"f": [0, 1]}}', "operations.f"),
            ('{"n": 2, "operations": []}', "operations"),
            ('[1, 2]', "the algebra document")]:
        with pytest.raises(ParseError, match=rf"^{field} must"):
            algebra_from_json(doc)
    with pytest.raises(ParseError, match="malformed"):
        algebra_from_json("[" * 100_000 + "]" * 100_000)
    # json.loads would keep the last of a repeated key
    f2 = '"f": {"arity": 1, "table": [0, 1]}'
    for doc, key in [
            ('{"n": 2, "operations": {%s, %s}}' % (f2, f2), "f"),
            ('{"n": 2, "operations": {"f": {"arity": 1, "table": [1, 0], '
             '"table": [0, 1]}}}', "table"),
            ('{"n": 3, "n": 2, "operations": {%s}}' % f2, "n")]:
        with pytest.raises(ParseError, match=f'^the algebra document repeats the key "{key}"$'):
            algebra_from_json(doc)
