"""The gather-plan realizer and the census gather arrays against the
per-cell and per-subset reference builders they replaced, on the shipped
fixtures."""

import functools
import random
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

from maltkit import checkers
from maltkit.analysis import canonical_transversal
from maltkit.census import CensusEngine, _minority_symbolic, minority_pair_probability
from maltkit.closure import compute_closure
from maltkit.factory import (DispatchTable, FiniteAlgebra, build_dispatch, draw_values,
                             mix, realize, sample_mfamily)
from maltkit.terms import parse_system
from oracles import oracle_dispatch_rules, oracle_minority_symbolic, pattern_of

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"

# fixtures whose analysis takes more than about a second
SLOW_FIXTURES = {"cube-3", "edge-5", "parallelogram-1-2", "siggers6"}
FIXTURES = sorted(p.stem for p in SYSTEMS_DIR.glob("*.mlt")
                  if p.stem not in SLOW_FIXTURES)


def lex_least(entry, u) -> tuple[int, ...]:
    """The canonical key of u: its lex-least image under the entry's G."""
    return min(tuple(u[p - 1] for p in g) for g in entry.group.elements)


@functools.lru_cache(maxsize=None)
def reference_layout(transversal, n) -> list[dict | None]:
    """Per entry i >= 1, each canonical key's flat draw position: entries
    in transversal order, the sorted lex-least keys of each entry."""
    layout, offset = [None], 0
    for e in transversal.entries[1:]:
        keys = sorted({lex_least(e, u) for u in permutations(range(n), e.d)})
        layout.append({k: offset + j for j, k in enumerate(keys)})
        offset += len(keys)
    return layout


def reference_realize(dispatch, mfamily) -> FiniteAlgebra:
    """Fill every cell on its own: the cell's pattern picks a transversal
    entry and selector sigma, and the value is the argument sigma selects
    (variable entry) or h_i at the lex-least image of the selected tuple
    under G_i, read from the family by the reference layout."""
    n = mfamily.n
    sig = dispatch.spec.signature
    entries = dispatch.transversal.entries
    layout = reference_layout(dispatch.transversal, n)
    tables = []
    for sym in range(len(sig)):
        rules = dispatch.rules[sym]
        table = []
        for a in product(range(n), repeat=sig.arity(sym)):
            entry, sigma = rules[pattern_of(a)]
            if entry == 0:
                table.append(a[sigma[0] - 1])
            else:
                key = lex_least(entries[entry], tuple(a[s - 1] for s in sigma))
                table.append(mfamily.values[layout[entry][key]])
        tables.append(tuple(table))
    return FiniteAlgebra(n, sig, tuple(tables))


def reference_subset_row(transversal, n, sub) -> list[int]:
    """Draw positions of the keys with every argument in sub, entry by
    entry (each entry's positions sorted)."""
    layout = reference_layout(transversal, n)
    row = []
    for ei, e in enumerate(transversal.entries[1:], start=1):
        row.extend(sorted({layout[ei][lex_least(e, u)]
                           for u in permutations(sub, e.d)}))
    return row


def reference_minority_symbolic(engine, symbol):
    """(feasible, forced, member) over the symbolic pair (0,1), walking the
    dispatch rules: forced is [(entry, key, required 0/1)] for the minority
    cells, member [(entry, key)] for the other symbols' closure cells."""
    sig = engine.spec.signature
    entries = engine.transversal.entries
    forced, member, feasible = {}, set(), True
    want = checkers._minority_values(0, 1)
    for sym in range(len(sig)):
        for args in product((0, 1), repeat=sig.arity(sym)):
            if len(set(args)) == 1:
                continue
            entry, sigma = engine.dispatch.rules[sym][pattern_of(args)]
            k = None if entry == 0 else (
                entry, lex_least(entries[entry], tuple(args[s - 1] for s in sigma)))
            if sym == symbol:
                req = want[args]
                if k is None:
                    feasible &= args[sigma[0] - 1] == req
                else:
                    feasible &= forced.get(k, req) == req
                    forced[k] = req
            elif k is not None:
                member.add(k)
    member -= set(forced)
    return (feasible, sorted((ei, k, v) for (ei, k), v in forced.items()),
            sorted(member))


@functools.lru_cache(maxsize=None)
def fixture(name):
    spec = parse_system((SYSTEMS_DIR / f"{name}.mlt").read_text(), name=name)
    return spec, CensusEngine(spec)


@pytest.mark.parametrize("name", FIXTURES)
def test_plan_matches_reference_realizer(name):
    spec, engine = fixture(name)
    clo = compute_closure(spec)
    trans = canonical_transversal(clo)
    # each dispatch table compiles its own plan
    dispatches = [build_dispatch(clo, trans),
                  DispatchTable(spec, trans,
                                oracle_dispatch_rules(clo, trans, random.Random(name)))]
    for n in (1, 2, 3, 5):
        seed = mix(17, n)
        want = reference_realize(dispatches[0], sample_mfamily(trans, n, seed))
        for dispatch in dispatches:
            assert realize(dispatch, sample_mfamily(trans, n, seed)) == want
        ctx = engine.context(n)
        flat = draw_values(seed, n, ctx.total_draws)
        tabs = ctx.realize_np(flat)
        assert tuple(tuple(t.tolist()) for t, _ in tabs) == want.tables
        # the cell views read the same tables, cell by cell or all at once
        views = ctx.realizer().cells(flat)
        for (view, d), table in zip(views, want.tables):
            cells = np.arange(n ** d)
            assert view[cells].tolist() == list(table)
            assert view[cells[::-1].reshape(n, -1)].ravel().tolist() == list(table)[::-1]


def rows(lists, width) -> np.ndarray:
    return np.array(lists, dtype=np.int64).reshape(len(lists), width)


@pytest.mark.parametrize("name", FIXTURES)
def test_gather_arrays_match_reference(name):
    spec, engine = fixture(name)
    trans = engine.transversal
    ternary = [s for s, (_, d) in enumerate(spec.signature.symbols) if d == 3]
    for n in (1, 2, 3, 5):
        ctx = engine.context(n)
        for k, (P, S) in ((2, ctx.pair_arrays()), (3, ctx.triple_arrays())):
            subsets = list(combinations(range(n), k))
            assert S.tolist() == [list(sub) for sub in subsets]
            width = sum(map(len, reference_layout(trans, k)[1:]))
            want = rows([reference_subset_row(trans, n, sub) for sub in subsets], width)
            assert np.array_equal(P, want)
        B = tuple(range(0, n, 2))
        positions, elems = ctx.fixed_b_arrays(B)
        assert positions.tolist() == reference_subset_row(trans, n, B)
        assert elems.tolist() == list(B)

        layout, layout2 = reference_layout(trans, n), reference_layout(trans, 2)
        pairs = list(combinations(range(n), 2))
        for symbol in ternary:
            feasible, forced, member = reference_minority_symbolic(engine, symbol)
            got = _minority_symbolic(engine, symbol)
            assert got[0] == feasible
            assert got[2] == [layout2[ei][k] for ei, k in member]
            if feasible:
                assert got[1] == [(layout2[ei][k], v) for ei, k, v in forced]
                assert minority_pair_probability(engine, symbol, n) == \
                    (1 / n) ** len(forced) * (2 / n) ** len(member)
            else:
                assert minority_pair_probability(engine, symbol, n) == 0.0

            def positions(keys, ab):
                return [layout[ei][lex_least(trans.entries[ei],
                                             tuple(ab[x] for x in key))]
                        for ei, key, *_ in keys]
            got_feasible, FP, FV, MP, S = ctx.minority_arrays(symbol)
            assert got_feasible == feasible
            assert S.tolist() == [list(ab) for ab in pairs]
            assert np.array_equal(MP, rows([positions(member, ab) for ab in pairs],
                                           len(member)))
            if feasible:
                assert np.array_equal(FP, rows([positions(forced, ab) for ab in pairs],
                                               len(forced)))
                assert np.array_equal(FV, rows([[ab[req] for *_, req in forced]
                                                for ab in pairs], len(forced)))


@pytest.mark.parametrize("name", sorted(p.stem for p in SYSTEMS_DIR.glob("*.mlt")))
def test_minority_symbolic_matches_oracle(name):
    """The designated symbol's 8 cells at n = 2 give what the walk over
    every symbol's cells gives, on every ternary symbol of every fixture."""
    spec, engine = fixture(name)
    for symbol, (_, d) in enumerate(spec.signature.symbols):
        if d == 3:
            got = _minority_symbolic(engine, symbol)
            assert got == oracle_minority_symbolic(engine, symbol), symbol
            assert type(got[0]) is bool


@pytest.mark.parametrize("name", FIXTURES)
def test_cell_budget_bounds_the_draws(name):
    """Each key is read by the cell of its representative, so p(n) is at
    most the number of cells."""
    spec, engine = fixture(name)
    for n in (1, 2, 3, 5):
        assert engine.context(n).total_draws <= sum(n ** ar for _, ar in spec.signature.symbols)
