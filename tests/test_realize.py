"""The gather-plan realizer against the per-cell reference realizer it
replaced, on the shipped fixtures."""

import random
from itertools import product
from pathlib import Path

import pytest

from maltkit.analysis import canonical_transversal
from maltkit.census import CensusEngine
from maltkit.closure import compute_closure
from maltkit.factory import (FiniteAlgebra, build_dispatch, draw_values, mix,
                             realize, sample_mfamily)
from maltkit.terms import parse_system, pattern_of

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"

# fixtures whose analysis takes more than about a second
SLOW_FIXTURES = {"cube-3", "edge-5", "parallelogram-1-2", "siggers6"}
FIXTURES = sorted(p.stem for p in SYSTEMS_DIR.glob("*.mlt")
                  if p.stem not in SLOW_FIXTURES)


def reference_realize(dispatch, mfamily) -> FiniteAlgebra:
    """Fill every cell on its own: the cell's pattern picks a transversal
    entry and selector sigma, and the value is the argument sigma selects
    (variable entry) or h_i at the lex-least image of the selected tuple
    under G_i."""
    n = mfamily.n
    sig = dispatch.spec.signature
    entries = dispatch.transversal.entries
    tables = []
    for sym in range(len(sig)):
        rules = dispatch.rules[sym]
        table = []
        for a in product(range(n), repeat=sig.arity(sym)):
            entry, sigma = rules[pattern_of(a).labels]
            if entry == 0:
                table.append(a[sigma[0] - 1])
            else:
                u = tuple(a[s - 1] for s in sigma)
                key = min(tuple(u[p - 1] for p in g)
                          for g in entries[entry].group.elements)
                table.append(mfamily.values[entry][key])
        tables.append(tuple(table))
    return FiniteAlgebra(n, sig, tuple(tables))


@pytest.mark.parametrize("name", FIXTURES)
def test_plan_matches_reference_realizer(name):
    spec = parse_system((SYSTEMS_DIR / f"{name}.mlt").read_text(), name=name)
    clo = compute_closure(spec)
    trans = canonical_transversal(clo)
    # each dispatch table compiles its own plan
    dispatches = [build_dispatch(clo, trans, spec.signature),
                  build_dispatch(clo, trans, spec.signature,
                                 order_rng=random.Random(name))]
    engine = CensusEngine(spec)
    for n in (1, 2, 3, 5):
        seed = mix(17, n)
        want = reference_realize(dispatches[0], sample_mfamily(trans, n, seed))
        for dispatch in dispatches:
            assert realize(dispatch, sample_mfamily(trans, n, seed)) == want
        ctx = engine.context(n)
        tabs = ctx.realize_np(draw_values(seed, n, ctx.total_draws))
        assert tuple(tuple(t.tolist()) for t, _ in tabs) == want.tables
