from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maltkit.errors import ParseError
from maltkit.terms import (Identity, LinearTerm, Signature, SystemSpec,
                           kernel_code, parse_system,
                           render_system, render_term,
                           required_variable_count, substitute,
                           variable_names)
from oracles import pattern_of, patterns_of_arity


def test_parse_simple():
    spec = parse_system("signature f/3\nidentity f(x,x,y) = y\n")
    assert len(spec.signature) == 1
    assert spec.signature.symbols == (("f", 3),)
    assert spec.identities == (
        Identity(LinearTerm.app(0, (1, 1, 2)), LinearTerm.var(2)),)


def test_parse_cmaltsev(cmaltsev_spec):
    assert len(cmaltsev_spec.signature) == 1
    assert len(cmaltsev_spec.identities) == 2
    second = cmaltsev_spec.identities[1]
    assert second.lhs == LinearTerm.app(0, (1, 2, 3))
    assert second.rhs == LinearTerm.app(0, (3, 2, 1))


def test_parse_comments_and_blanks():
    spec = parse_system("# a comment\n\nsignature f/2\n# more\nidentity f(x,x) = x\n")
    assert len(spec.identities) == 1


def test_parse_multi_symbol_line():
    spec = parse_system("signature f/3, g/2\nidentity f(x,y,y) = g(x,x)\n")
    assert spec.signature.symbols == (("f", 3), ("g", 2))


def test_constant_symbol_rejected():
    with pytest.raises(ParseError):
        parse_system("signature c/0\n")


def test_nested_application_rejected():
    with pytest.raises(ParseError):
        parse_system("signature f/2\nidentity f(f(x,y),x) = x\n")


def test_undeclared_symbol_rejected():
    with pytest.raises(ParseError):
        parse_system("signature f/2\nidentity g(x,y) = x\n")


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_system("signature f/3\nidentity f(x,y) = x\n")


def test_duplicate_symbol_rejected():
    with pytest.raises(ParseError):
        parse_system("signature f/2, f/3\n")


def test_parse_error_carries_line_number():
    try:
        parse_system("signature f/2\nidentity f(x) = x\n")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected ParseError")


def test_variables_numbered_by_first_occurrence():
    spec = parse_system("signature f/3\nidentity f(b,a,b) = a\n")
    assert spec.identities[0].lhs.args == (1, 2, 1)
    assert spec.identities[0].rhs.args == (2,)


# ---------------------------------------------------------------------------
# render / parse round trip


def _random_spec(draw):
    num_syms = draw(st.integers(1, 3))
    sig = Signature(tuple((f"f{i}", draw(st.integers(1, 4)))
                          for i in range(num_syms)))

    def term(nvars):
        if draw(st.booleans()) and nvars >= 1:
            sym = draw(st.integers(0, num_syms - 1))
            d = sig.arity(sym)
            return LinearTerm.app(sym, tuple(
                draw(st.integers(1, nvars)) for _ in range(d)))
        return LinearTerm.var(draw(st.integers(1, nvars)))

    idents = []
    for _ in range(draw(st.integers(1, 3))):
        # build until the identity's variables are contiguous from 1
        for _attempt in range(50):
            nvars = draw(st.integers(1, 4))
            lhs, rhs = term(nvars), term(nvars)
            vs = lhs.variables() | rhs.variables()
            if vs == frozenset(range(1, len(vs) + 1)):
                idents.append(Identity(lhs, rhs))
                break
    return SystemSpec(sig, tuple(idents), name="t")


@given(st.data())
def test_parse_render_round_trip(data):
    # parsing normalizes variable numbering to first occurrence; after one
    # normalization pass, parse and render are mutually inverse
    spec = parse_system(render_system(_random_spec(data.draw)), name="t")
    text = render_system(spec)
    assert parse_system(text, name="t") == spec
    assert render_system(parse_system(text, name="t")) == text


# ---------------------------------------------------------------------------
# patterns: the first-occurrence labels of the oracles against the
# equality-kernel code and the dispatch patterns


def kernel(values):
    return int(kernel_code(np.zeros(1, dtype=np.int64),
                           [np.array([v]) for v in values])[0])


def test_pattern_of_basic():
    assert pattern_of((5, 7, 5)) == (0, 1, 0)
    assert pattern_of(("a",)) == (0,)
    assert kernel((5, 7, 5)) == kernel((0, 1, 0)) == 0b010


@given(st.lists(st.integers(0, 5), min_size=1, max_size=7))
def test_pattern_invariant_under_injective_relabeling(values):
    # relabel by an order-scrambling injection
    relabel = {v: (v * 37 + 11) % 101 for v in set(values)}
    assert len(set(relabel.values())) == len(relabel)
    relabeled = [relabel[v] for v in values]
    assert pattern_of(values) == pattern_of(relabeled)
    assert kernel(values) == kernel(relabeled) == kernel(pattern_of(values))


def test_pattern_validation():
    """The dispatch patterns of each arity are the first-occurrence label
    tuples, each its own pattern, with distinct kernel codes."""
    for d in range(1, 6):
        pats = patterns_of_arity(d)
        assert all(pattern_of(p) == p for p in pats)
        assert set(pats) == {pattern_of(u) for u in product(range(d), repeat=d)}
        assert len({kernel(p) for p in pats}) == len(pats)


# ---------------------------------------------------------------------------
# substitution and minors


def test_substitute():
    t = LinearTerm.app(0, (1, 2, 1))
    assert substitute(t, {1: 3, 2: 1}) == LinearTerm.app(0, (3, 1, 3))
    with pytest.raises(ValueError):
        substitute(t, {1: 3})


def test_required_variable_count():
    spec = parse_system("signature f/3\nidentity f(x,x,y) = y\n")
    assert required_variable_count(spec) == 3
    big = parse_system("signature g/5\nidentity g(x,x,x,x,x) = x\n")
    assert required_variable_count(big) == 5


def test_variable_names_skip_symbol_collisions():
    sig = Signature((("x", 2), ("f", 2)))
    names = variable_names(sig, 3)
    assert "x" not in names
    assert names[0] == "y"


def test_render_term():
    spec = parse_system("signature f/3\nidentity f(x,y,x) = x\n")
    names = variable_names(spec.signature, 3)
    assert render_term(spec.identities[0].lhs, spec.signature, names) == "f(x,y,x)"
