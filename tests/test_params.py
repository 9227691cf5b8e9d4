import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from maltkit.analysis import canonical_transversal
from maltkit.closure import compute_closure
from maltkit.errors import DomainError
from maltkit.library import builtin_system
from maltkit.params import (Parameters, asymptotic_table,
                            fixed_subalgebra_probability,
                            idemprimality_verdict, murskii_tail, p_of_k,
                            parameters, zeta)
from oracles import no_size_d_subalgebra_probability


def params_of(name, *args):
    clo = compute_closure(builtin_system(name, *args))
    return parameters(canonical_transversal(clo))


def test_maltsev_parameters(maltsev_closure):
    pars = parameters(canonical_transversal(maltsev_closure))
    assert pars.d_M == 2
    assert pars.entries == ((2, 2), (3, 6))
    assert p_of_k(pars, 2) == 2


def test_minority_p3_values():
    assert p_of_k(params_of("minority1"), 3) == 6
    assert p_of_k(params_of("minority2"), 3) == 2
    assert p_of_k(params_of("minority3"), 3) == 1


def test_p_of_k_binomial_sum():
    pars = Parameters(2, ((2, 2), (3, 6)))
    assert p_of_k(pars, 5) == 2 * 10 + 6 * 10


@given(st.integers(2, 6))
def test_p_recurrence(d):
    """p(d+1) = p(d)*(d+1)/(d+1-d_i summands) specialization: for a single
    entry (d, q), p(d+1) = q*(d+1); with an extra (d+1, r) entry the extra
    r shows up exactly once."""
    pars = Parameters(d, ((d, 3), (d + 1, 5)))
    assert p_of_k(pars, d + 1) == 3 * (d + 1) + 5


def test_model_count_matches_brute_force(maltsev_spec, maltsev_closure):
    from maltkit.factory import enumerate_models
    pars = parameters(canonical_transversal(maltsev_closure))
    assert 2 ** p_of_k(pars, 2) == 4
    assert len(list(enumerate_models(maltsev_spec, 2, backend="brute"))) == 4


def test_fixed_subalgebra_probability():
    pars = Parameters(2, ((2, 2), (3, 6)))
    assert fixed_subalgebra_probability(pars, 2, 8) == Fraction(1, 16)
    assert fixed_subalgebra_probability(pars, 2, 16) == Fraction(1, 64)
    # p(1) = 0 below d_M, and the whole carrier is always closed
    assert fixed_subalgebra_probability(pars, 1, 8) == 1
    assert fixed_subalgebra_probability(pars, 8, 8) == 1
    with pytest.raises(DomainError):
        fixed_subalgebra_probability(pars, 9, 8)


def test_no_size_d_probability():
    pars = Parameters(2, ((2, 2), (3, 6)))
    got = no_size_d_subalgebra_probability(pars, 16)
    assert got == (1 - Fraction(1, 64)) ** 120
    # monotone approach to e^{-2}
    vals = [float(no_size_d_subalgebra_probability(pars, n))
            for n in (8, 16, 32, 64, 128)]
    target = math.exp(-2)
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    assert abs(vals[-1] - target) < 0.01


# ---------------------------------------------------------------------------
# asymptotic table


def table_values(pars):
    return [value for _, _, value in asymptotic_table(pars)]


def test_table_minority1():
    # p(3) = 6 > 3: no size-3 subalgebra in the limit; p(3) > 1 kills size 4
    assert asymptotic_table(params_of("minority1")) == [
        ("< 3", "1", 1.0), ("= 3", "0", 0.0), ("= 4", "0", 0.0), (">= 5", "0", 0.0)]


def test_table_minority3():
    # p(3) = 1 < 3 and no 4-ary entry: size-3 a.s., size-4 open
    assert asymptotic_table(params_of("minority3")) == [
        ("< 3", "1", 1.0), ("= 3", "1", 1.0), ("= 4", "open", None),
        (">= 5", "0", 0.0)]


def test_table_minority2():
    # p(3) = 2 < 3: size-3 subalgebras almost surely; p(3) = 2 > 1 -> zero
    assert table_values(params_of("minority2")) == [1.0, 1.0, 0.0, 0.0]


def test_table_maltsev():
    # p(2) = 2 = d: the 1 - e^{-2} cell
    pars = params_of("maltsev")
    (_, text, value), at_d1 = asymptotic_table(pars)[1:3]
    assert abs(value - (1 - math.exp(-2))) < 1e-12
    assert text == "1-exp(-2^2/2!)"
    assert at_d1 == ("= 3", "0", 0.0)


def test_table_open_cell_condition():
    # open iff p(d) = 1 and no entry of arity d+1
    assert table_values(Parameters(3, ((3, 1),)))[2] is None
    assert table_values(Parameters(3, ((3, 1), (4, 1))))[2] == 0.0
    assert table_values(Parameters(3, ((3, 2),)))[2] == 0.0


# ---------------------------------------------------------------------------
# verdict


def test_verdict_cases():
    assert idemprimality_verdict(Parameters(2, ((2, 4),))).almost_surely
    v = idemprimality_verdict(Parameters(2, ((2, 2), (3, 6))))
    assert not v.almost_surely and abs(v.limit_probability - math.exp(-2)) < 1e-15
    assert v.limit_label == "exp(-2)"
    v3 = idemprimality_verdict(Parameters(3, ((3, 6),)))
    assert not v3.almost_surely and v3.limit_probability == 0.0
    v1 = idemprimality_verdict(Parameters(2, ((2, 1),)))
    assert not v1.almost_surely and v1.limit_probability == 0.0


def test_verdict_justification_nonempty():
    v = idemprimality_verdict(Parameters(2, ((2, 4),)))
    assert v.justification and all(isinstance(j, str) for j in v.justification)


def test_parameters_requires_nontrivial_entry():
    spec_trivial = builtin_system("maltsev")
    # fabricate a transversal with only the variable entry
    from maltkit.analysis import Transversal
    trans = canonical_transversal(compute_closure(spec_trivial))
    only_var = Transversal((trans.entries[0],))
    with pytest.raises(DomainError):
        parameters(only_var)


# ---------------------------------------------------------------------------
# tail diagnostics


def test_zeta_value():
    assert abs(zeta(100, 4) - math.comb(100, 4) * (4 / 100) ** 6) < 1e-12


def test_zeta_bounds():
    for n in (10, 50, 100, 500, 1000):
        assert zeta(n, 4) <= (4 ** 6 / 24) / n ** 2 + 1e-12


def test_murskii_tail_decreasing():
    vals = [murskii_tail(n) for n in (50, 100, 200)]
    assert vals[0] > vals[1] > vals[2]
