import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maltkit import analysis, closure as closure_mod
from maltkit.analysis import (canonical_transversal, class_infos,
                              classify_minimal, is_minimal,
                              minimal_terms, orbit_partition, symmetry_group)
from maltkit.census import CensusEngine
from maltkit.cli import main
from maltkit.closure import ClosurePartition, TermUniverse, compute_closure
from maltkit.errors import DomainError
from maltkit.library import builtin_system
from maltkit.terms import LinearTerm, parse_system, required_variable_count

from oracles import (oracle_canonical_transversal, oracle_class_infos,
                     oracle_symmetry_group, orbit_partition_bruteforce,
                     render_index, small_systems)

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"


def render(closure, t):
    return render_index(closure.universe, closure.universe.index_of(t))


# ---------------------------------------------------------------------------
# orbits


def test_cmaltsev_orbits(cmaltsev_closure):
    infos = orbit_partition(cmaltsev_closure)
    assert len(infos) == 12
    orbits = {}
    for info in infos:
        orbits.setdefault(info.orbit_id, []).append(info)
    sizes = sorted(len(v) for v in orbits.values())
    assert sizes == [3, 3, 6]


def test_orbit_key_method_matches_bruteforce():
    for name in ("maltsev", "commutative-maltsev", "majority", "minority1",
                 "minority3", "two-thirds-minority", "pixley-pair"):
        spec = builtin_system(name)
        clo = compute_closure(spec)
        brute = orbit_partition_bruteforce(clo)
        infos = class_infos(clo)
        for root, info in infos.items():
            assert info.orbit_id == brute[root], name


def test_orbit_key_method_matches_bruteforce_4ary():
    spec = builtin_system("day", 2)
    clo = compute_closure(spec)
    brute = orbit_partition_bruteforce(clo)
    for root, info in class_infos(clo).items():
        assert info.orbit_id == brute[root]


def fixture_spec(path):
    return parse_system(path.read_text(), name=path.stem)


def universe_size(spec):
    return TermUniverse(spec.signature, required_variable_count(spec)).size


# the per-term oracle needs ~17 s for cube-3's 823,550 terms alone
ORACLE_FIXTURES = [p for p in sorted(SYSTEMS_DIR.glob("*.mlt"))
                   if universe_size(fixture_spec(p)) <= 50_000]


@pytest.mark.parametrize("path", ORACLE_FIXTURES, ids=lambda p: p.stem)
def test_class_infos_match_oracle_on_fixtures(path):
    clo = compute_closure(fixture_spec(path))
    assert class_infos(clo) == oracle_class_infos(clo)


def outcome(analysis, clo):
    """The analysis result, or the type and message of its error."""
    try:
        return analysis(clo)
    except (DomainError, AssertionError) as exc:
        return type(exc), str(exc)


@given(small_systems())
@settings(max_examples=200, deadline=None)
def test_class_infos_match_oracles_on_random_systems(spec):
    clo = compute_closure(spec)
    got = outcome(class_infos, clo)
    assert got == outcome(oracle_class_infos, clo)
    if isinstance(got, dict):
        brute = orbit_partition_bruteforce(clo)
        assert {root: info.orbit_id for root, info in got.items()} == brute


@pytest.mark.parametrize("path", sorted(SYSTEMS_DIR.glob("*.mlt")), ids=lambda p: p.stem)
def test_transversal_matches_oracle_on_fixtures(path):
    clo = compute_closure(fixture_spec(path))
    assert canonical_transversal(clo) == oracle_canonical_transversal(clo)


@given(small_systems())
@settings(max_examples=200, deadline=None)
def test_transversal_and_symmetry_groups_match_oracles_on_random_systems(spec):
    clo = compute_closure(spec)
    assert (outcome(canonical_transversal, clo)
            == outcome(oracle_canonical_transversal, clo))
    for i in range(clo.universe.size):
        t = clo.universe.term_at(i)
        assert (outcome(lambda c: symmetry_group(c, t), clo)
                == outcome(lambda c: oracle_symmetry_group(c, t), clo)), t


def test_analyze_and_census_engine_build_no_per_class_objects(monkeypatch, capsys):
    """The analysis reads its class facts off arrays: neither `analyze`
    nor the census set-up builds member lists or ClassInfo objects."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-class objects built")

    monkeypatch.setattr(closure_mod, "_cache", {})
    monkeypatch.setattr(ClosurePartition, "class_members", refuse)
    monkeypatch.setattr(analysis, "ClassInfo", refuse)
    assert main(["analyze", str(SYSTEMS_DIR / "hagemann-mitschke-3.mlt"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["num_orbits"] > 1
    CensusEngine(builtin_system("hagemann-mitschke", 3))


def test_analyze_reads_class_facts_through_class_infos(monkeypatch, capsys):
    """class_infos is the one source of class facts, so a profile of it
    covers the class-fact work of `analyze`: the facts the transversal and
    the class and orbit counts read all come through it."""
    from maltkit import cli
    real, seen = analysis.class_infos, []

    def spy(closure):
        seen.append(closure)
        return real(closure)

    monkeypatch.setattr(closure_mod, "_cache", {})
    monkeypatch.setattr(analysis, "class_infos", spy)
    monkeypatch.setattr(cli, "class_infos", spy)
    assert main(["analyze", str(SYSTEMS_DIR / "maltsev.mlt"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert seen and all(c is seen[0] for c in seen)
    facts = real(seen[0])
    assert (payload["num_classes"], payload["num_orbits"]) == (len(facts),
                                                               facts.num_orbits)
    assert facts == oracle_class_infos(seen[0])


def test_class_infos_rejects_unsatisfiable_closure():
    spec = parse_system("signature f/2\nidentity f(x,y) = x\n"
                        "identity f(x,y) = y\n")
    with pytest.raises(DomainError, match="class with empty essential variable set"):
        class_infos(compute_closure(spec))


def test_class_members_group_a_given_roots_array():
    spec = builtin_system("maltsev")
    universe = TermUniverse(spec.signature, 3)
    roots = np.arange(universe.size)
    roots[4:7] = 3
    clo = ClosurePartition(spec, universe, roots)
    assert clo.roots() is roots and not roots.flags.writeable
    members = clo.class_members()
    assert list(members) == sorted(set(roots.tolist()))
    assert members[3] == [3, 4, 5, 6] and members[7] == [7]
    assert sum(map(len, members.values())) == universe.size


# ---------------------------------------------------------------------------
# symmetry groups and transversal


def test_cmaltsev_symmetry_groups(cmaltsev_closure):
    clo = cmaltsev_closure
    f = 0
    # D_1 = {f(x,y,z), f(z,y,x)} has the order-2 group swapping x and z
    g = symmetry_group(clo, LinearTerm.app(f, (1, 2, 3)))
    assert len(g) == 2
    assert (3, 2, 1) in g.elements
    # C_1 = {f(x,y,x)} is rigid
    g2 = symmetry_group(clo, LinearTerm.app(f, (1, 2, 1)))
    assert len(g2) == 1


def test_group_order_divides_factorial():
    for name in ("maltsev", "commutative-maltsev", "majority", "minority2",
                 "siggers4"):
        spec = builtin_system(name)
        clo = compute_closure(spec)
        for e in canonical_transversal(clo).entries:
            assert math.factorial(e.d) == e.q * len(e.group)


def test_cmaltsev_transversal(cmaltsev_spec, cmaltsev_closure):
    trans = canonical_transversal(cmaltsev_closure)
    reps = [render(cmaltsev_closure, e.rep) for e in trans.entries]
    assert reps == ["x", "f(x,y,x)", "f(x,y,z)"]
    assert [(e.d, e.q) for e in trans.entries] == [(1, 1), (2, 2), (3, 3)]


def test_maltsev_transversal(maltsev_closure):
    trans = canonical_transversal(maltsev_closure)
    reps = [render(maltsev_closure, e.rep) for e in trans.entries]
    assert reps == ["x", "f(x,y,x)", "f(x,y,z)"]
    assert [(e.d, e.q) for e in trans.entries] == [(1, 1), (2, 2), (3, 6)]


def test_transversal_reps_use_initial_segments():
    for name in ("majority", "pixley-pair", "siggers4"):
        clo = compute_closure(builtin_system(name))
        for e in canonical_transversal(clo).entries:
            assert e.rep.variables() == frozenset(range(1, e.d + 1))


def test_transversal_deterministic(cmaltsev_closure):
    a = canonical_transversal(cmaltsev_closure)
    b = canonical_transversal(cmaltsev_closure)
    assert a == b


def test_unsatisfiable_has_no_transversal():
    spec = parse_system("signature f/3\nidentity f(x,y,z) = x\n"
                        "identity f(x,y,z) = z\n")
    with pytest.raises(DomainError):
        canonical_transversal(compute_closure(spec))


def test_essential_variables_lookup(cmaltsev_closure):
    clo = cmaltsev_closure
    root = clo.class_of(LinearTerm.app(0, (1, 2, 1)))
    assert class_infos(clo).ess[root] == 0b11  # {x_1, x_2}
    assert class_infos(clo)[root].essential_vars == frozenset({1, 2})


# ---------------------------------------------------------------------------
# minimal terms


def test_maltsev_minimal_terms(maltsev_closure):
    terms = minimal_terms(maltsev_closure, canonical_transversal(maltsev_closure))
    assert [render(maltsev_closure, t) for t in terms] == ["f(x,y,x)"]
    assert classify_minimal(maltsev_closure, terms[0]).kind == "binary-nontrivial"


def test_minority_minimal_terms():
    clo = compute_closure(builtin_system("minority1"))
    terms = minimal_terms(clo, canonical_transversal(clo))
    assert len(terms) == 1
    assert classify_minimal(clo, terms[0]).kind == "minority"


def test_hagemann_mitschke_minimal_term_count():
    for k in range(2, 6):
        clo = compute_closure(builtin_system("hagemann-mitschke", k))
        assert len(minimal_terms(clo, canonical_transversal(clo))) == 2 * k - 3, k


def test_classification_kinds():
    expected = {
        "majority": "majority",
        "two-thirds-minority": "two-thirds-minority",
        "minority3": "minority",
    }
    for name, kind in expected.items():
        clo = compute_closure(builtin_system(name))
        terms = minimal_terms(clo, canonical_transversal(clo))
        assert len(terms) == 1
        assert classify_minimal(clo, terms[0]).kind == kind, name


def test_semiprojection_classification():
    # a ternary symbol collapsing to the first coordinate on all
    # identifications, without being a projection
    spec = parse_system(
        "signature s/3\n"
        "identity s(x,x,y) = x\nidentity s(x,y,x) = x\nidentity s(x,y,y) = x\n")
    clo = compute_closure(spec)
    terms = minimal_terms(clo, canonical_transversal(clo))
    assert len(terms) == 1
    rep = classify_minimal(clo, terms[0])
    assert rep.kind == "semiprojection"


def test_is_minimal_details(maltsev_closure):
    clo = maltsev_closure
    assert is_minimal(clo, LinearTerm.app(0, (1, 2, 1)))
    assert not is_minimal(clo, LinearTerm.app(0, (1, 2, 2)))  # trivial
    assert not is_minimal(clo, LinearTerm.app(0, (1, 2, 3)))  # minor f(x,y,x) nontrivial
    assert not is_minimal(clo, LinearTerm.var(1))


def test_classify_rejects_non_minimal(maltsev_closure):
    with pytest.raises(DomainError):
        classify_minimal(maltsev_closure, LinearTerm.app(0, (1, 2, 3)))


def test_essentially_different(cmaltsev_closure):
    clo = cmaltsev_closure
    orbit = class_infos(clo).orbit
    a, b, c = (orbit[clo.universe.index_of(LinearTerm.app(0, args))]
               for args in ((1, 2, 1), (2, 1, 2), (1, 2, 3)))
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# inessential-symbol robustness


def test_jonsson_inessential_end_symbols():
    """Dropping the projection end terms (and their defining identities)
    leaves d_M and the (d_i, q_i) data unchanged."""
    from maltkit.params import parameters
    for k in (2, 3, 4):
        full = builtin_system("jonsson", k)
        lines = ["signature " + ", ".join(
            f"t{i}/3" for i in range(1, k))]
        lines += [f"identity t{i}(x,y,x) = x" for i in range(1, k)]
        # chain ends substitute the projections directly
        for i in range(k):
            lo = f"t{i}" if i >= 1 else None
            hi = f"t{i + 1}" if i + 1 <= k - 1 else None
            if i % 2 == 0:
                # t0(x,x,y) = x; tk(x,x,y) = y
                l = f"{lo}(x,x,y)" if lo else "x"
                r = f"{hi}(x,x,y)" if hi else "y"
            else:
                # tk(x,y,y) = y
                l = f"{lo}(x,y,y)"
                r = f"{hi}(x,y,y)" if hi else "y"
            lines.append(f"identity {l} = {r}")
        trimmed = parse_system("\n".join(lines) + "\n")
        p_full = parameters(canonical_transversal(compute_closure(full)))
        p_trim = parameters(canonical_transversal(compute_closure(trimmed)))
        assert p_full == p_trim, k
