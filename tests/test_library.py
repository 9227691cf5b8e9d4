import hashlib
import itertools
from pathlib import Path

import pytest

from maltkit.analysis import canonical_transversal
from maltkit.closure import compute_closure, validate_assumptions
from maltkit.errors import BudgetError, DomainError
from maltkit.library import (FAMILIES, builtin_label, builtin_mlt,
                             builtin_system, default_instances,
                             expected_verdict)
from maltkit.params import idemprimality_verdict, parameters
from maltkit.terms import render_system

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "src" / "maltkit" / "systems"


def test_known_families_present():
    for name in ("maltsev", "hagemann-mitschke", "jonsson", "day", "gumm",
                 "sd-join", "near-unanimity", "majority", "minority1",
                 "minority2", "minority3", "two-thirds-minority",
                 "pixley-pair", "weak-nu", "cyclic", "cube", "edge",
                 "parallelogram", "siggers4", "siggers6", "olsak",
                 "commutative-maltsev"):
        assert name in FAMILIES


def test_unknown_family():
    with pytest.raises(DomainError):
        builtin_system("frobnicator")
    with pytest.raises(DomainError):
        builtin_system("maltsev", 3)  # takes no parameters
    with pytest.raises(DomainError):
        builtin_system("jonsson")     # needs k


def test_parameter_range_validation():
    for fam, bad in (("hagemann-mitschke", 1), ("jonsson", 1), ("day", 1),
                     ("gumm", -1), ("sd-join", 1), ("near-unanimity", 2),
                     ("weak-nu", 2), ("cyclic", 1), ("cube", 1), ("edge", 1)):
        with pytest.raises(DomainError):
            builtin_system(fam, bad)
    with pytest.raises(DomainError):
        builtin_system("parallelogram", 0, 1)


def test_parameter_greatest_values():
    """Every family builds at its greatest parameter values; one more is a
    budget error, before any text is built."""
    for fam in FAMILIES.values():
        greatest = [hi for _, hi in fam.params.values()]
        assert builtin_system(fam.name, *greatest).name == builtin_label(fam.name, *greatest)
        for i in range(len(greatest)):
            above = greatest[:i] + [greatest[i] + 1] + greatest[i + 1:]
            with pytest.raises(BudgetError):
                builtin_mlt(fam.name, *above)
            with pytest.raises(BudgetError):
                expected_verdict(fam.name, *above)
    assert FAMILIES["cube"].params == {"k": (2, 7)}  # arity 2^7 - 1 = 127


# ---------------------------------------------------------------------------
# shape goldens


def test_hagemann_mitschke_k3_shape():
    spec = builtin_system("hagemann-mitschke", 3)
    assert [nm for nm, _ in spec.signature.symbols] == ["q1", "q2"]
    assert all(ar == 3 for _, ar in spec.signature.symbols)
    assert len(spec.identities) == 3


def test_minority2_shape():
    spec = builtin_system("minority2")
    assert spec.signature.symbols == (("f", 3),)
    assert len(spec.identities) == 4  # the three minority identities + cyclic


def test_near_unanimity_k4_shape():
    spec = builtin_system("near-unanimity", 4)
    assert spec.signature.symbols == (("g", 4),)
    assert len(spec.identities) == 4


def test_cube_k2_identities():
    text = builtin_mlt("cube", 2)
    assert "c(y,y,x) = x" in text
    assert "c(y,x,y) = x" in text


def test_cube_k3_arity():
    spec = builtin_system("cube", 3)
    assert spec.signature.symbols == (("c", 7),)
    assert len(spec.identities) == 3


def test_sd_join_k2_is_two_thirds_minority():
    """With the end projections eliminated, the k=2 chain forces the middle
    term to satisfy exactly the two-thirds-minority identities."""
    from maltkit.closure import entails_auto
    from maltkit.terms import LinearTerm
    spec = builtin_system("sd-join", 2)
    d1 = spec.signature.index("d1")
    checks = [
        ((1, 2, 2), 1),  # d1(x,y,y) = x
        ((1, 2, 1), 1),  # d1(x,y,x) = x
        ((2, 2, 1), 1),  # d1(y,y,x) = x
    ]
    for args, var in checks:
        assert entails_auto(spec, LinearTerm.app(d1, args), LinearTerm.var(var))


def test_gumm_k0_is_maltsev():
    from maltkit.closure import entails_auto
    from maltkit.terms import LinearTerm
    spec = builtin_system("gumm", 0)
    p = spec.signature.index("p")
    assert entails_auto(spec, LinearTerm.app(p, (1, 2, 2)), LinearTerm.var(1))
    assert entails_auto(spec, LinearTerm.app(p, (1, 1, 2)), LinearTerm.var(2))


def test_builtin_label():
    assert builtin_label("maltsev") == "maltsev"
    assert builtin_label("jonsson", 4) == "jonsson-4"
    assert builtin_label("parallelogram", 1, 2) == "parallelogram-1-2"


# ---------------------------------------------------------------------------
# assumptions and verdicts for every shipped instance


@pytest.mark.parametrize("fam,args", default_instances(),
                         ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)))
def test_builtin_assumptions_and_verdict(fam, args):
    spec = builtin_system(fam, *args)
    report = validate_assumptions(spec)
    assert report.ok, (fam, args, report.detail)
    pars = parameters(canonical_transversal(compute_closure(spec)))
    got = idemprimality_verdict(pars).almost_surely
    exp = expected_verdict(fam, *args)
    if exp.advisory:
        if got != exp.almost_surely:
            pytest.xfail(f"advisory encoding of {fam} disagrees with the "
                         f"published verdict at {args}")
    else:
        assert got == exp.almost_surely, (fam, args)



# expected_verdict of every shipped instance, in default_instances order:
# label -> (almost_surely, advisory).  Checked against the literal so that
# a mis-copied verdict shows even where the test above xfails (advisory).
PUBLISHED_VERDICTS = {
    'maltsev': (False, False),
    'commutative-maltsev': (False, False),
    'hagemann-mitschke-2': (False, False),
    'hagemann-mitschke-3': (True, False),
    'hagemann-mitschke-4': (True, False),
    'hagemann-mitschke-5': (True, False),
    'jonsson-2': (False, False),
    'jonsson-3': (False, False),
    'jonsson-4': (True, False),
    'jonsson-5': (True, False),
    'day-2': (True, True),
    'day-3': (True, True),
    'day-4': (True, True),
    'day-5': (True, True),
    'gumm-0': (False, True),
    'gumm-1': (True, True),
    'gumm-2': (True, True),
    'gumm-3': (True, True),
    'gumm-4': (True, True),
    'gumm-5': (True, True),
    'sd-join-2': (False, True),
    'sd-join-3': (False, True),
    'sd-join-4': (True, True),
    'sd-join-5': (True, True),
    'near-unanimity-3': (False, False),
    'near-unanimity-4': (True, False),
    'near-unanimity-5': (True, False),
    'majority': (False, False),
    'minority1': (False, False),
    'minority2': (False, False),
    'minority3': (False, False),
    'two-thirds-minority': (False, False),
    'pixley-pair': (False, False),
    'weak-nu-3': (False, False),
    'weak-nu-4': (True, False),
    'weak-nu-5': (True, False),
    'cyclic-2': (False, False),
    'cyclic-3': (False, False),
    'cyclic-4': (True, False),
    'cyclic-5': (True, False),
    'cube-2': (False, False),
    'cube-3': (True, False),
    'edge-2': (False, False),
    'edge-3': (True, False),
    'edge-4': (True, False),
    'edge-5': (True, False),
    'parallelogram-1-1': (True, True),
    'parallelogram-1-2': (True, True),
    'parallelogram-2-1': (True, True),
    'siggers4': (True, False),
    'siggers6': (True, False),
    'olsak': (True, False),
}


def test_expected_verdict_table():
    got = {builtin_label(fam, *args): (v.almost_surely, v.advisory)
           for fam, args in default_instances()
           for v in [expected_verdict(fam, *args)]}
    assert list(got) == list(PUBLISHED_VERDICTS)
    assert got == PUBLISHED_VERDICTS


@pytest.mark.parametrize("fam,args", [
    ("frobnicator", ()),           # unknown family
    ("jonsson", ()),               # missing parameter
    ("maltsev", (3,)),             # extra parameter
    ("parallelogram", (1,)),       # one of two parameters
    ("jonsson", (1,)),             # below the least value
    ("parallelogram", (1, 0)),
])
def test_expected_verdict_rejects_bad_parameters(fam, args):
    with pytest.raises(DomainError):
        expected_verdict(fam, *args)
    with pytest.raises(DomainError):
        builtin_mlt(fam, *args)


def test_fixture_files_match_generators():
    files = sorted(SYSTEMS_DIR.glob("*.mlt"))
    assert len(files) == len(default_instances())
    for fam, args in default_instances():
        path = SYSTEMS_DIR / (builtin_label(fam, *args) + ".mlt")
        assert path.is_file(), path
        spec = builtin_system(fam, *args)
        assert path.read_text() == render_system(spec), path.name


# SHA-256 of builtin_mlt's raw text per family, concatenated over a grid of
# parameters: each from its least value up to that value + 5, or + 2 for a
# family with two parameters (80 instances in all).  render_system renames
# variables, so the fixture test above does not see this text.
BUILTIN_TEXT_DIGESTS = {
    'maltsev': '1907f62bafa6ac0aa7261e6293d7b1095a88409d17081af761b2d839bbe39954',
    'commutative-maltsev': '7f08276ab359cd173f46f116cbec86a04275281ca28f320fb0e48eec6a1954c5',
    'hagemann-mitschke': '9495c2b84ed0ba80d3232af8e1bb746cb33cb3eb5066c4f3e85f35d5cd4a87cf',
    'jonsson': 'e3aa050a3784b000176a431e13c41ba2e1312f94db21a53bdc54908f4421e377',
    'day': '55879192f4e628ff2003e256ad7d7023cca398507f249a156e2053d5b9a6489f',
    'gumm': 'a15cebb70c38fc84367e7cbb984493855da907f2711f34d0ee1787025b6cead1',
    'sd-join': '4b8c12751c28d5c4f7bb2c2b256c1f1e40b7096c5741287172a454de00c99acb',
    'near-unanimity': 'ff1ff3c0c2f6a299d86a49c4a3731711aeba8e5fa4797f472d2ac332db9122a2',
    'majority': '167f71b9d14824210ebc2859e5832930293514c21f09a41eea11f95601a274e4',
    'minority1': 'b3ffdc47a93baa2a7aa17d91b456e897e20a4cf683b5412c4c17a0103f5bfb3b',
    'minority2': '3b350959fdd1bf3aec4e39161c3c24702121129322b18aa2593f34b16158405a',
    'minority3': '2c198257b5eee16446be68a693ebaeb2225058999af23bfe94ce3544632724a5',
    'two-thirds-minority': 'a5851000758c09402eb0064230113173693e672228242f42b975677f2765656f',
    'pixley-pair': '249ae0ad4c5aa893ffefdbc68cadb2458a9e34fb499b190f5abe3a0d31094305',
    'weak-nu': 'd27fba90bb67efa131162a7707070ad720277163ee44340f6ee95cbd742bdce5',
    'cyclic': '5be3eacafc0c9560baa9e28e44499da6f43147dc2057d705504d668754698ec1',
    'cube': '2128b7e84af96eea0151f504f4aae0dcd0b315f45bb97bba271dd5ebcd25aecb',
    'edge': '439f374562282657f00fd9615ed665cd14d0ca2cd11da789e197a406cb1babb2',
    'parallelogram': '13ca66fe495f5ecf2c243eebcd777290993bcc8db0db57365f62bfe17ec316d4',
    'siggers4': '12995da5b47713b801f3ffc397becd5945115971d30692a555054b0818614295',
    'siggers6': '4c56e08504763ff32089f06504e67522f75b5c27dc91db6ed121c24371750957',
    'olsak': 'e21ec8d9454d586322a6092954b93fe16bda6554e5a8259e704af45cb18ed381',
}


def test_builtin_text_digests():
    got = {}
    for fam in FAMILIES.values():
        span = 6 if len(fam.params) < 2 else 3
        digest = hashlib.sha256()
        for args in itertools.product(*(range(lo, lo + span)
                                        for lo, _ in fam.params.values())):
            digest.update(builtin_mlt(fam.name, *args).encode())
        got[fam.name] = digest.hexdigest()
    assert got == BUILTIN_TEXT_DIGESTS
