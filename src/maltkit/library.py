"""Builtin systems of idempotent linear identities.

Each family generates .mlt source text and parses it, so builtin systems
go through the same normalization as user files and render back to the
exact text they were built from.

Each FAMILIES entry is the one record of its family, down to the published
limiting verdict and the shipped fixtures.  For a few families (day, gumm,
sd-join, parallelogram) the literature fixes only the shape of the term
condition, not a unique identity list; our encodings of those are flagged
advisory=True so downstream tests can treat a verdict mismatch as a
warning rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from .errors import BudgetError, DomainError
from .terms import SystemSpec, parse_system


def _mlt(signature: list[tuple[str, int]], identities: list[str]) -> str:
    lines = ["signature " + ", ".join(f"{nm}/{ar}" for nm, ar in signature)]
    lines += [f"identity {ident}" for ident in identities]
    return "\n".join(lines) + "\n"


def _absorbing(sym: str, arity: int, rows) -> str:
    """The system sym(u) = x, one identity per row, where u is y at the
    row's positions and x elsewhere."""
    return _mlt([(sym, arity)], [
        f"{sym}({','.join('y' if j in row else 'x' for j in range(arity))}) = x"
        for row in rows])


def _chain(sym: str, k: int, even: list[str], odd: list[str]) -> list[str]:
    """The links sym_i(u) = sym_(i+1)(u) for i < k, with u running over the
    argument lists even for even i and odd for odd i."""
    return [f"{sym}{i}({u}) = {sym}{i + 1}({u})"
            for i in range(k) for u in (odd if i % 2 else even)]


def _maltsev():
    return _mlt([("f", 3)], ["f(x,y,y) = x", "f(x,x,y) = y"])


def _commutative_maltsev():
    return _mlt([("f", 3)], ["f(x,x,y) = y", "f(x,y,z) = f(z,y,x)"])


def _hagemann_mitschke(k: int):
    syms = [(f"q{i}", 3) for i in range(1, k)]
    idents = ["x = q1(x,y,y)"]
    idents += [f"q{i}(x,x,y) = q{i + 1}(x,y,y)" for i in range(1, k - 1)]
    idents.append(f"q{k - 1}(x,x,y) = y")
    return _mlt(syms, idents)


def _jonsson(k: int):
    idents = ["t0(x,y,z) = x", f"t{k}(x,y,z) = z"]
    idents += [f"t{i}(x,y,x) = x" for i in range(k + 1)]
    return _mlt([(f"t{i}", 3) for i in range(k + 1)],
                idents + _chain("t", k, ["x,x,y"], ["x,y,y"]))


def _day(k: int):
    idents = ["m0(x,y,z,w) = x", f"m{k}(x,y,z,w) = w"]
    idents += [f"m{i}(x,y,y,x) = x" for i in range(k + 1)]
    return _mlt([(f"m{i}", 4) for i in range(k + 1)],
                idents + _chain("m", k, ["x,x,w,w"], ["x,y,y,w"]))


def _gumm(k: int):
    idents = ["d0(x,y,z) = x"]
    idents += [f"d{i}(x,y,x) = x" for i in range(k + 1)]
    idents += _chain("d", k, ["x,y,y"], ["x,x,y"])
    idents += [f"d{k}(x,y,y) = p(x,y,y)", "p(x,x,y) = y"]
    return _mlt([(f"d{i}", 3) for i in range(k + 1)] + [("p", 3)], idents)


def _sd_join(k: int):
    idents = ["d0(x,y,z) = x", f"d{k}(x,y,z) = z"]
    return _mlt([(f"d{i}", 3) for i in range(k + 1)],
                idents + _chain("d", k, ["x,y,y", "x,y,x"], ["x,x,y"]))


def _near_unanimity(k: int, sym: str = "g"):
    return _absorbing(sym, k, [(i,) for i in range(k)])


def _minority(level: int):
    idents = ["f(x,y,y) = x", "f(y,y,x) = x", "f(y,x,y) = x"]
    if level >= 2:
        idents.append("f(x,y,z) = f(y,z,x)")
    if level >= 3:
        idents.append("f(x,y,z) = f(y,x,z)")
    return _mlt([("f", 3)], idents)


def _two_thirds_minority():
    return _mlt([("t", 3)], ["t(x,y,y) = x", "t(x,y,x) = x", "t(y,y,x) = x"])


def _pixley_pair():
    return _mlt(
        [("f", 3), ("g", 3)],
        ["f(x,y,y) = x", "f(x,x,y) = y",
         "g(y,x,x) = x", "g(x,y,x) = x", "g(x,x,y) = x"])


def _weak_near_unanimity(k: int):
    def term(i):
        args = ["x"] * k
        args[i] = "y"
        return f"w({','.join(args)})"
    idents = [f"w({','.join(['x'] * k)}) = x"]
    idents += [f"{term(i)} = {term(i + 1)}" for i in range(k - 1)]
    return _mlt([("w", k)], idents)


def _cyclic(k: int):
    vars_ = [f"v{i}" for i in range(1, k + 1)]
    idents = [f"c({','.join(['x'] * k)}) = x",
              f"c({','.join(vars_)}) = c({','.join(vars_[1:] + vars_[:1])})"]
    return _mlt([("c", k)], idents)


def _cube(k: int):
    # positions are the binary k-tuples except all-ones, in lex order;
    # row i holds the positions whose i-th bit is 0
    positions = [bits for bits in product((0, 1), repeat=k) if 0 in bits]
    return _absorbing("c", len(positions), [
        {j for j, bits in enumerate(positions) if bits[i] == 0} for i in range(k)])


def _edge(k: int):
    return _absorbing("e", k + 1, [(0, 1), (0, 2)] + [(i,) for i in range(3, k + 1)])


def _parallelogram(m: int, n: int):
    rows = [(i, i + 1) for i in range(m + 1)] + [(m, m + 2)]
    return _absorbing("p", m + n + 3, rows + [(m + 2 + j,) for j in range(1, n + 1)])


def _siggers4():
    return _mlt([("s", 4)], ["s(x,x,x,x) = x", "s(x,y,z,x) = s(y,x,y,z)"])


def _siggers6():
    return _mlt([("s", 6)],
                ["s(x,x,x,x,x,x) = x", "s(x,y,x,z,y,z) = s(y,x,z,x,z,y)"])


def _olsak():
    return _mlt([("t", 6)],
                ["t(x,x,x,x,x,x) = x",
                 "t(x,y,y,y,x,x) = t(y,x,y,x,y,x)",
                 "t(x,y,y,y,x,x) = t(y,y,x,x,x,y)"])


def _ks(lo: int, hi: int) -> tuple[tuple[int], ...]:
    """The parameter tuples (k,) for k = lo..hi."""
    return tuple((k,) for k in range(lo, hi + 1))


@dataclass(frozen=True)
class BuiltinFamily:
    """Everything recorded about one builtin family."""
    name: str
    generator: Callable[..., str]    # parameters -> .mlt text
    verdict: Callable[..., bool]     # parameters -> published a.s. idemprimality
    # name -> (least, greatest) value; the greatest keeps the text small
    params: dict[str, tuple[int, int]] = field(default_factory=dict)
    shipped: tuple[tuple[int, ...], ...] = ((),)  # parameters of the .mlt fixtures
    advisory: bool = False           # encoding is a best-effort reading


FAMILIES: dict[str, BuiltinFamily] = {fam.name: fam for fam in (
    BuiltinFamily("maltsev", _maltsev, lambda: False),
    BuiltinFamily("commutative-maltsev", _commutative_maltsev, lambda: False),
    BuiltinFamily("hagemann-mitschke", _hagemann_mitschke, lambda k: k >= 3,
                  {"k": (2, 64)}, _ks(2, 5)),
    BuiltinFamily("jonsson", _jonsson, lambda k: k >= 4, {"k": (2, 64)}, _ks(2, 5)),
    BuiltinFamily("day", _day, lambda k: k >= 2, {"k": (2, 64)}, _ks(2, 5), advisory=True),
    BuiltinFamily("gumm", _gumm, lambda k: k >= 1, {"k": (0, 64)}, _ks(0, 5), advisory=True),
    BuiltinFamily("sd-join", _sd_join, lambda k: k >= 4, {"k": (2, 64)}, _ks(2, 5),
                  advisory=True),
    BuiltinFamily("near-unanimity", _near_unanimity, lambda k: k >= 4,
                  {"k": (3, 64)}, _ks(3, 5)),
    BuiltinFamily("majority", lambda: _near_unanimity(3, sym="m"), lambda: False),
    BuiltinFamily("minority1", lambda: _minority(1), lambda: False),
    BuiltinFamily("minority2", lambda: _minority(2), lambda: False),
    BuiltinFamily("minority3", lambda: _minority(3), lambda: False),
    BuiltinFamily("two-thirds-minority", _two_thirds_minority, lambda: False),
    BuiltinFamily("pixley-pair", _pixley_pair, lambda: False),
    BuiltinFamily("weak-nu", _weak_near_unanimity, lambda k: k >= 4,
                  {"k": (3, 64)}, _ks(3, 5)),
    BuiltinFamily("cyclic", _cyclic, lambda k: k >= 4, {"k": (2, 64)}, _ks(2, 5)),
    # cube's arity is 2^k - 1
    BuiltinFamily("cube", _cube, lambda k: k >= 3, {"k": (2, 7)}, _ks(2, 3)),
    BuiltinFamily("edge", _edge, lambda k: k >= 3, {"k": (2, 64)}, _ks(2, 5)),
    BuiltinFamily("parallelogram", _parallelogram, lambda m, n: True,
                  {"m": (1, 64), "n": (1, 64)}, ((1, 1), (1, 2), (2, 1)), advisory=True),
    BuiltinFamily("siggers4", _siggers4, lambda: True),
    BuiltinFamily("siggers6", _siggers6, lambda: True),
    BuiltinFamily("olsak", _olsak, lambda: True),
)}


def _family(family: str, args: tuple[int, ...]) -> BuiltinFamily:
    """The entry of a builtin family, once args are checked against it."""
    if family not in FAMILIES:
        raise DomainError(f"unknown builtin family {family!r}; "
                          f"known: {', '.join(sorted(FAMILIES))}")
    fam = FAMILIES[family]
    if len(args) != len(fam.params):
        want = ", ".join(fam.params) if fam.params else "no parameters"
        raise DomainError(f"builtin {family!r} takes {want}")
    if any(a < lo for a, (lo, _) in zip(args, fam.params.values())):
        raise DomainError(f"{family} needs " + " and ".join(
            f"{p} >= {lo}" for p, (lo, _) in fam.params.items()))
    if any(a > hi for a, (_, hi) in zip(args, fam.params.values())):
        raise BudgetError(f"{family} needs " + " and ".join(
            f"{p} <= {hi}" for p, (_, hi) in fam.params.items()))
    return fam


def builtin_label(family: str, *args: int) -> str:
    if not args:
        return family
    return family + "-" + "-".join(str(a) for a in args)


def builtin_mlt(family: str, *args: int) -> str:
    """The .mlt source text of a builtin system."""
    return _family(family, args).generator(*args)


def builtin_system(family: str, *args: int) -> SystemSpec:
    return parse_system(builtin_mlt(family, *args),
                        name=builtin_label(family, *args))


@dataclass(frozen=True)
class ExpectedVerdict:
    almost_surely: bool
    advisory: bool


def expected_verdict(family: str, *args: int) -> ExpectedVerdict:
    """Published limiting idemprimality for a builtin instance."""
    fam = _family(family, args)
    return ExpectedVerdict(fam.verdict(*args), fam.advisory)


def default_instances() -> list[tuple[str, tuple[int, ...]]]:
    """Representative in-budget parameter choices, one list entry per
    builtin instance shipped as a .mlt fixture."""
    return [(fam.name, args) for fam in FAMILIES.values() for args in fam.shipped]
