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
from typing import Callable

from .errors import DomainError
from .terms import SystemSpec, parse_system


def _mlt(signature: list[tuple[str, int]], identities: list[str]) -> str:
    lines = ["signature " + ", ".join(f"{nm}/{ar}" for nm, ar in signature)]
    lines += [f"identity {ident}" for ident in identities]
    return "\n".join(lines) + "\n"


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
    syms = [(f"t{i}", 3) for i in range(k + 1)]
    idents = ["t0(x,y,z) = x", f"t{k}(x,y,z) = z"]
    idents += [f"t{i}(x,y,x) = x" for i in range(k + 1)]
    for i in range(k):
        if i % 2 == 0:
            idents.append(f"t{i}(x,x,y) = t{i + 1}(x,x,y)")
        else:
            idents.append(f"t{i}(x,y,y) = t{i + 1}(x,y,y)")
    return _mlt(syms, idents)


def _day(k: int):
    syms = [(f"m{i}", 4) for i in range(k + 1)]
    idents = ["m0(x,y,z,w) = x", f"m{k}(x,y,z,w) = w"]
    idents += [f"m{i}(x,y,y,x) = x" for i in range(k + 1)]
    for i in range(k):
        if i % 2 == 0:
            idents.append(f"m{i}(x,x,w,w) = m{i + 1}(x,x,w,w)")
        else:
            idents.append(f"m{i}(x,y,y,w) = m{i + 1}(x,y,y,w)")
    return _mlt(syms, idents)


def _gumm(k: int):
    syms = [(f"d{i}", 3) for i in range(k + 1)] + [("p", 3)]
    idents = ["d0(x,y,z) = x"]
    idents += [f"d{i}(x,y,x) = x" for i in range(k + 1)]
    for i in range(k):
        if i % 2 == 0:
            idents.append(f"d{i}(x,y,y) = d{i + 1}(x,y,y)")
        else:
            idents.append(f"d{i}(x,x,y) = d{i + 1}(x,x,y)")
    idents.append(f"d{k}(x,y,y) = p(x,y,y)")
    idents.append("p(x,x,y) = y")
    return _mlt(syms, idents)


def _sd_join(k: int):
    syms = [(f"d{i}", 3) for i in range(k + 1)]
    idents = ["d0(x,y,z) = x", f"d{k}(x,y,z) = z"]
    for i in range(k):
        if i % 2 == 0:
            idents.append(f"d{i}(x,y,y) = d{i + 1}(x,y,y)")
            idents.append(f"d{i}(x,y,x) = d{i + 1}(x,y,x)")
        else:
            idents.append(f"d{i}(x,x,y) = d{i + 1}(x,x,y)")
    return _mlt(syms, idents)


def _near_unanimity(k: int, sym: str = "g"):
    idents = []
    for i in range(k):
        args = ["x"] * k
        args[i] = "y"
        idents.append(f"{sym}({','.join(args)}) = x")
    return _mlt([(sym, k)], idents)


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
    # positions are the binary k-tuples except all-ones, in lex order
    positions = []
    for code in range(2 ** k):
        bits = tuple((code >> (k - 1 - j)) & 1 for j in range(k))
        if any(b == 0 for b in bits):
            positions.append(bits)
    arity = len(positions)
    idents = []
    for i in range(k):
        args = ["x" if bits[i] == 1 else "y" for bits in positions]
        idents.append(f"c({','.join(args)}) = x")
    return _mlt([("c", arity)], idents)


def _edge(k: int):
    arity = k + 1
    rows = [(0, 1), (0, 2)] + [(i,) for i in range(3, arity)]
    idents = []
    for row in rows:
        args = ["y" if j in row else "x" for j in range(arity)]
        idents.append(f"e({','.join(args)}) = x")
    return _mlt([("e", arity)], idents)


def _parallelogram(m: int, n: int):
    arity = m + n + 3
    rows = [(i, i + 1) for i in range(m + 1)]
    rows.append((m, m + 2))
    rows += [(m + 2 + j,) for j in range(1, n + 1)]
    idents = []
    for row in rows:
        args = ["y" if j in row else "x" for j in range(arity)]
        idents.append(f"p({','.join(args)}) = x")
    return _mlt([("p", arity)], idents)


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
    params: dict[str, int] = field(default_factory=dict)  # name -> least value
    shipped: tuple[tuple[int, ...], ...] = ((),)  # parameters of the .mlt fixtures
    advisory: bool = False           # encoding is a best-effort reading


FAMILIES: dict[str, BuiltinFamily] = {fam.name: fam for fam in (
    BuiltinFamily("maltsev", _maltsev, lambda: False),
    BuiltinFamily("commutative-maltsev", _commutative_maltsev, lambda: False),
    BuiltinFamily("hagemann-mitschke", _hagemann_mitschke, lambda k: k >= 3,
                  {"k": 2}, _ks(2, 5)),
    BuiltinFamily("jonsson", _jonsson, lambda k: k >= 4, {"k": 2}, _ks(2, 5)),
    BuiltinFamily("day", _day, lambda k: k >= 2, {"k": 2}, _ks(2, 5), advisory=True),
    BuiltinFamily("gumm", _gumm, lambda k: k >= 1, {"k": 0}, _ks(0, 5), advisory=True),
    BuiltinFamily("sd-join", _sd_join, lambda k: k >= 4, {"k": 2}, _ks(2, 5),
                  advisory=True),
    BuiltinFamily("near-unanimity", _near_unanimity, lambda k: k >= 4,
                  {"k": 3}, _ks(3, 5)),
    BuiltinFamily("majority", lambda: _near_unanimity(3, sym="m"), lambda: False),
    BuiltinFamily("minority1", lambda: _minority(1), lambda: False),
    BuiltinFamily("minority2", lambda: _minority(2), lambda: False),
    BuiltinFamily("minority3", lambda: _minority(3), lambda: False),
    BuiltinFamily("two-thirds-minority", _two_thirds_minority, lambda: False),
    BuiltinFamily("pixley-pair", _pixley_pair, lambda: False),
    BuiltinFamily("weak-nu", _weak_near_unanimity, lambda k: k >= 4,
                  {"k": 3}, _ks(3, 5)),
    BuiltinFamily("cyclic", _cyclic, lambda k: k >= 4, {"k": 2}, _ks(2, 5)),
    BuiltinFamily("cube", _cube, lambda k: k >= 3, {"k": 2}, _ks(2, 3)),
    BuiltinFamily("edge", _edge, lambda k: k >= 3, {"k": 2}, _ks(2, 5)),
    BuiltinFamily("parallelogram", _parallelogram, lambda m, n: True,
                  {"m": 1, "n": 1}, ((1, 1), (1, 2), (2, 1)), advisory=True),
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
    if any(a < lo for a, lo in zip(args, fam.params.values())):
        raise DomainError(f"{family} needs " + " and ".join(
            f"{p} >= {lo}" for p, lo in fam.params.items()))
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
