"""Term and identity data model plus the .mlt parser and renderer.

Linear terms contain at most one operation symbol: a term is either a bare
variable or a single application of a symbol to variables.  Variables are
canonical 1-based indices internally; surface names (x, y, z, ...) exist
only in the parser and renderer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations

from .errors import ParseError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Preferred surface names for variables, in index order.  The renderer
# skips any that collide with declared symbol names.
_VAR_NAME_POOL = ("x", "y", "z", "w", "u", "v", "a", "b", "c", "d")


@dataclass(frozen=True)
class Signature:
    """Ordered list of (name, arity) operation symbols."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("signature must declare at least one symbol")
        seen = set()
        for name, arity in self.symbols:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad symbol name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            seen.add(name)
            if arity < 1:
                raise ValueError(f"symbol {name!r} has arity {arity}; constants are not allowed")

    def __len__(self):
        return len(self.symbols)

    def name(self, i: int) -> str:
        return self.symbols[i][0]

    def arity(self, i: int) -> int:
        return self.symbols[i][1]

    def index(self, name: str) -> int:
        for i, (nm, _) in enumerate(self.symbols):
            if nm == name:
                return i
        raise KeyError(name)

    @property
    def names(self) -> frozenset[str]:
        return frozenset(nm for nm, _ in self.symbols)


@dataclass(frozen=True)
class LinearTerm:
    """A variable (symbol is None) or one symbol applied to variables.

    args holds 1-based variable indices; for a variable term it has
    length one.
    """

    symbol: int | None
    args: tuple[int, ...]

    def __post_init__(self):
        if not self.args:
            raise ValueError("term needs at least one variable")
        if any(a < 1 for a in self.args):
            raise ValueError("variable indices are 1-based")
        if self.symbol is None and len(self.args) != 1:
            raise ValueError("a variable term has exactly one index")

    @staticmethod
    def var(i: int) -> "LinearTerm":
        return LinearTerm(None, (i,))

    @staticmethod
    def app(symbol: int, args) -> "LinearTerm":
        return LinearTerm(symbol, tuple(args))

    @property
    def is_variable(self) -> bool:
        return self.symbol is None

    def variables(self) -> frozenset[int]:
        return frozenset(self.args)


@dataclass(frozen=True)
class Identity:
    lhs: LinearTerm
    rhs: LinearTerm

    def variables(self) -> frozenset[int]:
        return self.lhs.variables() | self.rhs.variables()


@dataclass(frozen=True)
class SystemSpec:
    """A signature together with a finite set of linear identities."""

    signature: Signature
    identities: tuple[Identity, ...]
    name: str = ""

    def __post_init__(self):
        for ident in self.identities:
            for side in (ident.lhs, ident.rhs):
                if side.symbol is not None:
                    if not 0 <= side.symbol < len(self.signature):
                        raise ValueError("identity uses an undeclared symbol")
                    if len(side.args) != self.signature.arity(side.symbol):
                        raise ValueError(
                            f"arity mismatch for symbol {self.signature.name(side.symbol)!r}"
                        )
            vs = ident.variables()
            if vs != frozenset(range(1, len(vs) + 1)):
                raise ValueError("identity variables must be contiguous from 1")


def kernel_code(out, cols):
    """Accumulate into the int64 array out, in place, the equality-kernel
    code of the tuples whose j-th coordinates are cols[j]: one bit per
    argument pair (j, k), in combinations order, set where the two are
    equal.  With one column there is no pair and out is left as it is."""
    for bit, (j, k) in enumerate(combinations(range(len(cols)), 2)):
        out |= (cols[j] == cols[k]) << bit
    return out


def substitute(t: LinearTerm, gamma) -> LinearTerm:
    """Apply a variable map to a term.  gamma is a mapping from variable
    index to variable index and must cover every variable of t."""
    try:
        args = tuple(gamma[a] for a in t.args)
    except KeyError as exc:
        raise ValueError(f"substitution undefined on variable {exc.args[0]}") from None
    return LinearTerm(t.symbol, args)


def required_variable_count(spec: SystemSpec, extra: Identity | None = None) -> int:
    """Least m such that {x_1..x_m} is large enough: at least 2, at least
    every arity, and at least every identity's variable count."""
    m = 2
    for _, arity in spec.signature.symbols:
        m = max(m, arity)
    idents = list(spec.identities)
    if extra is not None:
        idents.append(extra)
    for ident in idents:
        m = max(m, len(ident.variables()))
        for side in (ident.lhs, ident.rhs):
            if side.symbol is not None:
                m = max(m, len(side.args))
    return m


# ---------------------------------------------------------------------------
# Parsing


def _parse_decl(chunk: str, lineno: int) -> tuple[str, int]:
    chunk = chunk.strip()
    if "/" not in chunk:
        raise ParseError(f"expected name/arity, got {chunk!r}", line=lineno)
    name, _, arity_s = chunk.partition("/")
    name = name.strip()
    if not _NAME_RE.fullmatch(name):
        raise ParseError(f"bad symbol name {name!r}", line=lineno)
    try:
        arity = int(arity_s.strip())
    except ValueError:
        raise ParseError(f"bad arity {arity_s.strip()!r}", line=lineno) from None
    if arity < 1:
        raise ParseError(f"constant symbol {name!r} (arity 0) not allowed", line=lineno)
    return name, arity


def _parse_term(text: str, sig: Signature, varmap: dict, lineno: int) -> LinearTerm:
    text = text.strip()
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)", text, re.S)
    if m:
        name, argstr = m.group(1), m.group(2)
        if name not in sig.names:
            raise ParseError(f"undeclared symbol {name!r}", line=lineno)
        sym = sig.index(name)
        raw_args = [a.strip() for a in argstr.split(",")]
        if any(not a for a in raw_args):
            raise ParseError("empty argument", line=lineno)
        args = []
        for a in raw_args:
            if not _NAME_RE.fullmatch(a):
                raise ParseError(
                    f"argument {a!r} is not a variable (nested terms are not linear)",
                    line=lineno,
                )
            if a in sig.names:
                raise ParseError(
                    f"argument {a!r} is an operation symbol; nested application is not linear",
                    line=lineno,
                )
            if a not in varmap:
                varmap[a] = len(varmap) + 1
            args.append(varmap[a])
        if len(args) != sig.arity(sym):
            raise ParseError(
                f"symbol {name!r} has arity {sig.arity(sym)}, got {len(args)} arguments",
                line=lineno,
            )
        return LinearTerm.app(sym, args)
    if _NAME_RE.fullmatch(text):
        if text in sig.names:
            raise ParseError(f"symbol {text!r} used without arguments", line=lineno)
        if text not in varmap:
            varmap[text] = len(varmap) + 1
        return LinearTerm.var(varmap[text])
    raise ParseError(f"cannot parse term {text!r}", line=lineno)


def parse_system(text: str, name: str = "") -> SystemSpec:
    """Parse a .mlt document (see the grammar in the README)."""
    lines = text.split("\n")
    decls: list[tuple[str, int]] = []
    identity_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("signature"):
            body = line[len("signature"):]
            if not body or not body[0].isspace():
                raise ParseError("expected space after 'signature'", line=lineno)
            for chunk in body.split(","):
                decls.append(_parse_decl(chunk, lineno))
        elif line.startswith("identity"):
            body = line[len("identity"):]
            if not body or not body[0].isspace():
                raise ParseError("expected space after 'identity'", line=lineno)
            identity_lines.append((lineno, body.strip()))
        else:
            raise ParseError(f"unrecognized line: {line!r}", line=lineno)
    if not decls:
        raise ParseError("no signature declared")
    try:
        sig = Signature(tuple(decls))
    except ValueError as exc:  # a duplicate symbol; _parse_decl checked the rest
        raise ParseError(str(exc)) from None
    identities = tuple(parse_identity(body, sig, lineno) for lineno, body in identity_lines)
    return SystemSpec(sig, identities, name=name)


def parse_identity(text: str, sig: Signature, lineno: int | None = None) -> Identity:
    """Parse one identity 'lhs = rhs' over sig; lineno, if given, locates
    errors in a document."""
    # Split on the single top-level '='; terms never contain '='.
    if text.count("=") != 1:
        raise ParseError("identity needs exactly one '='", line=lineno)
    lhs_s, _, rhs_s = text.partition("=")
    varmap: dict[str, int] = {}
    lhs = _parse_term(lhs_s, sig, varmap, lineno)
    rhs = _parse_term(rhs_s, sig, varmap, lineno)
    return Identity(lhs, rhs)


# ---------------------------------------------------------------------------
# Rendering


def variable_names(sig: Signature, count: int) -> list[str]:
    """Deterministic surface names for variable indices 1..count, avoiding
    declared symbol names."""
    out = []
    pool = [nm for nm in _VAR_NAME_POOL if nm not in sig.names]
    for i in range(count):
        if i < len(pool):
            out.append(pool[i])
        else:
            out.append(f"v{i + 1}")
    return out


def render_term(t: LinearTerm, sig: Signature, names: list[str]) -> str:
    if t.is_variable:
        return names[t.args[0] - 1]
    inner = ",".join(names[a - 1] for a in t.args)
    return f"{sig.name(t.symbol)}({inner})"


def render_system(spec: SystemSpec) -> str:
    """Deterministic renderer: one signature line, one identity per line.
    parse_system(render_system(s), name=s.name) == s."""
    sig = spec.signature
    lines = ["signature " + ", ".join(f"{nm}/{ar}" for nm, ar in sig.symbols)]
    for ident in spec.identities:
        names = variable_names(sig, len(ident.variables()))
        lines.append(
            f"identity {render_term(ident.lhs, sig, names)} = "
            f"{render_term(ident.rhs, sig, names)}"
        )
    return "\n".join(lines) + "\n"
