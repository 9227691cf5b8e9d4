"""Universe of linear terms over m variables and the entailment closure.

The closure is the least equivalence relation on the term universe that
contains Sigma and is closed under every variable substitution; two linear
terms are semantically equal in all models iff they land in one class
(provided Sigma is satisfiable and m is large enough for the query).

Construction note: it suffices to join s[gamma] ~ t[gamma] for every
identity (s ~ t) in Sigma and every map gamma defined on its variables.
The equivalence closure of these seed pairs is already substitution
closed: any chain s = u_0 ~ u_1 ~ ... ~ u_k = t of seed links maps, under
a further substitution delta, to the chain of seed links (u_j[delta]),
since each seed link (p[gamma], q[gamma]) maps to the seed link
(p[delta o gamma], q[delta o gamma]).  So no worklist over merged pairs
is needed, and gamma ranges over m^v maps (v = variables of the identity)
rather than m^m.  The fixpoint property is still asserted in tests.

The classes are held as one read-only array, the root of every term
index, built from the seed pairs in two alternating steps: hook each root
to the least root a seed pair links it to, then pointer-jump until every
index points at a root; stop once both sides of every seed pair share a
root.  A hook only ever lowers a root, and the least member of a class
is never hooked, so each root is its class's least member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BudgetError, DomainError
from .terms import (
    Identity,
    LinearTerm,
    Signature,
    SystemSpec,
    render_system,
    required_variable_count,
)

DEFAULT_MAX_VARS = 7
DEFAULT_MAX_UNIVERSE = 2_000_000


class TermUniverse:
    """All linear terms over {x_1..x_m}: variables first, then application
    terms in lexicographic (symbol, arguments) order, addressed by index."""

    def __init__(self, sig: Signature, m: int):
        if m < max(ar for _, ar in sig.symbols):
            raise ValueError("m smaller than the largest arity")
        self.sig = sig
        self.m = m
        self.offsets = []
        size = m
        for _, arity in sig.symbols:
            self.offsets.append(size)
            size += m ** arity
        self.size = size
        # strides for row-major argument encoding, per symbol
        self._pows = [
            [m ** (arity - 1 - j) for j in range(arity)]
            for _, arity in sig.symbols
        ]

    def index_of(self, t: LinearTerm) -> int:
        if t.is_variable:
            v = t.args[0]
            if v > self.m:
                raise ValueError(f"variable x{v} outside universe (m={self.m})")
            return v - 1
        if any(a > self.m for a in t.args):
            raise ValueError(f"term uses variables outside universe (m={self.m})")
        pows = self._pows[t.symbol]
        return self.offsets[t.symbol] + sum((a - 1) * p for a, p in zip(t.args, pows))

    def renamed_indices(self, t: LinearTerm, images: np.ndarray) -> np.ndarray:
        """The index of t under each renaming of its variables, one per row
        of images: row k sends x_v to x_(images[k, v-1] + 1)."""
        cols = images[:, np.array(t.args) - 1]
        if t.is_variable:
            return cols[:, 0]
        return self.offsets[t.symbol] + cols @ np.array(self._pows[t.symbol])

    def term_at(self, i: int) -> LinearTerm:
        if i < self.m:
            return LinearTerm.var(i + 1)
        for sym in range(len(self.sig) - 1, -1, -1):
            if i >= self.offsets[sym]:
                rest = i - self.offsets[sym]
                args = []
                for p in self._pows[sym]:
                    args.append(rest // p + 1)
                    rest %= p
                return LinearTerm.app(sym, args)
        raise IndexError(i)


@dataclass
class AssumptionReport:
    idempotent: bool
    satisfiable: bool
    has_nontrivial_term: bool
    m: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.idempotent and self.satisfiable and self.has_nontrivial_term


class ClosurePartition:
    """The least substitution-closed equivalence relation containing Sigma
    on a TermUniverse, as the read-only class root of every term index."""

    def __init__(self, spec: SystemSpec, universe: TermUniverse, roots: np.ndarray):
        self.spec = spec
        self.universe = universe
        roots.flags.writeable = False
        self._roots = roots
        self._members = None

    @property
    def m(self) -> int:
        return self.universe.m

    def roots(self) -> np.ndarray:
        """The class root of every term index (read-only); each root is its
        class's least member."""
        return self._roots

    def class_members(self) -> dict[int, list[int]]:
        """Map from class root to the sorted member indices, by root."""
        if self._members is None:
            roots = self._roots
            order = np.argsort(roots, kind="stable")
            starts = np.flatnonzero(np.diff(roots[order], prepend=-1))
            bounds = np.append(starts, len(order)).tolist()
            flat = order.tolist()
            self._members = {flat[a]: flat[a:b] for a, b in zip(bounds, bounds[1:])}
        return self._members

    def class_of(self, t: LinearTerm) -> int:
        return int(self._roots[self.universe.index_of(t)])


_cache: dict[tuple[str, int], ClosurePartition] = {}


def compute_closure(spec: SystemSpec, m: int | None = None, *,
                    max_vars: int = DEFAULT_MAX_VARS) -> ClosurePartition:
    """Closure over {x_1..x_m}; m defaults to the least count that is large
    enough for Sigma.  Results are cached per (system text, m); the
    variable budget is checked before the cache is read."""
    req = required_variable_count(spec)
    if m is None:
        m = req
    if m < req:
        raise DomainError(f"m={m} is too small for this system (needs {req})")
    if m > max_vars:
        raise BudgetError(
            f"m={m} exceeds the variable budget {max_vars} (raise with --max-vars)")
    key = (render_system(spec), m)
    cached = _cache.get(key)
    if cached is not None:
        return cached

    universe = TermUniverse(spec.signature, m)
    if universe.size > DEFAULT_MAX_UNIVERSE:
        raise BudgetError(f"universe of {universe.size} terms exceeds the "
                          f"budget {DEFAULT_MAX_UNIVERSE}")
    # the empty heads keep concatenate defined for a system without identities
    lhs, rhs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for ident in spec.identities:
        # one row per map gamma of the identity's variables into {x_1..x_m}
        gammas = np.array(list(product(range(m), repeat=len(ident.variables()))))
        lhs.append(universe.renamed_indices(ident.lhs, gammas))
        rhs.append(universe.renamed_indices(ident.rhs, gammas))
    lhs, rhs = np.concatenate(lhs), np.concatenate(rhs)
    roots = np.arange(universe.size)
    while not np.array_equal(a := roots[lhs], b := roots[rhs]):
        np.minimum.at(roots, a, b)
        np.minimum.at(roots, b, a)
        while not np.array_equal(jumped := roots[roots], roots):
            roots = jumped

    _cache[key] = clo = ClosurePartition(spec, universe, roots)
    return clo


def is_satisfiable(closure: ClosurePartition) -> bool:
    """True iff no two distinct variables share a class."""
    # x_v's root is a smaller variable iff it shares a class with one
    return bool((closure.roots()[:closure.m] == np.arange(closure.m)).all())


def entails(closure: ClosurePartition, s: LinearTerm, t: LinearTerm) -> bool:
    """Syntactic entailment: s and t share a class.  Equals semantic
    entailment when the system is satisfiable and m is large enough for
    the query (see required_variable_count with the query as extra)."""
    req = required_variable_count(closure.spec, extra=Identity(s, t))
    if closure.m < req:
        raise DomainError(
            f"closure over m={closure.m} variables is too small for this query (needs {req})")
    return closure.class_of(s) == closure.class_of(t)


def entails_auto(spec: SystemSpec, s: LinearTerm, t: LinearTerm, *,
                 max_vars: int = DEFAULT_MAX_VARS) -> bool:
    """entails with m enlarged automatically to fit the query."""
    m = required_variable_count(spec, extra=Identity(s, t))
    clo = compute_closure(spec, m, max_vars=max_vars)
    return entails(clo, s, t)


def triviality_witness(closure: ClosurePartition, t: LinearTerm) -> int | None:
    """The variable sharing t's class, if any (at most one when the system
    is satisfiable)."""
    root = closure.class_of(t)  # the least member: a variable if any is there
    return root + 1 if root < closure.m else None


def validate_assumptions(spec: SystemSpec, *,
                         max_vars: int = DEFAULT_MAX_VARS) -> AssumptionReport:
    """Check idempotence, satisfiability, and existence of a nontrivial
    linear term over the default m."""
    clo = compute_closure(spec, max_vars=max_vars)
    sat = is_satisfiable(clo)
    idem = True
    detail = []
    for sym in range(len(spec.signature)):
        arity = spec.signature.arity(sym)
        diag = LinearTerm.app(sym, (1,) * arity)
        if clo.class_of(diag) != 0:  # x_1's class, whose least member is x_1
            idem = False
            detail.append(f"symbol {spec.signature.name(sym)!r} is not idempotent")
    if not sat:
        detail.append("two distinct variables are forced equal")
    # a class holds no variable iff its root, its least member, is not one
    nontrivial = bool((clo.roots() >= clo.m).any())
    if not nontrivial:
        detail.append("every linear term is equivalent to a variable")
    return AssumptionReport(idem, sat, nontrivial, clo.m, "; ".join(detail))


def checked_closure(spec: SystemSpec, *,
                    max_vars: int = DEFAULT_MAX_VARS) -> ClosurePartition:
    """The closure over the default m of a system that meets the standing
    assumptions (idempotent, satisfiable, with a nontrivial linear term);
    DomainError names the ones that fail."""
    report = validate_assumptions(spec, max_vars=max_vars)
    if not report.ok:
        raise DomainError(f"system fails the standing assumptions: {report.detail}")
    return compute_closure(spec, max_vars=max_vars)
