"""Structure of closure classes: essential variables, symmetry groups,
orbits of the variable-permutation action, canonical transversal, and
minimal-term classification.

Orbits are computed from (symbol, argument-pattern) keys rather than by
sweeping all m! permutations: a permutation maps a member f(u) of a class
to a member with the same symbol and the same pattern, and conversely two
classes containing members with a common (symbol, pattern) key are related
by a permutation (any bijection matching the two argument tuples extends
to one).  So two classes lie in one orbit iff they share a key, and an
orbit's id is the least class root over its classes' keys.  The keys are
the equality-kernel codes of the arguments (terms.kernel_code), computed
over arrays indexed by term.  The brute-force permutation sweep that
cross-checks them at small m lives with the test oracles.  Every class
fact (root, essential set, orbit) is read off the arrays of class_infos.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from .closure import ClosurePartition, is_satisfiable, triviality_witness
from .errors import DomainError
from .terms import LinearTerm, kernel_code, substitute


@dataclass(slots=True)
class ClassInfo:
    class_id: int
    members: list[int]
    essential_vars: frozenset[int]
    orbit_id: int


@dataclass(frozen=True)
class SymmetryGroup:
    """Permutations of {1..d} fixing a class, as tuples p with p[i-1] the
    image of i."""

    degree: int
    elements: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class TransversalEntry:
    class_id: int
    rep: LinearTerm
    d: int
    group: SymmetryGroup
    q: int


@dataclass(frozen=True)
class Transversal:
    entries: tuple[TransversalEntry, ...]

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class MinimalTermReport:
    term: LinearTerm
    kind: str  # binary-nontrivial | minority | two-thirds-minority | majority | semiprojection
    witness: tuple[int, ...]  # variable permutation realizing the normal form


class ClassFacts(Mapping):
    """The class facts every analysis reads, as arrays over the term
    indices: root (the class's least member), varmask (bit v-1 for x_v),
    key (0 for a variable, one id per symbol and kernel code of the
    arguments), ess (the class's essential mask) and orbit (the class's
    orbit id, the least class root in the orbit); classes holds the class
    roots in increasing order.  As a mapping it is the ClassInfo per class
    root, built with the member lists on first lookup."""

    def __init__(self, closure: ClosurePartition, varmask, key, ess, orbit):
        self._closure, self._infos = closure, None
        self.root, self.varmask, self.key = closure.roots(), varmask, key
        self.ess, self.orbit = ess, orbit
        self.classes = np.flatnonzero(self.root == np.arange(len(self.root)))

    @property
    def num_orbits(self) -> int:
        return int(np.count_nonzero(self.orbit[self.classes] == self.classes))

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes.tolist())

    def __getitem__(self, class_id: int) -> ClassInfo:
        if self._infos is None:
            roots = self.classes.tolist()
            self._infos = {root: ClassInfo(root, mem, _var_set(emask), oid)
                           for (root, mem), emask, oid
                           in zip(self._closure.class_members().items(),
                                  self.ess[roots].tolist(), self.orbit[roots].tolist())}
        return self._infos[class_id]


def class_infos(closure: ClosurePartition) -> ClassFacts:
    """The ClassFacts of the closure, the one source of class facts.
    Cached on the closure."""
    cached = getattr(closure, "_class_facts", None)
    if cached is not None:
        return cached
    uni, m = closure.universe, closure.m
    root = closure.roots()
    varmask = np.empty(uni.size, dtype=np.int64)
    # key: 0 for a variable, one id per (symbol, kernel code of the arguments)
    key = np.zeros(uni.size, dtype=np.int64)
    varmask[:m] = 1 << np.arange(m)
    base = 1
    for off, (_, d) in zip(uni.offsets, uni.sig.symbols):
        codes = np.arange(m ** d)
        cols = [codes // m ** (d - 1 - j) % m for j in range(d)]
        part = slice(off, off + m ** d)
        varmask[part] = np.bitwise_or.reduce([1 << c for c in cols])
        kernel_code(key[part], cols)
        key[part] += base
        base += 1 << d * (d - 1) // 2
    pop = np.array([len(_var_set(mask)) for mask in range(1 << m)])
    ess = np.full(uni.size, (1 << m) - 1)
    np.bitwise_and.at(ess, root, varmask)
    least_pop = np.full(uni.size, m + 1)
    np.minimum.at(least_pop, root, pop[varmask])
    ess = ess[root]
    bad = np.flatnonzero(least_pop[root] != pop[ess])
    if len(bad):
        if ess[bad[0]] == 0:
            raise DomainError("class with empty essential variable set; "
                              "system is not idempotent or not satisfiable")
        raise AssertionError(
            "no member realizes the essential variable set exactly; "
            "this indicates a closure bug or a non-idempotent system")
    # Classes in one orbit share a key directly (a permutation keeps each
    # member's symbol and kernel), so one pass finds the least class root
    # over each class's keys.
    least = np.full(int(key.max()) + 1, uni.size)
    np.minimum.at(least, key, root)
    orbit = np.full(uni.size, uni.size)
    np.minimum.at(orbit, root, least[key])
    closure._class_facts = ClassFacts(closure, varmask, key, ess, orbit[root])
    return closure._class_facts


@lru_cache(maxsize=None)
def _var_set(mask: int) -> frozenset[int]:
    return frozenset(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def orbit_partition(closure: ClosurePartition) -> list[ClassInfo]:
    """All ClassInfos, sorted by class id."""
    return list(class_infos(closure).values())


def symmetry_group(closure: ClosurePartition, rep: LinearTerm) -> SymmetryGroup:
    """All permutations pi of the representative's variables {x_1..x_d}
    with rep[pi] in the same class."""
    vs = rep.variables()
    d = len(vs)
    if vs != frozenset(range(1, d + 1)):
        raise DomainError("representative must use exactly x_1..x_d")
    # row k: the images of x_1..x_d under the k-th permutation, 0-based
    perms = np.array(list(permutations(range(d))))
    root = closure.roots()
    keep = perms[root[closure.universe.renamed_indices(rep, perms)]
                 == root[closure.universe.index_of(rep)]] + 1
    return SymmetryGroup(d, tuple(map(tuple, keep.tolist())))


def canonical_transversal(closure: ClosurePartition) -> Transversal:
    """One entry per orbit.  Within an orbit, restrict to classes whose
    essential set is the initial segment {x_1..x_d} (the images of the
    order-preserving relabelings), pick the least class id, then the least
    member whose variable set equals the essential set.  Entry 0 is the
    variable class with representative x_1."""
    if not is_satisfiable(closure):
        raise DomainError("system is unsatisfiable; no transversal")
    facts = class_infos(closure)
    root, ess, orbit = facts.root, facts.ess, facts.orbit
    # the variables form orbit 0, the orbit of x_1; an orbit's id is its
    # least class
    other = facts.classes[orbit[facts.classes] != 0]
    initial = other[(ess[other] & (ess[other] + 1)) == 0]
    oids, first = np.unique(orbit[initial], return_index=True)
    if len(oids) < np.count_nonzero(orbit[other] == other):
        raise AssertionError("orbit without an initial-segment class")
    chosen = np.zeros(len(root), dtype=bool)
    chosen[initial[first]] = True
    # each chosen class's least member with exactly the essential variables
    hit = np.flatnonzero(chosen[root] & (facts.varmask == ess))
    chosen_roots, least = np.unique(root[hit], return_index=True)
    entries = [TransversalEntry(0, LinearTerm.var(1), 1, SymmetryGroup(1, ((1,),)), 1)]
    for class_id, i in zip(chosen_roots.tolist(), hit[least].tolist()):
        rep = closure.universe.term_at(i)
        grp = symmetry_group(closure, rep)
        d = len(rep.variables())
        q, rem = divmod(factorial(d), len(grp))
        assert rem == 0
        entries.append(TransversalEntry(class_id, rep, d, grp, q))
    entries[1:] = sorted(entries[1:], key=lambda e: (e.d, e.class_id))
    return Transversal(tuple(entries))


def _is_trivial(closure: ClosurePartition, t: LinearTerm) -> bool:
    return triviality_witness(closure, t) is not None


def is_minimal(closure: ClosurePartition, t: LinearTerm) -> bool:
    """Nontrivial, and every proper identification minor trivial.  It is
    enough to check the pairwise identifications x_a -> x_b: every
    non-injective self-map factors through one, and minors of trivial
    terms are trivial."""
    if t.is_variable or _is_trivial(closure, t):
        return False
    vs = sorted(t.variables())
    return all(_is_trivial(closure, substitute(t, {v: (b if v == a else v) for v in vs}))
               for a, b in permutations(vs, 2))


def minimal_terms(closure: ClosurePartition, trans: Transversal) -> list[LinearTerm]:
    """Minimal terms among the representatives of the closure's transversal,
    one per orbit."""
    return [e.rep for e in trans.entries[1:] if is_minimal(closure, e.rep)]


def _entails_args(closure, t: LinearTerm, args: tuple[int, ...], var: int) -> bool:
    """Does t with variables substituted per args equal variable var?"""
    gamma = {i + 1: a for i, a in enumerate(args)}
    return closure.class_of(substitute(t, gamma)) == closure.class_of(LinearTerm.var(var))


def classify_minimal(closure: ClosurePartition, t: LinearTerm) -> MinimalTermReport:
    """Classify a minimal term.  Cases are checked in a fixed order over
    all variable permutations; the first match wins, with the witness
    permutation recorded.  Arity >= 4 minimal terms are semiprojections."""
    if not is_minimal(closure, t):
        raise DomainError("term is not minimal")
    vs = sorted(t.variables())
    d = len(vs)
    ident = tuple(range(1, d + 1))
    if d == 2:
        return MinimalTermReport(t, "binary-nontrivial", ident)
    if d == 3:
        cases = (
            # (kind, [(args pattern in x/y over x1,x2, target var)])
            ("minority", (((1, 2, 2), 1), ((2, 1, 2), 1), ((2, 2, 1), 1))),
            ("two-thirds-minority", (((1, 2, 2), 1), ((1, 2, 1), 1), ((2, 2, 1), 1))),
            ("majority", (((1, 2, 2), 2), ((2, 1, 2), 2), ((2, 2, 1), 2))),
        )
        for kind, conds in cases:
            for perm in permutations(ident):
                u = substitute(t, {v: perm[v - 1] for v in ident})
                if all(_entails_args(closure, u, args, var) for args, var in conds):
                    return MinimalTermReport(t, kind, perm)
    # semiprojection: some coordinate i such that every pairwise
    # identification minor collapses to the image of x_i
    for i in ident:
        if all(triviality_witness(closure, substitute(t, gamma)) == gamma[i]
               for a, b in permutations(ident, 2)
               for gamma in [{v: (b if v == a else v) for v in ident}]):
            # witness: the inverse of the permutation (i, the rest in order)
            # that moves the projection coordinate first
            inv = tuple(1 if v == i else v + (v < i) for v in ident)
            return MinimalTermReport(t, "semiprojection", inv)
    raise AssertionError("minimal term fits no classification case")
