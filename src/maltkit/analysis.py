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
cross-checks them at small m lives with the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

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


def _term_arrays(uni) -> tuple[np.ndarray, np.ndarray]:
    """Per term index: the bitmask of its variables (bit v-1 for x_v) and
    its key id, 0 for a variable and one id per (symbol, kernel code) of
    an application's arguments."""
    m = uni.m
    varmask = np.empty(uni.size, dtype=np.int64)
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
    return varmask, key


def class_infos(closure: ClosurePartition) -> dict[int, ClassInfo]:
    """ClassInfo per class root, with orbit ids.  Cached on the closure."""
    cached = getattr(closure, "_class_infos", None)
    if cached is not None:
        return cached
    uni = closure.universe
    members = closure.class_members()
    roots = closure.roots()
    varmask, key = _term_arrays(uni)
    var_sets = [frozenset(v + 1 for v in range(uni.m) if mask >> v & 1)
                for mask in range(1 << uni.m)]
    pop = np.array([len(s) for s in var_sets])
    ess = np.full(uni.size, (1 << uni.m) - 1)
    np.bitwise_and.at(ess, roots, varmask)
    least_pop = np.full(uni.size, uni.m + 1)
    np.minimum.at(least_pop, roots, pop[varmask])
    class_roots = np.flatnonzero(roots == np.arange(uni.size))
    ess = ess[class_roots]
    bad = np.flatnonzero(least_pop[class_roots] != pop[ess])
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
    np.minimum.at(least, key, roots)
    orbit = np.full(uni.size, uni.size)
    np.minimum.at(orbit, roots, least[key])
    infos = {root: ClassInfo(root, mem, var_sets[emask], oid) for (root, mem), emask, oid
             in zip(members.items(), ess.tolist(), orbit[class_roots].tolist())}
    closure._class_infos = infos
    return infos


def orbit_partition(closure: ClosurePartition) -> list[ClassInfo]:
    """All ClassInfos, sorted by class id."""
    infos = class_infos(closure)
    return [infos[r] for r in sorted(infos)]


def essential_variables(closure: ClosurePartition, class_id: int) -> frozenset[int]:
    infos = class_infos(closure)
    if class_id not in infos:
        raise DomainError(f"{class_id} is not a class root")
    return infos[class_id].essential_vars


def symmetry_group(closure: ClosurePartition, rep: LinearTerm) -> SymmetryGroup:
    """All permutations pi of the representative's variables {x_1..x_d}
    with rep[pi] in the same class."""
    vs = rep.variables()
    d = len(vs)
    if vs != frozenset(range(1, d + 1)):
        raise DomainError("representative must use exactly x_1..x_d")
    root = closure.class_of(rep)
    elems = []
    for perm in permutations(range(1, d + 1)):
        gamma = {v: perm[v - 1] for v in range(1, d + 1)}
        if closure.class_of(substitute(rep, gamma)) == root:
            elems.append(perm)
    return SymmetryGroup(d, tuple(elems))


def canonical_transversal(closure: ClosurePartition) -> Transversal:
    """One entry per orbit.  Within an orbit, restrict to classes whose
    essential set is the initial segment {x_1..x_d} (the images of the
    order-preserving relabelings), pick the least class id, then the least
    member whose variable set equals the essential set.  Entry 0 is the
    variable class with representative x_1."""
    if not is_satisfiable(closure):
        raise DomainError("system is unsatisfiable; no transversal")
    infos = class_infos(closure)
    uni = closure.universe
    orbits: dict[int, list[ClassInfo]] = {}
    for info in infos.values():
        orbits.setdefault(info.orbit_id, []).append(info)

    var_orbit = infos[closure.find(0)].orbit_id
    entries = [TransversalEntry(
        class_id=closure.find(0),
        rep=LinearTerm.var(1),
        d=1,
        group=SymmetryGroup(1, ((1,),)),
        q=1,
    )]
    rest = []
    for oid, classes in orbits.items():
        if oid == var_orbit:
            continue
        candidates = [info for info in classes
                      if max(info.essential_vars) == len(info.essential_vars)]
        if not candidates:
            raise AssertionError("orbit without an initial-segment class")
        chosen = min(candidates, key=lambda c: c.class_id)
        d = len(chosen.essential_vars)
        target = frozenset(range(1, d + 1))
        rep_idx = None
        for i in chosen.members:
            if uni.term_at(i).variables() == target:
                rep_idx = i
                break
        rep = uni.term_at(rep_idx)
        grp = symmetry_group(closure, rep)
        fact = 1
        for j in range(2, d + 1):
            fact *= j
        assert fact % len(grp) == 0
        rest.append(TransversalEntry(chosen.class_id, rep, d, grp, fact // len(grp)))
    rest.sort(key=lambda e: (e.d, e.class_id))
    return Transversal(tuple(entries + rest))


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
    for a in vs:
        for b in vs:
            if a == b:
                continue
            gamma = {v: (b if v == a else v) for v in vs}
            if not _is_trivial(closure, substitute(t, gamma)):
                return False
    return True


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
        good = True
        for a in ident:
            for b in ident:
                if a == b:
                    continue
                gamma = {v: (b if v == a else v) for v in ident}
                expect = gamma[i]
                if triviality_witness(closure, substitute(t, gamma)) != expect:
                    good = False
                    break
            if not good:
                break
        if good:
            # witness permutation moving the projection coordinate first
            perm = (i,) + tuple(v for v in ident if v != i)
            inv = [0] * d
            for pos, v in enumerate(perm):
                inv[v - 1] = pos + 1
            return MinimalTermReport(t, "semiprojection", tuple(inv))
    raise AssertionError("minimal term fits no classification case")


def essentially_different(closure: ClosurePartition, s: LinearTerm, t: LinearTerm) -> bool:
    infos = class_infos(closure)
    return infos[closure.class_of(s)].orbit_id != infos[closure.class_of(t)].orbit_id
