"""Decision procedures on concrete finite algebras: subuniverses,
generated closures, automorphisms, compatible crosses, idemprimality and
minority pairs.

Each decision is coded once, as an internal on numpy operation tables
(tabs, n[, arg]) that returns a witness or None; the census registry
(census.PROPERTIES) calls it per sample without boxing, and check calls
it through the registry.  _tabs(...) turns a FiniteAlgebra into tables.

Five public wrappers on a FiniteAlgebra remain (is_subuniverse,
has_proper_subalgebra_size_gt1, has_nontrivial_automorphism,
cross_compatible and is_idemprimal) only because the benchmark's output
check calls them; they go once it decides through the registry (ROADMAP
item 1).

A table is read as table[idx] for integer arrays idx of flat cell indices
(see _block), or as table[:] for every cell, so a census cell view serves
as well as a realized table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .errors import BudgetError, DomainError
from .factory import FiniteAlgebra

AUTOMORPHISM_MAX_N = 64
SUBSET_BUDGET = 2_000_000
_GATHER_CHUNK = 1 << 18


@dataclass(frozen=True)
class PropertyResult:
    name: str
    holds: bool
    witness: object = None


def _tabs(algebra: FiniteAlgebra):
    """[(flat numpy table, arity)] view of an algebra."""
    return [(np.asarray(table, dtype=np.int64), d)
            for table, (_, d) in zip(algebra.tables, algebra.signature.symbols)]


def _block(axes, n: int) -> np.ndarray:
    """The flat indices of the cells in axes[0] x axes[1] x ..., row-major."""
    idx = axes[0]
    for x in axes[1:]:
        idx = (idx * n)[..., None] + x
    return idx.ravel()


# ---------------------------------------------------------------------------
# Subuniverses


def _subuniverse(tabs, n: int, B):
    """None if the sorted distinct elements B form a subuniverse, else
    (symbol, args) for the first cell over B, by symbol and then
    lexicographically, whose value leaves B."""
    Bs = np.asarray(B, dtype=np.int64)
    for sym, (tab, d) in enumerate(tabs):
        bad = np.flatnonzero(~np.isin(tab[_block([Bs] * d, n)], Bs))
        if len(bad):
            return sym, tuple(int(Bs[i]) for i in np.unravel_index(bad[0], (len(Bs),) * d))
    return None


def _check_elements(algebra: FiniteAlgebra, elements, what: str) -> None:
    if any(not 0 <= x < algebra.n for x in elements):
        raise DomainError(f"{what} must be in 0..{algebra.n - 1}")


def is_subuniverse(algebra: FiniteAlgebra, B) -> PropertyResult:
    B = sorted(set(B))
    if not B:
        raise DomainError("B must be non-empty")
    _check_elements(algebra, B, "elements of B")
    bad = _subuniverse(_tabs(algebra), algebra.n, B)
    if bad is None:
        return PropertyResult("subuniverse", True, tuple(B))
    return PropertyResult("subuniverse", False, bad)


def _closure_np(tabs, n: int, seed) -> np.ndarray:
    """The subuniverse generated by seed, sorted."""
    member = np.zeros(n, dtype=bool)
    member[list(seed)] = True
    S = member.nonzero()[0]
    while len(S) < n:
        for tab, d in tabs:
            member[tab[_block([S] * d, n)]] = True
        new = member.nonzero()[0]
        if len(new) == len(S):
            break
        S = new
    return S


def has_proper_subalgebra_size_gt1(algebra: FiniteAlgebra) -> PropertyResult:
    n = algebra.n
    if n < 2:
        raise DomainError("carrier must have at least 2 elements")
    found = _pair_generated_proper(_tabs(algebra), n)
    return PropertyResult("proper-subalgebra-gt1", found is not None, found)


def _pair_generated_proper(tabs, n: int):
    """Smallest-pair witness of a proper subalgebra of size > 1, or None.
    Any proper subalgebra of size >= 2 contains a 2-generated proper one,
    so the pairs {a, b} suffice, in lexicographic order.

    Pairs are settled by reachability: the one-step values f(u), u over
    {a, b}, lie in Sg(a, b), so if two of them form a pair known to
    generate A, {a, b} generates A too.  Each pair {x, y} found to
    generate A is used once: it settles the open pairs in the bits of
    holders[x] & holders[y].  Only pairs still open get a closure.  A
    proper subalgebra holds no generating pair, so the first proper pair
    is never settled and its closure is the witness, as when every pair is
    closed."""
    if n < 2:
        return None
    pairs = _pairs(n)
    p, holders = 0, None
    while True:
        S = _closure_np(tabs, n, pairs[p])
        if len(S) < n:
            return [int(x) for x in S]
        if holders is None:  # built once {0, 1} is known to generate A
            a, b = pairs.T
            holders = _one_step_holders(tabs, n)
            done = np.arange(64 * holders.shape[1]) >= len(a)  # padding bits are done
            step = max(1, _GATHER_CHUNK // holders[0].nbytes)  # rows per ~_GATHER_CHUNK bytes
        new = np.array([p])
        while len(new):
            done[new] = True
            reached = np.zeros(holders.shape[1], dtype=np.uint64)
            for q in (new[s:s + step] for s in range(0, len(new), step)):
                reached |= np.bitwise_or.reduce(holders.take(a[q], 0) & holders.take(b[q], 0))
            bits = np.unpackbits(reached.view(np.uint8), bitorder="little").view(bool)
            new = (bits & ~done).nonzero()[0]
        if done.all():
            return None
        p = done.argmin()  # the first open pair


def _one_step_holders(tabs, n: int) -> np.ndarray:
    """Row x in uint64 words: bit i (bit i % 8 of byte i // 8) is set iff x
    is a one-step value of the i-th pair of _pairs(n), the pair included."""
    pairs = _pairs(n)
    holders = np.zeros((n, -(-len(pairs) // 64) * 8), dtype=np.uint8)
    step = max(64, _GATHER_CHUNK // n // 64 * 64)  # whole words, ~_GATHER_CHUNK bools
    for s in range(0, len(pairs), step):
        vals = np.concatenate([pairs[s:s + step]]
                              + [tab[_pair_cells(n, d)[s:s + step]] for tab, d in tabs], axis=1)
        w = -(-len(vals) // 64) * 64
        hit = np.zeros(n * w, dtype=bool)
        hit[vals * w + np.arange(len(vals))[:, None]] = True
        holders[:, s // 8:(s + w) // 8] = np.packbits(hit.reshape(n, w), axis=1, bitorder="little")
    return holders.view(np.uint64)


@lru_cache(maxsize=16)
def _pairs(n: int) -> np.ndarray:
    """The pairs a < b of range(n), one row each, in lexicographic
    (combinations) order; read-only."""
    pairs = np.stack(np.triu_indices(n, 1), axis=1)
    pairs.flags.writeable = False
    return pairs


@lru_cache(maxsize=16)
def _pair_cells(n: int, d: int) -> np.ndarray:
    """Row i: the flat indices of the arity-d cells over the i-th pair
    {a, b} of _pairs(n), both a and b among the arguments (the two
    constant cells are left out)."""
    bits = (np.arange(1, (1 << d) - 1)[:, None] >> np.arange(d - 1, -1, -1)) & 1
    cells = _pairs(n)[:, bits] @ n ** np.arange(d - 1, -1, -1)
    cells.flags.writeable = False
    return cells


def _subalgebras(tabs, n: int, k: int):
    """The k-element subuniverses, in lexicographic order.  The C(n, k)
    subsets are counted against SUBSET_BUDGET before any is tried."""
    total = math.comb(n, k)
    if total > SUBSET_BUDGET:
        raise BudgetError(f"C({n},{k}) = {total} subsets exceed the subset budget "
                          f"{SUBSET_BUDGET}")
    return (B for B in combinations(range(n), k) if _subuniverse(tabs, n, B) is None)


# ---------------------------------------------------------------------------
# Automorphisms


def _extend(tabs, n: int, gens, imgs) -> np.ndarray:
    """The map that sends the generators to imgs and each element first
    reached as f(u), closing the generators in the rounds of _closure_np,
    to f(phi(u)); -1 off the subuniverse they generate.  An automorphism
    with these images is this map, so _is_automorphism decides."""
    phi = np.full(n, -1, dtype=np.int64)
    phi[gens] = imgs
    S = (phi >= 0).nonzero()[0]
    while len(S) < n:
        for tab, d in tabs:
            src = tab[_block([S] * d, n)]
            new = phi[src] < 0
            if new.any():
                phi[src[new]] = tab[_block([phi[S]] * d, n)[new]]
        reached = (phi >= 0).nonzero()[0]
        if len(reached) == len(S):
            break
        S = reached
    return phi


def _is_automorphism(tabs, n: int, phi: np.ndarray) -> bool:
    if np.any(phi < 0) or len(np.unique(phi)) != n:
        return False
    return all(np.array_equal(phi[tab[:]], tab[_block([phi] * d, n)]) for tab, d in tabs)


def _generator_chain(tabs, n: int) -> list[int]:
    gens, S = [], set()
    while len(S) < n:
        gens.append(min(set(range(n)) - S))
        S = set(_closure_np(tabs, n, S | {gens[-1]}).tolist())
    return gens


def _candidates(tabs, n: int, gens) -> list[list[int]]:
    """Per generator g, ascending, the elements that each table takes as
    often as g: an automorphism maps the cells of value x onto phi(x)'s."""
    counts = np.stack([np.bincount(tab[:], minlength=n) for tab, _ in tabs], axis=1)
    return [np.flatnonzero((counts == counts[g]).all(axis=1)).tolist() for g in gens]


def _automorphism_search(tabs, n: int):
    """Yield every automorphism as an image tuple, in lexicographic order of
    the chain's images.  The budget counts all injective images of the
    chain; only the _candidates are tried."""
    if n > AUTOMORPHISM_MAX_N:
        raise BudgetError(f"n={n} exceeds the automorphism budget {AUTOMORPHISM_MAX_N}")
    gens = _generator_chain(tabs, n)
    total = math.perm(n, len(gens))
    if total > 500_000:
        raise BudgetError(
            f"{total} candidate generator images exceed the search budget")
    chain = tuple(gens)
    for imgs in product(*_candidates(tabs, n, gens)):
        if imgs == chain:
            # a map is fixed by its values on a generating set
            yield tuple(range(n))
        elif len(set(imgs)) == len(imgs):
            phi = _extend(tabs, n, gens, imgs)
            if _is_automorphism(tabs, n, phi):
                yield tuple(int(x) for x in phi)


def _nontrivial_automorphism(tabs, n: int):
    """The first non-identity automorphism in search order, or None."""
    identity = tuple(range(n))
    return next((p for p in _automorphism_search(tabs, n) if p != identity), None)


def has_nontrivial_automorphism(algebra: FiniteAlgebra) -> PropertyResult:
    perm = _nontrivial_automorphism(_tabs(algebra), algebra.n)
    return PropertyResult("nontrivial-automorphism", perm is not None, perm)


# ---------------------------------------------------------------------------
# Crosses


def _cross_failures(tabs, n: int, elements) -> list:
    """Per element a of elements, the first coordinate set T, by operation
    and then T in bit order, on which the cross at a fails, or None if the
    cross at a is compatible.

    Decoupled test: the cross at a is a subuniverse of the square iff for
    every operation f of arity d and every T subset of coordinates, all u
    with u|_T = a have f(u) = a, or all v with v|_complement = a have
    f(v) = a.  Sound and complete because a tuple of cross pairs splits
    into a left tuple pinned to a on some T and a right tuple pinned on
    the complement.  The elements still alive are tested together per
    (operation, T): the smaller side for all of them, the larger side for
    those the smaller side fails; an element failing both drops out."""
    out = [None] * len(elements)
    alive = np.asarray(elements, dtype=np.int64)
    pos = np.arange(len(alive))
    for tab, d in tabs:
        for T, small, large in _cross_sides(d):
            if not len(alive):
                return out
            ok = _side_holds(tab, n, d, small, alive)
            miss = np.flatnonzero(~ok)
            if not len(miss):
                continue
            # the side pinned on no coordinate is the whole grid, which holds
            # for a only if its diagonal cell, the other side, is a
            ok[miss] = _side_holds(tab, n, d, large, alive[miss]) if large else False
            for p in pos[~ok].tolist():
                out[p] = T
            alive, pos = alive[ok], pos[ok]
    return out


@lru_cache(maxsize=None)
def _cross_sides(d: int) -> tuple:
    """(T, smaller side, larger side) for T in bit order.  A side is the
    axes pinned to a; the one pinned on more of them (T on a tie) is the
    smaller slice.  T and its complement make the same test, and the one
    without coordinate d - 1 comes first, so only those are listed."""
    out = []
    for bits in range(1 << (d - 1)):
        T = tuple(j for j in range(d) if bits >> j & 1)
        comp = tuple(j for j in range(d) if not bits >> j & 1)
        out.append((T, T, comp) if len(T) >= len(comp) else (T, comp, T))
    return tuple(out)


@lru_cache(maxsize=64)
def _side_cells(n: int, d: int, pinned) -> tuple[int, np.ndarray]:
    """(stride, offsets): the cells of arity d pinned to a on the axes in
    pinned have the flat indices a * stride + offsets, the free axes in
    row-major order, so the first n offsets vary the last free axis."""
    offsets = _block([np.zeros(1, dtype=np.int64) if j in pinned else np.arange(n)
                      for j in range(d)], n)
    offsets.flags.writeable = False
    return sum(n ** (d - 1 - j) for j in pinned), offsets


def _side_holds(tab, n: int, d: int, pinned, a: np.ndarray) -> np.ndarray:
    """Per element of a, whether every cell pinned to it on the axes in
    pinned, at least one, takes the value it.  The first n cells of the
    side are read for every element, the rest only for the elements whose
    first n cells all hold, since most elements fail early."""
    stride, offsets = _side_cells(n, d, pinned)
    base = a[:, None] * stride
    ok = (tab[base + offsets[:n]] == a[:, None]).all(axis=1)
    live = np.flatnonzero(ok)
    if len(offsets) > n and len(live):
        ok[live] = (tab[base[live] + offsets[n:]] == a[live, None]).all(axis=1)
    return ok


def cross_compatible(algebra: FiniteAlgebra, a: int) -> PropertyResult:
    _check_elements(algebra, [a], "the cross's element")
    bad_T, = _cross_failures(_tabs(algebra), algebra.n, [a])
    if bad_T is None:
        return PropertyResult("cross-compatible", True, a)
    return PropertyResult("cross-compatible", False, bad_T)


def _any_cross(tabs, n: int):
    """The least element whose cross is compatible, or None."""
    return next((a for a, bad_T in enumerate(_cross_failures(tabs, n, range(n)))
                 if bad_T is None), None)


# ---------------------------------------------------------------------------
# Idemprimality


def _idemprimal_obstruction(tabs, n: int):
    """Szendrei's criterion for finite idempotent algebras of size > 2:
    idemprimal iff no proper subalgebra of size > 1, trivial automorphism
    group, and no compatible cross.  The first obstruction found, as
    (label, witness), or None."""
    for label, search in (("proper-subalgebra", _pair_generated_proper),
                          ("automorphism", _nontrivial_automorphism),
                          ("cross", _any_cross)):
        witness = search(tabs, n)
        if witness is not None:
            return label, witness
    return None


def is_idemprimal(algebra: FiniteAlgebra) -> PropertyResult:
    n = algebra.n
    if n <= 2:
        raise DomainError("idemprimality criterion unsupported for n <= 2")
    obstruction = _idemprimal_obstruction(_tabs(algebra), n)
    return PropertyResult("idemprimal", obstruction is None, obstruction)


# ---------------------------------------------------------------------------
# Minority pairs


def _minority_values(a: int, b: int):
    """The 8 cells of the minority operation on {a,b}, in row-major order:
    a exactly when it occurs an odd number of times (once, or diagonal)."""
    return {args: a if args.count(a) % 2 else b
            for args in product((a, b), repeat=3)}


def _minority_pair(tabs, n: int, symbol: int):
    """The first pair (a, b), lexicographically, that is a subuniverse on
    which the ternary symbol is the minority operation, or None.  Every
    pair's 8 cells are read at once, and the pairs where all 8 match are
    tested as subuniverses in turn."""
    cube = _minority_values(0, 1)  # over {a, b} as {0, 1}
    pairs = _pairs(n)
    cells = pairs[:, list(cube)] @ np.array([n * n, n, 1])
    match = (tabs[symbol][0][cells] == pairs[:, list(cube.values())]).all(axis=1)
    return next(((a, b) for a, b in pairs[match].tolist()
                 if _subuniverse(tabs, n, (a, b)) is None), None)
