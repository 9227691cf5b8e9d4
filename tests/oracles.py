"""Independent reference decisions and random small algebras that the
checker and census tests compare against.

Each oracle is an earlier, slower version of a decision that now lives
once in maltkit.checkers or maltkit.census: a closure of every pair in
turn, without pairs settled by reachability, the settling loop that
re-tests every open pair each round, the automorphism search over
every injective image of the generator chain, each extended by
propagation that rejects conflicting images, the automorphism filter
that also counts, per coordinate, the cells fixing each element there,
the product loop over B^d for subuniverses, the cross test that
evaluates the pinned-on-T side first, the cross sides' offsets grown one
axis at a time, the census subset test that gathers every draw of every subset at
once, the minority-pair search over single cells, the census minority
constraints walked over every symbol's cells at n = 2, and Szendrei's
criterion built from these oracles, with crosses checked as generic
relations.
The closure oracle is the earlier union-find, which kept the smaller
root on each union, seeded by the earlier per-map loop that computes each
seed pair's indices from offsets and strides.  The dispatch oracle is the
earlier search over the injective assignments of each argument pattern's
blocks, which can also try them in a shuffled order.
The class-info oracles are the analysis layer's earlier per-term version:
essential sets and (symbol, pattern) keys read off each LinearTerm, keys
joined in a dict union-find, and orbits by the m! permutation sweep.  The
transversal oracle groups ClassInfo objects by orbit and scans each chosen
class's member list, and its symmetry groups substitute every permutation
into a LinearTerm and look up the image's class.
The compile oracles are the factory's earlier grid builds: the orbit
index masks the whole [n]^d grid per entry, and the gather plan computes
the equality kernel of every cell, scans it once per pattern, and reads
each cell's arguments back by division.
The generic relation check and the cross relation decide crosses for the
cross oracle; extract_mfamily, the inverse of factory.realize, is what the
family <-> model round trips check against; csv_text reads census output;
no_size_d_subalgebra_probability is the exact value that census frequencies
of subalg2 approach.
"""

import functools
import io
import itertools
import math

import numpy as np
from hypothesis import strategies as st

from maltkit.analysis import (ClassInfo, SymmetryGroup, Transversal,
                              TransversalEntry, class_infos)
from maltkit.census import _in_rows, write_csv
from maltkit.checkers import (PropertyResult, _is_automorphism, _pair_cells, _pairs,
                              _tabs)
from maltkit.closure import TermUniverse, is_satisfiable
from maltkit.errors import BudgetError, DomainError
from maltkit.factory import (FiniteAlgebra, MFamily, check_cells, orbit_index,
                             validate_model)
from maltkit.params import fixed_subalgebra_probability
from maltkit.terms import (Identity, LinearTerm, Signature, SystemSpec,
                           kernel_code, render_term, substitute, variable_names)

# ---------------------------------------------------------------------------
# argument patterns


def render_index(universe, i):
    """The text of the term at index i of a TermUniverse."""
    return render_term(universe.term_at(i), universe.sig,
                       variable_names(universe.sig, universe.m))


def pattern_of(values):
    """The equality kernel of a tuple as first-occurrence labels, e.g.
    (a, b, a) -> (0, 1, 0): the key of the dispatch rules."""
    labels = {}
    return tuple(labels.setdefault(v, len(labels)) for v in values)


# ---------------------------------------------------------------------------
# random idempotent algebras


def random_algebra(n, arities, rng):
    sig = Signature(tuple((f"f{i}", d) for i, d in enumerate(arities)))
    tables = []
    for d in arities:
        cells = rng.integers(0, n, size=n ** d)
        # force idempotence so the census invariants apply
        for a in range(n):
            idx = sum(a * n ** (d - 1 - j) for j in range(d))
            cells[idx] = a
        tables.append(tuple(int(x) for x in cells))
    return FiniteAlgebra(n, sig, tuple(tables))


def invariant_algebra(pi, arities, rng):
    """A random idempotent algebra with the permutation pi among its
    automorphisms: each pi-orbit of cells (pi acting coordinatewise) of
    length L takes a value whose pi-cycle length divides L, moved along
    with the cells."""
    n = len(pi)
    cycle = [1] * n
    for a in range(n):
        x = pi[a]
        while x != a:
            x, cycle[a] = pi[x], cycle[a] + 1
    sig = Signature(tuple((f"f{i}", d) for i, d in enumerate(arities)))
    tables = []
    for d in arities:
        cells = {}
        for u in itertools.product(range(n), repeat=d):
            if u in cells:
                continue
            L = math.lcm(*(cycle[a] for a in u))
            if len(set(u)) == 1:
                v = u[0]
            else:
                v = int(rng.choice([a for a in range(n) if L % cycle[a] == 0]))
            for _ in range(L):
                cells[u] = v
                u, v = tuple(int(pi[a]) for a in u), int(pi[v])
        tables.append(tuple(cells[u] for u in itertools.product(range(n), repeat=d)))
    return FiniteAlgebra(n, sig, tuple(tables))


def affine_algebra(n):
    """x - y + z mod n, whose automorphisms are the maps x -> ax + b with a
    a unit mod n."""
    table = tuple((x - y + z) % n for x, y, z in itertools.product(range(n), repeat=3))
    return FiniteAlgebra(n, Signature((("f", 3),)), (table,))


def cross_only_algebra():
    """f on {0,1,2}: 0 absorbs from the left, so the cross at 0 is
    compatible; f(1,0) = 2, f(2,0) = 1 and f(1,2) = 0 leave every pair, and
    f(2,1) = 1 rules out the one map fixing 0 that moves anything."""
    f = {(1, 0): 2, (2, 0): 1, (1, 2): 0, (2, 1): 1}
    table = tuple(x if x in (0, y) else f[x, y]
                  for x, y in itertools.product(range(3), repeat=2))
    return FiniteAlgebra(3, Signature((("f", 2),)), (table,))


def absorbing_algebra(n, arities, a, rng):
    """A random idempotent algebra in which every cell whose first argument
    is a takes the value a, so the cross at a is compatible."""
    alg = random_algebra(n, arities, rng)
    tables = []
    for table, d in zip(alg.tables, arities):
        cells = list(table)
        for idx in range(a * n ** (d - 1), (a + 1) * n ** (d - 1)):
            cells[idx] = a
        tables.append(tuple(cells))
    return FiniteAlgebra(n, alg.signature, tuple(tables))


@st.composite
def small_algebras(draw):
    """Random idempotent algebras at n <= 6: plain random tables, tables
    invariant under a random permutation, tables with a left-absorbing
    element (a compatible cross, often the only obstruction), and the
    affine algebra."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("random", "invariant", "absorbing", "affine")))
    if kind == "affine":
        return affine_algebra(n)
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        return random_algebra(n, arities, rng)
    if kind == "absorbing":
        return absorbing_algebra(n, arities, draw(st.integers(0, n - 1)), rng)
    return invariant_algebra(rng.permutation(n), arities, rng)


# ---------------------------------------------------------------------------
# subuniverses and pair closures


def oracle_is_subuniverse(algebra, B):
    B = sorted(set(B))
    bset = set(B)
    for sym in range(len(algebra.signature)):
        d = algebra.signature.arity(sym)
        for args in itertools.product(B, repeat=d):
            if algebra.value(sym, args) not in bset:
                return PropertyResult("subuniverse", False, (sym, args))
    return PropertyResult("subuniverse", True, tuple(B))


def oracle_subalgebra(algebra, k):
    """The first k-element subuniverse, lexicographically, or None."""
    return next((B for B in itertools.combinations(range(algebra.n), k)
                 if oracle_is_subuniverse(algebra, B).holds), None)


def oracle_closure(tabs, n, seed):
    S = np.unique(np.asarray(sorted(seed), dtype=np.int64))
    while True:
        pieces = [S]
        for tab, d in tabs:
            grid = tab.reshape((n,) * d)
            pieces.append(grid[np.ix_(*([S] * d))].ravel())
        new = np.unique(np.concatenate(pieces))
        if len(new) == len(S):
            return new
        S = new


def oracle_pair_generated_proper(tabs, n):
    for a in range(n):
        for b in range(a + 1, n):
            S = oracle_closure(tabs, n, (a, b))
            if len(S) < n:
                return [int(x) for x in S]
    return None


def oracle_pair_settling(tabs, n):
    """(closed, witness): the seeds closed, in order, and the witness of
    the earlier settling loop.  Each round tests every open pair's one-step
    values, over every pair of their columns, against the pairs known to
    generate A, until a round settles none; then the first open pair is
    closed."""
    if n < 2:
        return [], None
    closed = [(0, 1)]
    S = oracle_closure(tabs, n, (0, 1))
    if len(S) < n:
        return closed, [int(x) for x in S]
    a, b = _pairs(n).T
    V = np.concatenate([a[:, None], b[:, None]]
                       + [tab[_pair_cells(n, d)] for tab, d in tabs], axis=1)
    if V.shape[1] > n:
        # a row holds at most n distinct values: keep each once, padded with a
        held = np.zeros((len(V), n), dtype=bool)
        held[np.arange(len(V))[:, None], V] = True
        V = np.where(held, np.arange(n), a[:, None])
    I, J = _pairs(V.shape[1]).T
    generating = np.zeros((n, n), dtype=bool)
    done = np.zeros(len(a), dtype=bool)
    p = 0
    while True:
        new = np.array([p])
        while len(new):
            done[new] = True
            generating[a[new], b[new]] = generating[b[new], a[new]] = True
            rest = np.flatnonzero(~done)
            new = rest[oracle_holds_pair(V[rest], I, J, generating)]
        if not len(rest):
            return closed, None
        p = rest[0]
        closed.append((int(a[p]), int(b[p])))
        S = oracle_closure(tabs, n, closed[-1])
        if len(S) < n:
            return closed, [int(x) for x in S]


def oracle_holds_pair(V, I, J, marked):
    """Whether each row of V holds, in some column pair (I[k], J[k]), a
    pair marked in the n x n boolean matrix.  Rows go in chunks of about
    2**18 gathered entries."""
    out = np.zeros(len(V), dtype=bool)
    step = max(1, (1 << 18) // len(I))
    for s in range(0, len(V), step):
        W = V[s:s + step]
        out[s:s + step] = marked[W[:, I], W[:, J]].any(axis=1)
    return out


# ---------------------------------------------------------------------------
# automorphisms


def oracle_generator_chain(tabs, n):
    gens = []
    S = np.empty(0, dtype=np.int64)
    while len(S) < n:
        for g in range(n):
            if g not in S:
                break
        gens.append(g)
        S = oracle_closure(tabs, n, list(S) + [g])
    return gens


def oracle_propagate(tabs, n, gens, imgs):
    """Extend images of the (distinct) generators to a full map by evaluating
    the term closure on both sides; returns the map array or None on
    conflict.  Only a pruning device: survivors still get a full
    homomorphism check."""
    phi = np.full(n, -1, dtype=np.int64)
    phi[gens] = imgs
    D = np.unique(np.asarray(gens, dtype=np.int64))
    while True:
        srcs, ims = [D], [phi[D]]
        for tab, d in tabs:
            grid = tab.reshape((n,) * d)
            srcs.append(grid[np.ix_(*([D] * d))].ravel())
            ims.append(grid[np.ix_(*([phi[D]] * d))].ravel())
        src = np.concatenate(srcs)
        img = np.concatenate(ims)
        order = np.argsort(src, kind="stable")
        s2, i2 = src[order], img[order]
        dup = s2[1:] == s2[:-1]
        if np.any(dup & (i2[1:] != i2[:-1])):
            return None
        first = np.concatenate(([True], ~dup))
        su, iu = s2[first], i2[first]
        known = phi[su] != -1
        if np.any(phi[su][known] != iu[known]):
            return None
        phi[su] = iu
        newD = np.unique(su)
        if len(newD) == len(D):
            return phi
        D = newD


def oracle_automorphism_search(tabs, n, find_all):
    gens = oracle_generator_chain(tabs, n)
    total = 1
    for j in range(len(gens)):
        total *= n - j
    if total > 500_000:
        raise BudgetError(
            f"{total} candidate generator images exceed the search budget")
    found = []
    identity = tuple(gens)
    for imgs in itertools.permutations(range(n), len(gens)):
        phi = oracle_propagate(tabs, n, gens, imgs)
        if phi is None or not _is_automorphism(tabs, n, phi):
            continue
        perm = tuple(int(x) for x in phi)
        found.append(perm)
        if not find_all and imgs != identity:
            # a nontrivial automorphism exists
            return found
    return found


def oracle_nontrivial_automorphism(tabs, n):
    ident = tuple(range(n))
    for perm in oracle_automorphism_search(tabs, n, find_all=False):
        if perm != ident:
            return perm
    return None


def oracle_invariants(tabs, n):
    """Per element (row), counts every automorphism preserves: per operation,
    the cells with that value and, per coordinate, the cells fixing it there."""
    cols = []
    for tab, d in tabs:
        grid = tab.reshape((n,) * d)
        cols.append(np.bincount(tab, minlength=n))
        for j in range(d):
            at_j = np.arange(n).reshape((n,) + (1,) * (d - 1 - j))
            cols.append(np.bincount(grid[grid == at_j], minlength=n))
    return np.stack(cols, axis=1)


def oracle_candidates(tabs, n, gens):
    """Per generator, ascending, the elements with its oracle_invariants."""
    inv = oracle_invariants(tabs, n)
    return [np.flatnonzero((inv == inv[g]).all(axis=1)).tolist() for g in gens]


def oracle_subset_family(ctx, flat, k):
    """subalg<k> on one census sample's draws, every draw position of
    every k-subset gathered at once: some k-subset holds all its draws."""
    P, S = ctx.pair_arrays() if k == 2 else ctx.triple_arrays()
    return bool(_in_rows(flat[P], S).all(axis=1).any())


# ---------------------------------------------------------------------------
# crosses, idemprimality and minority pairs


def oracle_cross_compatible(tabs, n, a):
    """(ok, T) of the decoupled cross test, pinned-on-T side first."""
    for tab, d in tabs:
        grid = tab.reshape((n,) * d)
        for bits in range(1 << d):
            T = [j for j in range(d) if bits >> j & 1]
            comp = [j for j in range(d) if not bits >> j & 1]
            idx_u = tuple(a if j in T else slice(None) for j in range(d))
            idx_v = tuple(a if j in comp else slice(None) for j in range(d))
            if not (np.all(grid[idx_u] == a) or np.all(grid[idx_v] == a)):
                return False, tuple(T)
    return True, None


def oracle_side_cells(n, d, pinned):
    """(stride, offsets) of checkers._side_cells, the free axes' offsets
    grown one axis at a time from the row-major weights."""
    weight = n ** np.arange(d - 1, -1, -1)
    offsets = np.zeros(1, dtype=np.int64)
    for j in range(d):
        if j not in pinned:
            offsets = (offsets[:, None] + np.arange(n) * weight[j]).ravel()
    return int(weight[list(pinned)].sum()), offsets


def is_compatible_relation(algebra, relation) -> PropertyResult:
    """Generic coordinatewise-closure check of a k-ary relation."""
    rel = sorted(set(tuple(r) for r in relation))
    if not rel:
        raise DomainError("relation must be non-empty")
    k = len(rel[0])
    if any(len(r) != k for r in rel):
        raise DomainError("relation tuples must share one arity")
    relset = set(rel)
    max_d = max(ar for _, ar in algebra.signature.symbols)
    if len(rel) ** max_d > 5_000_000:
        raise BudgetError("relation closure check exceeds the budget")
    for sym in range(len(algebra.signature)):
        d = algebra.signature.arity(sym)
        for rows in itertools.product(rel, repeat=d):
            image = tuple(algebra.value(sym, tuple(r[c] for r in rows))
                          for c in range(k))
            if image not in relset:
                return PropertyResult("compatible-relation", False, (sym, rows))
    return PropertyResult("compatible-relation", True)


def cross_relation(n, a):
    """The cross at a: ({a} x A) union (A x {a})."""
    return sorted({(a, x) for x in range(n)} | {(x, a) for x in range(n)})


def oracle_any_cross(algebra):
    """The first a whose cross passes the generic relation check, or None."""
    return next((a for a in range(algebra.n) if is_compatible_relation(
        algebra, cross_relation(algebra.n, a)).holds), None)


def oracle_is_idemprimal(algebra):
    tabs, n = _tabs(algebra), algebra.n
    sub = oracle_pair_generated_proper(tabs, n)
    if sub is not None:
        return PropertyResult("idemprimal", False, ("proper-subalgebra", sub))
    perm = oracle_nontrivial_automorphism(tabs, n)
    if perm is not None:
        return PropertyResult("idemprimal", False, ("automorphism", perm))
    a = oracle_any_cross(algebra)
    if a is not None:
        return PropertyResult("idemprimal", False, ("cross", a))
    return PropertyResult("idemprimal", True)


def oracle_has_minority_two_subalgebra(algebra, symbol):
    for a in range(algebra.n):
        for b in range(a + 1, algebra.n):
            # minority: a exactly when it occurs an odd number of times
            want = {args: a if args.count(a) % 2 else b
                    for args in itertools.product((a, b), repeat=3)}
            if all(algebra.value(symbol, args) == v for args, v in want.items()) \
                    and oracle_is_subuniverse(algebra, (a, b)).holds:
                return PropertyResult("minority-2-subalgebra", True, (a, b))
    return PropertyResult("minority-2-subalgebra", False)


def oracle_minority_symbolic(engine, symbol):
    """(feasible, forced, member) of census._minority_symbolic, by a walk
    over every non-constant cell of every symbol at n = 2: the designated
    symbol's cells force their draws, the other symbols' non-variable
    cells make theirs members, less the forced ones."""
    if engine.spec.signature.arity(symbol) != 3:
        raise DomainError("minority2 needs a ternary designated symbol")
    forced, member, feasible = {}, set(), True
    want = {args: args.count(0) % 2 == 0 for args in itertools.product((0, 1), repeat=3)}
    for sym, (pos, var_idx, var_arg, d) in enumerate(engine.dispatch.plan(2).symbols):
        selected = dict(zip(var_idx.tolist(), var_arg.tolist()))
        for idx, args in enumerate(itertools.product((0, 1), repeat=d)):
            if len(set(args)) == 1:
                continue  # idempotent cell, always fine
            if sym == symbol:
                req = int(want[args])
                if idx in selected:
                    feasible &= selected[idx] == req
                else:
                    feasible &= forced.setdefault(int(pos[idx]), req) == req
            elif idx not in selected:  # a selected value is one of a, b already
                member.add(int(pos[idx]))
    member -= set(forced)  # forced values are already in the pair
    return feasible, sorted(forced.items()), sorted(member)


# ---------------------------------------------------------------------------
# closure seed pairs


def oracle_closure_roots(spec, m):
    """The class root of every term index of the closure over m variables,
    by a union-find that keeps the smaller root, so each root is its
    class's least member.  The seed pairs come from the earlier per-map
    loop: each pair's indices are computed from the symbol offsets and
    row-major argument strides, one map gamma at a time."""
    universe = TermUniverse(spec.signature, m)
    parent = list(range(universe.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ident in spec.identities:
        sides = []
        for side in (ident.lhs, ident.rhs):
            if side.is_variable:
                sides.append((None, side.args[0]))
            else:
                sides.append((side.symbol, side.args))
        for gamma in itertools.product(range(1, m + 1), repeat=len(ident.variables())):
            # gamma[v-1] is the image of variable v
            pair = []
            for sym, args in sides:
                if sym is None:
                    pair.append(gamma[args - 1] - 1)
                else:
                    arity = len(args)
                    pair.append(universe.offsets[sym]
                                + sum((gamma[a - 1] - 1) * m ** (arity - 1 - j)
                                      for j, a in enumerate(args)))
            ri, rj = find(pair[0]), find(pair[1])
            parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(universe.size)]


# ---------------------------------------------------------------------------
# dispatch search


def patterns_of_arity(d):
    """All first-occurrence label tuples of length d (restricted growth
    strings), in lexicographic order."""
    out = []

    def rec(prefix, top):
        if len(prefix) == d:
            out.append(tuple(prefix))
            return
        for lb in range(top + 2):
            prefix.append(lb)
            rec(prefix, max(top, lb))
            prefix.pop()

    rec([0], 0)
    return out


def oracle_dispatch_rules(closure, transversal, order_rng=None):
    """The dispatch rules by the earlier search: for each symbol and each
    pattern of patterns_of_arity, try the injective assignments of the
    pattern's blocks to variables (in lex order, or shuffled by order_rng)
    until the term lands in a transversal class; record that entry and
    sigma."""
    uni = closure.universe
    class_to_entry = {e.class_id: i for i, e in enumerate(transversal.entries)}
    rules = {}
    for sym in range(len(uni.sig)):
        per_sym = {}
        for mu in patterns_of_arity(uni.sig.arity(sym)):
            assignments = list(itertools.permutations(range(1, uni.m + 1), max(mu) + 1))
            if order_rng is not None:
                order_rng.shuffle(assignments)
            for asg in assignments:
                z = tuple(asg[lb] for lb in mu)
                ei = class_to_entry.get(closure.class_of(LinearTerm.app(sym, z)))
                if ei is not None:
                    de = transversal.entries[ei].d
                    per_sym[mu] = (ei, tuple(z.index(i) + 1 for i in range(1, de + 1)))
                    break
            else:
                raise AssertionError(f"no transversal class reachable for symbol "
                                     f"{uni.sig.name(sym)} pattern {mu}")
        rules[sym] = per_sym
    return rules


# ---------------------------------------------------------------------------
# class infos and orbits


class _UnionFind:
    """Union-find over hashable keys, grown on first sight of a key."""

    def __init__(self):
        self.parent = {}

    def find(self, k):
        while self.parent.setdefault(k, k) != k:
            k = self.parent[k]
        return k

    def union(self, a, b):
        self.parent[self.find(b)] = self.find(a)


def _classes(closure):
    """Class root -> sorted members, by find on every term index."""
    members = {}
    for i, root in enumerate(closure.roots().tolist()):
        members.setdefault(root, []).append(i)
    return members


def oracle_class_infos(closure):
    """ClassInfo per class root from the LinearTerm of every member: the
    essential set is the common variable set, and two classes share an
    orbit when their members' (symbol, pattern) keys are joined."""
    uni = closure.universe
    members = _classes(closure)
    keys = _UnionFind()
    common, least, first_key = {}, {}, {}
    for root, mem in members.items():
        for i in mem:
            t = uni.term_at(i)
            vs = t.variables()
            common[root] = common.get(root, vs) & vs
            least[root] = min(least.get(root, uni.m + 1), len(vs))
            k = ("var",) if t.is_variable else (t.symbol, pattern_of(t.args))
            keys.union(first_key.setdefault(root, k), k)
    group_min = {}
    for root in members:  # in increasing order
        group_min.setdefault(keys.find(first_key[root]), root)
    infos = {}
    for root, mem in members.items():
        if not common[root]:
            raise DomainError("class with empty essential variable set; "
                              "system is not idempotent or not satisfiable")
        if least[root] != len(common[root]):
            raise AssertionError(
                "no member realizes the essential variable set exactly; "
                "this indicates a closure bug or a non-idempotent system")
        infos[root] = ClassInfo(root, mem, common[root],
                                group_min[keys.find(first_key[root])])
    return infos


def orbit_partition_bruteforce(closure):
    """Orbit id (least class root) per class root, by applying all m!
    variable permutations to every class root's term."""
    uni = closure.universe
    members = _classes(closure)
    uf = _UnionFind()
    for perm in itertools.permutations(range(1, uni.m + 1)):
        gamma = {v: perm[v - 1] for v in range(1, uni.m + 1)}
        for root in members:
            image = substitute(uni.term_at(root), gamma)
            uf.union(root, closure.class_of(image))
    least = {}
    for root in members:  # in increasing order
        least.setdefault(uf.find(root), root)
    return {root: least[uf.find(root)] for root in members}


def oracle_symmetry_group(closure, rep):
    """All permutations pi of the representative's variables {x_1..x_d}
    with rep[pi] in the same class, one substituted term per permutation."""
    vs = rep.variables()
    d = len(vs)
    if vs != frozenset(range(1, d + 1)):
        raise DomainError("representative must use exactly x_1..x_d")
    root = closure.class_of(rep)
    elems = []
    for perm in itertools.permutations(range(1, d + 1)):
        gamma = {v: perm[v - 1] for v in range(1, d + 1)}
        if closure.class_of(substitute(rep, gamma)) == root:
            elems.append(perm)
    return SymmetryGroup(d, tuple(elems))


def oracle_canonical_transversal(closure):
    """The transversal from the ClassInfo view: per orbit the least class
    with an initial-segment essential set, then its least member with
    exactly those variables."""
    if not is_satisfiable(closure):
        raise DomainError("system is unsatisfiable; no transversal")
    infos = class_infos(closure)
    uni = closure.universe
    orbits = {}
    for info in infos.values():
        orbits.setdefault(info.orbit_id, []).append(info)
    var_root = closure.class_of(LinearTerm.var(1))
    var_orbit = infos[var_root].orbit_id
    entries = [TransversalEntry(var_root, LinearTerm.var(1), 1,
                                SymmetryGroup(1, ((1,),)), 1)]
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
        rep = next(uni.term_at(i) for i in chosen.members
                   if uni.term_at(i).variables() == target)
        grp = oracle_symmetry_group(closure, rep)
        assert math.factorial(d) % len(grp) == 0
        rest.append(TransversalEntry(chosen.class_id, rep, d, grp,
                                     math.factorial(d) // len(grp)))
    rest.sort(key=lambda e: (e.d, e.class_id))
    return Transversal(tuple(entries + rest))


# ---------------------------------------------------------------------------
# families and census output


def extract_mfamily(transversal, algebra, spec=None):
    """h_i := evaluation of the representative term t_i on injective
    tuples; the inverse of factory.realize.  If spec is given the algebra
    is validated first."""
    if spec is not None:
        ok, witness = validate_model(spec, algebra)
        if not ok:
            raise DomainError(f"algebra is not a model: {witness}")
    oi = orbit_index(transversal, algebra.n)
    values = []
    for ei, e in enumerate(transversal.entries[1:], start=1):
        # rep's variables are x_1..x_d; each key supplies their values
        values.extend(algebra.value(e.rep.symbol, [int(key[v - 1]) for v in e.rep.args])
                      for key in oi.keys(ei))
    return MFamily(algebra.n, tuple(values))


def csv_text(reports):
    """census.write_csv's output as a string."""
    buf = io.StringIO()
    write_csv(reports, buf)
    return buf.getvalue()


def no_size_d_subalgebra_probability(pars, n):
    """Exact probability that no d_M-element subset is a subuniverse:
    (1 - (d/n)**p(d)) ** C(n, d).  The d_M-subset events are independent
    because they are determined by disjoint blocks of the independent
    family values."""
    d = pars.d_M
    return (1 - fixed_subalgebra_probability(pars, d, n)) ** math.comb(n, d)


# ---------------------------------------------------------------------------
# per-n compile over the whole grid


def _digit(codes, n, d, j):
    """Coordinate j of the d-tuples with the given row-major base-n codes."""
    return codes // n ** (d - 1 - j) % n


def _axis(n, d, j):
    """Coordinate j over the row-major grid [n]^d, shaped to broadcast."""
    return np.arange(n).reshape([n if i == j else 1 for i in range(d)])


def _grid_least_code(column, group, n):
    def code(g):
        return functools.reduce(lambda c, p: c * n + column(p - 1), g, 0)
    return functools.reduce(np.minimum, map(code, group.elements))


def oracle_orbit_codes(transversal, n):
    """(codes, offsets) of the draw layout: per entry, the flat grid codes
    of the injective tuples that are least in their orbits, in draw order."""
    codes, offsets = [np.zeros(0, dtype=np.int64)], [0]
    for e in transversal.entries[1:]:
        d = e.d
        keep = np.ones((n,) * d, dtype=bool)
        for j, k in itertools.combinations(range(d), 2):
            keep &= _axis(n, d, j) != _axis(n, d, k)
        if len(e.group) > 1:
            keep &= _grid_least_code(lambda j: _axis(n, d, j), e.group, n) \
                == np.arange(n ** d).reshape(keep.shape)
        offsets.append(offsets[-1] + len(codes[-1]))
        codes.append(np.flatnonzero(keep))
    return codes, offsets


def oracle_plan_symbols(dispatch, n):
    """The gather plan's (pos, var_idx, var_arg, arity) per symbol, by one
    scan of the cells' equality kernel per pattern."""
    sig = dispatch.spec.signature
    check_cells(sig, n)
    codes, offsets = oracle_orbit_codes(dispatch.transversal, n)
    groups = [e.group for e in dispatch.transversal.entries]

    def locate(entry, column):
        least = _grid_least_code(column, groups[entry], n)
        return offsets[entry] + np.searchsorted(codes[entry], least)

    symbols = []
    for sym in range(len(sig)):
        d = sig.arity(sym)
        kernel = kernel_code(np.zeros((n,) * d, dtype=np.int64),
                             [_axis(n, d, j) for j in range(d)])
        rules = dispatch.rules[sym]
        mus = np.array(list(rules), dtype=np.int64)
        masks = kernel_code(np.zeros(len(mus), dtype=np.int64), list(mus.T))
        pos = np.zeros(n ** d, dtype=np.int64)
        var_idx, var_arg = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for mask, (entry, sigma) in zip(masks.tolist(), rules.values()):
            idx = np.flatnonzero(kernel == mask)
            if entry == 0:
                var_idx.append(idx)
                var_arg.append(_digit(idx, n, d, sigma[0] - 1))
                pos[idx] = var_arg[-1] - n
            else:
                pos[idx] = locate(entry, lambda t: _digit(idx, n, d, sigma[t] - 1))
        symbols.append((pos, np.concatenate(var_idx), np.concatenate(var_arg), d))
    return symbols


@st.composite
def small_systems(draw):
    """1-2 symbols of arity <= 3 and 1-3 linear identities, each side a
    variable or one symbol applied to variables, renumbered 1..k in order
    of first occurrence."""
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    sig = Signature(tuple((f"f{i}", d) for i, d in enumerate(arities)))
    idents = []
    for _ in range(draw(st.integers(1, 3))):
        sides = []
        for _ in range(2):
            sym = draw(st.integers(-1, len(arities) - 1))
            d = 1 if sym < 0 else arities[sym]
            sides.append((sym, draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))))
        first = {}
        for _, args in sides:
            for v in args:
                first.setdefault(v, len(first) + 1)
        lhs, rhs = (LinearTerm.var(first[args[0]]) if sym < 0
                    else LinearTerm.app(sym, [first[v] for v in args])
                    for sym, args in sides)
        idents.append(Identity(lhs, rhs))
    return SystemSpec(sig, tuple(idents))
