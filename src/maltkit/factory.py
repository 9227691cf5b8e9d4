"""The model bijection: pattern dispatch, uniform sampling of independent
family data, realization as operation tables, and the inverse extraction.

A model on [n] is equivalent to a family (h_i), one function per
transversal entry i >= 1, where h_i assigns a value in [n] to every
G_i-orbit of injective d_i-tuples, independently and freely.  OrbitIndex
lays the family out flat, in draw order.  One TablePlan per (dispatch, n)
serves sampling, enumeration and the census: it maps each table cell, by
the transversal entry and selector sigma of its argument pattern, to the
flat position of h_i at the selected injective tuple (or to the selected
argument itself for the variable entry)."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from .analysis import Transversal, canonical_transversal, class_infos
from .closure import ClosurePartition, compute_closure
from .errors import BudgetError, DomainError, ParseError
from .params import p_of_k, parameters
from .terms import LinearTerm, Signature, SystemSpec

DEFAULT_MAX_CELLS = 100_000_000

# splitmix64 constants; mix() is the fixed public per-sample seed derivation
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def mix(master_seed: int, index: int) -> int:
    """Derive a child seed: one splitmix64 step of master_seed + index."""
    z = (master_seed + index * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class FiniteAlgebra:
    n: int
    signature: Signature
    tables: tuple[tuple[int, ...], ...]  # row-major, index sum(a_j * n^(d-1-j))

    def value(self, sym: int, args) -> int:
        idx = 0
        for a in args:
            idx = idx * self.n + a
        return self.tables[sym][idx]


@dataclass(frozen=True)
class MFamily:
    """Independent family data: the value of h_i at every canonical orbit
    key (the lex-least injective tuple of a G_i-orbit), flat in draw order
    (see OrbitIndex).  Entry 0, the variable entry, has no values."""

    n: int
    values: tuple[int, ...]


class DispatchTable:
    """Per symbol and argument pattern: the transversal entry hit and the
    coordinate selector sigma (x_j = z_{sigma[j]})."""

    def __init__(self, spec: SystemSpec, transversal: Transversal,
                 rules: dict[int, dict[tuple[int, ...], tuple[int, tuple[int, ...]]]]):
        self.spec = spec
        self.transversal = transversal
        self.rules = rules  # symbol -> pattern labels -> (entry index, sigma)
        self._plans: dict[int, TablePlan] = {}

    def plan(self, n: int) -> "TablePlan":
        """The gather plan at carrier size n, built once per table."""
        if n not in self._plans:
            self._plans[n] = TablePlan(self, n)
        return self._plans[n]

    def drop_plan(self, n: int) -> None:
        self._plans.pop(n, None)


def build_dispatch(closure: ClosurePartition, transversal: Transversal,
                   sig: Signature | None = None) -> DispatchTable:
    """For each symbol and argument pattern mu: the transversal entry of
    the least term f(z) with kernel mu whose class is a transversal class,
    and its selector sigma (z's first position holding x_j, for j up to
    the entry's arity).  That term is the first hit of a search over the
    injective assignments of mu's blocks to variables in lex order: the
    assignment a gives z = (a[mu_1], ..., a[mu_d]), and since each block
    of mu first occurs before every later block, lex order of a is lex
    order of z, which is universe order.  The least term of each (symbol,
    kernel) key is f(mu + 1) itself.  sig, if given, must be the closure's
    signature; it is read from the closure."""
    facts = class_infos(closure)
    uni, root, key = closure.universe, facts.root, facts.key
    entries = transversal.entries
    entry_of = np.full(uni.size, -1)
    entry_of[[e.class_id for e in entries]] = np.arange(len(entries))
    marked = np.flatnonzero(entry_of[root] >= 0)
    least = np.full(int(key.max()) + 1, uni.size)
    hit = least.copy()
    np.minimum.at(least, key, np.arange(uni.size))
    np.minimum.at(hit, key[marked], marked)
    rules: dict[int, dict] = {sym: {} for sym in range(len(uni.sig))}
    for k in (np.flatnonzero(least[1:] < uni.size) + 1).tolist():  # key 0: the variables
        t, i = uni.term_at(int(least[k])), int(hit[k])
        mu = tuple(a - 1 for a in t.args)
        if i == uni.size:
            raise AssertionError(
                f"no transversal class reachable for symbol "
                f"{uni.sig.name(t.symbol)} pattern {mu}")
        z, ei = uni.term_at(i).args, int(entry_of[root[i]])
        rules[t.symbol][mu] = (ei, tuple(z.index(j) + 1 for j in range(1, entries[ei].d + 1)))
    rules = {sym: dict(sorted(per_sym.items())) for sym, per_sym in rules.items()}
    return DispatchTable(closure.spec, transversal, rules)


# ---------------------------------------------------------------------------
# Orbit key indexing per (transversal, n)


# tuples per block, rounded to whole leading values; NU-5's orbit index at
# n=14 built faster with 2^13 to 2^15 than with 2^17
BLOCK_ROWS = 1 << 15


def _lead(leads: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The tuples (a, x + (x >= a)) for each lead a in turn and each tuple
    x of rest in turn, one row per coordinate and one column per tuple.
    x -> x + (x >= a) keeps order, so lex-ordered injective rest over [m]
    gives lex-ordered injective tuples over [m + 1] for ascending leads."""
    out = np.empty((len(rest) + 1, len(leads), rest.shape[1]), dtype=leads.dtype)
    out[0] = leads[:, None]
    np.add(rest[:, None], rest[:, None] >= leads[:, None], out=out[1:])
    return out.reshape(len(out), -1)


def _injective(n: int, v: int) -> np.ndarray:
    """All injective v-tuples of [n] in lex order, as one block."""
    if v == 0:
        return np.zeros((0, 1), dtype=np.int64)
    return _lead(np.arange(n, dtype=np.int64), _injective(n - 1, v - 1))


def injective_blocks(n: int, v: int):
    """The injective v-tuples of [n] (v >= 1) in lex order, in blocks of
    whole leading values of about BLOCK_ROWS tuples each; a block is int64,
    one row per coordinate and one column per tuple."""
    if v > n:
        return
    rest = _injective(n - 1, v - 1)
    step = max(1, BLOCK_ROWS // rest.shape[1])
    for start in range(0, n, step):
        yield _lead(np.arange(start, min(n, start + step), dtype=np.int64), rest)


def _weights(n: int, mu) -> np.ndarray:
    """W_k = sum of n^(d-1-j) over the positions j with mu[j] = k, so
    W . b is the row-major code of the cell whose j-th argument
    is b[mu[j]]."""
    w = np.zeros(max(mu) + 1, dtype=np.int64)
    for j, k in enumerate(mu):
        w[k] += n ** (len(mu) - 1 - j)
    return w


def _least_code(column, group, n: int) -> np.ndarray:
    """The least base-n code over the G-images (u[g_1-1], ..., u[g_d-1]) of
    the tuples u whose j-th coordinates are column(j), taken one
    coordinate and one group element at a time."""
    def code(g):
        return functools.reduce(lambda c, p: c * n + column(p - 1), g, 0)
    return functools.reduce(np.minimum, map(code, group.elements))


def _least_tuples(n: int, group) -> np.ndarray:
    """The sorted base-n codes of the injective tuples of [n] that are
    least in their G-orbits, read-only."""
    weights = _weights(n, range(group.degree))
    codes = np.empty(math.perm(n, group.degree), dtype=np.int64)
    end = 0  # each block's codes are written after the kept ones
    for block in injective_blocks(n, group.degree):
        block_codes = np.matmul(weights, block, out=codes[end:end + block.shape[1]])
        kept = block_codes[_least_code(block.__getitem__, group, n) == block_codes]
        block_codes[:len(kept)] = kept
        end += len(kept)
        del block  # so that it is freed before the next one is built
    codes = codes[:end].copy()
    codes.flags.writeable = False
    return codes


def _lex_rank(column, d: int, n: int):
    """The lex rank among the injective d-tuples of [n] of the tuples u
    whose j-th coordinates are column(j):
    sum over j of (u_j - #{i < j : u_i < u_j}) * perm(n-1-j, d-1-j)."""
    u = [column(j) for j in range(d)]
    rank = 0
    for j in range(d):
        # n-1-j < 0 only when d > n, where there is no injective tuple
        weight = math.perm(max(n - 1 - j, 0), d - 1 - j)
        rank = rank + (u[j] - sum(u[i] < u[j] for i in range(j))) * weight
    return rank


class OrbitIndex:
    """The draw layout at a fixed carrier size: entries i >= 1 in
    transversal order, each with one position per canonical orbit key (the
    lex-least injective tuples under G_i), keys in lex order.  For a
    trivial G_i every injective tuple is its own key, so its position is
    its lex rank and the entry keeps only its offset and count.  For a
    nontrivial G_i the entry keeps the sorted base-n codes of its keys
    (base-n codes sort as the tuples do), shared by the entries with an
    equal group, and a tuple's position is a binary search for its least
    code over G_i."""

    def __init__(self, transversal: Transversal, n: int):
        tuples = sum(math.perm(n, e.d) for e in transversal.entries[1:])
        if tuples > DEFAULT_MAX_CELLS:
            raise BudgetError(f"orbit index at n={n} enumerates {tuples} "
                              f"injective tuples (budget {DEFAULT_MAX_CELLS})")
        self.n = n
        self.groups = [e.group for e in transversal.entries]
        least = {g: _least_tuples(n, g) for g in set(self.groups[1:]) if len(g) > 1}
        # per entry, its keys' codes, or None for a trivial group
        self.codes: list[np.ndarray | None] = [least.get(g) for g in self.groups]
        counts = [math.perm(n, g.degree) if c is None else len(c)
                  for g, c in zip(self.groups[1:], self.codes[1:])]
        *self.offsets, self.total = accumulate([0] + counts, initial=0)

    def locate(self, entry: int, column) -> np.ndarray:
        """Flat draw positions of the orbits of the injective tuples whose
        j-th coordinates are column(j)."""
        group, codes = self.groups[entry], self.codes[entry]
        if codes is None:
            return self.offsets[entry] + _lex_rank(column, group.degree, self.n)
        return self.offsets[entry] + np.searchsorted(codes, _least_code(column, group, self.n))

    def position(self, entry: int, U) -> np.ndarray:
        """Flat draw positions of the orbits of the injective tuples along
        the last axis of U."""
        U = np.asarray(U)
        return self.locate(entry, lambda j: U[..., j])

    def keys(self, entry: int) -> np.ndarray:
        """The canonical keys of an entry as rows, in draw order."""
        d = self.groups[entry].degree
        if self.codes[entry] is None:
            return _injective(self.n, d).T
        return np.stack(np.unravel_index(self.codes[entry], (self.n,) * d), axis=-1)


@functools.lru_cache(maxsize=None)
def orbit_index(transversal: Transversal, n: int) -> OrbitIndex:
    return OrbitIndex(transversal, n)


class Draws:
    """One sample's raw uniform draws, the stream
    Generator(PCG64(seed)).integers(0, n, size=count, dtype=int64),
    generated in order only as far as it is read.  draws[idx] first extends
    the stream past the largest position in idx, so a negative position
    (a variable cell of TablePlan, whose value is overwritten) makes
    nothing; np.asarray(draws) completes it, and so does a read past half
    of it, after which reads need no largest position.  The pieces of one
    generator's stream concatenate exactly to the one-shot stream, so
    every value read is the one-shot draw at its position."""

    def __init__(self, seed: int, n: int, count: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.n = n
        self.made = 0  # draws generated so far, the positions below it
        self._values = np.empty(count, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._values)

    def _extend(self, stop: int) -> None:
        if stop > self.made:
            if 2 * stop > len(self._values):
                stop = len(self._values)
            self._values[self.made:stop] = self._rng.integers(
                0, self.n, size=stop - self.made, dtype=np.int64)
            self.made = stop

    def __getitem__(self, idx) -> np.ndarray:
        if self.made < len(self._values):
            idx = np.asarray(idx)
            if idx.size:
                self._extend(int(idx.max()) + 1)
        return self._values[idx]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        self._extend(len(self._values))
        return np.array(self._values, dtype=dtype, copy=copy)


def draw_values(seed: int, n: int, count: int) -> Draws:
    """The raw uniform draws for one sample, in a fixed order."""
    return Draws(seed, n, count)


def sample_mfamily(transversal: Transversal, n: int, seed: int) -> MFamily:
    """Uniform family: every orbit key gets an independent uniform value.
    Total draws = p(n); the induced model distribution is uniform."""
    if n < 1:
        raise DomainError("n must be positive")
    total = orbit_index(transversal, n).total
    return MFamily(n, tuple(np.asarray(draw_values(seed, n, total)).tolist()))


def check_cells(sig: Signature, n: int) -> None:
    """Raise BudgetError if the tables on [n] need over DEFAULT_MAX_CELLS
    cells in all; checked before anything whose size grows with n."""
    cells = sum(n ** ar for _, ar in sig.symbols)
    if cells > DEFAULT_MAX_CELLS:
        name, ar = max(sig.symbols, key=lambda s: s[1])
        raise BudgetError(f"tables at n={n} need {cells} cells, {n ** ar} of "
                          f"them for {name} (budget {DEFAULT_MAX_CELLS})")


class TablePlan:
    """The compiled realizer for one (dispatch, n).  Per symbol: the flat
    draw position behind every table cell (row-major), and the cells the
    variable entry fills, with the argument each one selects.  At those
    cells pos holds the argument minus n, a position counted from the end
    of the layout, so flat[pos] stays in range and pos < 0 marks them.  A
    table is flat[pos] with those cells overwritten.  flat is an array or
    a sample's Draws: a negative position reads a value that is never used,
    so it makes no draw, and tables(flat) completes the stream once before
    it gathers whole tables."""

    def __init__(self, dispatch: DispatchTable, n: int):
        sig = dispatch.spec.signature
        check_cells(sig, n)
        self.n = n
        self.signature = sig
        self.oi = oi = orbit_index(dispatch.transversal, n)
        # per pattern mu with v blocks, its cells are W . b over the
        # injective v-tuples b in lex order (see _weights), ascending
        # because mu is a restricted growth string; each cell gets one
        # write.  Outside the variable entry the tuples c are enumerated with
        # the key's coordinates first (b[tau[k]] = c[k], cells W[tau] . c),
        # so c's first rows are the key, and for a trivial group each key
        # leads perm(n - d, v - d) tuples c in a row: tuple g of the
        # enumeration reads position offset + g // perm(n - d, v - d).
        by_v: dict[int, list] = {}
        symbols = []
        for sym in range(len(sig)):
            pos = np.empty(n ** sig.arity(sym), dtype=np.int64)
            rules = dispatch.rules[sym]
            var_cells = [[] for _ in rules]  # per pattern, in rule order
            for (mu, (entry, sigma)), out in zip(rules.items(), var_cells):
                weights = _weights(n, mu)
                # the block coordinate behind each coordinate of the key
                cols = [mu[s - 1] for s in sigma]
                if entry:
                    tau = cols + [k for k in range(len(weights)) if k not in cols]
                    weights = weights[tau]
                by_v.setdefault(len(weights), []).append((pos, weights, entry, cols, out))
            symbols.append((pos, var_cells, sig.arity(sym)))
        for v, patterns in sorted(by_v.items()):
            start = 0
            for block in injective_blocks(n, v):
                tuples = np.arange(start, start + block.shape[1])
                start += block.shape[1]
                for pos, weights, entry, cols, out in patterns:
                    cells = np.matmul(weights, block)
                    if entry == 0:
                        out.append(np.stack([cells, block[cols[0]]]))
                        pos[cells] = block[cols[0]] - n
                    elif oi.codes[entry] is None:
                        ext = math.perm(n - len(cols), v - len(cols))
                        pos[cells] = oi.offsets[entry] + tuples // ext
                    else:
                        pos[cells] = oi.locate(entry, block.__getitem__)
                del block  # so that it is freed before the next one is built
        self.symbols = []
        for pos, var_cells, d in symbols:
            pos.flags.writeable = False
            var_idx, var_arg = np.concatenate(
                [np.zeros((2, 0), dtype=np.int64)] + sum(var_cells, []), axis=1)
            self.symbols.append((pos, var_idx, var_arg, d))

    def _layout(self, flat):
        """flat, padded to n entries if shorter, so every pos is in range;
        padding completes a Draws stream, which is then shorter than n."""
        if len(flat) >= self.n:
            return flat
        return np.concatenate([flat, np.zeros(self.n - len(flat), dtype=np.int64)])

    def tables(self, flat) -> list[tuple[np.ndarray, int]]:
        """[(table, arity)] per symbol for the family laid out in flat."""
        flat = self._layout(np.asarray(flat))
        out = []
        for pos, var_idx, var_arg, d in self.symbols:
            table = flat[pos]
            table[var_idx] = var_arg
            out.append((table, d))
        return out

    def cells(self, flat) -> list[tuple["CellView", int]]:
        """[(cell view, arity)] per symbol: the tables of tables(flat),
        each cell gathered, and each draw behind it made, only when it is
        read."""
        flat = self._layout(flat)
        return [(CellView(pos, flat, self.n), d) for pos, _, _, d in self.symbols]

    def algebra(self, flat: np.ndarray) -> FiniteAlgebra:
        return FiniteAlgebra(self.n, self.signature, tuple(
            tuple(table.tolist()) for table, _ in self.tables(flat)))


class CellView:
    """One sample's table of one symbol, read by flat cell index: view[idx]
    is flat[pos[idx]] with the variable entry's cells, pos < 0, answered
    from pos (see TablePlan); on a sample's Draws, flat[pos[idx]] makes
    the draws up to the largest position read, none for pos < 0."""

    def __init__(self, pos: np.ndarray, flat, n: int):
        self.pos = pos
        self.flat = flat
        self.n = n

    def __getitem__(self, idx) -> np.ndarray:
        p = self.pos[idx]
        out = self.flat[p]
        np.copyto(out, p + self.n, where=p < 0)
        return out


def realize(dispatch: DispatchTable, mfamily: MFamily) -> FiniteAlgebra:
    """Gather the family's tables through the dispatch table's plan."""
    return dispatch.plan(mfamily.n).algebra(np.array(mfamily.values, dtype=np.int64))


def validate_model(spec: SystemSpec, algebra: FiniteAlgebra):
    """Check every identity on every assignment.  Returns (True, None) or
    (False, (identity index, assignment tuple))."""
    n = algebra.n

    def ev(term: LinearTerm, asg) -> int:
        if term.is_variable:
            return asg[term.args[0] - 1]
        return algebra.value(term.symbol, tuple(asg[a - 1] for a in term.args))

    for idx, ident in enumerate(spec.identities):
        nv = len(ident.variables())
        for asg in product(range(n), repeat=nv):
            if ev(ident.lhs, asg) != ev(ident.rhs, asg):
                return False, (idx, asg)
    return True, None


def enumerate_models(spec: SystemSpec, n: int, backend: str = "family", *,
                     closure: ClosurePartition | None = None):
    """Yield every model on [n].  The family backend iterates value
    assignments to orbit keys; the brute backend filters all tables by
    validation.  Both produce the same set."""
    if n < 1:
        raise DomainError("n must be positive")
    sig = spec.signature
    if backend == "family":
        if closure is None:
            closure = compute_closure(spec)
        transversal = canonical_transversal(closure)
        draws = p_of_k(parameters(transversal), n)
        if draws * math.log2(max(n, 2)) > 24:
            raise BudgetError(
                f"family enumeration of n^{draws} models at n={n} "
                "exceeds the ~16M budget")
        plan = build_dispatch(closure, transversal).plan(n)
        for combo in product(range(n), repeat=draws):
            yield plan.algebra(np.array(combo, dtype=np.int64))
    elif backend == "brute":
        cells = sum(n ** ar for _, ar in sig.symbols)
        if cells * math.log2(max(n, 2)) > 24:
            raise BudgetError(
                f"brute enumeration over {cells} cells at n={n} "
                "exceeds the ~16M budget")
        shapes = [n ** ar for _, ar in sig.symbols]
        for combo in product(range(n), repeat=cells):
            tables = []
            pos = 0
            for sz in shapes:
                tables.append(tuple(combo[pos:pos + sz]))
                pos += sz
            alg = FiniteAlgebra(n, sig, tuple(tables))
            if validate_model(spec, alg)[0]:
                yield alg
    else:
        raise ValueError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# Algebra JSON format


def algebra_to_json(algebra: FiniteAlgebra) -> str:
    ops = {name: {"arity": d, "table": list(table)}
           for (name, d), table in zip(algebra.signature.symbols, algebra.tables)}
    return json.dumps({"n": algebra.n, "operations": ops},
                      separators=(",", ":"))


def _json_typed(value, kind: type, path: str):
    """value if it has the JSON type kind (int, list or dict; a bool is no
    int), else a ParseError naming the field at path."""
    if type(value) is not kind:
        kind_name = {int: "an integer", list: "an array", dict: "an object"}[kind]
        raise ParseError(f"{path} must be {kind_name}, got {json.dumps(value)[:40]}")
    return value


def _json_object(pairs) -> dict:
    """A JSON object with no key repeated (json.loads keeps the last)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"the algebra document repeats the key {json.dumps(key)[:40]}")
        out[key] = value
    return out


def algebra_from_json(text: str) -> FiniteAlgebra:
    symbols, tables = [], []
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
        doc = _json_typed(doc, dict, "the algebra document")
        n = _json_typed(doc["n"], int, "n")
        for name, body in _json_typed(doc["operations"], dict, "operations").items():
            path = f"operations.{name}"
            body = _json_typed(body, dict, path)
            symbols.append((name, _json_typed(body["arity"], int, f"{path}.arity")))
            table = _json_typed(body["table"], list, f"{path}.table")
            bad = [v for v in table if type(v) is not int]
            if bad:
                raise ParseError(
                    f"{path}.table must hold integers, got {json.dumps(bad[0])[:40]}")
            tables.append(tuple(table))
        sig = Signature(tuple(symbols))
    except KeyError as exc:
        raise ParseError(f"algebra document lacks {exc}") from None
    except (ValueError, RecursionError) as exc:  # not JSON, nested too deep, bad name
        raise ParseError(f"malformed algebra document: {exc}") from None
    if n < 1:
        raise DomainError("algebra needs n >= 1")
    for (name, arity), table in zip(symbols, tables):
        # a table shorter than its arity is wrong for any n >= 2; saying so
        # first skips computing n ** arity for a huge declared arity
        if (n >= 2 and arity > len(table)) or len(table) != n ** arity:
            raise DomainError(f"table for {name!r} has wrong length")
        if any(not 0 <= v < n for v in table):
            raise DomainError(f"table for {name!r} has out-of-range values")
    return FiniteAlgebra(n, sig, tuple(tables))
