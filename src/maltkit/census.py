"""Seeded Monte Carlo census of property frequencies over uniform random
models, with exact finite-n or asymptotic theory comparison.

Determinism contract: sample j uses seed mix(master_seed, j) and its
draws are consumed in the fixed orbit-key order; samples 0..K-1 are
evaluated in order, so the report depends only on (system, n, K, seed,
properties).  A sample's draws are made in stream order only as far as
its decisions read them (factory.Draws), and each equals the draw at its
position in the whole stream, so reading fewer changes no value.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import checkers
from .analysis import canonical_transversal
from .closure import DEFAULT_MAX_VARS, checked_closure
from .errors import BudgetError, DomainError
from .factory import (
    TablePlan,
    build_dispatch,
    check_cells,
    draw_values,
    mix,
    orbit_index,
)
from .params import (
    asymptotic_table,
    fixed_subalgebra_probability,
    idemprimality_verdict,
    p_of_k,
    parameters,
)
from .terms import Signature, SystemSpec, render_system

MAX_N = 64
MAX_SAMPLES = 1_000_000
_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile
_HEAD_COLUMNS = 4  # subset draws tested for every subset before the rest


@dataclass(frozen=True)
class Experiment:
    system: SystemSpec
    n: int
    num_samples: int
    master_seed: int
    properties: tuple[str, ...]
    # {property: (registry entry, argument)}, parsed once here
    parsed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_samples < 1 or self.num_samples > MAX_SAMPLES:
            raise BudgetError(f"samples must be in 1..{MAX_SAMPLES}")
        if self.n < 1 or self.n > MAX_N:
            raise BudgetError(f"n must be in 1..{MAX_N}")
        if not self.properties:
            raise DomainError("at least one property required")
        object.__setattr__(self, "parsed", parse_properties(
            self.properties, self.system.signature, self.n))


@dataclass
class CensusRow:
    property: str
    successes: int
    frequency: float
    ci_low: float
    ci_high: float
    theory_kind: str   # exact_finite_n | asymptotic | open | none
    theory_value: float | None
    sigma_deviation: float | None


@dataclass
class CensusReport:
    system_label: str
    n: int
    num_samples: int
    master_seed: int
    rows: list[CensusRow]


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    z = _WILSON_Z
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def parse_fixed_b(prop: str, n: int | None = None) -> tuple[int, ...]:
    """fixedB=<elems>, elements in 0..n-1 joined by '+': fixedB=0+1."""
    body = prop.partition("=")[2]
    try:
        elems = tuple(sorted({int(x) for x in body.split("+")}))
    except ValueError:
        raise DomainError(f"cannot parse element list in {prop!r}") from None
    if any(e < 0 for e in elems):
        raise DomainError(f"negative element in {prop!r}")
    if n is not None and elems[-1] >= n:
        raise DomainError(f"{prop}: elements must be in 0..{n - 1}")
    return elems


# ---------------------------------------------------------------------------
# Per-(system, n) precomputation


class CensusEngine:
    """Everything derivable from the system alone, shared across samples."""

    def __init__(self, spec: SystemSpec, *, max_vars: int = DEFAULT_MAX_VARS):
        self.spec = spec
        self.closure = checked_closure(spec, max_vars=max_vars)
        self.transversal = canonical_transversal(self.closure)
        self.params = parameters(self.transversal)
        self.dispatch = build_dispatch(self.closure, self.transversal)
        text = render_system(spec)
        digest = hashlib.sha256(text.encode()).hexdigest()[:8]
        self.system_label = f"{spec.name or 'system'}#{digest}"

    def context(self, n: int) -> "_NContext":
        """A new context for carrier size n, which its census drops."""
        return _NContext(self, n)


class _NContext:
    """Index arrays for one carrier size: the draw layout (OrbitIndex),
    the table plan, and per-property gather arrays."""

    def __init__(self, engine: CensusEngine, n: int):
        check_cells(engine.spec.signature, n)
        self.engine = engine
        self.n = n
        self.oi = orbit_index(engine.transversal, n)
        self.total_draws = self.oi.total
        self._cache: dict = {}

    def realizer(self) -> TablePlan:
        """The dispatch table's gather plan at this carrier size."""
        return self.engine.dispatch.plan(self.n)

    def realize_np(self, flat: np.ndarray):
        return self.realizer().tables(flat)

    # -- family-level index arrays, built once per carrier size ----------

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _inside(self, S: np.ndarray) -> np.ndarray:
        """Row r: the draw positions of the keys with every argument in the
        sorted row S[r], entry by entry, each entry's in draw order.  The
        map j -> S[r][j] preserves order, so it carries the keys at carrier
        size k = len(S[r]) onto the keys inside S[r]."""
        inner = orbit_index(self.engine.transversal, S.shape[1])
        return np.concatenate([np.zeros((len(S), 0), dtype=np.int64)] + [
            self.oi.position(ei, S[:, inner.keys(ei)])
            for ei in range(1, len(self.engine.transversal))], axis=1)

    def _subset_arrays(self, k: int):
        S = np.array(list(combinations(range(self.n), k)), dtype=np.int64).reshape(-1, k)
        return self._inside(S), S

    def fixed_b_arrays(self, B: tuple[int, ...]):
        """The positions of the keys inside B, and B."""
        return self._cached(("fixedB", B), lambda: (
            self._inside(np.array([B], dtype=np.int64))[0],
            np.array(B, dtype=np.int64)))

    def pair_arrays(self):
        """(P, S): row i of P holds the positions of the keys inside the
        unordered pair S[i]; column c is draw position c at n = 2."""
        return self._cached("pairs", lambda: self._subset_arrays(2))

    def triple_arrays(self):
        """(P, S) as pair_arrays, over the 3-subsets."""
        return self._cached("triples", lambda: self._subset_arrays(3))

    def minority_arrays(self, symbol: int):
        """(feasible, FP, FV, MP, S): per unordered pair S[i], the draw
        positions forced to a minority value with those values, the
        membership draw positions, and whether the constant cells already
        match the minority pattern (see _minority_symbolic)."""
        def build():
            feasible, forced, member = _minority_symbolic(self.engine, symbol)
            P, S = self.pair_arrays()
            return (feasible, P[:, [c for c, _ in forced]],
                    S[:, [req for _, req in forced]], P[:, member], S)
        return self._cached(("minority", symbol), build)


def _in_rows(vals: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Whether each value lies in its row of S."""
    ok = np.zeros(vals.shape, dtype=bool)
    for c in range(S.shape[1]):
        ok |= vals == S[:, c, None]
    return ok


def _minority_symbolic(engine: CensusEngine, symbol: int):
    """Constraints for 'the pair {a,b} is a subuniverse and the designated
    symbol restricts to the minority operation on it', read off the
    symbol's cells at n = 2, whose draws are the keys over the symbolic
    pair (0,1).  Returns (feasible, forced, member) where forced is [(draw
    position at n = 2, required 0/1)] for the symbol's non-constant cells
    and member the other draw positions: each is read by another symbol's
    cell, whose value must lie in the pair."""
    if engine.spec.signature.arity(symbol) != 3:
        raise DomainError("minority2 needs a ternary designated symbol")
    plan = engine.dispatch.plan(2)
    forced: dict[int, int] = {}
    feasible = True
    want = list(checkers._minority_values(0, 1).values())
    # cells 1..6 are the non-constant ones; pos < 0 marks a variable cell,
    # which selects the argument pos + 2
    for p, req in zip(plan.symbols[symbol][0][1:-1].tolist(), want[1:-1]):
        feasible &= (p + 2 if p < 0 else forced.setdefault(p, req)) == req
    member = [c for c in range(plan.oi.total) if c not in forced]
    return feasible, sorted(forced.items()), member


def minority_pair_probability(engine: CensusEngine, symbol: int, n: int):
    """Exact per-pair probability that a fixed pair is a minority
    subalgebra of the designated symbol, from the independent-draw
    structure; identical for every pair."""
    feasible, forced, member = _minority_symbolic(engine, symbol)
    if not feasible:
        return 0.0
    return (1.0 / n) ** len(forced) * (2.0 / n) ** len(member)


# ---------------------------------------------------------------------------
# Per-sample evaluation


class _SampleEval:
    """One sample's property values, each decided once.  parsed maps
    property strings to (registry entry, argument); others are looked up."""

    def __init__(self, ctx: _NContext, flat: np.ndarray, parsed: dict):
        self.ctx = ctx
        self.flat = flat
        self.parsed = parsed
        self._memo: dict = {}

    def _tabs(self):
        if "tabs" not in self._memo:
            self._memo["tabs"] = self.ctx.realize_np(self.flat)
        return self._memo["tabs"]

    def _cells(self):
        """The tables if a property has realized them, else the plan's cell
        views, which gather only the cells a checker reads."""
        return self._memo.get("tabs") or self.ctx.realizer().cells(self.flat)

    def evaluate(self, prop: str) -> bool:
        if prop not in self._memo:
            entry, arg = self.parsed.get(prop) or (PROPERTIES[prop], None)
            if self.ctx.n < entry.min_n:
                val = False
            elif entry.family is not None:
                val = entry.family(self, arg)
            else:
                val = entry.table(self._tabs(), self.ctx.n, arg)[0]
            self._memo[prop] = val
        return self._memo[prop]


def _designated_ternary(sig: Signature, prop: str) -> int:
    """The symbol minority2[=name] designates: the named one, which must be
    ternary, or else the first ternary symbol."""
    name = prop.partition("=")[2]
    for sym, (nm, ar) in enumerate(sig.symbols):
        if ar == 3 and (not name or nm == name):
            return sym
    if name:
        raise DomainError(f"{prop}: {name!r} is not a ternary symbol of "
                          "the system")
    raise DomainError("minority2 needs a ternary symbol in the signature")


# ---------------------------------------------------------------------------
# Property registry


@dataclass(frozen=True)
class Property:
    """One census/check property.  `check` decides it with `table` on an
    algebra's tables; the census uses `family` on a sample's flat draws
    when there is one, else `table` on the realized tables.  Below min_n
    it is False (an error if strict): every subalgebra counted is proper,
    as the exact theory assumes."""
    name: str
    min_n: int
    table: Callable      # (tabs, n, arg) -> (holds, witness)
    theory: Callable     # (engine, arg, n) -> (theory_kind, value)
    family: Callable | None = None   # (_SampleEval, arg) -> holds
    prewarm: tuple[str, ...] = ()    # _NContext builders, given arg if any
    parse: Callable | None = None    # (prop, signature, n) -> arg
    strict: bool = False

    def decide(self, tabs, n: int, arg):
        return (False, None) if n < self.min_n else self.table(tabs, n, arg)


def _found(search):
    """A table evaluator from a checker internal (tabs, n[, arg]) returning
    a witness or None: the property holds when there is a witness."""
    def table(tabs, n, arg):
        witness = search(tabs, n, *(() if arg is None else (arg,)))
        return witness is not None, witness
    return table


def _subsets(k: int, arrays: str) -> Property:
    """subalg<k>: some k-element subset is a proper subalgebra."""
    def family(ev, _):
        P, S = getattr(ev.ctx, arrays)()
        # a draw lands in its subset with probability k/n, so few rows
        # survive the first columns; only those are gathered further
        live = np.flatnonzero(_in_rows(ev.flat[P[:, :_HEAD_COLUMNS]], S).all(axis=1))
        if len(live) and P.shape[1] > _HEAD_COLUMNS:
            live = live[_in_rows(ev.flat[P[live, _HEAD_COLUMNS:]], S[live]).all(axis=1)]
        return bool(len(live))

    def theory(engine, _, n):
        if engine.params.d_M >= k:  # below d_M, p(k) = 0 makes this 1
            single = (k / n) ** p_of_k(engine.params, k)
            return "exact_finite_n", 1.0 - (1.0 - single) ** math.comb(n, k)
        _, _, value = asymptotic_table(engine.params)[2]  # d_M >= 2, so k = d_M + 1
        return ("open", None) if value is None else ("asymptotic", value)

    return Property(f"subalg{k}", k + 1,
                    _found(lambda tabs, n: next(checkers._subalgebras(tabs, n, k), None)),
                    theory, family=family, prewarm=(arrays,))


def _subalg_gt1_family(ev, _):
    # a 2-element subalgebra is the cheap witness; else pair closures
    return (ev.evaluate("subalg2")
            or checkers._pair_generated_proper(ev._tabs(), ev.ctx.n) is not None)


def _subalg_gt1_theory(engine, _, n):
    """A proper subalgebra of size > 1 is the only obstruction to
    idemprimality that survives in the limit."""
    return "asymptotic", 1.0 - idemprimality_verdict(engine.params).limit_probability


def _rigid_theory(engine, _, n):
    """Automorphisms and crosses vanish asymptotically when d_M = 2."""
    return ("asymptotic", 0.0) if engine.params.d_M == 2 else ("none", None)


def _idemprimal_table(tabs, n, _):
    obstruction = checkers._idemprimal_obstruction(tabs, n)
    return obstruction is None, obstruction


def _minority2_family(ev, symbol):
    feasible, FP, FV, MP, S = ev.ctx.minority_arrays(symbol)
    return feasible and bool(((ev.flat[FP] == FV).all(axis=1)
                              & _in_rows(ev.flat[MP], S).all(axis=1)).any())


def _minority2_theory(engine, symbol, n):
    single = minority_pair_probability(engine, symbol, n)
    return "exact_finite_n", 1.0 - (1.0 - single) ** math.comb(n, 2)


def _fixed_b_table(tabs, n, B):
    bad = checkers._subuniverse(tabs, n, B)
    return bad is None, None if bad is None else list(bad[1])


def _fixed_b_family(ev, B):
    positions, elems = ev.ctx.fixed_b_arrays(B)
    return bool(np.isin(ev.flat[positions], elems).all())


def _fixed_b_theory(engine, B, n):
    return "exact_finite_n", float(fixed_subalgebra_probability(engine.params, len(B), n))


PROPERTIES = {p.name: p for p in (
    _subsets(2, "pair_arrays"),
    _subsets(3, "triple_arrays"),
    Property("subalgGT1", 3, _found(checkers._pair_generated_proper),
             _subalg_gt1_theory,
             family=_subalg_gt1_family, prewarm=("realizer", "pair_arrays")),
    Property("automorphism", 2, _found(checkers._nontrivial_automorphism),
             _rigid_theory, prewarm=("realizer",)),
    Property("cross", 2, _found(checkers._any_cross), _rigid_theory,
             family=lambda ev, _: checkers._any_cross(ev._cells(), ev.ctx.n) is not None,
             prewarm=("realizer",)),
    Property("idemprimal", 3, _idemprimal_table,
             lambda engine, _, n: ("asymptotic", idemprimality_verdict(
                 engine.params).limit_probability),
             # Szendrei's obstructions, each memoized as its own property
             family=lambda ev, _: not any(ev.evaluate(name) for name in
                                          ("subalgGT1", "automorphism", "cross")),
             prewarm=("realizer", "pair_arrays"), strict=True),
    Property("minority2", 2, _found(checkers._minority_pair), _minority2_theory,
             family=_minority2_family, prewarm=("minority_arrays",),
             parse=lambda prop, sig, n: _designated_ternary(sig, prop)),
    Property("fixedB", 1, _fixed_b_table, _fixed_b_theory,
             family=_fixed_b_family, prewarm=("fixed_b_arrays",),
             parse=lambda prop, sig, n: parse_fixed_b(prop, n)),
)}


def parse_properties(props, sig: Signature, n: int) -> dict:
    """{property string: (registry entry, argument)}, validated against the
    signature and carrier size.  Unknown or repeated properties and
    arguments out of range raise DomainError."""
    out, seen = {}, {}
    for prop in props:
        name, eq, _ = prop.partition("=")
        entry = PROPERTIES.get(name)
        if entry is None or (eq and entry.parse is None):
            raise DomainError(f"unknown property {prop!r}")
        if entry.strict and n < entry.min_n:
            raise DomainError(f"{name} needs n >= {entry.min_n}")
        arg = entry.parse(prop, sig, n) if entry.parse else None
        if (name, arg) in seen:
            raise DomainError(f"property {prop!r} repeats {seen[name, arg]!r}")
        seen[name, arg] = prop
        out[prop] = entry, arg
    return out


def theory_for(engine: CensusEngine, prop: str, n: int):
    """(theory_kind, value) for a property at carrier size n."""
    entry, arg = parse_properties((prop,), engine.spec.signature, n)[prop]
    if n < entry.min_n:
        return "exact_finite_n", 0.0  # the property never holds
    return entry.theory(engine, arg, n)


# ---------------------------------------------------------------------------
# Drivers


def run_census(experiment: Experiment, engine: CensusEngine | None = None) -> CensusReport:
    if engine is None:
        engine = CensusEngine(experiment.system)
    ctx = engine.context(experiment.n)
    props, parsed = experiment.properties, experiment.parsed
    # build the index arrays before the first sample
    for entry, arg in parsed.values():
        for name in entry.prewarm:
            getattr(ctx, name)(*(() if arg is None else (arg,)))

    totals = {p: 0 for p in props}
    for j in range(experiment.num_samples):
        flat = draw_values(mix(experiment.master_seed, j),
                           experiment.n, ctx.total_draws)
        ev = _SampleEval(ctx, flat, parsed)
        for p in props:
            if ev.evaluate(p):
                totals[p] += 1

    rows = []
    N = experiment.num_samples
    for p in props:
        succ = totals[p]
        freq = succ / N
        lo, hi = wilson_interval(succ, N)
        kind, value = theory_for(engine, p, experiment.n)
        sigma = None
        if value is not None:
            sd = math.sqrt(value * (1.0 - value) / N)
            if sd > 0:
                sigma = (freq - value) / sd
            else:
                sigma = 0.0 if freq == value else math.inf
        rows.append(CensusRow(p, succ, freq, lo, hi, kind, value, sigma))
    return CensusReport(engine.system_label, experiment.n, N,
                        experiment.master_seed, rows)


def sweep_census(spec: SystemSpec, n_list, samples: int, seed: int,
                 properties) -> list[CensusReport]:
    """One census per n, sub-seeded by mix(seed, n), one n's plan and draw
    layout held at a time."""
    engine = CensusEngine(spec)
    out = []
    for n in n_list:
        exp = Experiment(spec, n, samples, mix(seed, n), tuple(properties))
        out.append(run_census(exp, engine))
        engine.dispatch.drop_plan(n)
        orbit_index.cache_clear()
    return out


# ---------------------------------------------------------------------------
# CSV output


CSV_HEADER = ["system", "n", "samples", "master_seed", "property",
              "successes", "frequency", "ci_low", "ci_high",
              "theory_kind", "theory_value", "sigma_deviation"]


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return format(x, ".10g")


def write_csv(reports, out) -> None:
    """RFC-4180 CSV with '\\n' line endings and 10-significant-digit
    floats.  reports may be one CensusReport or a list."""
    if isinstance(reports, CensusReport):
        reports = [reports]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rep in reports:
        for row in rep.rows:
            writer.writerow([
                rep.system_label, rep.n, rep.num_samples, rep.master_seed,
                row.property, row.successes, _fmt(row.frequency),
                _fmt(row.ci_low), _fmt(row.ci_high), row.theory_kind,
                _fmt(row.theory_value), _fmt(row.sigma_deviation),
            ])
