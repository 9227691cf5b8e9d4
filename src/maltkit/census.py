"""Seeded Monte Carlo census of property frequencies over uniform random
models, with exact finite-n or asymptotic theory comparison.

Determinism contract: sample j uses seed mix(master_seed, j); draws are
consumed in the fixed orbit-key order; sample indices are split
round-robin across workers and aggregated by commutative integer
addition, so the report is byte-identical for any thread count.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import io
import math
import threading
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from . import checkers
from .analysis import canonical_transversal
from .closure import compute_closure, validate_assumptions
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
from .terms import Signature, SystemSpec, pattern_of, render_system

MAX_N = 64
MAX_SAMPLES = 1_000_000
MAX_THREADS = 64
_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile

KNOWN_PROPERTIES = ("subalg2", "subalg3", "subalgGT1", "automorphism",
                    "cross", "idemprimal", "minority2")


@dataclass(frozen=True)
class Experiment:
    system: SystemSpec
    n: int
    num_samples: int
    master_seed: int
    properties: tuple[str, ...]
    threads: int = 1

    def __post_init__(self):
        if self.num_samples < 1 or self.num_samples > MAX_SAMPLES:
            raise BudgetError(f"samples must be in 1..{MAX_SAMPLES}")
        if self.n < 1 or self.n > MAX_N:
            raise BudgetError(f"n must be in 1..{MAX_N}")
        if self.threads < 1 or self.threads > MAX_THREADS:
            raise BudgetError(f"threads must be in 1..{MAX_THREADS}")
        if not self.properties:
            raise DomainError("at least one property required")
        for p in self.properties:
            name = p.split("=", 1)[0]
            if name == "fixedB":
                if any(e >= self.n for e in parse_fixed_b(p)):
                    raise DomainError(f"{p}: elements must be in "
                                      f"0..{self.n - 1}")
            elif name == "minority2":
                _designated_ternary(self.system.signature, p)
            elif p not in KNOWN_PROPERTIES:
                raise DomainError(f"unknown property {p!r}")
        if "idemprimal" in self.properties and self.n < 3:
            raise DomainError("idemprimality census needs n >= 3")


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


def parse_fixed_b(prop: str) -> tuple[int, ...]:
    """fixedB=<elems>, non-negative elements joined by '+': fixedB=0+1."""
    body = prop.partition("=")[2]
    try:
        elems = tuple(sorted({int(x) for x in body.split("+")}))
    except ValueError:
        raise DomainError(f"cannot parse element list in {prop!r}") from None
    if any(e < 0 for e in elems):
        raise DomainError(f"negative element in {prop!r}")
    return elems


# ---------------------------------------------------------------------------
# Per-(system, n) precomputation


class CensusEngine:
    """Everything derivable from the system alone, shared across samples."""

    def __init__(self, spec: SystemSpec, **closure_opts):
        report = validate_assumptions(spec, **closure_opts)
        if not report.ok:
            raise DomainError(f"system fails the standing assumptions: {report.detail}")
        self.spec = spec
        self.closure = compute_closure(spec, **closure_opts)
        self.transversal = canonical_transversal(self.closure)
        self.params = parameters(self.transversal)
        self.dispatch = build_dispatch(self.closure, self.transversal)
        text = render_system(spec)
        digest = hashlib.sha256(text.encode()).hexdigest()[:8]
        self.system_label = f"{spec.name or 'system'}#{digest}"
        self._nctx: dict[int, _NContext] = {}
        self._lock = threading.Lock()

    def context(self, n: int) -> "_NContext":
        with self._lock:
            ctx = self._nctx.get(n)
            if ctx is None:
                ctx = _NContext(self, n)
                self._nctx[n] = ctx
        return ctx


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

    # -- family-level index arrays ---------------------------------------

    def _binary_entries(self):
        return [i for i, e in enumerate(self.engine.transversal.entries)
                if i >= 1 and e.d == 2]

    def fixed_b_arrays(self, B: tuple[int, ...]):
        key = ("fixedB", B)
        if key not in self._cache:
            positions = []
            for ei, e in enumerate(self.engine.transversal.entries[1:], start=1):
                positions.extend(sorted({self.oi.position(ei, u)
                                         for u in permutations(B, e.d)}))
            self._cache[key] = (np.array(positions, dtype=np.int64),
                                np.array(sorted(B), dtype=np.int64))
        return self._cache[key]

    def pair_arrays(self):
        """Positions of the binary-entry keys inside each unordered pair."""
        if "pairs" not in self._cache:
            n = self.n
            pairs = list(combinations(range(n), 2))
            cols = []
            for a, b in pairs:
                row = []
                for ei in self._binary_entries():
                    row.extend(sorted({self.oi.position(ei, (a, b)),
                                       self.oi.position(ei, (b, a))}))
                cols.append(row)
            P = np.array(cols, dtype=np.int64) if cols and cols[0] else \
                np.zeros((len(pairs), 0), dtype=np.int64)
            A = np.array([p[0] for p in pairs], dtype=np.int64)
            B = np.array([p[1] for p in pairs], dtype=np.int64)
            self._cache["pairs"] = (P, A, B)
        return self._cache["pairs"]

    def triple_arrays(self):
        """Positions of all keys with d_i <= 3 inside each 3-subset."""
        if "triples" not in self._cache:
            n = self.n
            triples = list(combinations(range(n), 3))
            cols = []
            for sub in triples:
                row = []
                for ei, e in enumerate(self.engine.transversal.entries[1:], start=1):
                    row.extend(sorted({self.oi.position(ei, u)
                                       for u in permutations(sub, e.d)}))
                cols.append(row)
            P = np.array(cols, dtype=np.int64) if cols and cols[0] else \
                np.zeros((len(triples), 0), dtype=np.int64)
            S = np.array(triples, dtype=np.int64)
            self._cache["triples"] = (P, S)
        return self._cache["triples"]

    def minority_arrays(self, symbol: int):
        """Per unordered pair: forced-value draw positions with required
        values, membership draw positions, and whether the constant cells
        already match the minority pattern (see _minority_symbolic)."""
        key = ("minority", symbol)
        if key not in self._cache:
            feasible, forced, member = _minority_symbolic(self.engine, symbol)
            n = self.n
            pairs = list(combinations(range(n), 2))
            fpos, fval, mpos = [], [], []
            for a, b in pairs:
                frow, vrow = [], []
                for ei, key01, req01 in forced:
                    actual = tuple(a if x == 0 else b for x in key01)
                    frow.append(self.oi.position(ei, actual))
                    vrow.append(a if req01 == 0 else b)
                mrow = []
                for ei, key01 in member:
                    actual = tuple(a if x == 0 else b for x in key01)
                    mrow.append(self.oi.position(ei, actual))
                fpos.append(frow)
                fval.append(vrow)
                mpos.append(mrow)
            def arr(rows):
                if rows and rows[0]:
                    return np.array(rows, dtype=np.int64)
                return np.zeros((len(pairs), 0), dtype=np.int64)

            A = np.array([p[0] for p in pairs], dtype=np.int64)
            B = np.array([p[1] for p in pairs], dtype=np.int64)
            self._cache[key] = (feasible, arr(fpos), arr(fval), arr(mpos), A, B)
        return self._cache[key]


def _minority_symbolic(engine: CensusEngine, symbol: int):
    """Constraints for 'the pair {a,b} is a subuniverse and the designated
    symbol restricts to the minority operation on it', expressed over a
    symbolic pair (0,1).  Returns (feasible, forced, member) where forced
    is [(entry, key over {0,1}, required 0/1)] for the minority cells and
    member is [(entry, key)] for the other symbols' closure cells."""
    sig = engine.spec.signature
    if sig.arity(symbol) != 3:
        raise DomainError("minority2 needs a ternary designated symbol")
    # orbit keys over the symbolic pair {0, 1}
    canon = orbit_index(engine.transversal, 2).canonical

    forced: dict[tuple, int] = {}
    member: set[tuple] = set()
    feasible = True
    want = checkers._minority_values(0, 1)
    for sym in range(len(sig)):
        d = sig.arity(sym)
        for args in product((0, 1), repeat=d):
            if len(set(args)) == 1:
                continue  # idempotent cell, always fine
            entry, sigma = engine.dispatch.rules[sym][pattern_of(args).labels]
            if sym == symbol:
                req = want[args]
                if entry == 0:
                    if args[sigma[0] - 1] != req:
                        feasible = False
                else:
                    k = (entry, canon(entry, tuple(args[s - 1] for s in sigma)))
                    if k in forced and forced[k] != req:
                        feasible = False
                    forced[k] = req
            else:
                if entry == 0:
                    continue  # value is one of a, b already
                k = (entry, canon(entry, tuple(args[s - 1] for s in sigma)))
                member.add(k)
    member -= set(forced)  # forced values are already in the pair
    forced_list = sorted((ei, k, v) for (ei, k), v in forced.items())
    member_list = sorted(member)
    return feasible, forced_list, member_list


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
    def __init__(self, ctx: _NContext, flat: np.ndarray):
        self.ctx = ctx
        self.flat = flat
        self._memo: dict = {}

    def _tabs(self):
        if "tabs" not in self._memo:
            self._memo["tabs"] = self.ctx.realize_np(self.flat)
        return self._memo["tabs"]

    def evaluate(self, prop: str) -> bool:
        if prop in self._memo:
            return self._memo[prop]
        val = self._evaluate(prop)
        self._memo[prop] = val
        return val

    def _evaluate(self, prop: str) -> bool:
        ctx, n, flat = self.ctx, self.ctx.n, self.flat
        if prop.startswith("fixedB="):
            positions, B = ctx.fixed_b_arrays(parse_fixed_b(prop))
            if len(positions) == 0:
                return True
            return bool(np.isin(flat[positions], B).all())
        if prop == "subalg2":
            if n < 3:
                return False  # no proper subalgebra of size 2 exists
            P, A, B = ctx.pair_arrays()
            if P.shape[1] == 0:
                return True
            vals = flat[P]
            ok = (vals == A[:, None]) | (vals == B[:, None])
            return bool(ok.all(axis=1).any())
        if prop == "subalg3":
            if n < 4:
                return False
            P, S = ctx.triple_arrays()
            if P.shape[1] == 0:
                return True
            vals = flat[P]
            ok = np.zeros(vals.shape, dtype=bool)
            for c in range(3):
                ok |= vals == S[:, c][:, None]
            return bool(ok.all(axis=1).any())
        if prop == "subalgGT1":
            if n < 3:
                return False
            if self.evaluate("subalg2"):
                return True
            return checkers._pair_generated_proper(self._tabs(), n) is not None
        if prop == "automorphism":
            if n == 1:
                return False
            tabs = self._tabs()
            ident = tuple(range(n))
            for perm in checkers._automorphism_search(tabs, n, find_all=False):
                if perm != ident:
                    return True
            return False
        if prop == "cross":
            return checkers._any_cross_np(self._tabs(), n) is not None
        if prop == "idemprimal":
            return (not self.evaluate("subalgGT1")
                    and not self.evaluate("automorphism")
                    and not self.evaluate("cross"))
        if prop == "minority2" or prop.startswith("minority2="):
            symbol = _designated_ternary(ctx.engine.spec.signature, prop)
            feasible, FP, FV, MP, A, B = ctx.minority_arrays(symbol)
            if not feasible:
                return False
            ok = np.ones(len(A), dtype=bool)
            if FP.shape[1]:
                ok &= (flat[FP] == FV).all(axis=1)
            if MP.shape[1]:
                mv = flat[MP]
                ok &= ((mv == A[:, None]) | (mv == B[:, None])).all(axis=1)
            return bool(ok.any())
        raise DomainError(f"unknown property {prop!r}")


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
# Theory registry


def theory_for(engine: CensusEngine, prop: str, n: int):
    """(theory_kind, value) for a property at carrier size n."""
    params = engine.params
    d = params.d_M
    if prop.startswith("fixedB="):
        B = parse_fixed_b(prop)
        k = len(B)
        if k < d or k == n:
            return "exact_finite_n", 1.0
        if k > n:
            return "none", None
        return "exact_finite_n", float(fixed_subalgebra_probability(params, k, n))
    if prop == "subalg2":
        if n < 3:
            return "exact_finite_n", 0.0
        if d > 2:
            return "exact_finite_n", 1.0
        single = (2 / n) ** p_of_k(params, 2)
        return "exact_finite_n", 1.0 - (1.0 - single) ** math.comb(n, 2)
    if prop == "subalg3":
        if n < 4:
            return "exact_finite_n", 0.0
        if d > 3:
            return "exact_finite_n", 1.0
        if d == 3:
            single = (3 / n) ** p_of_k(params, 3)
            return "exact_finite_n", 1.0 - (1.0 - single) ** math.comb(n, 3)
        cell = asymptotic_table(params).at_d_plus_1
        if cell.kind == "open":
            return "open", None
        return "asymptotic", cell.as_float()
    if prop == "subalgGT1":
        if d >= 3:
            return "asymptotic", 1.0
        p2 = p_of_k(params, 2)
        if p2 > 2:
            return "asymptotic", 0.0
        if p2 == 2:
            return "asymptotic", 1.0 - math.exp(-2.0)
        return "asymptotic", 1.0
    if prop == "automorphism":
        return ("asymptotic", 0.0) if d == 2 else ("none", None)
    if prop == "cross":
        return ("asymptotic", 0.0) if d == 2 else ("none", None)
    if prop == "idemprimal":
        return "asymptotic", idemprimality_verdict(params).limit_probability
    if prop == "minority2" or prop.startswith("minority2="):
        symbol = _designated_ternary(engine.spec.signature, prop)
        single = minority_pair_probability(engine, symbol, n)
        return "exact_finite_n", 1.0 - (1.0 - single) ** math.comb(n, 2)
    return "none", None


# ---------------------------------------------------------------------------
# Drivers


def run_census(experiment: Experiment, engine: CensusEngine | None = None) -> CensusReport:
    if engine is None:
        engine = CensusEngine(experiment.system)
    ctx = engine.context(experiment.n)
    props = experiment.properties
    # build shared index arrays before the workers start
    needs_tables = any(p in ("subalgGT1", "automorphism", "cross", "idemprimal")
                       for p in props)
    if needs_tables:
        ctx.realizer()
    needs_pairs = any(p in ("subalg2", "subalgGT1", "idemprimal") for p in props)
    if needs_pairs:
        ctx.pair_arrays()
    if "subalg3" in props:
        ctx.triple_arrays()
    for p in props:
        if p == "minority2" or p.startswith("minority2="):
            ctx.minority_arrays(_designated_ternary(engine.spec.signature, p))
        if p.startswith("fixedB="):
            ctx.fixed_b_arrays(parse_fixed_b(p))

    def worker(start: int) -> dict[str, int]:
        counts = {p: 0 for p in props}
        for j in range(start, experiment.num_samples, experiment.threads):
            flat = draw_values(mix(experiment.master_seed, j),
                               experiment.n, ctx.total_draws)
            ev = _SampleEval(ctx, flat)
            for p in props:
                if ev.evaluate(p):
                    counts[p] += 1
        return counts

    if experiment.threads <= 1:
        totals = worker(0)
    else:
        totals = {p: 0 for p in props}
        with concurrent.futures.ThreadPoolExecutor(max_workers=experiment.threads) as ex:
            for counts in ex.map(worker, range(experiment.threads)):
                for p, c in counts.items():
                    totals[p] += c

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
                 properties, threads: int = 1) -> list[CensusReport]:
    """One census per n, sub-seeded by mix(seed, n)."""
    engine = CensusEngine(spec)
    out = []
    for n in n_list:
        exp = Experiment(spec, n, samples, mix(seed, n), tuple(properties),
                         threads)
        out.append(run_census(exp, engine))
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


def csv_text(reports) -> str:
    buf = io.StringIO()
    write_csv(reports, buf)
    return buf.getvalue()
