"""Numeric parameters of a system and the probability formulas they drive.

From the transversal we read off d_M (least essential arity above 1) and
the multiset of (d_i, q_i); everything else here is arithmetic on those:
p(k), the exact probability that a fixed subset is a subuniverse, the
asymptotic table of proper subalgebras by size, the idemprimality
verdict, and the tail diagnostic zeta/murskii_tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import Transversal
from .errors import DomainError


@dataclass(frozen=True)
class Parameters:
    d_M: int
    entries: tuple[tuple[int, int], ...]  # (d_i, q_i), sorted by d_i, entry 0 excluded

    def __post_init__(self):
        if self.d_M < 2:
            raise ValueError("d_M must be at least 2")
        if list(self.entries) != sorted(self.entries):
            raise ValueError("entries must be sorted by essential arity")
        if self.d_M != self.entries[0][0]:
            raise ValueError("d_M must equal the least entry arity")


def parameters(transversal: Transversal) -> Parameters:
    entries = sorted((e.d, e.q) for e in transversal.entries if e.d > 1)
    if not entries:
        raise DomainError(
            "no transversal entry with more than one essential variable; "
            "every linear term is trivial")
    return Parameters(d_M=entries[0][0], entries=tuple(entries))


def p_of_k(params: Parameters, k: int) -> int:
    """p(k) = sum of q_i * C(k, d_i); the number of independent uniform
    values fixing a model on a k-element carrier."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return sum(q * math.comb(k, d) for d, q in params.entries)


def fixed_subalgebra_probability(params: Parameters, k: int, n: int) -> Fraction:
    """Probability that a fixed k-element subset of an n-element carrier is
    a subuniverse of a uniform random model: (k/n) ** p(k).  It is 1 when
    k < d_M, where p(k) = 0, and when k = n."""
    if k > n:
        raise DomainError("k cannot exceed n")
    return Fraction(k, n) ** p_of_k(params, k)


def asymptotic_table(params: Parameters) -> list[tuple[str, str, float | None]]:
    """Limiting probability of a proper subalgebra of each size class, as
    four (size, text, value) rows: below d_M, at d_M, at d_M + 1 and above.
    value is None where the limit is open."""
    d = params.d_M
    p_d = p_of_k(params, d)
    if p_d < d:
        at_d = ("1", 1.0)
    elif p_d == d:
        at_d = (f"1-exp(-{d}^{d}/{d}!)", 1.0 - math.exp(-(d ** d) / math.factorial(d)))
    else:
        at_d = ("0", 0.0)
    if p_d > 1 or any(di == d + 1 for di, _ in params.entries):
        at_d1 = ("0", 0.0)
    else:
        at_d1 = ("open", None)
    return [(f"< {d}", "1", 1.0), (f"= {d}", *at_d), (f"= {d + 1}", *at_d1),
            (f">= {d + 2}", "0", 0.0)]


@dataclass(frozen=True)
class IdemprimalityVerdict:
    almost_surely: bool
    limit_probability: float  # exact value in {1, e^{-2}, 0}
    limit_label: str          # "1", "exp(-2)", or "0"
    justification: tuple[str, ...]


def idemprimality_verdict(params: Parameters) -> IdemprimalityVerdict:
    """Limiting probability that a uniform random model is idemprimal.

    Idemprimality of a finite idempotent algebra of size > 2 is equivalent
    to: no proper subalgebra of size > 1, trivial automorphism group, and
    no compatible cross.  Nontrivial automorphisms and compatible crosses
    vanish asymptotically whenever a nontrivial binary term exists, so the
    verdict reduces to the 2-element-subalgebra count p(2)."""
    d = params.d_M
    p2 = p_of_k(params, 2)
    just = [f"minimal essential arity d_M = {d}", f"p(2) = {p2}"]
    if d == 2 and p2 > 2:
        just.append("p(2) > 2: no 2-element subalgebra asymptotically")
        just.append("larger proper subalgebras vanish asymptotically (p(k) grows faster than k)")
        just.append("a nontrivial binary term exists, so nontrivial automorphisms "
                    "and compatible crosses have limiting probability 0")
        return IdemprimalityVerdict(True, 1.0, "1", tuple(just))
    if d == 2 and p2 == 2:
        just.append("p(2) = 2: a 2-element subalgebra exists with limiting "
                    "probability 1 - exp(-2), and is the only surviving obstruction")
        just.append("the recurrence forces p(3) >= 6 > 3, so size-3 subalgebras vanish")
        just.append("automorphisms and crosses vanish as above")
        return IdemprimalityVerdict(False, math.exp(-2), "exp(-2)", tuple(just))
    if d >= 3:
        just.append("d_M >= 3: every 2-element subset is a subuniverse, "
                    "so proper subalgebras of size > 1 always exist")
    else:
        just.append("p(2) = 1: a 2-element subalgebra exists almost surely")
    return IdemprimalityVerdict(False, 0.0, "0", tuple(just))


def zeta(n: int, k: int) -> float:
    """C(n,k) * (k/n) ** C(k,2), evaluated in the log domain."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        return 1.0
    log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log_binom + math.comb(k, 2) * math.log(k / n))


def murskii_tail(n: int) -> float:
    """Sum of zeta(n, k) for k = 4 .. n-1; a diagnostic upper-bound tail
    that tends to 0 as n grows."""
    if n < 5:
        raise ValueError("n must be at least 5")
    return sum(zeta(n, k) for k in range(4, n))
