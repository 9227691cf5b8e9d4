"""maltkit: random finite models of idempotent linear identity systems.

Parse finite systems of linear identities, decide entailment by closure,
analyze orbit/transversal structure, sample uniform random finite models,
check idemprimality-related properties, and run seeded Monte Carlo
censuses against exact finite-n and asymptotic theory.
"""

from .errors import BudgetError, DomainError, MaltkitError, ParseError
from .terms import (
    Identity,
    LinearTerm,
    Signature,
    SystemSpec,
    parse_system,
    render_system,
    required_variable_count,
    substitute,
)

__version__ = "0.1.0"
