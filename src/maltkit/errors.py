"""Exception types shared across the package; exit_code is the CLI's
exit status for each."""


class MaltkitError(Exception):
    exit_code = 1


class ParseError(MaltkitError):
    """Malformed input text (system files, identity queries, bad flags)."""
    exit_code = 2

    def __init__(self, message, line=None, column=None):
        if line is not None:
            loc = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class DomainError(MaltkitError):
    """Mathematically invalid request (unsatisfiable system, assumption
    failure, inapplicable criterion)."""


class BudgetError(MaltkitError):
    """Request exceeds a configured resource budget."""
    exit_code = 3
