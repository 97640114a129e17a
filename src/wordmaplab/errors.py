"""Shared error types.

Budgets (group order, candidate counts, iteration counts, table memory) are
hard limits: exceeding one raises ``BudgetExceededError`` rather than silently
truncating work, and the CLI maps it to its own exit code.  The defaults
below are the only ones: every signature and CLI flag reads them from here.
"""

DEFAULT_ORDER_BUDGET = 2000  # group order
DEFAULT_CANDIDATE_BUDGET = 10_000_000  # endomorphism candidates and homs
DEFAULT_ITER_BUDGET = 1_000_000_000  # census triples
DEFAULT_TABLE_BUDGET = 100_000_000  # table entries, not bytes


class BudgetExceededError(RuntimeError):
    """A configured budget would be exceeded; nothing was computed."""


def check_budget(need: int, budget: int, what: str) -> None:
    """Refuse a step that needs more than its budget allows."""
    if need > budget:
        raise BudgetExceededError(f"{what} needs {need}, budget {budget}")
