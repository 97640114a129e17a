"""Shared error types.

Budgets (group order, candidate counts, iteration counts, table memory) are
hard limits: exceeding one raises ``BudgetExceededError`` rather than silently
truncating work, and the CLI maps it to its own exit code.
"""


class BudgetExceededError(RuntimeError):
    """A configured budget would be exceeded; nothing was computed."""


def check_budget(need: int, budget: int, what: str) -> None:
    """Refuse a step that needs more than its budget allows."""
    if need > budget:
        raise BudgetExceededError(f"{what} needs {need}, budget {budget}")
