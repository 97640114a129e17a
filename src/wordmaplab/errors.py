"""Shared error types, budget defaults and the working-memory block size.

Budgets (candidate counts, iteration counts, table cells) are hard limits:
exceeding one raises ``BudgetExceededError`` rather than silently truncating
work, and the CLI maps it to its own exit code.  The defaults
below are the only ones: every signature and CLI flag reads them from here.
A group's Cayley table is n^2 table cells, gated before it is allocated, so
the default table budget admits orders up to 10,000.
"""

DEFAULT_CANDIDATE_BUDGET = 10_000_000  # endomorphism candidates and homs
DEFAULT_ITER_BUDGET = 1_000_000_000  # census triples
DEFAULT_TABLE_BUDGET = 100_000_000  # table cells, the group's n^2 included

# Array cells per block of every blocked step; see ``row_blocks``.
BLOCK_CELLS = 1 << 17


class BudgetExceededError(RuntimeError):
    """A configured budget would be exceeded; nothing was computed."""


def check_budget(need: int, budget: int, what: str) -> None:
    """Refuse a step that needs more than its budget allows."""
    if need > budget:
        raise BudgetExceededError(f"{what} needs {need}, budget {budget}")


def check_power(n: int, d: int, budget: int, what: str) -> int:
    """Refuse a step that needs n^d units over budget; return n^d.

    For n >= 2 and d beyond the budget's bit length, n^d >= 2^d > budget,
    so the step is refused before the power is formed: at a large d it
    would take seconds to form and be too long to print.
    """
    if n >= 2 and d > budget.bit_length():
        raise BudgetExceededError(f"{what} needs {n}^{d}, budget {budget}")
    need = n ** d
    check_budget(need, budget, what)
    return need


def row_blocks(total: int, width: int):
    """Bounds (lo, hi) of consecutive blocks covering rows 0..total-1, each
    of at most BLOCK_CELLS // width rows (at least one) of width cells."""
    step = max(1, BLOCK_CELLS // max(width, 1))
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)
