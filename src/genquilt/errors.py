"""Shared exception types and the one size check."""


class BudgetExceededError(RuntimeError):
    """An enumeration, simulation, or table request exceeds its configured budget."""

    def __init__(self, what: str, requested, limit):
        super().__init__(f"{what}: requested {requested}, budget is {limit}")
        self.requested = requested
        self.limit = limit


def check_size(name: str, value: int, what: str, budget: int) -> None:
    """Refuse a requested size below 1 (ValueError, a usage error) or above
    ``budget`` (BudgetExceededError); callers run it before they allocate."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    if value > budget:
        raise BudgetExceededError(what, value, budget)
