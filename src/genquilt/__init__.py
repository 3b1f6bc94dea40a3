"""genquilt: exact arithmetic for bin-constrained and quilt-spiral decompositions.

Two families of integer representation systems built from non-positive
linear recurrences: the (s,b) bin systems, where every integer decomposes
uniquely and greedily, and the Fibonacci Quilt, where decompositions
multiply exponentially, plain greedy fails about 7.4% of the time, and a
one-case patch (Greedy-6) restores legality and summand minimality.

Names are imported from their modules (``genquilt.greedy``,
``genquilt.quilt_count``, ...); importing the package loads none of them.
"""

__version__ = "0.1.0"
__all__ = ["BudgetExceededError"]


class BudgetExceededError(RuntimeError):
    """An enumeration, simulation, or table request exceeds its configured budget."""

    def __init__(self, what: str, requested, limit):
        super().__init__(f"{what}: requested {requested}, budget is {limit}")
        self.requested = requested
        self.limit = limit
