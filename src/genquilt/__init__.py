"""genquilt: exact arithmetic for bin-constrained and quilt-spiral decompositions.

Two families of integer representation systems built from non-positive
linear recurrences: the (s,b) bin systems, where every integer decomposes
uniquely and greedily, and the Fibonacci Quilt, where decompositions
multiply exponentially, plain greedy fails about 7.4% of the time, and a
one-case patch (Greedy-6) restores legality and summand minimality.
"""

__version__ = "0.1.0"

from .errors import BudgetExceededError
from .generacci import Decomposition, SBParams, SequenceCache, bin_of, decompose, generate, is_legal_sb
from .greedy import (
    GreedyOutcome,
    MoveStep,
    MoveTrace,
    SuccessTable,
    greedy6_decompose,
    greedy_decompose,
    normalize_to_greedy6,
    success_ratio_limit,
    success_table,
)
from .numerics import (
    Polynomial,
    RootReport,
    dominant_root,
    fit_leading_constant,
    generacci_char_analysis,
)
from .quilt import QuiltCache, is_fq_legal, quilt_terms
from .quilt_count import (
    AverageReport,
    CountTables,
    average_decompositions,
    count_decompositions,
    count_tables,
)
from .stats import GaussianFit, SummandDistribution, gaussian_fit, ks_normal_distance, summand_distribution

__all__ = [
    "BudgetExceededError",
    "Decomposition",
    "SBParams",
    "SequenceCache",
    "bin_of",
    "decompose",
    "generate",
    "is_legal_sb",
    "GreedyOutcome",
    "MoveStep",
    "MoveTrace",
    "SuccessTable",
    "greedy_decompose",
    "greedy6_decompose",
    "normalize_to_greedy6",
    "success_ratio_limit",
    "success_table",
    "Polynomial",
    "RootReport",
    "dominant_root",
    "fit_leading_constant",
    "generacci_char_analysis",
    "QuiltCache",
    "is_fq_legal",
    "quilt_terms",
    "AverageReport",
    "CountTables",
    "average_decompositions",
    "count_decompositions",
    "count_tables",
    "GaussianFit",
    "SummandDistribution",
    "gaussian_fit",
    "ks_normal_distance",
    "summand_distribution",
]
