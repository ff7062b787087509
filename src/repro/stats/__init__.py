"""Statistical helpers: host-side log tables and the rank-sum test."""

from .ranksum import rank_sum_pvalue, rank_sum_pvalues, rank_sum_statistic
from .tables import (
    DEFAULT_PCR_DEPENDENCY,
    dependency_penalty_table,
    error_to_phred,
    log10_table,
    phred_to_error,
)

__all__ = [
    "DEFAULT_PCR_DEPENDENCY",
    "dependency_penalty_table",
    "error_to_phred",
    "log10_table",
    "phred_to_error",
    "rank_sum_pvalue",
    "rank_sum_pvalues",
    "rank_sum_statistic",
]
