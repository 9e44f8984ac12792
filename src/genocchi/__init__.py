"""Median Genocchi combinatorics: five families, one triangle.

The normalized median Genocchi numbers h_n count five different kinds of
objects, and a pair of statistics (k, l) refines each count into the same
triangle h_{n,k}.  This package computes the triangles, enumerates the
families, and realizes the structural maps that tie them together, plus a
consistency suite that checks everything against everything else.

    >>> from genocchi import normalized_genocchi, kreweras_row
    >>> [normalized_genocchi(n) for n in range(7)]
    [1, 1, 2, 7, 38, 295, 3098]
    >>> kreweras_row(4)
    (7, 12, 12, 7)
"""

from __future__ import annotations

from .maps import (
    chain_to_settuple,
    closed_form_chain,
    embed_permutation,
    involution_r,
    involution_t,
    lift,
    phi,
    phi_inverse,
    phi_trace,
    reduce,
    settuple_to_chain,
)
from .models import (
    DellacConfiguration,
    DumontPermutation,
    FeiginChain,
    HetyeiTuple,
    MODEL_NAMES,
    ModelError,
    ModelInvariantError,
    ModelSyntaxError,
    ResourceGuardError,
    SetTuple,
    enumerate_model,
    hetyei_pair_count,
    k_statistic,
    l_statistic,
    listing,
    parse,
    redundancy_chain,
    redundant_positions,
    serialize,
    statistics,
    statistics_table,
)
from .triangles import (
    KrewerasTriangle,
    SeidelTriangle,
    genocchi,
    kreweras,
    kreweras_row,
    median_genocchi,
    normalized_genocchi,
    seidel_entry,
    seidel_row,
)
from .verify import ConsistencyReport, SuiteReport, count_matrix, run_suite

__version__ = "0.1.0"

__all__ = [
    "DellacConfiguration",
    "DumontPermutation",
    "FeiginChain",
    "HetyeiTuple",
    "SetTuple",
    "MODEL_NAMES",
    "ModelError",
    "ModelInvariantError",
    "ModelSyntaxError",
    "ResourceGuardError",
    "enumerate_model",
    "hetyei_pair_count",
    "k_statistic",
    "l_statistic",
    "listing",
    "parse",
    "redundancy_chain",
    "redundant_positions",
    "serialize",
    "statistics",
    "statistics_table",
    "chain_to_settuple",
    "settuple_to_chain",
    "closed_form_chain",
    "phi",
    "phi_inverse",
    "phi_trace",
    "involution_t",
    "involution_r",
    "reduce",
    "lift",
    "embed_permutation",
    "KrewerasTriangle",
    "SeidelTriangle",
    "genocchi",
    "kreweras",
    "kreweras_row",
    "median_genocchi",
    "normalized_genocchi",
    "seidel_entry",
    "seidel_row",
    "ConsistencyReport",
    "SuiteReport",
    "count_matrix",
    "run_suite",
    "__version__",
]
