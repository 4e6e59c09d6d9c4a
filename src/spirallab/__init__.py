"""Verification lab for successive Taylor-coefficient bounds.

Builds members of the spirallike, starlike, convex and close-to-convex
families over truncated power series, certifies their class membership
on grids, evaluates every successive-coefficient bound, replays the
derivation chain behind the spiral bound, and searches atomic-measure
space for extremal functions to corroborate sharpness.

The names imported below are the package's public API.
"""

from .classes import (
    AtomicMeasure,
    ClassSpec,
    InvalidParams,
    alexander_forward,
    herglotz,
    member_from_measure,
    named,
    random_measure,
)
from .extremal import SearchProblem, SearchResult, search
from .inequalities import (
    TOL_INEQ,
    ChainInequalityViolation,
    ProofTrace,
    bound_rhs,
    gamma_ratio,
    lemma31_check,
    milin_third,
    one_sided_diff,
    proof_trace,
    psi_max,
    recover_c,
    robertson_gap,
    successive_diff,
)
from .membership import (
    TOL_MEMBER,
    CriticalPointOnGrid,
    Grid,
    MembershipReport,
    ZeroOnGrid,
    check_convex,
    check_kaplan,
    check_spirallike,
)
from .series import ORDER_DEFAULT, FunctionSeries, Series

__version__ = "0.1.0"
