"""Exact computations in right-LCM monoids and their two-factor products:
normal forms, right least common multiples with brute-force oracles, the
*-monomial covariance calculus, truncated regular representations, and
exact affine boundary models.
"""

from .core import (DISJOINT, Ball, BallTooLarge, BallTooSmall, BruteForcer,
                   IncomparableMultiples, Lcm, Semigroup,
                   check_cancellativity_and_lcm, enumerate_ball,
                   lcm_equal_up_to_units)
from .report import FAIL, PASS, Check, Report
from .zs import HypothesisViolation, ZSDescriptor, zs_axiom_check, \
    zs_left_divide, zs_multiply, zs_right_lcm, zs_semigroup

__all__ = [
    "DISJOINT", "Ball", "BallTooLarge", "BallTooSmall", "BruteForcer",
    "IncomparableMultiples", "Lcm", "Semigroup",
    "check_cancellativity_and_lcm", "enumerate_ball", "lcm_equal_up_to_units",
    "FAIL", "PASS", "Check", "Report",
    "HypothesisViolation", "ZSDescriptor", "zs_axiom_check",
    "zs_left_divide", "zs_multiply", "zs_right_lcm", "zs_semigroup",
]
