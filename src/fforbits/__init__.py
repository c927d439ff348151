"""Exact arithmetic-dynamics workbench over rational function fields F_q(t).

The pieces, bottom up: finite fields (field), the rational function field
and its algebraic extensions (funcfield), dynamical polynomials and their
conjugation by a shift (dynpoly), the twisted polynomial algebra of
additive maps (twisted), function-field heights and search pruning
(heights), orbit intersection and return-set classification (orbits), the
expression and scenario language (parser), the built-in identity suite
(verify), and the command-line driver (cli).
"""

# before the imports below, so that any submodule may import it
__version__ = "0.1.0"

from .errors import (AlgebraError, BudgetExceeded, DegreeBudgetExceeded,
                     DivisionByZero, MixedVariables, NotAdditive, ParseError,
                     ReducibleModulus, RingMismatch, TauDegreeBudgetExceeded,
                     UndefinedSymbol, ValidationError, ZeroDivisor)
from .field import FieldElem, FieldSpec, binom_mod
from .funcfield import ExtElem, ExtRing, FFPoly, KRing, RatFunc
from .dynpoly import (DEFAULT_DEGREE_BUDGET, DEFAULT_TAU_BUDGET, Budget,
                      DynPoly, common_iterate, conjugate, is_additive,
                      orbit_element, orbit_prefix, solve_affine_conjugacy,
                      walk)
from .twisted import TwistedPoly, twisted_pow
from .heights import (HeightEstimate, PruningData, canonical_height,
                      derive_pruning, height_gap_constant,
                      multiplicative_dependence, pruned_candidates,
                      rationalize)
from .orbits import (PlaneCurve, ReturnModel, ReturnSet,
                     ap_implies_common_iterate, curve_return_set,
                     fit_return_model, intersect_orbits,
                     synchronized_collisions)
from .parser import (ParseContext, Scenario, parse_curve, parse_expr,
                     parse_map, parse_modulus, parse_scalar, parse_scenario)
from .verify import CheckResult, run_example, verify_all

__all__ = [name for name in dir() if not name.startswith("_")]
