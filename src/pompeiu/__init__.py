"""High-order Cauchy/Pompeiu transforms on the disk and polydisc.

Closed-form kernels turn the iterated transforms T^mu Tbar^nu into single
area integrals; a singular-quadrature layer evaluates them; a solver
assembles every solution of d^mu dbar^nu u = A from holomorphic free data;
and an oracle layer cross-checks each closed form against brute-force
quadrature, nested operator composition, and exact polynomial calculus.
"""

from .errors import (CoincidentPoints, DepthCap, DimensionCap, DomainError,
                     NonFiniteSample, NonRealRHS, OrderTooLarge, ParseError,
                     PompeiuError, ResolutionTooLow, StencilOutOfDomain,
                     UnknownVariable)
from .geometry import (AREA_FACTOR, DiskDomain, MultiIndex, PolydiscDomain,
                       WirtingerStencil, wirtinger_split)
from .kernels import c1, c2, c3, c3_special_cases, c8, g_diag, g_mixed
from .operators import (GridField, ScalarField, apply_2T, apply_2Tbar,
                        apply_conjugate_dual, apply_mixed, apply_polydisc, apply_S,
                        apply_Sbar, apply_T, apply_T_power, apply_Tbar,
                        apply_Tbar_power, constant_field, evaluate_on_grid,
                        field_from_expression, transform)
from .quadrature import (Rule, build_area_rule, build_contour_rule, build_half_rule,
                         integrate)
from .solver import SolutionSpec, fd_residual, solve_biharmonic, solve_pde

__version__ = "0.1.0"

__all__ = [
    "AREA_FACTOR", "CoincidentPoints", "DepthCap", "DimensionCap", "DiskDomain",
    "DomainError", "GridField", "MultiIndex", "NonFiniteSample",
    "NonRealRHS", "OrderTooLarge", "ParseError", "PolydiscDomain",
    "PompeiuError", "ResolutionTooLow", "Rule", "ScalarField", "SolutionSpec",
    "StencilOutOfDomain", "UnknownVariable", "WirtingerStencil",
    "apply_2T", "apply_2Tbar", "apply_S", "apply_Sbar", "apply_T",
    "apply_T_power", "apply_Tbar", "apply_Tbar_power", "apply_conjugate_dual",
    "apply_mixed", "apply_polydisc", "build_area_rule", "build_contour_rule",
    "build_half_rule", "c1", "c2", "c3", "c3_special_cases", "c8",
    "constant_field", "evaluate_on_grid", "fd_residual", "field_from_expression",
    "g_diag", "g_mixed", "integrate", "solve_biharmonic", "solve_pde", "transform",
    "wirtinger_split",
]
