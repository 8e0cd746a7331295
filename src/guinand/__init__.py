"""Verification toolkit for Poisson-type summation formulas with nodes at
plus/minus sqrt(n), sum-of-squares weights r_k(n), and the associated
odd-dimension radial Fourier transforms."""

from .atoms import (
    Atom, AtomComb, PointMeasure, comb_from_json, comb_to_json, make_comb,
    pair, point_measure, project_ft, project_measure, sigma_k, sigma_k_hat,
)
from .coeffs import (
    BesselPoly, PiScalar, alpha, bessel_poly, beta, beta_bessel_crosscheck,
    betas, double_factorial,
)
from .errors import ParseError, QuadratureError, WorkCapExceeded
from .formulas import (
    VerificationReport, lhs_general, rhs_general, shell_table,
    shifted_lhs_direct, shifted_nodes, tail_bound, verify, verify_shifted,
)
from .radial import (
    SphereFTValue, bk_recurrence_check, grid_rows, radial_ft_closed,
    radial_ft_quadrature, radial_ft_zero, radial_transform, sphere_area, sphere_ft_bessel,
    sphere_ft_besselpoly, sphere_ft_closed, sphere_ft_recurrence,
    sphere_ft_value,
)
from .schwartz import GaussPoly, ParsedExpr, gauss_term, parse, zero
from .sumsq import RepTable, rk_bruteforce, rk_table

__version__ = "0.1.0"
