"""Radial Fourier transforms in odd dimensions and the sphere-measure profile.

For an even f with one-dimensional transform fhat, the radial lift
F_k(x) = f(|x|) on R^k (k odd, >= 3) has k-dimensional transform
Fhat_k(xi) = -H(|xi|) / (2 pi) away from the origin, where

    H(u) = u^(-(k-1)) sum_{j=0}^{(k-3)/2} beta_jk u^(j+1) fhat^(j+1)(u)

is again an even GaussPoly (``radial_transform``; ``radial_ft_closed``
evaluates it): in every Gaussian term the polynomial part of the sum is
divisible by u^(k-1), and the division is done on the coefficients, not on
the value, so no cancellation is left to amplify at small u.  At the origin

    Fhat_k(0) = -(alpha_k / (2 pi)) fhat^(k-1)(0)            (``radial_ft_zero``).

The closed form is deliberately not used at 0; the origin is served only by
the second expression.

The Fourier transform of the unit-sphere surface measure is radial with
profile s_k, computed by four independent routes which cross-validate each
other:

    closed      2/t^(k-2) sum_j beta_jk (2 pi t)^j sin(2 pi t + pi j / 2)
    bessel      2 pi t^(-(k-2)/2) J_((k-2)/2)(2 pi t), J by upward recurrence
                from the closed-form half-integer seeds
    recurrence  s_k = (2 pi t^2)^(-1) ((k-4) s_{k-2} - 2 pi s_{k-4}),
                seeded with s_1 = 2 cos(2 pi t), s_3 = 2 sin(2 pi t)/t
    besselpoly  2/t^(k-2) Im{ theta_n(-2 pi i t) / (2 pi)^n * e^(2 pi i t) },
                n = (k-3)/2, with theta_n the Bessel polynomials

Small arguments: while 2 pi t is below the order nu = (k-2)/2 (for k >= 5),
the upward recurrence is unstable and the finite sums cancel, losing up to
~1e-9 relative at k = 11, t = 0.1 in plain double arithmetic.  No zero of
s_k lies there (the first zero of J_nu is beyond nu), so each route switches
to a stable form of its own algorithm:

    closed, besselpoly  the cancelling sum, with the common factor
                pi^(-(k-3)/2) taken out, is a well-conditioned function of
                z = 2 pi t alone; it is evaluated in certified fixed-point
                integer arithmetic (z from PI_50, cos z and sin z by Taylor
                series, precision raised until the error bound is below
                2^-64 of the result) and rounded once
    bessel, recurrence  Miller's backward recurrence (Gautschi, SIAM Rev. 9,
                1967), started where the forward-running dominant solution
                has grown by 1e10 (Olver's estimate) and normalized against
                whichever half-integer seed has the larger trigonometric
                factor

Measured against mpmath for k <= 21 and t from 1e-12 to 10, every route
is then within 1.3e-15 relative below z = nu, and within 3.4e-15 of the
oscillation amplitude 2 t^(-(k-1)/2) above it.  At and above z = nu the
plain double forms stay; there the closed and besselpoly sums still cancel
near z = nu once k >= 31 (up to ~5e-13 relative at k = 41).  The exact path raises
ValueError rather than exceed 16384 bits of working precision, which
happens only for t below about 10^(-4900/(k-3)), e.g. 1e-270 at k = 21.

``radial_ft_quadrature`` is the independent oracle: it integrates
f(r) s_k(r t) r^(k-1) over [0, R] by adaptive Gauss-Kronrod panels no wider
than a quarter period of the oscillation, with the cutoff tail bounded by
the Gaussian envelope; the nested-rule differences certify the error.  Its
s_k is the bessel route's (the sphere area at 0), so it reads no beta_jk.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math
from fractions import Fraction
from typing import NamedTuple

from .coeffs import (
    PI_50, PiScalar, _check_odd_k, alpha, bessel_poly, betas, double_factorial, split_term,
)
from .errors import QuadratureError
from .schwartz import GaussPoly, _add_terms, _divide_out_power
from .util import modulus

__all__ = [
    "SphereFTValue", "radial_transform", "radial_ft_closed", "radial_ft_zero",
    "radial_ft_quadrature", "sphere_ft_closed", "sphere_ft_bessel", "sphere_ft_recurrence",
    "sphere_ft_besselpoly", "sphere_ft_value", "sphere_area",
    "bk_recurrence_check", "grid_rows", "SPHERE_METHODS",
]


def _require_even(f: GaussPoly) -> None:
    if not f.is_even():
        raise ValueError("f must be even (odd-power coefficients must vanish)")


# --------------------------------------------------------------------------
# sphere-measure profile s_k
# --------------------------------------------------------------------------

# The small-argument exact path certifies a relative error below 2^-_GUARD_BITS
# before its single rounding, and refuses above _MAX_BITS of working precision.
_GUARD_BITS = 64
_MAX_BITS = 1 << 14
# Miller's backward recurrence starts where the forward-running dominant
# solution has grown by this factor; the start-index error is then ~1e-20.
# Its solution grows roughly like Gamma(k/2), past the float range once k is a
# few hundred, so it is divided by 2^_RESCALE_BITS whenever it passes that
# power, and the total scale is applied with ldexp at the end.
_MILLER_GROWTH = 1e10
_RESCALE_BITS = 500


@functools.lru_cache(maxsize=64)
def _beta_floats(k: int) -> tuple[float, ...]:
    """beta_jk rounded once each (``PiScalar.to_float``), per k."""
    return tuple(b.to_float() for b in betas(k))


@functools.lru_cache(maxsize=64)
def _beta_integers(k: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) with beta_jk = nums[j] / den * pi^(-(k-3)/2), per k."""
    rationals = [split_term(b)[0] for b in betas(k)]
    den = math.lcm(*(q.denominator for q in rationals))
    return tuple(q.numerator * (den // q.denominator) for q in rationals), den


@functools.lru_cache(maxsize=64)
def _theta(n: int):
    """The Bessel polynomial theta_n (``bessel_poly``), built once per n."""
    return bessel_poly(n)


def _profile_argument(t: float, form: str) -> tuple[float, float]:
    """(u, z) = (|t|, 2 pi |t|): s_k is even, and each route's formula is
    singular at t = 0, where s_k(0) is the sphere area."""
    if t == 0:
        raise ValueError(f"{form} is not defined at t = 0; use sphere_area")
    u = abs(t)
    return u, 2.0 * math.pi * u


def _small_argument(k: int, z: float) -> bool:
    """True when z = 2 pi t lies below the order (k-2)/2 and k >= 5.

    There the upward recurrence is unstable and the finite sums cancel, but
    s_k has no zero (the first zero of J_nu exceeds nu)."""
    return k >= 5 and 2.0 * z < k - 2


def _miller_start(nu: float, z: float) -> float:
    """Order at which to start Miller's backward recurrence for J_nu(z).

    Olver's estimate: run J_(mu+1) = (2 mu / z) J_mu - J_(mu-1) forward from
    p_nu = 0, p_(nu+1) = 1; the relative error of a start at order N is
    about 1/p_N^2."""
    p_prev, p, mu = 0.0, 1.0, nu + 1.0
    while abs(p) < _MILLER_GROWTH:
        p_prev, p = p, (2.0 * mu / z) * p - p_prev
        mu += 1.0
    return mu


def _fixed_exp_i(x_fixed: int, bits: int) -> tuple[int, int, float]:
    """(C, S, err) with C, S within err units of 2^bits cos x, 2^bits sin x,
    x = x_fixed / 2^bits >= 0, by the Taylor series of e^(ix).

    Each truncating step adds at most one unit to a term's error, which then
    scales with the term; the series stops once n > 2x and the last term is
    below 3 units, so the remainder, a series with ratio below 1/2, is below
    3 units too."""
    x = x_fixed / (1 << bits)
    term = 1 << bits
    c, s = term, 0
    term_err = err = 0.0
    n = 0
    while True:
        n += 1
        term = term * x_fixed // (n << bits)
        term_err = term_err * x / n + 1.0
        err += term_err
        r = n % 4
        if r == 1:
            s += term
        elif r == 2:
            c -= term
        elif r == 3:
            s -= term
        else:
            c += term
        if n > 2.0 * x and term <= 1 and term_err <= 2.0:
            return c, s, 1.001 * (err + 3.0)


def _log2_abs_sum(coeffs, den: int, z: float) -> float:
    """log2 of sum_j |c_j| z^j / den for nonzero integers c_j and den, z > 0,
    summed in logarithms: no term or coefficient needs to fit a float."""
    logs = [math.log2(abs(c)) + j * math.log2(z) for j, c in enumerate(coeffs)]
    top = max(logs)
    return top + math.log2(math.fsum(2.0 ** (x - top) for x in logs)) - math.log2(den)


def _exact_small_t(k: int, u: float, log2_big: float, weighted_sum) -> float:
    """2 S(z) / (pi^m u^(k-2)), m = (k-3)/2, rounded once from a certified
    fixed-point evaluation of a cancelling sum S at z = 2 pi u.

    ``weighted_sum(X, bits, C, S)`` returns integers (W, B, D): W / (D 2^(bits
    (m+1))) is S at x = X / 2^bits given C, S = 2^bits (cos x, sin x), and an
    error of e units in C and S moves W by at most B e.  ``log2_big`` is
    log2 of the sum of the magnitudes of the terms of S (``_log2_abs_sum``),
    used to pick the first precision.
    z = 2 PI_50 u and pi = PI_50 throughout; their error, and the rounding of
    z to X, move S by at most (k-2)/X relative, because |z S'(z) / S(z)| <=
    2 nu = k-2 where s_k has no zero (J_(nu-1) / J_nu <= 2 nu / z there).
    """
    m = (k - 3) // 2
    z = 2.0 * math.pi * u
    nu = (k - 2) / 2.0
    # |S| ~ pi^m area_k z^(k-2) / (2 (2 pi)^(k-2)) for small z
    log2_s = ((m + nu + 1.0) * math.log2(math.pi) - math.lgamma(nu + 1.0) / math.log(2.0)
              + (k - 2) * math.log2(z / (2.0 * math.pi)))
    bits = _GUARD_BITS + 16 + max(math.ceil(log2_big - log2_s + 1.5 * z),
                                  math.ceil(math.log2(k - 2) - math.log2(z)), 0)
    un, ud = u.as_integer_ratio()
    while bits <= _MAX_BITS:
        x_fixed = (2 * PI_50.numerator * un << bits) // (PI_50.denominator * ud)
        c, s, err = _fixed_exp_i(x_fixed, bits)
        w, b, d = weighted_sum(x_fixed, bits, c, s)
        lost = b.bit_length() - abs(w).bit_length() if w else bits
        if w and lost < 900:
            ratio = b / abs(w) * err
            if ratio < 0.5 and (ratio / (1.0 - ratio) + (k - 2) / x_fixed
                                + (k - 2) * 1e-49) <= 2.0 ** -_GUARD_BITS:
                num = 2 * w * PI_50.denominator ** m * ud ** (k - 2)
                den = d * PI_50.numerator ** m * un ** (k - 2) << bits * (m + 1)
                return num / den
        bits += 16 + max(lost + math.ceil(math.log2(err)) + _GUARD_BITS, 0)
    raise ValueError(f"cannot certify s_{k} at t = {u!r} within {_MAX_BITS} bits "
                     f"of working precision")


def _inverse_power(k: int, u: float, form: str) -> float:
    """2 / u^(k-2), the prefactor of the closed and Bessel-polynomial forms;
    ValueError where u^(k-2) overflows a float."""
    try:
        return 2.0 / u ** (k - 2)
    except OverflowError:
        raise ValueError(f"{form}: |t|^{k - 2} exceeds the float range "
                         f"at t = {u!r}") from None


def sphere_ft_closed(k: int, t: float) -> float:
    """Finite trigonometric closed form; t must be nonzero.

    sin(2 pi t + pi j / 2) is reduced exactly to +-sin/+-cos of 2 pi t, so
    all routes consume identical trig values of the same argument.  For
    2 pi |t| < (k-2)/2 the sum cancels; there it is evaluated exactly in
    fixed point and rounded once (see module docstring).
    """
    _check_odd_k(k)
    u, z = _profile_argument(t, "closed form")
    if _small_argument(k, z):
        nums, den = _beta_integers(k)
        m = len(nums) - 1

        def weighted_sum(x, bits, c, s):
            quadrant = (s, c, -s, -c)
            w = b = 0
            xj = 1
            for j, num in enumerate(nums):
                shift = bits * (m - j)
                w += num * xj * quadrant[j % 4] << shift
                b += abs(num) * xj << shift
                xj *= x
            return w, b, den

        return _exact_small_t(k, u, _log2_abs_sum(nums, den, z), weighted_sum)
    scale = _inverse_power(k, u, "closed form")  # first: no z^j overflows before it
    s, c = math.sin(z), math.cos(z)
    quadrant = (s, c, -s, -c)
    terms = [b * z ** j * quadrant[j % 4]
             for j, b in enumerate(_beta_floats(k))]
    return scale * math.fsum(terms)


def sphere_ft_bessel(k: int, t: float) -> float:
    """2 pi t^(-(k-2)/2) J_((k-2)/2)(2 pi t) from the half-integer seeds.

    Seeds are the closed forms J_(-1/2)(z) = sqrt(2/(pi z)) cos z and
    J_(1/2)(z) = sqrt(2/(pi z)) sin z; then J_(nu+1) = (2 nu / z) J_nu -
    J_(nu-1) upward.  For z < nu, where the upward direction amplifies
    roundoff, Miller's backward recurrence runs instead on q_mu =
    (z/2)^(-mu) J_mu, q_(mu-1) = mu q_mu - (z/2)^2 q_(mu+1), normalized
    against the seed with the larger trigonometric factor; then
    s_k = 2 pi^(nu+1) q_nu.  s_k is even, so t < 0 gives the value at |t|.
    """
    _check_odd_k(k, minimum=1)
    u, z = _profile_argument(t, "Bessel form")
    target = (k - 2) / 2.0
    if _small_argument(k, z):
        h = 0.25 * z * z
        mu = _miller_start(target, z)
        q_hi, q = 0.0, 1.0
        q_target, scale = 0.0, 0       # q has been divided by 2^scale since q_target
        while mu > 0.0:
            if mu == target:
                q_target, scale = q, 0
            q_hi, q = q, mu * q - h * q_hi
            if abs(q) > 2.0 ** _RESCALE_BITS:
                q_hi, q = math.ldexp(q_hi, -_RESCALE_BITS), math.ldexp(q, -_RESCALE_BITS)
                scale += _RESCALE_BITS
            mu -= 1.0
        # q, q_hi are now proportional to q_(-1/2) = cos z / sqrt(pi) and
        # q_(1/2) = 2 sin z / (z sqrt(pi))
        root_pi = math.sqrt(math.pi)
        c, s = math.cos(z), math.sin(z)
        norm = (c / root_pi / q if abs(c) >= abs(s)
                else 2.0 * s / (z * root_pi) / q_hi)
        mant, exp = math.frexp(q_target * norm)
        try:
            return math.ldexp(2.0 * math.pi ** (target + 1.0) * mant, exp - scale)
        except OverflowError:
            raise ValueError(f"Bessel form: pi^{target + 1.0} exceeds the float "
                             f"range at k = {k}") from None
    amp = math.sqrt(2.0 / (math.pi * z))
    j_lo = amp * math.cos(z)   # J_{-1/2}
    j_hi = amp * math.sin(z)   # J_{+1/2}
    if target < 0:
        jn = j_lo
    else:
        nu = 0.5
        jn = j_hi
        while nu < target:
            j_lo, j_hi = j_hi, (2.0 * nu / z) * j_hi - j_lo
            nu += 1.0
            jn = j_hi
    return 2.0 * math.pi * u ** (-target) * jn


def sphere_ft_recurrence(k: int, t: float) -> float:
    """s_k from s_1 = 2 cos(2 pi t), s_3 = 2 sin(2 pi t)/t by
    s_k = (2 pi t^2)^(-1) ((k-4) s_{k-2} - 2 pi s_{k-4});  k odd >= 3.

    For 2 pi t < (k-2)/2 the same recurrence runs downward instead (Miller),
    s_{j-2} = ((j-2) s_j - 2 pi t^2 s_{j+2}) / (2 pi), from a start index
    past k, and is normalized against s_1 or s_3, whichever has the larger
    trigonometric factor."""
    _check_odd_k(k)
    u, z = _profile_argument(t, "recurrence")
    if _small_argument(k, z):
        a = 2.0 * math.pi * u * u
        j = round(2.0 * _miller_start((k - 2) / 2.0, z)) + 2
        above, cur = 0.0, 1.0          # s_(j+2), s_j up to a common factor
        value, scale = 0.0, 0          # cur has been divided by 2^scale since value
        while j >= 3:
            if j == k:
                value, scale = cur, 0
            above, cur = cur, ((j - 2) * cur - a * above) / (2.0 * math.pi)
            if abs(cur) > 2.0 ** _RESCALE_BITS:
                above, cur = math.ldexp(above, -_RESCALE_BITS), math.ldexp(cur, -_RESCALE_BITS)
                scale += _RESCALE_BITS
            j -= 2
        c, s = math.cos(z), math.sin(z)
        norm = 2.0 * c / cur if abs(c) >= abs(s) else 2.0 * s / u / above
        return math.ldexp(value * norm, -scale)
    prev2 = 2.0 * math.cos(z)          # s_1
    prev1 = 2.0 * math.sin(z) / u      # s_3
    value = prev1
    for kk in range(5, k + 1, 2):
        value = ((kk - 4) * prev1 - 2.0 * math.pi * prev2) / (2.0 * math.pi * u * u)
        prev2, prev1 = prev1, value
    return value


def sphere_ft_besselpoly(k: int, t: float) -> float:
    """2/t^(k-2) Im{ theta_n(-2 pi i t)/(2 pi)^n e^(2 pi i t) }, n = (k-3)/2.

    For 2 pi |t| < (k-2)/2 the imaginary part cancels; there theta_n(-i z)
    e^(iz) / 2^n is evaluated exactly in fixed point (Horner on the integer
    coefficients) and rounded once (see module docstring)."""
    _check_odd_k(k)
    u, z = _profile_argument(t, "Bessel-polynomial form")
    n = (k - 3) // 2
    theta = _theta(n)
    if _small_argument(k, z):
        coeffs = theta.coeffs

        def weighted_sum(x, bits, c, s):
            # 2^(bits n) theta_n(-i x) by Horner, and the same with |coeffs|
            re, im, b = coeffs[n], 0, coeffs[n]
            for j in range(n - 1, -1, -1):
                a = coeffs[j] << bits * (n - j)
                re, im = im * x + a, -re * x
                b = b * x + a
            return re * s + im * c, 2 * b, 1 << n

        return _exact_small_t(k, u, _log2_abs_sum(coeffs, 1 << n, z), weighted_sum)
    scale = _inverse_power(k, u, "Bessel-polynomial form")
    val = theta(complex(0.0, -z)) / (2.0 * math.pi) ** n * cmath.exp(complex(0.0, z))
    return scale * val.imag


SPHERE_METHODS = {
    "closed": sphere_ft_closed,
    "bessel": sphere_ft_bessel,
    "recurrence": sphere_ft_recurrence,
    "besselpoly": sphere_ft_besselpoly,
}


class SphereFTValue(NamedTuple):
    k: int
    t: float
    value: float
    method: str


def _sphere_method(method: str):
    try:
        return SPHERE_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; "
                         f"choose from {sorted(SPHERE_METHODS)}") from None


def sphere_ft_value(k: int, t: float, method: str) -> SphereFTValue:
    return SphereFTValue(k, t, _sphere_method(method)(k, t), method)


def grid_rows(ks, ts, methods) -> list[SphereFTValue]:
    """Profile values over a (k, t, method) grid, for CSV export: the
    ``sphere_ft_value`` records in k, t, method order.  Each method is
    looked up once, so an unknown one raises before any value is computed."""
    routes = [(m, _sphere_method(m)) for m in methods]
    return [SphereFTValue(k, t, fn(k, t), m) for k in ks for t in ts for m, fn in routes]


def sphere_area(k: int) -> PiScalar:
    """Total surface area of the unit sphere in R^k: 2 (2 pi)^((k-1)/2)/(k-2)!!."""
    _check_odd_k(k)
    m = (k - 1) // 2
    return PiScalar.of(Fraction(2 * 2 ** m, double_factorial(k - 2)), m)


# --------------------------------------------------------------------------
# radial transform
# --------------------------------------------------------------------------

def _beta_quotient(d: GaussPoly, k: int) -> GaussPoly:
    """sum_j beta_jk u^(j+1) d^(j)(u) / u^(k-1), j = 0..(k-3)/2, its rows summed
    per Gaussian scale by ``_add_terms``; u^(k-1) must divide the sum
    (``_divide_out_power`` checks the dropped coefficients)."""
    exact = d.exact
    coefs = betas(k) if exact else _beta_floats(k)
    rows, sizes = [], []
    for j, (beta, dj) in enumerate(zip(coefs, d.derivatives(len(coefs) - 1))):
        pad = [0] * (j + 1)
        for b, coeffs in dj.terms:
            terms = [beta * c for c in coeffs]
            rows.append((b, pad + terms))
            if not exact:
                sizes.append((b, pad + [modulus(x) for x in terms[:k - 2 - j]]))
    out = _divide_out_power(_add_terms(rows).items(), None if exact else _add_terms(sizes),
                            k - 1)
    # every float sum starts at +0, as a sum of -0.0 terms would stay -0.0
    return GaussPoly(out if exact else [(b, [0 + c for c in cs]) for b, cs in out], exact=exact)


def radial_transform(f: GaussPoly, k: int) -> GaussPoly:
    """H with Fhat_k(t) = -H(|t|) / (2 pi) for t != 0 (see module docstring),
    exact when f is."""
    _check_odd_k(k)
    _require_even(f)
    return _beta_quotient(f.fourier().derivative(), k)


def radial_ft_closed(f: GaussPoly, k: int, t: float) -> complex:
    """Fhat_k(t) = -H(|t|) / (2 pi) for t != 0, H = ``radial_transform(f, k)``."""
    quotient = radial_transform(f, k)
    if t == 0:
        raise ValueError("closed form excludes t = 0; use radial_ft_zero")
    return -quotient.eval(abs(t)) / (2.0 * math.pi)


def radial_ft_zero(f: GaussPoly, k: int) -> complex:
    """Fhat_k(0) = -(alpha_k / (2 pi)) fhat^(k-1)(0)."""
    _check_odd_k(k)
    _require_even(f)
    return -(alpha(k).to_float() / (2.0 * math.pi)) * f.fourier().derivative(k - 1).eval(0.0)


# Gauss-Kronrod G7/K15 nodes and weights on [-1, 1].
_GK_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_GK_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_GK_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _gk15(fn, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel: (K15 integral, |K15 - G7|)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fk = 0j
    fg = 0j
    for i, x in enumerate(_GK_NODES):  # the Gauss nodes are the odd i, 0.0 last
        v = fn(mid) if x == 0.0 else fn(mid - half * x) + fn(mid + half * x)
        fk += _GK_WK[i] * v
        if i % 2 == 1:
            fg += _GK_WG[i // 2] * v
    return fk * half, modulus((fk - fg) * half)


def _gaussian_cutoff(f: GaussPoly, k: int, area: float, bound: float) -> float:
    """R with integral_R^inf |f|(r) r^(k-1) dr * area < bound, area = |s_k| max.

    Uses integral_R^inf r^p e^(-pi a r^2) dr <= R^p e^(-pi a R^2)/(2 pi a R)
    for R past the integrand's peak; QuadratureError if the tail is not finite.
    """
    pieces = f.envelope(k - 1)
    R = 1.0
    for c, p, a in pieces:
        R = max(R, math.sqrt((p + 1) / (2.0 * math.pi * a)) + 1.0)
    while True:
        try:
            tail = sum(c * R ** p * math.exp(-math.pi * a * R * R) / (2.0 * math.pi * a * R)
                       for c, p, a in pieces) * area
        except OverflowError:
            tail = math.inf
        if tail < bound:
            return R
        if not math.isfinite(tail):
            raise QuadratureError(f"cutoff tail bound {tail} at R = {R} is not finite")
        R *= 1.25


def radial_ft_quadrature(f: GaussPoly, k: int, t: float, tol: float = 1e-10,
                         *, max_panels: int = 4096) -> complex:
    """Oracle route: adaptive quadrature of integral_0^inf f(r) s_k(r t) r^(k-1) dr.

    s_k is ``sphere_ft_bessel`` (``sphere_area`` at r t = 0): no beta_jk enters.
    Initial panels are no wider than a quarter period of the oscillation at
    frequency t; panels split greedily by largest nested-rule difference
    until the certified error (sum of |K15-G7| plus the cutoff tail bound)
    is below tol.
    """
    _check_odd_k(k)
    _require_even(f)
    if tol < 1e-12:
        raise ValueError(f"tolerance must be >= 1e-12, got {tol}")
    u = abs(t)
    area = sphere_area(k).to_float()
    cutoff_budget = tol * 1e-3
    R = _gaussian_cutoff(f, k, area, cutoff_budget)

    def integrand(r: float) -> complex:
        x = r * u  # may underflow to 0 for t != 0: s_k(0) is the area
        return f.eval(r) * (sphere_ft_bessel(k, x) if x else area) * r ** (k - 1)

    width = min(0.5, 0.25 / u) if u > 0 else 0.5
    n0 = max(1, math.ceil(R / width))
    if n0 > max_panels:
        raise QuadratureError(
            f"initial oscillation-resolving panel count {n0} exceeds cap {max_panels}")
    # max-heap of panels by error estimate
    heap = []
    for i in range(n0):
        a, b = R * i / n0, R * (i + 1) / n0
        val, err = _gk15(integrand, a, b)
        heap.append((-err, a, b, val))
    heapq.heapify(heap)
    budget = 0.5 * (tol - cutoff_budget)
    while True:
        total_err = -math.fsum(item[0] for item in heap)
        if total_err <= budget:
            break
        if len(heap) >= max_panels:
            raise QuadratureError(
                f"could not certify tolerance {tol}: panel cap {max_panels} "
                f"reached with error estimate {total_err:.3e}")
        _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            val, err = _gk15(integrand, lo, hi)
            heapq.heappush(heap, (-err, lo, hi, val))
    re = math.fsum(item[3].real for item in heap)
    im = math.fsum(item[3].imag for item in heap)
    return complex(re, im)


def bk_recurrence_check(f: GaussPoly, k: int, t: float) -> float:
    """Absolute discrepancy of the operator recurrence

        B_k f(t) = (k-4)/(2 pi t^2) B_{k-2} f(t) - (1/t^2) B_{k-4}(t^2 f)(t)

    where B_m is the closed-form transform for odd m >= 3 and B_1 g = ghat.
    Returns |lhs - rhs|; identically zero up to roundoff."""
    _check_odd_k(k, minimum=5)
    _require_even(f)
    if t == 0:
        raise ValueError("recurrence check excludes t = 0")

    def b_op(g: GaussPoly, m: int, x: float) -> complex:
        if m == 1:
            return g.fourier().eval(x)
        return radial_ft_closed(g, m, x)

    lhs = b_op(f, k, t)
    t2f = f.mul_poly([0, 0, 1])
    rhs = (k - 4) / (2.0 * math.pi * t * t) * b_op(f, k - 2, t) \
        - b_op(t2f, k - 4, t) / (t * t)
    return modulus(lhs - rhs)
