"""Independent reference routes for the tests (not collected: no test_ prefix).

``radial_ft_fubini`` is the k-dimensional transform of a radial lift, built
from one-dimensional transforms and Gaussian moments alone.  It uses no
alpha_k, no beta_jk, no quotient and no divisibility check, so it checks the
closed form of ``guinand.radial`` rather than restating it.
"""

import math
from fractions import Fraction

from guinand.schwartz import GaussPoly, PiScalar, gauss_term


def radial_ft_fubini(f: GaussPoly, k: int) -> GaussPoly:
    """G(u) = Fhat_k(u e_1) for F(x) = f(|x|) on R^k, k odd; f even and exact,
    its scales with rational square roots.

    Split x = (x_1, y) in R x R^(k-1).  Then |x|^(2p) = sum_q C(p, q)
    x_1^(2q) |y|^(2(p-q)), and by Fubini (Stein-Weiss, ch. IV)

        Fhat(u e_1) = sum_q C(p, q) FT_1[x^(2q) e^(-pi a x^2)](u) I(p - q, a),

    with I(s, a) = integral over R^(k-1) of |y|^(2s) e^(-pi a |y|^2) dy
    = (h)_s (pi a)^(-s) a^(-h), h = (k-1)/2, (h)_s the rising factorial.
    h is an integer, so I is a rational times pi^(-s), exactly.
    """
    h = (k - 1) // 2
    total = gauss_term(1, [], exact=True)
    for a, coeffs in f.terms:
        a = Fraction(a)
        for p, c in enumerate(coeffs[0::2]):
            for q in range(p + 1):
                s = p - q
                moment = Fraction(math.comb(p, q) * math.prod(range(h, h + s)), 1) / a ** (s + h)
                term = gauss_term(a, [0] * (2 * q) + [1], exact=True).fourier()
                total = total + term.scale(c * PiScalar.of(moment, -s))
    return total
