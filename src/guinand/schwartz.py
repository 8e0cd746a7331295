"""Closed algebra of test functions sum_i p_i(t) * exp(-pi * a_i * t^2).

Polynomial-times-Gaussian functions are Schwartz functions, and the family
is closed under differentiation, multiplication by polynomials, parity
operations, and the Fourier transform with the convention

    fhat(xi) = integral f(x) exp(-2 pi i x xi) dx,

for which exp(-pi a t^2) maps to a^(-1/2) exp(-pi xi^2 / a) and
multiplication by t maps to (i / 2 pi) d/dxi.  That closure is the whole
point: every operation here returns another GaussPoly, so identities can be
evaluated without any numerical transform.

Coefficients are complex doubles by default.  ``exact=True`` switches the
term coefficients to ``coeffs.PiScalar``, the package's one exact scalar
(Gaussian-rational combinations of integer powers of pi, also importable
from here), and the scales to Fractions; differentiation and the
Fourier transform then stay exact as long as every scale has a rational
square root, which is what the coefficient-level identity tests use.

``parse`` reads the tiny expression grammar used by the command line:

    expr   := ['-'] term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := number | 'i' | 'pi' | 'sqrt2' | 't' ('^' integer)?
              | 'exp' '(' '-' gaussarg ')' | '(' expr ')'

where gaussarg is a product/quotient of {number, pi, t^2} containing t^2
exactly once as a multiplicand.  The stored scale is (gaussarg coefficient)
divided by pi, so inputs are expected in the form exp(-pi*<rational>*t^2).
Division is only defined by constants.  Whitespace is insignificant; errors
report the byte offset.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .coeffs import PI_50, PiScalar
from .errors import ParseError
from .util import Frozen, modulus

__all__ = [
    "GaussPoly", "PiScalar", "ParsedExpr", "gauss_term", "zero", "parse",
]


def _rat_sqrt(fr: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if fr < 0:
        return None
    pn, pd = math.isqrt(fr.numerator), math.isqrt(fr.denominator)
    if pn * pn == fr.numerator and pd * pd == fr.denominator:
        return Fraction(pn, pd)
    return None


def _add_terms(pairs) -> dict:
    """Sum (scale, coefficient list) pairs into {scale: list}: lists on one scale
    are added with the longer one as the left operand, a position that only one
    list reaches keeps its value, and a list that meets no other is returned."""
    out: dict = {}
    for a, coeffs in pairs:
        old = out.get(a)
        if old is None:
            out[a] = coeffs
        else:
            if len(old) < len(coeffs):
                old, coeffs = coeffs, old
            out[a] = [*map(add, old, coeffs), *old[len(coeffs):]]
    return out


def _mul_terms(u, v) -> dict:
    """{a1 + a2: p1 * p2} over the pairs (a1, p1) of u and (a2, p2) of v.
    Products on a shared scale go into one list, padded with 0, in the order
    of u, then v, then the powers of p1, then those of p2."""
    out: dict = {}
    for a1, c1 in u:
        for a2, c2 in v:
            prod = out.setdefault(a1 + a2, [])
            prod.extend([0] * (len(c1) + len(c2) - 1 - len(prod)))
            for m, x in enumerate(c1):
                for d, y in enumerate(c2, m):
                    prod[d] += x * y
    return out


# Float mode: a dropped low coefficient of the derivative sum must be below
# this multiple of the sum of the magnitudes of the contributions that
# cancelled in it.  The largest ratio seen was 1.2 eps, over sums of up to
# three Gaussians with scales 1/100..100 and degree <= 10, for k <= 31.
_DROP_TOL = 1024 * sys.float_info.epsilon


def _divide_out_power(terms, sizes: dict | None, power: int) -> list:
    """[(a, coeffs / u^power)] for (a, coeffs) pairs whose polynomials are
    divisible by u^power: the low ``power`` coefficients are dropped.

    Each must be zero or, unless ``sizes`` is None, at most _DROP_TOL times
    the matching entry of ``sizes[a]``, the sum of the magnitudes of the terms
    that cancelled in it, i.e. cancellation noise.  Anything else raises
    ValueError.
    """
    out = []
    for a, coeffs in terms:
        size = () if sizes is None else sizes.get(a, ())
        for i, c in enumerate(coeffs[:power]):
            if c != 0 and (sizes is None or not modulus(c) <= _DROP_TOL
                           * (size[i] if i < len(size) else 0.0)):
                raise ValueError(
                    f"coefficient of u^{i} on Gaussian scale {a} is {c}: the "
                    f"polynomial is not divisible by u^{power}")
        out.append((a, coeffs[power:]))
    return out


# --------------------------------------------------------------------------
# the function algebra
# --------------------------------------------------------------------------

class GaussPoly(Frozen):
    """Immutable sum of terms p(t) * exp(-pi * a * t^2) with distinct a > 0.

    ``terms`` and ``exact`` are the value; ``==`` and ``hash`` read only
    them.  ``_plan`` is the float evaluation plan that ``eval`` or
    ``eval_many`` stores on its first call (None until then).
    """

    __slots__ = ("terms", "exact", "_plan")

    def __init__(self, terms=(), exact: bool = False):
        pairs = []
        for a, coeffs in terms:
            if exact:
                a, coeffs = Fraction(a), list(map(PiScalar.of, coeffs))
            else:
                a, coeffs = float(a), list(map(complex, coeffs))
            if a <= 0:
                raise ValueError(f"Gaussian scale must be positive, got {a}")
            pairs.append((a, coeffs))
        out = []
        for a, coeffs in sorted(_add_terms(pairs).items()):
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if coeffs:
                out.append((a, tuple(coeffs)))
        object.__setattr__(self, "terms", tuple(out))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_plan", None)

    # ---- basic structure -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max((len(c) - 1 for _, c in self.terms), default=-1)

    def __eq__(self, other):
        if not isinstance(other, GaussPoly):
            return NotImplemented
        return self.exact == other.exact and self.terms == other.terms

    def __hash__(self):
        return hash((self.exact, self.terms))

    def __add__(self, other):
        if not isinstance(other, GaussPoly):
            return NotImplemented
        if self.exact != other.exact:
            raise ValueError("cannot mix exact and float GaussPoly values")
        return GaussPoly(self.terms + other.terms, exact=self.exact)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "GaussPoly":
        return GaussPoly([(a, [c * x for x in coeffs]) for a, coeffs in self.terms],
                         exact=self.exact)

    def mul_poly(self, poly) -> "GaussPoly":
        """Multiply by a plain polynomial (ascending coefficients)."""
        return GaussPoly(_mul_terms(self.terms, [(0, poly)]).items(), exact=self.exact)

    # ---- analysis --------------------------------------------------------

    def _get_plan(self) -> tuple:
        """Per term (-pi*a, coefficients as complex doubles from the highest
        power down, passes), built on the first call and stored.  A pass
        (p, xs) holds part p (0 real, 1 imaginary) of the same coefficients,
        when not all of them are zero.
        """
        plan = self._plan
        if plan is None:
            plan = []
            for a, coeffs in self.terms:
                cs = tuple(complex(c) for c in reversed(coeffs))
                parts = (tuple(c.real for c in cs), tuple(c.imag for c in cs))
                plan.append((-math.pi * float(a), cs,
                             tuple((p, xs) for p, xs in enumerate(parts) if any(xs))))
            plan = tuple(plan)
            object.__setattr__(self, "_plan", plan)
        return plan

    def eval(self, t: float) -> complex:
        """Value at a real point: Horner per term times the Gaussian factor.

        Every call runs the same Horner steps and exp(-pi*a * t^2) on the
        stored plan, so a value does not depend on whether the plan was just
        built.
        """
        total = 0j
        for neg_pi_a, coeffs, _ in self._get_plan():
            acc = 0j
            for c in coeffs:
                acc = acc * t + c
            total += acc * math.exp(neg_pi_a * (t * t))
        return total

    def eval_many(self, ts) -> list[complex]:
        """[self.eval(t) for t in ts], bit for bit, batched over the points.

        Terms run outside, points inside, and Horner runs on floats, on the
        real and on the imaginary parts of a term's coefficients (a part
        that is all zero is skipped).  At a real t the complex steps of
        ``eval`` compute the same two values but for the sign of a zero,
        which no later step makes nonzero, and a point's running sums start
        at +0.0, so adding a zero of either sign leaves them as they are.
        That holds while every value is finite; if a point or a Horner value
        is not, the call returns ``eval`` at each point instead.
        """
        ts = list(ts)
        squares = [t * t for t in ts]
        if not math.isfinite(sum(squares)):
            return [self.eval(t) for t in ts]
        sums, exp = [[0.0] * len(ts), [0.0] * len(ts)], math.exp
        for neg_pi_a, _, passes in self._get_plan():
            for p, xs in passes:
                vals = [xs[0]] * len(ts)
                for c in xs[1:]:
                    vals = [v * t + c for v, t in zip(vals, ts)]
                if not math.isfinite(sum(vals)):
                    return [self.eval(t) for t in ts]
                sums[p] = [s + v * exp(neg_pi_a * q) for s, v, q in zip(sums[p], vals, squares)]
        return list(map(complex, *sums))

    def derivative(self, order: int = 1) -> "GaussPoly":
        """Exact symbolic derivative: p -> p' - 2 pi a t p, repeated."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        f = self
        for _ in range(order):
            out = []
            for a, coeffs in f.terms:
                two_pi_a = (PiScalar.of(2 * a, 1) if f.exact
                            else 2.0 * math.pi * float(a))
                deg = len(coeffs) - 1
                new = []
                for m in range(deg + 2):
                    c = 0 + (m + 1) * coeffs[m + 1] if m < deg else 0
                    new.append(c - two_pi_a * coeffs[m - 1] if m else c)
                out.append((a, new))
            f = GaussPoly(out, exact=f.exact)
        return f

    def derivatives(self, order: int) -> list["GaussPoly"]:
        """[f, f', ..., f^(order)], each step one ``derivative`` of the last."""
        out = [self]
        for _ in range(order):
            out.append(out[-1].derivative())
        return out

    def fourier(self) -> "GaussPoly":
        """Exact transform in the same algebra.

        Per term: exp(-pi a t^2) -> a^(-1/2) exp(-pi xi^2 / a), and each
        power of t applies (i / 2 pi) d/dxi to the transformed term.  In
        float mode a term whose transform leaves the float range (a very
        wide Gaussian) raises ValueError naming its scale.
        """
        result = GaussPoly(exact=self.exact)
        for a, coeffs in self.terms:
            if self.exact:
                root = _rat_sqrt(Fraction(a))
                if root is None:
                    raise ValueError(
                        f"exact mode requires a rational square root of a = {a}")
                amp = PiScalar.of(Fraction(1) / root)
                b = Fraction(1) / Fraction(a)
                i_over_2pi = PiScalar({-1: (Fraction(0), Fraction(1, 2))})
            else:
                amp = complex(1.0 / math.sqrt(a))
                b = 1.0 / float(a)
                i_over_2pi = 1j / (2.0 * math.pi)
            h = GaussPoly([(b, [amp])], exact=self.exact)
            for m, c in enumerate(coeffs):
                if m:
                    h = h.derivative().scale(i_over_2pi)
                if c != 0:
                    result = result + h.scale(c)
            if not self.exact and not all(cmath.isfinite(x) for scale, xs in result.terms
                                          for x in (scale, *xs)):
                raise ValueError(f"the Fourier transform of the term on Gaussian scale "
                                 f"{a!r} leaves the float range")
        return result

    def reflect(self) -> "GaussPoly":
        """t -> -t: negate odd-power coefficients."""
        return GaussPoly(
            [(a, [(-c if m % 2 else c) for m, c in enumerate(coeffs)])
             for a, coeffs in self.terms], exact=self.exact)

    def odd_part(self) -> "GaussPoly":
        """f(t) - f(-t): drop even powers, double odd ones."""
        return GaussPoly(
            [(a, [(2 * c if m % 2 else 0) for m, c in enumerate(coeffs)])
             for a, coeffs in self.terms], exact=self.exact)

    def hadamard_divide(self) -> "GaussPoly":
        """The g with f(t) = t g(t), an exact coefficient shift: every term's
        constant coefficient must vanish (automatic for odd functions)."""
        return GaussPoly(_divide_out_power(self.terms, None, 1), exact=self.exact)

    def is_odd(self) -> bool:
        return all(c == 0 for _, coeffs in self.terms for c in coeffs[0::2])

    def is_even(self) -> bool:
        return all(c == 0 for _, coeffs in self.terms for c in coeffs[1::2])

    def envelope(self, shift: int = 0) -> list[tuple[float, int, float]]:
        """Pieces (|c_m|, m + shift, a) over the nonzero coefficients, as
        floats: |f(t)| |t|^shift <= sum |c_m| |t|^(m+shift) exp(-pi a t^2)."""
        return [(c, m + shift, float(a))
                for a, coeffs in self.terms
                for m, c in enumerate(modulus(complex(x)) for x in coeffs) if c]

    # ---- formatting --------------------------------------------------------

    def to_expr(self) -> str:
        """Grammar text that parses back to an equal value (float mode)."""
        if self.exact:
            raise ValueError("to_expr is defined for float-mode values")
        if self.is_zero:
            return "0"
        chunks = []
        for a, coeffs in self.terms:
            poly = []
            for m, c in enumerate(coeffs):
                if c == 0:
                    continue
                if c.imag == 0.0:
                    cs = repr(c.real)
                elif c.real == 0.0:
                    cs = f"{c.imag!r}*i"
                else:
                    cs = f"({c.real!r} + {c.imag!r}*i)"
                if m == 0:
                    poly.append(cs)
                elif m == 1:
                    poly.append(f"{cs}*t")
                else:
                    poly.append(f"{cs}*t^{m}")
            chunks.append(f"({' + '.join(poly)})*exp(-pi*{a!r}*t^2)")
        return " + ".join(chunks)

    def __repr__(self):
        if self.exact:
            return f"GaussPoly(exact, {self.terms!r})"
        return f"GaussPoly({self.to_expr()!r})"


def gauss_term(a, coeffs, exact: bool = False) -> GaussPoly:
    """Single term p(t) * exp(-pi a t^2) from ascending coefficients."""
    return GaussPoly([(a, list(coeffs))], exact=exact)


def zero(exact: bool = False) -> GaussPoly:
    return GaussPoly(exact=exact)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

class ParsedExpr(NamedTuple):
    source: str
    value: GaussPoly


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break  # trailing whitespace
            at = len(src) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


_MAX_EXPONENT = sys.int_info.default_max_str_digits  # Python's int(str) digit limit
# The parser refuses a polynomial degree past this before building any list:
# at scale 1 a degree near it already overflows in ``fourier``.
_MAX_DEGREE = 1000
_DEGREE_ERROR = f"polynomial degree is beyond the limit ({_MAX_DEGREE})"


def _huge_exponent(literal: str) -> int:
    """The sign of a decimal exponent beyond +-_MAX_EXPONENT in literal (for
    which Fraction(literal) would build 10^|exponent|), else 0."""
    m = re.search(r"[eE]([-+]?)([\d_]+)", literal)
    if m is None or int(m[2].replace("_", "").lstrip("0")[:5] or 0) <= _MAX_EXPONENT:
        return 0
    return -1 if m[1] == "-" else 1


def _finite(value: dict, pos: int) -> dict:
    """value, or ParseError at pos where the operation there left the float range."""
    if math.inf in value:
        raise ParseError("Gaussian scale is beyond the float range", pos)
    if not all(all(map(cmath.isfinite, coeffs)) for coeffs in value.values()):
        raise ParseError("coefficient is beyond the float range", pos)
    return value


class _Parser:
    """Recursive descent over the grammar; values are dicts a -> coeff list,
    where a == 0.0 marks a plain polynomial part."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    # grammar rules ---------------------------------------------------------

    def parse_expr(self):
        kind, val, _ = self.peek()
        neg = kind == "op" and val == "-"
        if neg:
            self.next()
        value = self.parse_term()
        if neg:
            value = _mul_terms([(0.0, [complex(-1.0)])], value.items())
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in "+-":
                return value
            self.next()
            rhs = self.parse_term()
            sign = 1 if val == "+" else -1
            # value + sign * rhs, each left list padded with 0j to the right one
            left, right = dict(value), []
            for a, coeffs in rhs.items():
                old = left.get(a, [])
                left[a] = old + [0j] * (len(coeffs) - len(old))
                right.append((a, [sign * c for c in coeffs]))
            value = _finite(_add_terms([*left.items(), *right]), pos)

    def parse_term(self):
        value = self.parse_unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_unary()
                if val == "*":
                    if max(map(len, value.values())) + max(map(len, rhs.values())) - 2 \
                            > _MAX_DEGREE:
                        raise ParseError(_DEGREE_ERROR, pos)
                    value = _finite(_mul_terms(value.items(), rhs.items()), pos)
                else:
                    if set(rhs) != {0.0} or len(rhs[0.0]) != 1:
                        raise ParseError("division is only defined by constants", pos)
                    divisor = rhs[0.0][0]
                    if divisor == 0:
                        raise ParseError("division by zero", pos)
                    value = _finite(_mul_terms(value.items(), [(0.0, [1.0 / divisor])]), pos)
            else:
                return value

    def parse_unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return _mul_terms([(0.0, [complex(-1.0)])], self.parse_unary().items())
        return self.parse_factor()

    def parse_factor(self):
        kind, val, pos = self.next()
        if kind == "num":
            x = float(val)  # the decimal literal, correctly rounded
            if x == math.inf:
                raise ParseError("number is beyond the float range", pos)
            return {0.0: [complex(x)]}
        if kind == "name":
            if val == "i":
                return {0.0: [1j]}
            if val == "pi":
                return {0.0: [complex(math.pi)]}
            if val == "sqrt2":
                return {0.0: [complex(math.sqrt(2.0))]}
            if val == "t":
                power = 1
                k2, v2, _ = self.peek()
                if k2 == "op" and v2 == "^":
                    self.next()
                    k3, v3, p3 = self.next()
                    if k3 != "num" or not v3.isdigit():
                        raise ParseError("exponent must be a nonnegative integer", p3)
                    digits = v3.lstrip("0")
                    if len(digits) > len(str(_MAX_DEGREE)) or int(digits or 0) > _MAX_DEGREE:
                        raise ParseError(_DEGREE_ERROR, p3)
                    power = int(digits or 0)
                return {0.0: [0j] * power + [1 + 0j]}
            if val == "exp":
                return self.parse_exp(pos)
            raise ParseError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            value = self.parse_expr()
            self.expect_op(")")
            return value
        raise ParseError("expected a factor", pos)

    def parse_exp(self, exp_pos: int):
        self.expect_op("(")
        kind, val, _ = self.peek()
        negative = kind == "op" and val == "-"
        if negative:
            self.next()
        q = Fraction(1)
        pi_pow = 0
        t2_seen = False
        dividing = False
        while True:
            kind, val, pos = self.next()
            if kind == "num":
                if huge := _huge_exponent(val):
                    where = "beyond" if (huge > 0) != dividing else "below"
                    raise ParseError(f"Gaussian scale is {where} the float range", exp_pos)
                q = q / Fraction(val) if dividing else q * Fraction(val)
            elif kind == "name" and val == "pi":
                pi_pow += -1 if dividing else 1
            elif kind == "name" and val == "t":
                self.expect_op("^")
                k2, v2, p2 = self.next()
                if k2 != "num" or v2 != "2":
                    raise ParseError("Gaussian argument must use t^2", p2)
                if dividing:
                    raise ParseError("t^2 cannot appear in a denominator", pos)
                if t2_seen:
                    raise ParseError("t^2 must appear exactly once", pos)
                t2_seen = True
            else:
                raise ParseError("expected number, pi or t^2 in exp()", pos)
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                dividing = val == "/"
                continue
            break
        self.expect_op(")")
        if not t2_seen:
            raise ParseError("exp() argument must contain t^2", exp_pos)
        if not negative or q <= 0:
            raise ParseError("Gaussian scale must be positive "
                             "(use exp(-pi*<rational>*t^2))", exp_pos)
        try:
            a = float(q if pi_pow == 1 else q * PI_50 ** (pi_pow - 1))
        except OverflowError:
            raise ParseError("Gaussian scale is beyond the float range", exp_pos) from None
        if a == 0.0:
            raise ParseError("Gaussian scale is below the float range", exp_pos)
        return {a: [1 + 0j]}


def parse(src: str) -> ParsedExpr:
    """Parse an expression into a GaussPoly; see the module docstring."""
    p = _Parser(src)
    value = p.parse_expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    terms = []
    for a, coeffs in value.items():
        if all(c == 0 for c in coeffs):
            continue
        if a == 0.0:
            raise ParseError(
                "polynomial without Gaussian factor is not a Schwartz function",
                len(src))
        terms.append((a, coeffs))
    return ParsedExpr(src, GaussPoly(terms))
