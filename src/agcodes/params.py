"""Code parameters and the closed-form counting formulas.

Everything here is exact big-integer arithmetic: Gaussian binomials,
q-factorials, the dimension / minimum distance / minimum weight count of the
affine Grassmann code on l x lp matrices over GF(q), and the order of its
affine symmetry group together with the stabilizer of the leading maximal
minor.  Formulas that have two published shapes assert the agreement of both
shapes internally, so a wrong transcription cannot survive a single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .fields import GF, factor_prime_power, field_for_order

__all__ = [
    "CodeParams",
    "q_factorial",
    "gaussian_binomial",
    "gl_order",
    "sl_order",
    "dimension_formula",
    "min_distance_formula",
    "min_weight_count_formula",
    "group_order_formula",
    "stabilizer_order_formula",
]


@dataclass(frozen=True)
class CodeParams:
    """Shape (q, l, lp) of the code on l x lp matrices over GF(q).

    The convention l <= lp is enforced: the transposed shape evaluates the
    same functions, so nothing is lost.  l = 0 is accepted to give row
    specialization a home: the space degenerates to the constants, and the
    code built on it is the [1, 1, 1] constant code.  The identity suites
    and min_weight_witness need l >= 1.
    """

    q: int
    l: int
    lp: int

    def __post_init__(self) -> None:
        factor_prime_power(self.q)  # raises unless q is a prime power >= 2
        if self.lp < 1:
            raise ValueError(f"need lp >= 1, got lp={self.lp}")
        if self.l < 0:
            raise ValueError(f"need l >= 0, got l={self.l}")
        if self.l > self.lp:
            raise ValueError(
                f"need l <= lp, got l={self.l} > lp={self.lp}; "
                f"swap them (the transposed matrix gives the same code)"
            )

    @property
    def m(self) -> int:
        return self.l + self.lp

    @property
    def delta(self) -> int:
        return self.l * self.lp

    @property
    def npoints(self) -> int:
        return self.q**self.delta

    def field(self) -> GF:
        return field_for_order(self.q)


def q_factorial(d: int, q: int) -> int:
    """q-factorial [d]_q! = prod_{i=1..d} [i]_q with [i]_q = (q^i - 1)/(q - 1)."""
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    out = 1
    for i in range(1, d + 1):
        out *= (q**i - 1) // (q - 1)
    return out


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def gl_order(n: int, q: int) -> int:
    """Order of GL(n, GF(q)): prod_{i=0..n-1} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def sl_order(n: int, q: int) -> int:
    """Order of SL(n, GF(q))."""
    if n == 0:
        return 1
    return gl_order(n, q) // (q - 1)


@lru_cache(maxsize=None)
def dimension_formula(p: CodeParams) -> int:
    """Code dimension: the number of minors of an l x lp matrix, binom(m, l)."""
    k = comb(p.m, p.l)
    # Vandermonde convolution: summing minors by order gives the same count.
    assert k == sum(comb(p.l, p.l - i) * comb(p.lp, i) for i in range(p.l + 1))
    return k


def min_distance_formula(p: CodeParams) -> int:
    """Minimum distance q^(delta - l^2) * |GL(l, GF(q))|.

    The equivalent shape q^(delta - l(l+1)/2) * [l]_q! * (q-1)^l is asserted
    against it, so both published forms must agree for every call.
    """
    q, l = p.q, p.l
    d = q ** (p.delta - l * l) * gl_order(l, q)
    alt = q ** (p.delta - l * (l + 1) // 2) * q_factorial(l, q) * (q - 1) ** l
    assert d == alt
    return d


def min_weight_count_formula(p: CodeParams) -> int:
    """Number of minimum weight codewords: (q-1) * q^(l^2) * binom_q(lp, l)."""
    q, l = p.q, p.l
    return (q - 1) * q ** (l * l) * gaussian_binomial(p.lp, l, q)


def stabilizer_order_formula(p: CodeParams) -> int:
    """Order of the stabilizer of the leading maximal minor in the affine group."""
    q, l, lp = p.q, p.l, p.lp
    out = q ** (l * (lp - l)) * sl_order(l, q)
    for i in range(l, lp):
        out *= q**lp - q**i
    return out


def group_order_formula(p: CodeParams) -> int:
    """Order of the affine symmetry group: q^delta * |GL(lp, GF(q))|.

    Checked against the orbit-stabilizer product with the minimum weight
    count, which the group acts on transitively.
    """
    g = p.q**p.delta * gl_order(p.lp, p.q)
    assert g == min_weight_count_formula(p) * stabilizer_order_formula(p)
    return g
