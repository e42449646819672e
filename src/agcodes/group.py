"""The affine symmetry group of the evaluation domain and its two actions.

An element is a map P -> P A^(-1) + u with u an l x lp translation and A an
invertible lp x lp matrix; composition follows the semidirect product of the
translation group with GL(lp).  The group acts on points, hence by
coordinate permutation on codewords, and symbolically on minor combinations
by substitution: act_on_poly(phi, f) is the exact coefficient vector of
f(X A^(-1) + u), computed by the expansion engine from one table of the
minors of A^(-1) and one of u, never by interpolation.
The coordinate permutation acts on point indices, not matrices: row i of
P A^(-1) + u is (row i of P) A^(-1) + u_i, so one table per row i maps a
row index to the image row's index, and a point's image index is the sum of
the l table entries at its row digits.  generating_set(p) lists elementary
translations and linear maps that generate the whole group, so a property
closed under composition can be certified on them instead of on every
element.

The orbit of the leading maximal minor under this action is the full set of
minimum weight codewords; generate_min_weight_polys walks a bijective
parametrization of it (scalar, canonical column space representative,
translation block) and min_weight_witness inverts it, reading the
parameters off f's order-l and order l-1 coefficients, at positions and
signs planned once per shape and pivot set, and confirming them with one
expansion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import mul as int_mul

from . import limits
from .matrices import MatrixGF, _all_minors, enumerate_gl, enumerate_rref
from .minors import (
    MinorCombination,
    _expansion,
    basis_positions,
    det_product_expansion,
    leading_maximal_minor,
)
from .params import CodeParams, group_order_formula, min_weight_count_formula

__all__ = [
    "AffineMap",
    "apply_point",
    "compose",
    "inverse",
    "act_on_poly",
    "permutation",
    "apply_permutation",
    "enumerate_group",
    "generating_set",
    "stabilizer_test",
    "stabilizer_criterion",
    "generate_min_weight_polys",
    "min_weight_witness",
]


class AffineMap:
    """P -> P A^(-1) + u on the l x lp matrix domain of `params`."""

    __slots__ = ("params", "u", "a", "a_inv")

    def __init__(self, params: CodeParams, u: MatrixGF, a: MatrixGF):
        gf = params.field()
        if (u.nrows, u.ncols) != (params.l, params.lp) or u.gf != gf:
            raise ValueError(f"translation must be {params.l}x{params.lp} over GF({params.q})")
        if (a.nrows, a.ncols) != (params.lp, params.lp) or a.gf != gf:
            raise ValueError(f"the linear part must be {params.lp}x{params.lp} over GF({params.q})")
        try:
            self.a_inv = a.inverse()
        except ValueError:
            raise ValueError("the linear part must be invertible") from None
        self.params = params
        self.u = u
        self.a = a

    @classmethod
    def _known_inverse(cls, params: CodeParams, u: MatrixGF, a: MatrixGF, a_inv: MatrixGF) -> AffineMap:
        """The map (u, a) whose inverse linear part a_inv the caller has
        already computed as a product of known inverses."""
        phi = cls.__new__(cls)
        phi.params, phi.u, phi.a, phi.a_inv = params, u, a, a_inv
        return phi

    @classmethod
    def identity(cls, params: CodeParams) -> AffineMap:
        gf = params.field()
        return cls(params, MatrixGF.zeros(gf, params.l, params.lp), MatrixGF.identity(gf, params.lp))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineMap)
            and self.params == other.params
            and self.u == other.u
            and self.a == other.a
        )

    def __hash__(self) -> int:
        return hash((self.params, self.u, self.a))

    def __repr__(self) -> str:
        return f"AffineMap(u={self.u._flat}, a={self.a._flat})"


def apply_point(phi: AffineMap, point: MatrixGF) -> MatrixGF:
    """The image P A^(-1) + u of a domain point."""
    return point @ phi.a_inv + phi.u


def compose(phi: AffineMap, psi: AffineMap) -> AffineMap:
    """The map acting as phi after psi."""
    if phi.params != psi.params:
        raise ValueError("cannot compose maps on different domains")
    u = psi.u @ phi.a_inv + phi.u
    return AffineMap._known_inverse(phi.params, u, phi.a @ psi.a, psi.a_inv @ phi.a_inv)


def inverse(phi: AffineMap) -> AffineMap:
    """The two-sided inverse map."""
    return AffineMap._known_inverse(phi.params, -(phi.u @ phi.a), phi.a_inv, phi.a)


def act_on_poly(phi: AffineMap, f: MinorCombination) -> MinorCombination:
    """The exact coefficient vector of f(X A^(-1) + u).

    Each basis minor on rows R and columns C becomes
    det(X[R, :] @ A^(-1)[:, C] + u[R, C]), expanded symbolically from one
    table of the minors of A^(-1) and one of the minors of u.
    """
    p = f.params
    if phi.params != p:
        raise ValueError("map and combination live on different domains")
    mix, shift = _all_minors(phi.a_inv, p.l), _all_minors(phi.u, p.l)
    return _expansion(p, ((mi.rows, mi.rows, mi.cols, c) for mi, c in f.terms()), mix, shift)


def permutation(phi: AffineMap) -> tuple[int, ...]:
    """The coordinate permutation of phi: position j holds the index of phi(P_j).

    Applying it to the codeword of f (new[j] = old[perm[j]]) yields the
    codeword of act_on_poly(phi, f).  Row i of phi(P) depends on row i of P
    alone, so the index of phi(P) is the sum over i of a table entry at
    P's i-th row digit (see _row_tables); no MatrixGF is made per point.
    """
    p = phi.params
    limits.ensure_power("points", p.q, p.delta, f"enumerating the domain of {p}")
    # point index sum_i r_i q^(lp i), row digit r_0 fastest
    out = [0]
    for table in _row_tables(phi):
        out = [y + x for y in table for x in out]
    return tuple(out)


def _row_tables(phi: AffineMap) -> list[list[int]]:
    """Per row i of the domain, entry r holds q^(lp i) times the row index of
    r A^(-1) + u_i, for the q^lp rows r in index order (entry j of a row is
    its base-q digit j).  Each table grows from u_i one digit j at a time by
    adding every multiple of row j of A^(-1)."""
    p = phi.params
    gf, q, lp = p.field(), p.q, p.lp
    add, mul = gf.add, gf.mul
    steps = [[tuple(mul(c, x) for x in row) for c in range(q)] for row in phi.a_inv.rows()]
    tables = []
    for i in range(1, p.l + 1):
        images = [phi.u.row(i)]
        for step in steps:
            images = [tuple(map(add, v, s)) for s in step for v in images]
        weights = [q ** (lp * (i - 1) + j) for j in range(lp)]
        tables.append([sum(map(int_mul, v, weights)) for v in images])
    return tables


def apply_permutation(vector: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Pull back a codeword along a coordinate permutation."""
    return tuple(vector[j] for j in perm)


def enumerate_group(p: CodeParams):
    """All affine maps, translations outer, linear parts inner, both in
    lexicographic entry order."""
    limits.ensure("group", group_order_formula(p), f"enumerating the affine group of {p}")
    gf = p.field()
    linear = [(a, a.inverse()) for a in enumerate_gl(p.lp, gf)]
    for flat in product(range(p.q), repeat=p.delta):
        u = MatrixGF._of(gf, p.l, p.lp, flat)
        for a, a_inv in linear:
            yield AffineMap._known_inverse(p, u, a, a_inv)


def generating_set(p: CodeParams) -> list[AffineMap]:
    """A generating set of the affine group of p, with c running over the
    F_p-basis 1, p, ..., p^(e-1) of GF(q) (the monomials 1, x, ..., x^(e-1)):
    the translations by c E_ij, which span the l x lp matrices additively;
    the transvections I + c E_ij for i != j, which generate SL(lp, q); and
    for q > 2 the diagonal diag(g, 1, ..., 1) of the primitive element g,
    whose determinant generates GF(q)^*, so that GL(lp, q) is reached."""
    gf = p.field()
    basis = [gf.p**t for t in range(gf.e)]
    zero = MatrixGF.zeros(gf, p.l, p.lp)
    one = MatrixGF.identity(gf, p.lp)

    def with_entry(base: MatrixGF, pos: int, c: int) -> MatrixGF:
        """base with flat entry pos set to c."""
        flat = list(base._flat)
        flat[pos] = c
        return MatrixGF._of(gf, base.nrows, base.ncols, tuple(flat))

    out = [AffineMap(p, with_entry(zero, pos, c), one) for pos in range(p.delta) for c in basis]
    for i, j in product(range(p.lp), repeat=2):
        if i != j:
            out += [AffineMap(p, zero, with_entry(one, i * p.lp + j, c)) for c in basis]
    if gf.q > 2:
        out.append(AffineMap(p, zero, with_entry(one, 0, gf.generator)))
    return out


def stabilizer_test(phi: AffineMap) -> bool:
    """Whether phi fixes the leading maximal minor as a function."""
    anchor = leading_maximal_minor(phi.params)
    return act_on_poly(phi, anchor) == anchor


def stabilizer_criterion(phi: AffineMap) -> bool:
    """Structural test for the same stabilizer, without symbolic expansion.

    phi fixes the anchor iff the first l columns of u vanish and the first l
    columns of A^(-1) are an invertible block of determinant 1 on the top l
    rows with zeros below.
    """
    p = phi.params
    l = p.l
    lead = tuple(range(1, l + 1))
    if not phi.u.submatrix(tuple(range(1, l + 1)), lead).is_zero:
        return False
    m = phi.a_inv.submatrix(tuple(range(1, p.lp + 1)), lead)
    top = m.submatrix(lead, lead)
    bottom = m.submatrix(tuple(range(l + 1, p.lp + 1)), lead)
    return bottom.is_zero and top.det() == 1


def _canonical_column_reps(p: CodeParams) -> list[MatrixGF]:
    """One full-rank lp x l matrix per l-dimensional column space, in
    reduced column echelon form; transposes of the row echelon enumeration."""
    return [r.transpose() for r in enumerate_rref(p.l, p.lp, p.field())]


def generate_min_weight_polys(p: CodeParams) -> list[MinorCombination]:
    """Every minimum weight combination, sorted by coefficient vector.

    The parametrization runs over nonzero scalars, canonical column space
    representatives M (lp x l), and translation blocks m (l x l), emitting
    scalar * det(X M + m); it is bijective onto the minimum weight count,
    which is asserted.
    """
    count = min_weight_count_formula(p)
    limits.ensure("group", count, f"generating the minimum weight family of {p}")
    gf = p.field()
    lead = tuple(range(1, p.l + 1))
    out = []
    for rep in _canonical_column_reps(p):
        for flat in product(range(p.q), repeat=p.l * p.l):
            shift = MatrixGF(gf, p.l, p.l, flat)
            base = det_product_expansion(p, lead, rep, shift)
            for lam in range(1, p.q):
                out.append(base.scale(lam))
    assert len(out) == count
    assert len({f.coeffs for f in out}) == count, "parametrization must be bijective"
    out.sort(key=lambda f: f.coeffs)
    return out


def min_weight_witness(
    f: MinorCombination,
) -> tuple[int, MatrixGF, MatrixGF] | None:
    """Read the minimum weight parameters off f's coefficients, or refute membership.

    Returns (scalar, M, m) with f = scalar * det(X M + m), M the canonical
    column space representative, or None when f is not of minimum weight.
    By Cauchy-Binet the order-l coefficients of scalar * det(X M + m) are
    scalar times the Pluecker coordinates of M's column space, and the
    column-reduced M has coordinate 1 on its pivot set S and 0 on every
    earlier column set.  So S and the scalar are f's first nonzero order-l
    coefficient; entry (j, i) of M off S is the coordinate on S with its
    i-th label swapped for j; entry (i, j) of m is the coefficient on the
    rows and columns that drop i from 1..l and the j-th label from S; all
    up to sign and the scalar.  Which coefficient lands where, with which
    sign, depends on (l, lp) and S only and is read from _witness_plan.
    One expansion confirms the read-off.
    """
    p = f.params
    l, lp = p.l, p.lp
    if l == 0:
        raise ValueError("the minimum weight family needs l >= 1")
    coeffs = f.coeffs
    for top, ones, reads in _witness_plan(l, lp):
        scalar = coeffs[top]
        if scalar:
            break
    else:
        return None
    gf = p.field()
    mul, inv = gf.mul, gf.inv(scalar)
    signed = (inv, gf.neg(inv))
    out = [0] * (lp * l + l * l)
    for t in ones:
        out[t] = 1
    for t, s, odd in reads:
        out[t] = mul(coeffs[s], signed[odd])
    col_mix = MatrixGF._of(gf, lp, l, tuple(out[: lp * l]))
    shift = MatrixGF._of(gf, l, l, tuple(out[lp * l :]))
    g = det_product_expansion(p, tuple(range(1, l + 1)), col_mix, shift)
    if scalar != 1:
        g = g.scale(scalar)
    if g.coeffs != coeffs:
        return None
    return scalar, col_mix, shift


@lru_cache(maxsize=None)
def _witness_plan(l: int, lp: int) -> tuple:
    """The index work of min_weight_witness, which depends on the shape
    only.  Per pivot set S in basis order: the position of the order-l
    coefficient on S; the flat indices of M's identity entries on S; and
    every other entry of M (flat indices 0..lp*l-1) and of m (lp*l onward)
    as (flat index, coefficient position, sign parity)."""
    pos = basis_positions(CodeParams(2, l, lp))  # the same for every field
    full = tuple(range(1, l + 1))
    plan = []
    for s in combinations(range(1, lp + 1), l):
        ones, reads = [], []
        for i, si in enumerate(s, 1):
            ones.append((si - 1) * l + i - 1)
            rest = tuple(x for x in s if x != si)
            for j in range(1, lp + 1):
                if j not in s:
                    swapped = tuple(sorted(rest + (j,)))
                    odd = (swapped.index(j) + 1 + i) % 2
                    reads.append(((j - 1) * l + i - 1, pos[full, swapped], odd))
        for i in full:
            rows = tuple(x for x in full if x != i)
            for j, sj in enumerate(s, 1):
                cols = tuple(x for x in s if x != sj)
                reads.append((lp * l + (i - 1) * l + j - 1, pos[rows, cols], (i + j) % 2))
        plan.append((pos[full, s], tuple(ones), tuple(reads)))
    return tuple(plan)
