"""The function space spanned by all minors of an l x lp matrix of variables.

A basis element is the determinant of the submatrix on a row set and an equal
sized column set; the 0x0 minor is the constant 1.  The canonical basis order
is: ascending minor order, then lexicographic row set, then lexicographic
column set, so position 0 is always the constant and the last position is the
leading maximal minor for square shapes.  This order is an artifact
convention (any fixed order works); all exported coefficient vectors use it.

A combination is stored densely as a coefficient tuple over that basis, in
a frozen slotted value class rather than a dataclass, which keeps the
dataclasses import out of start-up.  MinorCombination(...) checks the
length and range of the coefficients; sums, scalings, specializations and
expansions build theirs from coefficients already in range and skip that
check (MinorCombination._of).
The text rendering is one line per nonzero term, "rowset|colset: coeff",
with "-|-" for the constant term.

The expansion engine `det_product_expansion` writes det(X[rows, :] @ V + N)
as a combination of minors of X: split the determinant by which columns are
taken from the constant block N (multilinearity in columns), expand those
columns out (generalized Laplace, sign (-1)^(sum of local row and column
positions)), and open the remaining product minor over column subsets of V
(Cauchy-Binet).  Every minor of V and N is read from a table of all of
them, computed once per call.  Which minors are read, with which sign and
into which basis position, depends on the shape only, not on the field: it
is planned once per (l, lp, rows, shift rows, columns) and memoized, as the
tables' own first-row expansion is per matrix shape and order, so a call
does only field arithmetic.  Row translations, basis changes of the column
space, and the translation expansion of det(X + B) are all instances of it.
Substituting a row or column is planned the same way, once per (l, lp,
line, direction).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from .matrices import MatrixGF, _all_minors
from .params import CodeParams, dimension_formula

__all__ = [
    "MinorIndex",
    "MinorCombination",
    "minor_basis",
    "basis_positions",
    "leading_maximal_minor",
    "specialize_row",
    "specialize_col",
    "row_vanishing_locus",
    "det_product_expansion",
    "det_translation_expand",
    "absorb_translation",
]


class MinorIndex(NamedTuple):
    """Row set and column set of one minor, both 1-based strictly increasing."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        r = ",".join(str(i) for i in self.rows) or "-"
        c = ",".join(str(j) for j in self.cols) or "-"
        return f"{r}|{c}"


EMPTY_MINOR = MinorIndex((), ())


@lru_cache(maxsize=None)
def minor_basis(p: CodeParams) -> tuple[MinorIndex, ...]:
    """All minors of the l x lp variable matrix in canonical order."""
    out = []
    for size in range(p.l + 1):
        for rows in combinations(range(1, p.l + 1), size):
            for cols in combinations(range(1, p.lp + 1), size):
                out.append(MinorIndex(rows, cols))
    basis = tuple(out)
    assert len(basis) == dimension_formula(p)
    return basis


@lru_cache(maxsize=None)
def basis_positions(p: CodeParams) -> dict[MinorIndex, int]:
    return {mi: pos for pos, mi in enumerate(minor_basis(p))}


class MinorCombination:
    """A linear combination of minors, dense over the canonical basis.

    A frozen value like CodeParams: equal and hashed by (params, coeffs),
    never equal to a bare tuple, and any assignment raises AttributeError.
    """

    __slots__ = ("params", "coeffs")
    __match_args__ = ("params", "coeffs")

    params: CodeParams
    coeffs: tuple[int, ...]

    def __init__(self, params: CodeParams, coeffs: tuple[int, ...]) -> None:
        dim = dimension_formula(params)
        if len(coeffs) != dim:
            raise ValueError(f"need {dim} coefficients, got {len(coeffs)}")
        q = params.q
        if any(not 0 <= c < q for c in coeffs):
            raise ValueError(f"coefficients must be element indices in [0, {q})")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coeffs", coeffs)

    def __repr__(self) -> str:
        return f"MinorCombination(params={self.params!r}, coeffs={self.coeffs!r})"

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.params, self.coeffs) == (other.params, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.params, self.coeffs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through __init__, not __setattr__
        return MinorCombination, (self.params, self.coeffs)

    # -- constructors --

    @classmethod
    def _of(cls, params: CodeParams, coeffs: tuple[int, ...]) -> MinorCombination:
        """A combination the package computed itself: coeffs is a tuple of
        dimension_formula(params) element indices by construction, so
        nothing is checked."""
        f = object.__new__(cls)
        object.__setattr__(f, "params", params)
        object.__setattr__(f, "coeffs", coeffs)
        return f

    @classmethod
    def zero(cls, p: CodeParams) -> MinorCombination:
        return cls(p, (0,) * dimension_formula(p))

    @classmethod
    def constant(cls, p: CodeParams, c: int) -> MinorCombination:
        coeffs = [0] * dimension_formula(p)
        coeffs[0] = c
        return cls(p, tuple(coeffs))

    @classmethod
    def single(cls, p: CodeParams, mi: MinorIndex, c: int = 1) -> MinorCombination:
        coeffs = [0] * dimension_formula(p)
        coeffs[basis_positions(p)[mi]] = c
        return cls(p, tuple(coeffs))

    # -- queries --

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def coeff(self, mi: MinorIndex) -> int:
        return self.coeffs[basis_positions(self.params)[mi]]

    def support(self) -> set[MinorIndex]:
        basis = minor_basis(self.params)
        return {basis[i] for i, c in enumerate(self.coeffs) if c}

    def terms(self) -> Iterator[tuple[MinorIndex, int]]:
        basis = minor_basis(self.params)
        for i, c in enumerate(self.coeffs):
            if c:
                yield basis[i], c

    def evaluate(self, point: MatrixGF) -> int:
        """Value at an l x lp matrix over the same field."""
        p = self.params
        if (point.nrows, point.ncols) != (p.l, p.lp):
            raise ValueError(f"point must be {p.l}x{p.lp}, got {point.nrows}x{point.ncols}")
        gf = p.field()
        if point.gf != gf:
            raise ValueError(f"field mismatch: {point.gf} vs {gf}")
        out = 0
        for mi, c in self.terms():
            out = gf.add(out, gf.mul(c, point.minor(mi.rows, mi.cols)))
        return out

    # -- arithmetic --

    def _same_space(self, other: MinorCombination) -> None:
        if self.params != other.params:
            raise ValueError(f"space mismatch: {self.params} vs {other.params}")

    def __add__(self, other: MinorCombination) -> MinorCombination:
        self._same_space(other)
        add = self.params.field().add
        return MinorCombination._of(self.params, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: MinorCombination) -> MinorCombination:
        return self + (-other)

    def __neg__(self) -> MinorCombination:
        neg = self.params.field().neg
        return MinorCombination._of(self.params, tuple(map(neg, self.coeffs)))

    def scale(self, c: int) -> MinorCombination:
        mul = self.params.field().mul
        return MinorCombination._of(self.params, tuple(mul(c, a) for a in self.coeffs))

    # -- rendering --

    def to_text(self) -> str:
        return "\n".join(f"{mi}: {c}" for mi, c in self.terms())

    def __str__(self) -> str:
        return self.to_text() or "0"


def leading_maximal_minor(p: CodeParams) -> MinorCombination:
    """The determinant of the first l columns, the orbit anchor everywhere."""
    mi = MinorIndex(tuple(range(1, p.l + 1)), tuple(range(1, p.l + 1)))
    return MinorCombination.single(p, mi)


def _shift_past(labels: tuple[int, ...], removed: int) -> tuple[int, ...]:
    return tuple(x if x < removed else x - 1 for x in labels)


@lru_cache(maxsize=None)
def _specialization_plan(l: int, lp: int, line: int, is_row: bool) -> tuple[tuple, tuple]:
    """The index work of substituting row (or column) `line`, which depends
    on the shape only: each minor that avoids the line as (source position,
    target position of the same minor with later labels shifted down), and
    the Laplace terms along the line of each minor that uses it as (source
    position, vector index, target position, sign parity)."""
    source = minor_basis(CodeParams(2, l, lp))  # the same for every field
    pos = basis_positions(CodeParams(2, l - 1, lp) if is_row else CodeParams(2, l, lp - 1))

    def at(along: tuple[int, ...], across: tuple[int, ...]) -> int:
        return pos[(along, across) if is_row else (across, along)]

    kept, used = [], []
    for s, (rows, cols) in enumerate(source):
        # labels along the substituted line's direction, and across it
        along, across = (rows, cols) if is_row else (cols, rows)
        if line not in along:
            kept.append((s, at(_shift_past(along, line), across)))
            continue
        u = along.index(line) + 1
        rest = _shift_past(tuple(x for x in along if x != line), line)
        for t, x in enumerate(across, start=1):
            others = tuple(y for y in across if y != x)
            used.append((s, x - 1, at(rest, others), (u + t) % 2))
    return tuple(kept), tuple(used)


def _specialization_terms(
    f: MinorCombination, line: int, is_row: bool
) -> tuple[CodeParams, list[int], list[list[tuple[int, int]]]]:
    """f with row (or column) `line` substituted by a vector v, as
    (target shape, base, directions): the specialization at v is base plus
    v[x] * T_x summed over x, where directions[x] lists T_x's nonzero
    coefficients as (target position, c).  Read off f's coefficients through
    the plan made once per shape."""
    p = f.params
    target = CodeParams(p.q, p.l - 1, p.lp) if is_row else CodeParams(p.q, p.l, p.lp - 1)
    kept, used = _specialization_plan(p.l, p.lp, line, is_row)
    coeffs, neg = f.coeffs, p.field().neg
    base = [0] * dimension_formula(target)
    # kept minors land on distinct targets, so they are copied, not added
    for s, t in kept:
        base[t] = coeffs[s]
    directions: list[list[tuple[int, int]]] = [[] for _ in range(p.lp if is_row else p.l)]
    for s, x, t, odd in used:
        if coeffs[s]:
            directions[x].append((t, neg(coeffs[s]) if odd else coeffs[s]))
    return target, base, directions


def _specialized(f: MinorCombination, line: int, is_row: bool, v: tuple[int, ...]) -> MinorCombination:
    """f with row (or column) `line` substituted by v: base plus v[x] * T_x
    summed over x (_specialization_terms)."""
    target, out, directions = _specialization_terms(f, line, is_row)
    gf = f.params.field()
    add, mul = gf.add, gf.mul
    for a, terms in zip(v, directions):
        if a:
            for t, c in terms:
                out[t] = add(out[t], mul(c, a))
    return MinorCombination._of(target, tuple(out))


def specialize_row(f: MinorCombination, i: int, a: tuple[int, ...]) -> MinorCombination:
    """Substitute row i of the variable matrix by the constant vector a.

    The result lives on (l-1) x lp matrices: minors not involving row i map
    to the same minor with later rows relabelled; minors involving it are
    expanded along that row, each term picking up the sign of its position.
    """
    p = f.params
    if not 1 <= i <= p.l:
        raise ValueError(f"row {i} outside 1..{p.l}")
    if len(a) != p.lp:
        raise ValueError(f"need a vector of length {p.lp}, got {len(a)}")
    if any(not 0 <= x < p.q for x in a):
        raise ValueError("vector entries must be element indices")
    return _specialized(f, i, True, a)


def specialize_col(f: MinorCombination, j: int, b: tuple[int, ...]) -> MinorCombination:
    """Substitute column j by the constant vector b; needs lp > l."""
    p = f.params
    if p.lp == p.l:
        raise ValueError("column specialization needs lp > l, the result must keep l <= lp")
    if not 1 <= j <= p.lp:
        raise ValueError(f"column {j} outside 1..{p.lp}")
    if len(b) != p.l:
        raise ValueError(f"need a vector of length {p.l}, got {len(b)}")
    if any(not 0 <= x < p.q for x in b):
        raise ValueError("vector entries must be element indices")
    return _specialized(f, j, False, b)


def row_vanishing_locus(f: MinorCombination, i: int) -> list[tuple[int, ...]]:
    """All vectors a with specialize_row(f, i, a) identically zero, sorted.

    Zero is tested on coefficients, which is the same as vanishing at every
    point because the minors are linearly independent functions.  The
    specialization at a is base + Σ_x a_x * T_x (_specialization_terms), so
    the locus is the solution set of the linear system Σ_x a_x * T_x = -base,
    one equation per minor of the (l-1) x lp shape.  It is solved once by
    elimination: an inconsistent system has no solution, and otherwise the
    solutions are one particular solution plus every combination of a basis
    of the null space, listed by repetition (one basis vector times each
    scalar added to every vector so far) and sorted.
    """
    p = f.params
    if not 1 <= i <= p.l:
        raise ValueError(f"row {i} outside 1..{p.l}")
    gf, m = p.field(), p.lp
    add, sub, mul, neg = gf.add, gf.sub, gf.mul, gf.neg
    _, base, directions = _specialization_terms(f, i, True)
    # equation t is [T_0[t], ..., T_(m-1)[t] | -base[t]]
    eqs = [[0] * m + [neg(b)] for b in base]
    for x, terms in enumerate(directions):
        for t, c in terms:
            eqs[t][x] = c  # each (t, x) is planned at most once
    # each equation is reduced by the pivot rows before it and, unless that
    # leaves no unknown, becomes one, scaled to 1 at its first unknown
    pivots: list[tuple[int, list[int]]] = []
    for e in eqs:
        for x, top in pivots:
            c = e[x]
            if c:
                e = [sub(y, mul(c, z)) for y, z in zip(e, top)]
        x = next((x for x in range(m) if e[x]), None)
        if x is None:
            if e[m]:
                return []  # the equation reads 0 = -base[t] != 0
            continue
        inv = gf.inv(e[x])
        pivots.append((x, [mul(inv, y) for y in e]))
    # a pivot row is zero at every earlier pivot, so solving the last first
    # reads only unknowns already set
    pivots.reverse()

    def solve(v: list[int], rhs: bool) -> tuple[int, ...]:
        """v with its pivot unknowns solved from its free ones, against
        -base, or against zero for a null vector."""
        for x, top in pivots:
            s = top[m] if rhs else 0
            for y in range(m):
                if y != x and top[y] and v[y]:
                    s = sub(s, mul(top[y], v[y]))
            v[x] = s
        return tuple(v)

    locus = [solve([0] * m, True)]
    bound = {x for x, _ in pivots}
    for y in range(m):
        if y not in bound:
            null = solve([int(y == x) for x in range(m)], False)
            steps = [[mul(c, z) for z in null] for c in range(1, p.q)]
            locus += [tuple(map(add, v, step)) for step in steps for v in locus]
    locus.sort()
    return locus


def det_product_expansion(
    p: CodeParams, rows: tuple[int, ...], col_mix: MatrixGF, shift: MatrixGF
) -> MinorCombination:
    """Coefficients of det(X[rows, :] @ col_mix + shift) over the minor basis.

    X is the l x lp variable matrix of `p`, `rows` selects r of its rows,
    col_mix is lp x r and mixes its columns, and shift is an r x r constant
    block.  See the module docstring for the three-step expansion.
    """
    gf = p.field()
    r = len(rows)
    if any(not 1 <= x <= p.l for x in rows) or list(rows) != sorted(set(rows)):
        raise ValueError(f"rows must be strictly increasing in 1..{p.l}, got {rows}")
    if (col_mix.nrows, col_mix.ncols) != (p.lp, r):
        raise ValueError(f"col_mix must be {p.lp}x{r}, got {col_mix.nrows}x{col_mix.ncols}")
    if (shift.nrows, shift.ncols) != (r, r):
        raise ValueError(f"shift must be {r}x{r}, got {shift.nrows}x{shift.ncols}")
    if col_mix.gf != gf or shift.gf != gf:
        raise ValueError("field mismatch")
    local = tuple(range(1, r + 1))
    return _expansion(p, [(rows, local, local, 1)], _all_minors(col_mix, r), _all_minors(shift, r))


def _expansion(p: CodeParams, terms: Iterable, mix: dict, shift: dict) -> MinorCombination:
    """The sum of c * det(X[rows, :] @ V[:, cols] + N[shift_rows, cols]) over
    the terms (rows, shift_rows, cols, c), reading the minors of V and N from
    their matrices._all_minors tables mix and shift at the keys that
    _expansion_plan lists; only the field arithmetic is done here."""
    gf = p.field()
    add, mul = gf.add, gf.mul
    out = [0] * dimension_formula(p)
    for rows, shift_rows, cols, c in terms:
        signed = (c, gf.neg(c))
        for s_key, odd, reads in _expansion_plan(p.l, p.lp, rows, shift_rows, cols):
            w = shift[s_key]
            if w:
                w = mul(signed[odd], w)
                for m_key, j in reads:
                    v = mix[m_key]
                    if v:
                        out[j] = add(out[j], mul(w, v))
    return MinorCombination._of(p, tuple(out))


@lru_cache(maxsize=None)
def _expansion_plan(l: int, lp: int, rows: tuple, shift_rows: tuple, cols: tuple) -> tuple:
    """The index work of one _expansion term, which depends on the shape
    only.  Per set S of local columns taken from N and set T of local rows
    expanded against them: the key of N's minor on T and S, the parity of
    the Laplace sign, and per column set P of X the key of V's minor on P
    and the other columns, with the basis position of X's minor on the other
    rows and P."""
    pos = basis_positions(CodeParams(2, l, lp))  # the same for every field
    plan = []
    local = range(len(rows))
    for s_cols in _subsets(local):
        rest = tuple(cols[x] for x in local if x not in s_cols)
        s_labels = tuple(cols[x] for x in s_cols)
        pickable = list(combinations(range(1, lp + 1), len(rest)))
        for t_rows in combinations(local, len(s_cols)):
            x_rows = tuple(rows[t] for t in local if t not in t_rows)
            reads = tuple(((picked, rest), pos[x_rows, picked]) for picked in pickable)
            s_key = (tuple(shift_rows[t] for t in t_rows), s_labels)
            plan.append((s_key, (sum(t_rows) + sum(s_cols)) % 2, reads))
    return tuple(plan)


def _subsets(r: range) -> Iterator[tuple[int, ...]]:
    for size in range(len(r) + 1):
        yield from combinations(r, size)


def det_translation_expand(b: MatrixGF) -> MinorCombination:
    """Expansion of det(X + b) over the minors of a square variable matrix."""
    if b.nrows != b.ncols:
        raise ValueError("translation expansion needs a square shift")
    n = b.nrows
    p = CodeParams(b.gf.q, n, n)
    return det_product_expansion(p, tuple(range(1, n + 1)), MatrixGF.identity(b.gf, n), b)


def absorb_translation(f: MinorCombination) -> tuple[MatrixGF, MinorCombination]:
    """Split f = det(X + A) + h for square shapes, h supported below order l-1.

    Requires the maximal minor coefficient of f to be 1.  A is read off the
    submaximal coefficients: entry (i, j) is the complementary-signed
    coefficient of the minor that deletes row i and column j.  A is unique;
    h is the exact remainder and never touches orders l and l-1.
    """
    p = f.params
    if p.l != p.lp:
        raise ValueError("translation absorption needs a square variable matrix")
    l = p.l
    gf = p.field()
    full = tuple(range(1, l + 1))
    if f.coeff(MinorIndex(full, full)) != 1:
        raise ValueError("the maximal minor coefficient must be 1")
    entries = []
    for i in range(1, l + 1):
        for j in range(1, l + 1):
            c = f.coeff(
                MinorIndex(tuple(r for r in full if r != i), tuple(s for s in full if s != j))
            )
            entries.append(gf.neg(c) if (i + j) % 2 else c)
    a = MatrixGF(gf, l, l, tuple(entries))
    h = f - det_translation_expand(a)
    assert all(mi.order <= l - 2 for mi in h.support())
    return a, h
