"""Dense matrices over GF(q): exact determinants, echelon forms, minors one
at a time, all minors of one matrix as a table, minors of a whole batch of
matrices at once, and enumeration of all matrices, of GL(n) and of reduced
row echelon forms.

A batch of minors is computed on whole vectors, one per matrix entry across
the batch.  For q <= 16 a vector is one int with a byte lane per entry: a
GF(2) product is one AND, a characteristic-2 sum or difference one XOR, and
any other operation one bytes.translate through a 256-byte table; larger
fields take one gf call per entry (see _Vectors).

Matrices are immutable and hashable; the hash is computed on the first
__hash__ call, not when a matrix is made.  Row and column labels in the
public API are 1-based so that a minor taken on row set {1,2} and column set
{1,3} reads the same as the mathematical notation; storage is a flat
row-major tuple.  A 0x0 matrix has determinant 1, which makes the empty minor
the constant function 1.

MatrixGF(...) and from_rows check that every entry is an element index.
Results the package computes from matrices it already holds (products, sums,
negations, scalings, transposes, submatrices, enumerated matrices) are
element indices by construction and are made by MatrixGF._of, which checks
nothing.  A minor reads its entries straight off the flat tuple, with no
submatrix in between.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from . import limits
from .fields import GF

__all__ = [
    "MatrixGF",
    "enumerate_matrices",
    "enumerate_gl",
    "enumerate_rref",
    "cauchy_binet",
]


class MatrixGF:
    __slots__ = ("gf", "nrows", "ncols", "_flat", "_hash")

    def __init__(self, gf: GF, nrows: int, ncols: int, flat: tuple[int, ...]):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be non-negative")
        if len(flat) != nrows * ncols:
            raise ValueError(f"need {nrows * ncols} entries, got {len(flat)}")
        if flat and (min(flat) < 0 or max(flat) >= gf.q):
            raise ValueError(f"entries must be element indices in [0, {gf.q})")
        self.gf = gf
        self.nrows = nrows
        self.ncols = ncols
        self._flat = tuple(flat)
        self._hash = None

    # -- constructors --

    @classmethod
    def _of(cls, gf: GF, nrows: int, ncols: int, flat: tuple[int, ...]) -> MatrixGF:
        """A matrix the package computed itself: flat is a tuple of
        nrows * ncols element indices of gf by construction, so nothing is
        checked."""
        m = object.__new__(cls)
        m.gf, m.nrows, m.ncols, m._flat, m._hash = gf, nrows, ncols, flat, None
        return m

    @classmethod
    def from_rows(cls, gf: GF, rows: list | tuple) -> MatrixGF:
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(x for r in rows for x in r)
        return cls(gf, len(rows), ncols, flat)

    @classmethod
    def zeros(cls, gf: GF, nrows: int, ncols: int) -> MatrixGF:
        return cls(gf, nrows, ncols, (0,) * (nrows * ncols))

    @classmethod
    def identity(cls, gf: GF, n: int) -> MatrixGF:
        flat = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        return cls(gf, n, n, flat)

    # -- access --

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexError(f"position ({i}, {j}) outside {self.nrows}x{self.ncols}")
        return self._flat[(i - 1) * self.ncols + (j - 1)]

    def row(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row {i} outside {self.nrows}x{self.ncols}")
        return self._flat[(i - 1) * self.ncols : i * self.ncols]

    def col(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.ncols:
            raise IndexError(f"column {j} outside {self.nrows}x{self.ncols}")
        return self._flat[j - 1 :: self.ncols] if self.ncols else ()

    def rows(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(1, self.nrows + 1)]

    @property
    def is_zero(self) -> bool:
        return not any(self._flat)

    # -- arithmetic --

    def _same_field(self, other: MatrixGF) -> None:
        if self.gf != other.gf:
            raise ValueError(f"field mismatch: {self.gf} vs {other.gf}")

    def __add__(self, other: MatrixGF) -> MatrixGF:
        self._same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        add = self.gf.add
        flat = tuple(add(a, b) for a, b in zip(self._flat, other._flat))
        return MatrixGF._of(self.gf, self.nrows, self.ncols, flat)

    def __sub__(self, other: MatrixGF) -> MatrixGF:
        return self + (-other)

    def __neg__(self) -> MatrixGF:
        neg = self.gf.neg
        return MatrixGF._of(self.gf, self.nrows, self.ncols, tuple(map(neg, self._flat)))

    def scale(self, c: int) -> MatrixGF:
        mul = self.gf.mul
        return MatrixGF._of(self.gf, self.nrows, self.ncols, tuple(mul(c, a) for a in self._flat))

    def __matmul__(self, other: MatrixGF) -> MatrixGF:
        self._same_field(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch in product: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        gf = self.gf
        add, mul = gf.add, gf.mul
        n, m, k = self.nrows, other.ncols, self.ncols
        bflat = other._flat
        out = []
        for i in range(n):
            arow = self._flat[i * k : (i + 1) * k]
            for j in range(m):
                s = 0
                for t in range(k):
                    x = arow[t]
                    if x:
                        s = add(s, mul(x, bflat[t * m + j]))
                out.append(s)
        return MatrixGF._of(gf, n, m, tuple(out))

    def transpose(self) -> MatrixGF:
        flat = tuple(self._flat[i * self.ncols + j] for j in range(self.ncols) for i in range(self.nrows))
        return MatrixGF._of(self.gf, self.ncols, self.nrows, flat)

    # -- submatrices and minors --

    def submatrix(self, rowset: tuple[int, ...], colset: tuple[int, ...]) -> MatrixGF:
        """Submatrix on 1-based, strictly increasing row and column labels."""
        _check_labels(rowset, self.nrows, "row")
        _check_labels(colset, self.ncols, "column")
        flat = tuple(self._flat[(i - 1) * self.ncols + (j - 1)] for i in rowset for j in colset)
        return MatrixGF._of(self.gf, len(rowset), len(colset), flat)

    def minor(self, rowset: tuple[int, ...], colset: tuple[int, ...]) -> int:
        """Determinant of the selected square submatrix; empty sets give 1."""
        rowset, colset = tuple(rowset), tuple(colset)
        if len(rowset) != len(colset):
            raise ValueError(f"minor needs equal set sizes, got {len(rowset)} and {len(colset)}")
        _check_labels(rowset, self.nrows, "row")
        _check_labels(colset, self.ncols, "column")
        flat, n = self._flat, self.ncols
        return _det(self.gf, [[flat[(i - 1) * n + j - 1] for j in colset] for i in rowset])

    # -- elimination --

    def det(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError(f"determinant of non-square {self.nrows}x{self.ncols} matrix")
        n = self.nrows
        return _det(self.gf, [list(self._flat[i * n : (i + 1) * n]) for i in range(n)])

    def _eliminate(self, work: list[list[int]]) -> Iterator[int | None]:
        """Gauss-Jordan elimination of `work`, self's rows, perhaps with
        columns appended, in place: over self's columns in turn, yields each
        column once it holds a pivot, or None where it has none, and stops
        once every row holds one."""
        gf = self.gf
        sub, mul, inv = gf.sub, gf.mul, gf.inv
        m = self.nrows
        r = 0
        for c in range(self.ncols):
            if r == m:
                return
            piv = next((x for x in range(r, m) if work[x][c]), None)
            if piv is None:
                yield None
                continue
            work[r], work[piv] = work[piv], work[r]
            pinv = inv(work[r][c])
            work[r] = [mul(pinv, x) for x in work[r]]
            for x in range(m):
                if x != r and work[x][c]:
                    f = work[x][c]
                    rr = work[r]
                    work[x] = [sub(a, mul(f, b)) for a, b in zip(work[x], rr)]
            yield c
            r += 1

    def _with_identity(self) -> list[list[int]]:
        """The rows of [self | I]."""
        m = self.nrows
        return [[*row, *(1 if t == i else 0 for t in range(m))] for i, row in enumerate(self.rows())]

    def rank(self) -> int:
        return sum(c is not None for c in self._eliminate(list(map(list, self.rows()))))

    def rref_rows(self) -> MatrixGF:
        """Reduced row echelon form, the canonical representative of the row space."""
        work = list(map(list, self.rows()))
        for _ in self._eliminate(work):
            pass
        return MatrixGF.from_rows(self.gf, work) if self.nrows else self

    def inverse(self) -> MatrixGF:
        """The inverse; a singular matrix raises ValueError at its first
        column without a pivot, before the rest is reduced."""
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        work = self._with_identity()
        if None in self._eliminate(work):
            raise ValueError("matrix is singular")
        return MatrixGF.from_rows(self.gf, [row[self.ncols :] for row in work])

    # -- plumbing --

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.gf == other.gf
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._flat == other._flat
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.gf, self.nrows, self.ncols, self._flat))
        return self._hash

    def __repr__(self) -> str:
        return f"MatrixGF({self.gf!r}, {self.nrows}x{self.ncols})"

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in self.row(i)) for i in range(1, self.nrows + 1))

    def tolists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(1, self.nrows + 1)]


def _det(gf: GF, rows: list[list[int]]) -> int:
    """Determinant of the square matrix with these rows, which it may
    overwrite: closed forms up to order 2, Gaussian elimination above."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return gf.sub(gf.mul(a, d), gf.mul(b, c))
    sub, mul, inv = gf.sub, gf.mul, gf.inv
    out = 1
    negate = False
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            negate = not negate
        pv = rows[c][c]
        out = mul(out, pv)
        pinv = inv(pv)
        for r in range(c + 1, n):
            f = rows[r][c]
            if f:
                f = mul(f, pinv)
                prow = rows[c]
                rows[r] = [sub(x, mul(f, y)) for x, y in zip(rows[r], prow)]
    return gf.neg(out) if negate else out


def _all_minors(m: MatrixGF, order: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Every minor of m of order at most `order`, the empty one included,
    keyed by (row labels, column labels) as MatrixGF.minor takes them.  Each
    minor is the expansion along its first row of minors one order lower
    already in the table, in the order and with the terms _minors_plan lists."""
    add, sub, mul = m.gf.add, m.gf.sub, m.gf.mul
    flat = m._flat
    table = {((), ()): 1}
    for key, terms in _minors_plan(m.nrows, m.ncols, min(order, m.nrows, m.ncols)):
        v = 0
        for odd, at, rest in terms:
            if flat[at]:
                t = mul(flat[at], table[rest])
                v = sub(v, t) if odd else add(v, t)
        table[key] = v
    return table


@lru_cache(maxsize=None)
def _minors_plan(nrows: int, ncols: int, order: int) -> tuple:
    """The index work of _all_minors, which depends on the shape only: per
    minor of order 1..order, rows before columns lexicographically, its key
    and per column of its first row the sign parity, the entry's position in
    the flat row-major tuple and the key of the complementary minor."""
    plan = []
    for k in range(1, order + 1):
        col_sets = list(combinations(range(1, ncols + 1), k))
        for rows in combinations(range(1, nrows + 1), k):
            rest, first = rows[1:], (rows[0] - 1) * ncols - 1  # plus a 1-based column
            for cols in col_sets:
                terms = tuple(
                    (s % 2, first + j, (rest, cols[:s] + cols[s + 1 :])) for s, j in enumerate(cols)
                )
                plan.append(((rows, cols), terms))
    return tuple(plan)


def _check_labels(labels: tuple[int, ...], bound: int, kind: str) -> None:
    for a, b in zip(labels, labels[1:]):
        if a >= b:
            raise ValueError(f"{kind} labels must be strictly increasing, got {labels}")
    if labels and (labels[0] < 1 or labels[-1] > bound):
        raise ValueError(f"{kind} labels {labels} outside 1..{bound}")


class _Vectors:
    """Products, sums and differences of vectors of `size` elements of gf,
    entry by entry.

    For q <= 16 a vector is one int with a byte lane per entry, entry i in
    byte i (box and unbox convert).  Over GF(2) a product is x & y; in
    characteristic 2 every sum and difference is x ^ y (Boothby and
    Bradshaw, arXiv:0901.1413).  Any other operation makes the pair vector
    x * q + y, each byte a pair index below q^2 <= 256 with no carry between
    bytes, and reads it through a 256-byte table of gf.mul, gf.add or
    gf.sub, made here only when that operation needs one, by one
    bytes.translate.  Larger fields keep tuples and one gf call per entry.
    """

    def __init__(self, gf: GF, size: int):
        q = self.q = gf.q
        self.gf, self.size = gf, size
        if q > 16:
            return

        def table(op) -> bytes:  # byte a * q + b holds op(a, b)
            return bytes(op(a, b) for a in range(q) for b in range(q)).ljust(256, b"\0")

        # only the tables a method below reads; XOR and AND shadow the rest
        if q == 2:
            self.mul = int.__and__
        else:
            self._mul = table(gf.mul)
        if gf.p == 2:
            self.add = self.sub = int.__xor__
        else:
            self._add, self._sub = table(gf.add), table(gf.sub)

    def box(self, v: Sequence[int]):
        return tuple(v) if self.q > 16 else int.from_bytes(bytes(v), "little")

    def unbox(self, x) -> bytes | tuple[int, ...]:
        return x if self.q > 16 else x.to_bytes(self.size, "little")

    def _through(self, x: int, table: bytes) -> int:
        return int.from_bytes(x.to_bytes(self.size, "little").translate(table), "little")

    def mul(self, x, y):
        if self.q > 16:
            return tuple(map(self.gf.mul, x, y))
        return self._through(x * self.q + y, self._mul)

    def add(self, x, y):
        if self.q > 16:
            return tuple(map(self.gf.add, x, y))
        return self._through(x * self.q + y, self._add)

    def sub(self, x, y):
        if self.q > 16:
            return tuple(map(self.gf.sub, x, y))
        return self._through(x * self.q + y, self._sub)


def _minor_vectors(
    vec: _Vectors,
    entries: Sequence[Sequence],
    wanted: Iterable[tuple[Sequence[int], Sequence[int]]],
) -> list:
    """batch_minors on entries already in vec's form, its minors left in it."""
    memo = {((), ()): vec.box(b"\1" * vec.size)}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]):
        out = memo.get((rows, cols))
        if out is None:
            i0, rest = rows[0], rows[1:]
            for s, j in enumerate(cols):
                x = entries[i0 - 1][j - 1]  # an order-1 minor is its entry, with no product by 1
                term = vec.mul(x, minor(rest, cols[:s] + cols[s + 1 :])) if rest else x
                out = term if out is None else (vec.sub if s % 2 else vec.add)(out, term)
            memo[rows, cols] = out
        return out

    return [minor(tuple(rows), tuple(cols)) for rows, cols in wanted]


def batch_minors(
    gf: GF,
    entries: Sequence[Sequence[Sequence[int]]],
    size: int,
    wanted: Iterable[tuple[Sequence[int], Sequence[int]]],
) -> tuple[tuple[int, ...], ...]:
    """Minors of a whole batch of matrices at once, one vector per minor.

    entries[i][j] lists entry (i+1, j+1) of each of `size` matrices, as
    element indices of gf.  wanted holds (row labels, column labels) pairs,
    1-based, strictly increasing and of equal size, as MatrixGF.minor
    accepts them; none of this is checked here.  The result holds, per pair,
    that minor of every matrix of the batch, in batch order.

    A minor on rows I and columns J is the Laplace expansion along the first
    row i0 of I, the sum over s of (-1)^s x[i0, J[s]] M(I - i0, J - J[s]),
    with products, sums and (odd s) differences taken over whole vectors
    (see _Vectors).  Sub-minors are memoized, so a minor of order r >= 2
    costs r vector products and r - 1 vector sums or differences (one of
    order 1 is its entry), and only the minors on row suffixes of the wanted
    row sets are formed.
    """
    vec = _Vectors(gf, size)
    boxed = [[vec.box(v) for v in row] for row in entries]
    return tuple(tuple(vec.unbox(x)) for x in _minor_vectors(vec, boxed, wanted))


def enumerate_matrices(gf: GF, nrows: int, ncols: int) -> Iterator[MatrixGF]:
    """All nrows x ncols matrices in row-major lexicographic entry order."""
    limits.ensure("matrices", gf.q ** (nrows * ncols), f"enumerating {nrows}x{ncols} matrices")
    for flat in product(range(gf.q), repeat=nrows * ncols):
        yield MatrixGF._of(gf, nrows, ncols, flat)


def enumerate_gl(n: int, gf: GF) -> Iterator[MatrixGF]:
    """Invertible n x n matrices, filtered out of the full enumeration."""
    limits.ensure("matrices", gf.q ** (n * n), f"enumerating GL({n}, GF({gf.q}))")
    for m in product(range(gf.q), repeat=n * n):
        mat = MatrixGF._of(gf, n, n, m)
        if mat.det() != 0:
            yield mat


def enumerate_rref(k: int, n: int, gf: GF) -> Iterator[MatrixGF]:
    """Full-rank k x n reduced row echelon matrices, one per k-dimensional
    row space, ordered by (pivot column set, free entries) lexicographically."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    for pivots in combinations(range(n), k):
        free: list[tuple[int, int]] = []
        for i in range(k):
            for j in range(pivots[i] + 1, n):
                if j not in pivots:
                    free.append((i, j))
        for values in product(range(gf.q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield MatrixGF._of(gf, k, n, tuple(x for r in rows for x in r))


def cauchy_binet(pairs: Sequence[tuple[MatrixGF, MatrixGF]]) -> list[tuple[int, int]]:
    """Both sides of the Cauchy-Binet identity for det(a @ b), per pair.

    The pairs share one field and one shape: a is r x s, b is s x r, r <= s.
    Returns, in order, (det(a @ b) by elimination, sum over all r-subsets I
    of columns of det(a[:, I]) * det(b[I, :])).  Both sides are formed on
    vectors across the batch (see _Vectors): the left side's r x r product
    entries as sums of entry products, each product's determinant then taken
    by elimination (_det) pair by pair; the right side's minors as in
    batch_minors, their products summed.  The two are equal; returning both
    keeps the check independent of itself.
    """
    if not pairs:
        return []
    gf, r, s = pairs[0][0].gf, pairs[0][0].nrows, pairs[0][0].ncols
    if any((a.gf, a.nrows, a.ncols, b.gf, b.nrows, b.ncols) != (gf, r, s, gf, s, r) for a, b in pairs):
        raise ValueError("cauchy_binet needs shapes r x s and s x r, one field and shape per batch")
    if r > s:
        raise ValueError(f"need r <= s, got r={r}, s={s}")
    lead, subsets = tuple(range(1, r + 1)), list(combinations(range(1, s + 1), r))
    vec = _Vectors(gf, len(pairs))
    flat_a, flat_b = (list(map(vec.box, zip(*(m._flat for m in side)))) for side in zip(*pairs))
    a_rows = [flat_a[i * s : (i + 1) * s] for i in range(r)]
    b_rows = [flat_b[i * r : (i + 1) * r] for i in range(s)]
    # entry (i, j) of every a @ b, then each a @ b's rows read off them
    entries = [
        [reduce(vec.add, (vec.mul(a_rows[i][t], b_rows[t][j]) for t in range(s))) for j in range(r)]
        for i in range(r)
    ]
    entries = [list(map(vec.unbox, row)) for row in entries]
    lhs = [_det(gf, [[x[k] for x in row] for row in entries]) for k in range(len(pairs))]
    a_minors = _minor_vectors(vec, a_rows, [(lead, c) for c in subsets])
    b_minors = _minor_vectors(vec, b_rows, [(c, lead) for c in subsets])
    rhs = reduce(vec.add, map(vec.mul, a_minors, b_minors))
    return list(zip(lhs, vec.unbox(rhs)))
