"""Grassmann codes from Pluecker coordinates, and the cell bridge to the
affine construction.

Subspaces of dimension l in GF(q)^m are represented by reduced row echelon
matrices, one per subspace, ordered by pivot columns then free entries.  The
Pluecker vector of a subspace lists the maximal minors of its representative
over all l-subsets of columns in lexicographic order; the code's generator
matrix has those vectors as columns.  No representative is made on its own:
entry (i, j) of every representative is one vector (subspace_entries), and
the representatives of one pivot set differ only in their free entries, so
each block is made by repetition, as code._digits makes point digits.  Each
maximal minor is a Laplace expansion along its first row over those vectors
(matrices.batch_minors), which forms only the sub-minors on the lower rows.
enumerate_subspaces and pluecker(w), one subspace at a time, are the
reference the tests compare the build against.

The build proves rank as code.build does, on columns known from the
construction: the coordinate subspace of an l-subset S, the one
representative with only l nonzero entries, has the unit vector at S as its
Pluecker vector, so these columns hold an identity block.  The blocks follow
the Pluecker rows, the first representative of each (every free entry 0) is
its coordinate subspace, and the block of pivots S (from 0) has q^f columns,
f = Σ_i (m - l - S_i + i).  The build checks that identity block, and that
the block sizes sum to n.  Before any vector is made, it counts its k·n
minor evaluations against the points cap, then the entries of every
sub-minor the expansion keeps, Σ_{r=1..l} C(m, r) vectors of n entries
(C(m, l) = k of them the coordinates), refused on the exponent of its
lower bound 2^(m-1) when 2l > m, before the sum is formed.  The m
coordinates themselves count against the cap too, as l = 0 and l = m
pass the exponent check on n at any m.  The build is cached and keeps its
entry vectors with the code, so the comparison below reuses both.

The subspaces whose representative starts with an identity block form a cell
of exactly q^(l * (m - l)) columns, indexed by the complement block.  On that
cell each Pluecker coordinate equals, up to a fixed sign, one minor (of any
order) of the complement block, so the restricted generator matrix is a
signed row permutation of the affine generator matrix.  The comparison
solves the signs and the permutation from the data and fails loudly if no
perfect matching exists; its witness is a CellReport of CellMatch rows,
both named tuples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, combinations
from math import comb
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import limits
from .code import LinearCode, _certify_rank, _repeated, build
from .fields import GF
from .limits import VerificationError
from .matrices import MatrixGF, batch_minors, enumerate_rref
from .minors import MinorIndex, minor_basis
from .params import CodeParams, gaussian_binomial

__all__ = [
    "enumerate_subspaces",
    "subspace_entries",
    "pluecker_indices",
    "pluecker",
    "build_grassmann_code",
    "CellMatch",
    "CellReport",
    "cell_restriction_compare",
    "VerificationError",
]


def _subspace_count(l: int, m: int, gf: GF) -> int:
    """The number n of l-subspaces of GF(q)^m, refused over the points cap,
    first on the exponent of n >= q^(l(m-l)) when that alone exceeds it, and
    refused when m alone exceeds it."""
    if not 0 <= l <= m:
        raise ValueError(f"need 0 <= l <= m, got l={l}, m={m}")
    what = f"enumerating {l}-subspaces of GF({gf.q})^{m}"
    if l * (m - l) >= limits.cap("points").bit_length():
        limits.ensure_power("points", gf.q, l * (m - l), what)
    # l = 0 and l = m pass the exponent check at any m, but the pivot sets
    # are l-subsets of a tuple of the m coordinates
    limits.ensure("points", m, f"indexing the {m} coordinates of GF({gf.q})^{m}")
    n = gaussian_binomial(m, min(l, m - l), gf.q)  # the same count, in at most m / 2 factors
    limits.ensure("points", n, what)
    return n


def enumerate_subspaces(l: int, m: int, gf: GF) -> tuple[MatrixGF, ...]:
    """Canonical representatives of all l-dimensional subspaces of GF(q)^m."""
    _subspace_count(l, m, gf)
    return tuple(enumerate_rref(l, m, gf))


def subspace_entries(l: int, m: int, gf: GF) -> list[bytes | tuple[int, ...]]:
    """Entry (i, j) of every representative of enumerate_subspaces, in its
    order, one vector per entry at flat index i * m + j; bytes when q <= 256.

    In the block of one pivot set with f free entries, pivot entries are 1,
    the other non-free entries 0, and free entry s holds each element
    q^(f-1-s) times in turn, tiled: the last free entry varies fastest."""
    _subspace_count(l, m, gf)
    q = gf.q
    blocks: list[list] = [[] for _ in range(l * m)]
    for pivots in combinations(range(m), l):
        free = [i * m + j for i in range(l) for j in range(pivots[i] + 1, m) if j not in pivots]
        size = q ** len(free)
        block = [_repeated(q, (0,), size, size)] * (l * m)
        for i, j in enumerate(pivots):
            block[i * m + j] = _repeated(q, (1,), size, size)
        for s, at in enumerate(free):
            block[at] = _repeated(q, range(q), q ** (len(free) - 1 - s), size)
        for out, x in zip(blocks, block):
            out.append(x)
    join = b"".join if q <= 256 else lambda xs: tuple(chain.from_iterable(xs))
    return [join(xs) for xs in blocks]


def pluecker_indices(l: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All l-subsets of columns 1..m in lexicographic order."""
    return tuple(combinations(range(1, m + 1), l))


def pluecker(w: MatrixGF) -> tuple[int, ...]:
    """The Pluecker coordinates of a full-rank l x m representative."""
    rows = tuple(range(1, w.nrows + 1))
    coords = tuple(w.minor(rows, cols) for cols in pluecker_indices(w.nrows, w.ncols))
    if not any(coords):
        raise ValueError("representative must have full row rank")
    return coords


# run_acceptance fills 4 entries and the construct benchmark 2; a CLI call
# or a criterion builds a code and then compares its cell, and the
# comparison reuses the cached code and its entry vectors
@lru_cache(maxsize=8)
def build_grassmann_code(l: int, m: int, gf: GF) -> LinearCode:
    """The code whose generator columns are the Pluecker vectors of all
    l-subspaces of GF(q)^m, rows indexed by l-subsets in lexicographic order."""
    n, k = _subspace_count(l, m, gf), comb(m, l)
    what = f"evaluating {k} Pluecker coordinates at each of the {n} {l}-subspaces of GF({gf.q})^{m}"
    limits.ensure("points", k * n, what)
    # batch_minors keeps every minor on rows r..l, C(m, l - r + 1) vectors of
    # n entries for each r; past l = m / 2 that is over half the 2^m column
    # subsets, refused on the exponent alone before the sum is formed
    if 2 * l > m and m - 1 >= limits.cap("points").bit_length():
        what = f"keeping at least 2^{m - 1} sub-minors at each of the {n} {l}-subspaces of GF({gf.q})^{m}"
        limits.ensure_power("points", 2, m - 1, what)
    kept = sum(comb(m, r) for r in range(1, l + 1))
    what = f"keeping {kept} sub-minors at each of the {n} {l}-subspaces of GF({gf.q})^{m}"
    limits.ensure("points", kept * n, what)
    return _grassmann_code(l, m, gf, n, subspace_entries(l, m, gf))


def _grassmann_code(l: int, m: int, gf: GF, n: int, entries: Sequence[Sequence[int]]) -> LinearCode:
    """build_grassmann_code on n representatives given by their entry
    vectors in subspace_entries' order, entries[i * m + j] holding entry (i, j)
    of each: all maximal minors of the batch at once, certified only when each
    block starts at its coordinate subspace.  The code keeps the vectors in
    its cache under "subspaces"."""
    lead = tuple(range(1, l + 1))
    by_row = [entries[i * m : (i + 1) * m] for i in range(l)]
    rows = batch_minors(gf, by_row, n, [(lead, cols) for cols in pluecker_indices(l, m)])
    # zip reuses its column tuple when nothing else holds it, so this pass
    # allocates nothing per column; the zero column is found only on failure
    if not all(map(any, zip(*rows))):
        j = next(j for j, column in enumerate(zip(*rows)) if not any(column))
        raise ValueError(f"representative {j} must have full row rank")
    p = CodeParams(gf.q, l, m - l) if 1 <= l <= m - l else None
    code = LinearCode._of(gf, rows, params=p, label=f"grassmann[q={gf.q},l={l},m={m}]")
    # the first representative of each block, every free entry 0, is the
    # coordinate subspace of its pivot set; blocks follow the Pluecker rows
    what = f"Pluecker generator of ({l}, {m})"
    sizes = [gf.q ** sum(m - l - s + i for i, s in enumerate(pivots)) for pivots in combinations(range(m), l)]
    *coordinate, total = accumulate(sizes, initial=0)
    if total != n:
        raise AssertionError(f"{what} is not certified full rank: its blocks hold {total} columns, not {n}")
    _certify_rank(code, coordinate, what)
    code._cache["subspaces"] = entries
    return code


class CellMatch(NamedTuple):
    """One matched generator row: Pluecker row = sign * affine minor row."""

    pluecker_index: tuple[int, ...]
    minor_index: MinorIndex
    sign: int  # field element index: 1 or the index of -1


class CellReport(NamedTuple):
    """The witness of cell_restriction_compare: one match per Pluecker row."""

    l: int
    m: int
    q: int
    cell_size: int
    matches: tuple[CellMatch, ...]


def cell_restriction_compare(l: int, m: int, gf: GF) -> CellReport:
    """Match the cell restriction of the Grassmann code with the affine code.

    Restrict the Grassmann generator to the columns of subspaces with an
    identity block on the first l columns, reindex them by the point index of
    the complement block, and find for every Pluecker row the unique affine
    minor row equal to it up to sign.  Raises VerificationError when any row
    or column fails to match; returns the full witness otherwise.
    """
    if not 1 <= l <= m - l:
        raise ValueError(f"need 1 <= l <= m - l, got l={l}, m={m}")
    p = CodeParams(gf.q, l, m - l)
    affine = build(p)
    grass = build_grassmann_code(l, m, gf)
    entries = grass._cache["subspaces"]
    # row 0 holds the coordinate on columns 1..l: 1 exactly on the cell
    cell = [j for j, x in enumerate(grass.generator[0]) if x == 1]
    if len(cell) != p.npoints:
        raise VerificationError(
            f"cell of ({l}, {m}) over GF({gf.q}) has {len(cell)} columns, "
            f"expected {p.npoints}"
        )
    on_cell = itemgetter(*cell)
    # each cell column's point index: its complement block read base q,
    # entry (1, l + 1) least significant
    q, index = gf.q, [0] * len(cell)
    for i in reversed(range(l)):
        for j in reversed(range(l, m)):
            index = [a * q + x for a, x in zip(index, on_cell(entries[i * m + j]))]
    if sorted(index) != list(range(p.npoints)):
        raise VerificationError("cell columns do not biject onto the affine domain")
    # restricted Grassmann rows, columns in point index order
    order = [0] * p.npoints
    for j, x in zip(cell, index):
        order[x] = j
    in_order = itemgetter(*order)
    restricted = [in_order(row) for row in grass.generator]
    minus_one, negated = gf.neg(1), [gf.neg(x) for x in range(q)]
    by_row = {row: i for i, row in enumerate(affine.generator)}
    indices = pluecker_indices(l, m)
    basis = minor_basis(p)
    matches = []
    used = set()
    for alpha, row in zip(indices, restricted):
        i = by_row.get(row)
        sign = 1
        if i is None:
            i = by_row.get(tuple(map(negated.__getitem__, row)))
            sign = minus_one
        if i is None:
            raise VerificationError(f"restricted row {alpha} matches no affine row")
        if i in used:
            raise VerificationError(f"affine row {basis[i]} matched twice")
        used.add(i)
        matches.append(CellMatch(alpha, basis[i], sign))
    return CellReport(l, m, gf.q, len(cell), tuple(matches))
