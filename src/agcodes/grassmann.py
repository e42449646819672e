"""Grassmann codes from Pluecker coordinates, and the cell bridge to the
affine construction.

Subspaces of dimension l in GF(q)^m are enumerated as reduced row echelon
matrices, one per subspace, ordered by pivot columns then free entries.  The
Pluecker vector of a subspace lists the maximal minors of its representative
over all l-subsets of columns in lexicographic order; the code's generator
matrix has those vectors as columns.  All representatives are expanded at
once: entry (i, j) of every representative is one vector, and each maximal
minor is a Laplace expansion along its first row over those vectors
(matrices.batch_minors), which forms only the sub-minors on the lower rows.
pluecker(w) is the one-subspace reference.

The build proves rank as code.build does: the coordinate subspace of an
l-subset S, the one representative with only l nonzero entries, has the unit
vector at S as its Pluecker vector, so these columns hold an identity block.
The build checks that block and fails if a coordinate subspace is missing.
Both the subspace enumeration and the build are cached, so the comparison
below reuses the code its caller has just built.

The subspaces whose representative starts with an identity block form a cell
of exactly q^(l * (m - l)) columns, indexed by the complement block.  On that
cell each Pluecker coordinate equals, up to a fixed sign, one minor (of any
order) of the complement block, so the restricted generator matrix is a
signed row permutation of the affine generator matrix.  The comparison
solves the signs and the permutation from the data and fails loudly if no
perfect matching exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, count
from typing import Sequence

from . import limits
from .code import LinearCode, _certify_rank, build
from .fields import GF
from .matrices import MatrixGF, batch_minors, enumerate_rref
from .minors import MinorIndex, minor_basis
from .params import CodeParams, gaussian_binomial

__all__ = [
    "enumerate_subspaces",
    "pluecker_indices",
    "pluecker",
    "build_grassmann_code",
    "CellMatch",
    "CellReport",
    "cell_restriction_compare",
    "VerificationError",
]


class VerificationError(RuntimeError):
    """A structural correspondence that must hold failed on actual data."""


# run_acceptance fills 4 entries of each cache and the construct benchmark 2;
# a CLI call or a criterion builds a code and then compares its cell, and
# the comparison reuses both cached values
@lru_cache(maxsize=8)
def enumerate_subspaces(l: int, m: int, gf: GF) -> tuple[MatrixGF, ...]:
    """Canonical representatives of all l-dimensional subspaces of GF(q)^m."""
    if not 0 <= l <= m:
        raise ValueError(f"need 0 <= l <= m, got l={l}, m={m}")
    count = gaussian_binomial(m, l, gf.q)
    limits.ensure("points", count, f"enumerating {l}-subspaces of GF({gf.q})^{m}")
    return tuple(enumerate_rref(l, m, gf))


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


@lru_cache(maxsize=8)  # bound: see enumerate_subspaces
def build_grassmann_code(l: int, m: int, gf: GF) -> LinearCode:
    """The code whose generator columns are the Pluecker vectors of all
    l-subspaces of GF(q)^m, rows indexed by l-subsets in lexicographic order."""
    return _grassmann_code(l, m, gf, enumerate_subspaces(l, m, gf))


def _grassmann_code(l: int, m: int, gf: GF, subspaces: Sequence[MatrixGF]) -> LinearCode:
    """build_grassmann_code on the given representatives, column j from
    subspaces[j]: all maximal minors of the batch at once."""
    indices = pluecker_indices(l, m)
    # entry (i, j) of every representative, one vector per position
    flat = list(zip(*(w._flat for w in subspaces)))
    entries = [flat[i * m : (i + 1) * m] for i in range(l)]
    lead = tuple(range(1, l + 1))
    rows = batch_minors(gf, entries, len(subspaces), [(lead, cols) for cols in indices])
    for j, column in enumerate(zip(*rows)):
        if not any(column):
            raise ValueError(f"representative {j} must have full row rank")
    p = None
    if 1 <= l <= m - l:
        p = CodeParams(gf.q, l, m - l)
    code = LinearCode._of(gf, rows, params=p, label=f"grassmann[q={gf.q},l={l},m={m}]")
    # column of the coordinate subspace of each l-subset, keyed by the subset
    coordinate = {
        tuple(x % m + 1 for x in compress(count(), w._flat)): j
        for j, w in enumerate(subspaces)
        if w._flat.count(0) == l * (m - 1)
    }
    what = f"Pluecker generator of ({l}, {m})"
    missing = [s for s in indices if s not in coordinate]
    if missing:
        raise AssertionError(f"{what} is not certified full rank: no coordinate subspace {missing[0]}")
    _certify_rank(code, [coordinate[s] for s in indices], what)
    return code


@dataclass(frozen=True)
class CellMatch:
    """One matched generator row: Pluecker row = sign * affine minor row."""

    pluecker_index: tuple[int, ...]
    minor_index: MinorIndex
    sign: int  # field element index: 1 or the index of -1


@dataclass(frozen=True)
class CellReport:
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
    subspaces = enumerate_subspaces(l, m, gf)
    grass = build_grassmann_code(l, m, gf)
    # the complement block's flat positions, weighted as in its point index
    block = [i * m + j for i in range(l) for j in range(l, m)]
    weights = [gf.q**t for t in range(len(block))]
    # row 0 holds the coordinate on columns 1..l: 1 exactly on the cell
    cell_cols = {
        j: sum(w._flat[c] * x for c, x in zip(block, weights))
        for j, w in enumerate(subspaces)
        if grass.generator[0][j] == 1
    }
    if len(cell_cols) != p.npoints:
        raise VerificationError(
            f"cell of ({l}, {m}) over GF({gf.q}) has {len(cell_cols)} columns, "
            f"expected {p.npoints}"
        )
    if sorted(cell_cols.values()) != list(range(p.npoints)):
        raise VerificationError("cell columns do not biject onto the affine domain")
    # restricted Grassmann rows, columns in point index order
    order = sorted(cell_cols, key=cell_cols.get)
    restricted = [tuple(row[j] for j in order) for row in grass.generator]
    minus_one = gf.neg(1)
    by_row = {row: i for i, row in enumerate(affine.generator)}
    indices = pluecker_indices(l, m)
    basis = minor_basis(p)
    matches = []
    used = set()
    for alpha, row in zip(indices, restricted):
        i = by_row.get(row)
        sign = 1
        if i is None:
            i = by_row.get(tuple(gf.mul(minus_one, x) for x in row))
            sign = minus_one
        if i is None:
            raise VerificationError(f"restricted row {alpha} matches no affine row")
        if i in used:
            raise VerificationError(f"affine row {basis[i]} matched twice")
        used.add(i)
        matches.append(CellMatch(alpha, basis[i], sign))
    return CellReport(l, m, gf.q, len(cell_cols), tuple(matches))
