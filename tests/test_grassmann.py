"""Pluecker coordinates and the cell comparison: subspace counts, a frozen
coordinate example, code parameters of small projective relatives, and an
independent re-verification of reported cell matches."""

import pytest

from agcodes.code import min_distance, point_matrix
from agcodes.fields import field_for_order
from agcodes.grassmann import (
    build_grassmann_code,
    cell_restriction_compare,
    enumerate_subspaces,
    pluecker,
    pluecker_indices,
)
from agcodes.matrices import MatrixGF
from agcodes.params import CodeParams, gaussian_binomial

gf2 = field_for_order(2)
gf3 = field_for_order(3)


def test_subspace_counts():
    assert len(enumerate_subspaces(1, 2, gf2)) == 3
    assert len(enumerate_subspaces(2, 4, gf2)) == 35
    assert len(enumerate_subspaces(2, 4, gf3)) == 130
    assert len(enumerate_subspaces(1, 3, gf2)) == 7
    for l, m, gf in ((2, 4, gf2), (1, 3, gf3)):
        reps = enumerate_subspaces(l, m, gf)
        assert len(set(reps)) == len(reps) == gaussian_binomial(m, l, gf.q)
        for w in reps:
            assert w.rank() == l
    with pytest.raises(ValueError):
        enumerate_subspaces(3, 2, gf2)


def test_pluecker_indices_order():
    assert pluecker_indices(2, 4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert pluecker_indices(1, 2) == ((1,), (2,))


def test_pluecker_frozen_example():
    w = MatrixGF.from_rows(gf2, [(1, 0, 0, 1), (0, 1, 1, 0)])
    assert pluecker(w) == (1, 1, 0, 0, 1, 1)


def test_pluecker_scalar_covariance():
    w = MatrixGF.from_rows(gf3, [(1, 0, 2, 1), (0, 1, 1, 0)])
    scaled = MatrixGF.from_rows(gf3, [tuple(gf3.mul(2, x) for x in w.row(1)), w.row(2)])
    base = pluecker(w)
    assert pluecker(scaled) == tuple(gf3.mul(2, x) for x in base)


def test_pluecker_needs_full_rank():
    with pytest.raises(ValueError):
        pluecker(MatrixGF.from_rows(gf2, [(1, 0), (1, 0)]))


def test_small_codes():
    code = build_grassmann_code(2, 4, gf2)
    assert (code.n, code.k) == (35, 6)
    assert code.params == CodeParams(2, 2, 2)
    assert code.label == "grassmann[q=2,l=2,m=4]"

    tiny = build_grassmann_code(1, 2, gf2)
    assert (tiny.n, tiny.k) == (3, 2)
    assert min_distance(tiny) == 2

    simplex = build_grassmann_code(1, 3, gf2)
    assert (simplex.n, simplex.k) == (7, 3)
    assert min_distance(simplex) == 4


def test_cell_report_smallest():
    report = cell_restriction_compare(1, 2, gf2)
    assert report.cell_size == 2
    assert len(report.matches) == 2
    assert {str(m.minor_index) for m in report.matches} == {"-|-", "1|1"}
    assert all(m.sign == 1 for m in report.matches)


@pytest.mark.parametrize("l,m,q", [(1, 2, 2), (2, 4, 2), (2, 4, 3), (2, 5, 2)])
def test_cell_matches_reverify(l, m, q):
    """Check every reported match semantically: on each cell subspace, the
    Pluecker coordinate equals sign times the minor of the complement block."""
    gf = field_for_order(q)
    report = cell_restriction_compare(l, m, gf)
    p = CodeParams(q, l, m - l)
    assert report.cell_size == p.npoints
    indices = pluecker_indices(l, m)
    for point_idx in range(p.npoints):
        block = point_matrix(p, point_idx)
        rep = MatrixGF.from_rows(
            gf,
            [
                tuple(1 if t == i else 0 for t in range(l)) + block.row(i + 1)
                for i in range(l)
            ],
        )
        coords = pluecker(rep)
        for match in report.matches:
            alpha = indices.index(match.pluecker_index)
            mi = match.minor_index
            expect = gf.mul(match.sign, block.minor(mi.rows, mi.cols))
            assert coords[alpha] == expect


def test_cell_validation():
    with pytest.raises(ValueError):
        cell_restriction_compare(3, 4, gf2)
    with pytest.raises(ValueError):
        cell_restriction_compare(0, 4, gf2)
