"""Pluecker coordinates and the cell comparison: subspace counts, a frozen
coordinate example, code parameters of small projective relatives, and an
independent re-verification of reported cell matches."""

import pytest

import agcodes.grassmann as grassmann_module
from agcodes.code import min_distance, point_matrix
from agcodes.fields import field_for_order
from agcodes.grassmann import (
    _grassmann_code,
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


@pytest.mark.parametrize("l,m,q", [(2, 4, 2), (2, 5, 3), (3, 6, 2), (0, 3, 2), (3, 3, 3)])
def test_build_matches_per_subspace_pluecker(l, m, q):
    """The batched generator against pluecker(w), one subspace at a time."""
    gf = field_for_order(q)
    columns = [pluecker(w) for w in enumerate_subspaces(l, m, gf)]
    assert build_grassmann_code(l, m, gf).generator == tuple(zip(*columns))


def test_build_needs_full_rank():
    bad = MatrixGF.from_rows(gf3, [(1, 0, 2), (2, 0, 1)])
    good = MatrixGF.from_rows(gf3, [(1, 0, 2), (0, 1, 1)])
    with pytest.raises(ValueError, match="representative 1"):
        _grassmann_code(2, 3, gf3, [good, bad])


@pytest.mark.parametrize("l,m,q", [(2, 4, 2), (2, 5, 3), (3, 6, 2), (0, 3, 2), (3, 3, 3)])
def test_rank_certificate_agrees_with_elimination(l, m, q):
    """The build certifies rank by the identity block on the coordinate
    subspaces; Gaussian elimination over the whole generator agrees."""
    code = build_grassmann_code(l, m, field_for_order(q))
    assert code.generator_matrix().rank() == code.k == len(pluecker_indices(l, m))


def test_build_refuses_a_missing_coordinate_subspace():
    subspaces = enumerate_subspaces(2, 4, gf2)
    unit = MatrixGF.from_rows(gf2, [(1, 0, 0, 0), (0, 0, 1, 0)])
    kept = [w for w in subspaces if w != unit]
    assert len(kept) == len(subspaces) - 1
    # the 34 columns left still span everything, but nothing certifies it
    assert MatrixGF.from_rows(gf2, [pluecker(w) for w in kept]).rank() == 6
    with pytest.raises(AssertionError, match=r"no coordinate subspace \(1, 3\)"):
        _grassmann_code(2, 4, gf2, kept)


def test_build_refuses_a_generator_without_the_certificate(monkeypatch):
    """Row 1 added to row 3 breaks the identity block.  (A row copied over
    another would leave a column of zeros, refused before the certificate.)"""
    real = grassmann_module.batch_minors

    def mixed(*args):
        rows = list(real(*args))
        rows[3] = tuple(map(gf3.add, rows[3], rows[1]))
        return tuple(rows)

    monkeypatch.setattr(grassmann_module, "batch_minors", mixed)
    with pytest.raises(AssertionError, match="not certified full rank"):
        build_grassmann_code.__wrapped__(2, 4, gf3)  # past the cache


def test_build_and_subspaces_are_cached_and_reused(monkeypatch):
    subspaces = enumerate_subspaces(2, 5, gf2)
    assert type(subspaces) is tuple
    assert enumerate_subspaces(2, 5, gf2) is subspaces
    code = build_grassmann_code(2, 5, gf2)
    assert build_grassmann_code(2, 5, gf2) is code

    def rebuilt(*args):
        raise AssertionError("the cell comparison rebuilt the Grassmann code")

    monkeypatch.setattr(grassmann_module, "_grassmann_code", rebuilt)
    monkeypatch.setattr(grassmann_module, "enumerate_rref", rebuilt)
    assert len(cell_restriction_compare(2, 5, gf2).matches) == code.k


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
