"""Pluecker coordinates and the cell comparison: subspace counts, a frozen
coordinate example, code parameters of small projective relatives, and an
independent re-verification of reported cell matches."""

import gc

import pytest

import agcodes.grassmann as grassmann_module
import agcodes.matrices as matrices_module
from agcodes.code import min_distance, point_matrix
from agcodes.fields import field_for_order
from agcodes.grassmann import (
    _grassmann_code,
    build_grassmann_code,
    cell_restriction_compare,
    enumerate_subspaces,
    pluecker,
    pluecker_indices,
    subspace_entries,
)
from agcodes.limits import CapExceeded
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


@pytest.mark.parametrize(
    "l,m,q",
    [(2, 4, 2), (2, 5, 3), (3, 6, 2), (0, 3, 2), (3, 3, 3), (2, 4, 4), (1, 3, 16), (1, 3, 17), (1, 2, 257)],
)
def test_build_matches_per_subspace_pluecker(l, m, q):
    """The batched generator against pluecker(w), one subspace at a time, and
    the entry vectors made by repetition against the enumerated
    representatives.  batch_minors leaves bytes above q = 16, the vectors
    above q = 256."""
    gf = field_for_order(q)
    subspaces = enumerate_subspaces(l, m, gf)
    columns = [pluecker(w) for w in subspaces]
    assert build_grassmann_code(l, m, gf).generator == tuple(zip(*columns))
    entries = subspace_entries(l, m, gf)
    assert [tuple(v) for v in entries] == list(zip(*(w._flat for w in subspaces)))
    assert all(type(v) is (bytes if q <= 256 else tuple) for v in entries)


def test_build_needs_full_rank():
    """The build names the first representative of rank below l, wherever
    it stands: entry vectors as bytes for q = 3, as tuples for q = 257."""
    for q in (3, 257):
        gf = field_for_order(q)
        good, bad = (1, 0, 2, 0, 1, 1), (1, 0, 2, 2, 0, 4 % q)  # rows of 2 x 3 representatives
        join = bytes if q <= 256 else tuple
        for pattern in ("gb", "ggbb", "gbgb"):
            reps = [good if c == "g" else bad for c in pattern]
            entries = [join(column) for column in zip(*reps)]
            with pytest.raises(ValueError, match=f"representative {pattern.index('b')} must"):
                _grassmann_code(2, 3, gf, len(reps), entries)


def test_build_sets_off_no_garbage_collection():
    """The rank pass allocates nothing per column, so the (3,6,2) build,
    about 200 tracked allocations net, stays below a generation-0 threshold
    that starts from zero right after a full collection."""
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        build_grassmann_code.__wrapped__(3, 6, gf2)  # past the cache
    finally:
        gc.callbacks.remove(count)
    assert started == []


@pytest.mark.parametrize("l,m,q", [(2, 4, 2), (2, 5, 3), (3, 6, 2), (0, 3, 2), (3, 3, 3)])
def test_rank_certificate_agrees_with_elimination(l, m, q):
    """The build certifies rank by the identity block on the coordinate
    subspaces; Gaussian elimination over the whole generator agrees."""
    code = build_grassmann_code(l, m, field_for_order(q))
    assert code.generator_matrix().rank() == code.k == len(pluecker_indices(l, m))


def test_build_refuses_a_missing_coordinate_subspace():
    entries = subspace_entries(2, 4, gf2)
    unit = (1, 0, 0, 0, 0, 0, 1, 0)
    columns = list(zip(*entries))
    j = columns.index(unit)
    kept = [v[:j] + v[j + 1 :] for v in entries]
    assert len(kept[0]) == len(columns) - 1 == 34
    # the 34 columns left still span everything, but nothing certifies it
    reps = [MatrixGF.from_rows(gf2, [c[:4], c[4:]]) for c in zip(*kept)]
    assert MatrixGF.from_rows(gf2, [pluecker(w) for w in reps]).rank() == 6
    with pytest.raises(AssertionError, match="is not certified full rank"):
        _grassmann_code(2, 4, gf2, 34, kept)


def test_build_refuses_a_coordinate_subspace_out_of_its_block_place():
    """The certificate takes each block's first column as its coordinate
    subspace; with that column swapped for the next, the same 35 subspaces
    still span everything, but the block is no longer unitriangular."""
    entries = subspace_entries(2, 4, gf2)
    columns = list(zip(*entries))
    j = columns.index((1, 0, 0, 0, 0, 0, 1, 0))  # the coordinate subspace of (1, 3)
    columns[j], columns[j + 1] = columns[j + 1], columns[j]
    swapped = [bytes(v) for v in zip(*columns)]
    reps = [MatrixGF.from_rows(gf2, [c[:4], c[4:]]) for c in columns]
    assert MatrixGF.from_rows(gf2, [pluecker(w) for w in reps]).rank() == 6
    _grassmann_code(2, 4, gf2, 35, entries)  # the order as built is certified
    with pytest.raises(AssertionError, match="is not certified full rank"):
        _grassmann_code(2, 4, gf2, 35, swapped)


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
    """The code keeps the entry vectors it was built from, and the cell
    comparison reads them there: neither the vectors nor the code is made
    again."""
    code = build_grassmann_code(2, 5, gf2)
    assert build_grassmann_code(2, 5, gf2) is code
    assert code._cache["subspaces"] == subspace_entries(2, 5, gf2)

    def rebuilt(*args):
        raise AssertionError("the cell comparison rebuilt the Grassmann code or its vectors")

    monkeypatch.setattr(grassmann_module, "_grassmann_code", rebuilt)
    monkeypatch.setattr(grassmann_module, "subspace_entries", rebuilt)
    assert len(cell_restriction_compare(2, 5, gf2).matches) == code.k


def test_build_and_comparison_make_no_matrix_per_subspace(monkeypatch):
    """Neither the Grassmann build nor the cell comparison enumerates
    representatives or makes a MatrixGF for one."""
    made = []
    real_of, real_init = MatrixGF._of.__func__, MatrixGF.__init__

    def counted_of(cls, *args):
        made.append(args)
        return real_of(cls, *args)

    def counted_init(self, *args):
        made.append(args)
        real_init(self, *args)

    def enumerated(*args):
        raise AssertionError("enumerated the representatives")

    gf = field_for_order(3)
    grassmann_module.build(CodeParams(3, 2, 3))  # the affine side, built before counting
    monkeypatch.setattr(MatrixGF, "_of", classmethod(counted_of))
    monkeypatch.setattr(MatrixGF, "__init__", counted_init)
    monkeypatch.setattr(grassmann_module, "enumerate_rref", enumerated)
    monkeypatch.setattr(matrices_module, "enumerate_rref", enumerated)
    build_grassmann_code.cache_clear()
    code = build_grassmann_code(2, 5, gf)
    report = cell_restriction_compare(2, 5, gf)
    assert (code.n, report.cell_size, len(report.matches)) == (1210, 729, 10)
    assert made == []


def test_build_refuses_k_times_n_evaluations_over_the_points_cap(monkeypatch):
    """(2, 4, 2) has n = 35 subspaces, passing a cap of 40, and k = 6
    Pluecker coordinates: its 210 evaluations are refused before any vector
    is made.  The vectors alone refuse 35 subspaces over a cap of 34."""
    monkeypatch.setenv("AGCODES_POINTS_CAP", "40")

    def no_vectors(*args):
        raise AssertionError("made a vector past the cap")

    monkeypatch.setattr(grassmann_module, "subspace_entries", no_vectors)
    monkeypatch.setattr(grassmann_module, "_repeated", no_vectors)
    refusal = (
        r"^evaluating 6 Pluecker coordinates at each of the 35 2-subspaces of GF\(2\)\^4 "
        r"needs 210 points, above the cap 40 "
    )
    with pytest.raises(CapExceeded, match=refusal):
        build_grassmann_code.__wrapped__(2, 4, gf2)  # past the cache
    monkeypatch.setenv("AGCODES_POINTS_CAP", "34")
    with pytest.raises(CapExceeded, match=r"^enumerating 2-subspaces of GF\(2\)\^4 needs 35 points"):
        subspace_entries(2, 4, gf2)  # the real one, imported above


@pytest.mark.parametrize("l, m, kept, n", [(15, 16, 65534, 65535), (13, 14, 16382, 16383)])
def test_build_refuses_its_sub_minors_over_the_points_cap(monkeypatch, l, m, kept, n):
    """(15, 16, 2) and (13, 14, 2) pass the k·n check at the default cap, but
    the Laplace expansion keeps Σ_{r=1..l} C(m, r) = 2^m - 2 sub-minors of n
    entries each: refused before any vector is made."""
    monkeypatch.delenv("AGCODES_POINTS_CAP", raising=False)

    def no_vectors(*args):
        raise AssertionError("made a vector past the cap")

    monkeypatch.setattr(grassmann_module, "subspace_entries", no_vectors)
    monkeypatch.setattr(grassmann_module, "_repeated", no_vectors)
    refusal = rf"^keeping {kept} sub-minors at each of the {n} {l}-subspaces of GF\(2\)\^{m} needs {kept * n} "
    with pytest.raises(CapExceeded, match=refusal):
        build_grassmann_code.__wrapped__(l, m, gf2)  # past the cache


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


@pytest.mark.parametrize(
    "l,m,q", [(1, 2, 2), (2, 4, 2), (2, 4, 3), (2, 5, 2), (2, 4, 4), (1, 3, 16), (1, 2, 17)]
)
def test_cell_matches_reverify(l, m, q):
    """Check every reported match semantically: on each cell subspace, the
    Pluecker coordinate equals sign times the minor of the complement block.
    The fields take every kind of batch_minors vector: AND and XOR (q = 2),
    XOR sums with table products (4, 16), tables only (3) and tuples (17)."""
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
