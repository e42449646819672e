"""Matrix layer: determinants and minors against a recursive oracle, the
unchecked internal results against the checking constructor, echelon form
properties, batched minors and the table of all minors against per-matrix
minors, the small matrix groups counted against the closed forms, and
Cauchy-Binet batched by shape against a minor-by-minor sum."""

import random
from itertools import combinations

import pytest

from agcodes.code import point_matrix
from agcodes.fields import field_for_order
from agcodes.limits import CapExceeded
from agcodes.matrices import (
    MatrixGF,
    _all_minors,
    batch_minors,
    cauchy_binet,
    enumerate_gl,
    enumerate_matrices,
    enumerate_rref,
)
from agcodes.params import CodeParams, gaussian_binomial, gl_order

gf2 = field_for_order(2)
gf3 = field_for_order(3)
gf4 = field_for_order(4)


def rand_matrix(rng, gf, r, c):
    return MatrixGF(gf, r, c, tuple(rng.randrange(gf.q) for _ in range(r * c)))


def laplace_det(gf, rows):
    """Independent recursive determinant, first-row expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    out = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor_rows = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = gf.mul(rows[0][j], laplace_det(gf, minor_rows))
        if j % 2:
            term = gf.neg(term)
        out = gf.add(out, term)
    return out


def test_constructors_and_access():
    m = MatrixGF.from_rows(gf3, [(1, 2, 0), (0, 1, 2)])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.entry(1, 2) == 2
    assert m.entry(2, 3) == 2
    assert m.row(2) == (0, 1, 2)
    assert m.col(2) == (2, 1)
    assert m.rows() == [(1, 2, 0), (0, 1, 2)]
    assert m.tolists() == [[1, 2, 0], [0, 1, 2]]
    assert not m.is_zero
    assert MatrixGF.zeros(gf3, 2, 2).is_zero
    assert MatrixGF.identity(gf3, 2).det() == 1
    with pytest.raises(IndexError):
        m.entry(0, 1)
    with pytest.raises(IndexError):
        m.entry(1, 4)
    with pytest.raises(IndexError):
        m.row(3)
    with pytest.raises(ValueError):
        MatrixGF(gf3, 2, 2, (0, 1, 2))
    with pytest.raises(ValueError):
        MatrixGF(gf3, 1, 2, (0, 3))
    with pytest.raises(ValueError):
        MatrixGF.from_rows(gf3, [(1, 2), (0,)])


def test_det_against_recursive_oracle():
    rng = random.Random(7)
    for _ in range(150):
        gf = rng.choice([gf2, gf3, gf4])
        n = rng.randint(0, 4)
        m = rand_matrix(rng, gf, n, n)
        assert m.det() == laplace_det(gf, m.tolists())
    # every kind of field (2, odd p, 2^e, p^e) at every order up to 4,
    # which covers the closed forms of orders 0, 1 and 2
    for q in (2, 3, 4, 5, 9):
        gf = field_for_order(q)
        for n in range(5):
            for _ in range(12):
                m = rand_matrix(rng, gf, n, n)
                assert m.det() == laplace_det(gf, m.tolists())
        # minor reads the selected entries off the matrix: every square
        # selection of rows and columns, against the oracle on those entries
        for nrows in (3, 4):
            for _ in range(4):
                m = rand_matrix(rng, gf, nrows, 4)
                rows = m.tolists()
                for size in range(nrows + 1):
                    for rs in combinations(range(1, nrows + 1), size):
                        for cs in combinations(range(1, 5), size):
                            picked = [[rows[i - 1][j - 1] for j in cs] for i in rs]
                            assert m.minor(rs, cs) == laplace_det(gf, picked)
                            assert m.minor(list(rs), list(cs)) == m.minor(rs, cs)


def test_det_known_values():
    assert MatrixGF(gf3, 2, 2, (0, 1, 1, 0)).det() == 2
    assert MatrixGF(gf2, 0, 0, ()).det() == 1
    assert MatrixGF(gf3, 3, 3, (1, 0, 0, 0, 2, 0, 0, 0, 2)).det() == 1
    with pytest.raises(ValueError):
        MatrixGF.zeros(gf2, 2, 3).det()


def test_arithmetic_laws():
    rng = random.Random(11)
    for _ in range(40):
        gf = rng.choice([gf2, gf3, gf4])
        a = rand_matrix(rng, gf, 2, 3)
        b = rand_matrix(rng, gf, 2, 3)
        c = rand_matrix(rng, gf, 3, 2)
        assert a + b == b + a
        assert a - a == MatrixGF.zeros(gf, 2, 3)
        assert (a + b) @ c == a @ c + b @ c
        assert (a @ c).transpose() == c.transpose() @ a.transpose()
        assert a.scale(0).is_zero
    with pytest.raises(ValueError):
        rand_matrix(rng, gf2, 2, 3) + rand_matrix(rng, gf3, 2, 3)
    with pytest.raises(ValueError):
        rand_matrix(rng, gf2, 2, 3) @ rand_matrix(rng, gf2, 2, 3)


def test_submatrix_and_minor():
    m = MatrixGF.from_rows(gf3, [(1, 2, 0), (0, 1, 2)])
    assert m.submatrix((1,), (1, 3)).rows() == [(1, 0)]
    assert m.minor((1, 2), (1, 2)) == 1
    assert m.minor((1, 2), (2, 3)) == 1  # det [[2,0],[1,2]] = 4 = 1 mod 3
    assert m.minor((), ()) == 1
    with pytest.raises(ValueError):
        m.minor((1, 2), (1,))
    with pytest.raises(ValueError):
        m.submatrix((2, 1), (1,))
    with pytest.raises(ValueError):
        m.submatrix((1, 3), (1,))
    # minor checks its labels itself: decreasing, repeated, out of range
    for rows, cols in [
        ((2, 1), (1, 2)),
        ((1, 2), (3, 2)),
        ((1, 1), (1, 2)),
        ((1, 3), (1, 2)),
        ((0,), (1,)),
        ((1,), (4,)),
        ((1,), (0,)),
    ]:
        with pytest.raises(ValueError):
            m.minor(rows, cols)


def test_minor_makes_no_matrix(monkeypatch):
    """A minor is computed from the entries it selects, without building a
    MatrixGF for the submatrix."""
    m = MatrixGF.from_rows(gf3, [(1, 2, 0, 1), (0, 1, 2, 2), (2, 2, 1, 0)])
    made = []
    init, of = MatrixGF.__init__, MatrixGF._of.__func__
    monkeypatch.setattr(MatrixGF, "__init__", lambda self, *a: made.append("init") or init(self, *a))
    monkeypatch.setattr(MatrixGF, "_of", classmethod(lambda cls, *a: made.append("_of") or of(cls, *a)))
    for size in range(4):
        for rows in combinations(range(1, 4), size):
            for cols in combinations(range(1, 5), size):
                m.minor(rows, cols)
    assert made == []
    m.submatrix((1, 2), (1, 2))
    assert made == ["_of"]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_internal_results_match_the_checking_constructor(q):
    """Every matrix the package computes without the range check equals,
    and hashes like, the same entries passed through MatrixGF(...)."""
    gf = field_for_order(q)
    rng = random.Random(40 + q)

    def same(m):
        assert type(m._flat) is tuple and all(0 <= x < q for x in m._flat)
        checked = MatrixGF(gf, m.nrows, m.ncols, m._flat)
        assert m == checked and hash(m) == hash(checked)

    for _ in range(20):
        a, b = rand_matrix(rng, gf, 2, 3), rand_matrix(rng, gf, 2, 3)
        c = rand_matrix(rng, gf, 3, 3)
        for m in (
            a @ c,
            c @ c,
            a + b,
            a - b,
            -a,
            a.scale(rng.randrange(q)),
            a.transpose(),
            c.submatrix((1, 3), (2, 3)),
            a.submatrix((2,), (1, 2, 3)),
            a.submatrix((), ()),
        ):
            same(m)
    for m in enumerate_matrices(gf, 1, 2):
        same(m)
    for m in enumerate_gl(2, gf):
        same(m)
    for m in enumerate_rref(2, 3, gf):
        same(m)
    p = CodeParams(q, 1, 2)
    for index in range(p.npoints):
        same(point_matrix(p, index))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 16, 257, 1024])
def test_batch_minors_match_per_matrix_minors(q, monkeypatch):
    """Every minor of a random batch of 3 x 4 matrices, batched against
    MatrixGF.minor one matrix at a time.  For q <= 16 gf.mul fills one
    q x q table and nothing more; above, the expansion calls it a bounded
    number of times per minor and matrix, so it builds no table (one for
    GF(257) would take 66049 calls)."""
    gf = field_for_order(q)
    rng = random.Random(q)
    batch = [rand_matrix(rng, gf, 3, 4) for _ in range(40)]
    batch.append(MatrixGF(gf, 3, 4, (q - 1,) * 12))
    entries = [[[w.entry(i, j) for w in batch] for j in range(1, 5)] for i in range(1, 4)]
    wanted = [
        (rows, cols)
        for r in range(4)
        for rows in combinations(range(1, 4), r)
        for cols in combinations(range(1, 5), r)
    ]
    calls = []
    monkeypatch.setattr(gf, "mul", lambda a, b: calls.append(1) or type(gf).mul(gf, a, b))
    got = batch_minors(gf, entries, len(batch), wanted)
    made = len(calls)
    assert got == tuple(tuple(w.minor(rows, cols) for w in batch) for rows, cols in wanted)
    assert made <= q * q if q <= 16 else made < 3 * len(wanted) * len(batch)
    assert batch_minors(gf, [], 3, [((), ())]) == ((1, 1, 1),)


@pytest.mark.parametrize("size", [1, 8, 9])
@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 17])
def test_batch_minors_take_every_vector_kind(q, size):
    """Every minor of a batch of 1, 8 or 9 matrices, the last all q - 1, as
    MatrixGF.minor gives it, whether the entry vectors come as bytes, tuples
    or lists: the byte-lane ints over GF(2) (AND and XOR), GF(4), GF(8),
    GF(16) (XOR sums), GF(3), GF(9) (tables only) and the tuples of GF(17).
    cauchy_binet on the same batch still returns pairs of plain ints."""
    gf = field_for_order(q)
    rng = random.Random(10 * q + size)
    batch = [rand_matrix(rng, gf, 3, 4) for _ in range(size - 1)]
    batch.append(MatrixGF(gf, 3, 4, (q - 1,) * 12))
    wanted = [
        (rows, cols)
        for r in range(4)
        for rows in combinations(range(1, 4), r)
        for cols in combinations(range(1, 5), r)
    ]
    expected = tuple(tuple(w.minor(rows, cols) for w in batch) for rows, cols in wanted)
    for kind in (bytes, tuple, list):
        entries = [[kind(w.entry(i, j) for w in batch) for j in range(1, 5)] for i in range(1, 4)]
        got = batch_minors(gf, entries, size, wanted)
        assert got == expected
        assert all(type(row) is tuple and all(type(x) is int for x in row) for row in got)
    pairs = [(w, rand_matrix(rng, gf, 4, 3)) for w in batch]
    sides = cauchy_binet(pairs)
    assert sides == [((a @ b).det(), cauchy_binet_reference(a, b)) for a, b in pairs]
    assert all(type(side) is int for pair in sides for side in pair)


def test_rref_properties():
    rng = random.Random(3)
    for _ in range(80):
        gf = rng.choice([gf2, gf3])
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        m = rand_matrix(rng, gf, r, c)
        reduced = m.rref_rows()
        assert reduced.rref_rows() == reduced
        assert reduced.rank() == m.rank()
        # canonical under left multiplication by anything invertible
        while True:
            s = rand_matrix(rng, gf, r, r)
            if s.det() != 0:
                break
        assert (s @ m).rref_rows() == m.rref_rows()


def test_inverse():
    rng = random.Random(5)
    for gf in (gf2, gf3, gf4):
        for _ in range(20):
            while True:
                m = rand_matrix(rng, gf, 3, 3)
                if m.det() != 0:
                    break
            assert m @ m.inverse() == MatrixGF.identity(gf, 3)
            assert m.inverse() @ m == MatrixGF.identity(gf, 3)
    with pytest.raises(ValueError):
        MatrixGF.zeros(gf2, 2, 2).inverse()
    with pytest.raises(ValueError):
        MatrixGF.zeros(gf2, 2, 3).inverse()


def test_enumerate_matrices_order_and_count():
    mats = list(enumerate_matrices(gf2, 1, 2))
    assert [m.row(1) for m in mats] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(enumerate_matrices(gf3, 2, 2))) == 81


def test_group_counts_match_formulas():
    assert len(list(enumerate_gl(1, gf2))) == gl_order(1, 2) == 1
    assert len(list(enumerate_gl(2, gf2))) == gl_order(2, 2) == 6
    assert len(list(enumerate_gl(3, gf2))) == gl_order(3, 2) == 168
    assert len(list(enumerate_gl(2, gf3))) == gl_order(2, 3) == 48


def test_enumeration_caps(monkeypatch):
    monkeypatch.setenv("AGCODES_MATRICES_CAP", "10")
    with pytest.raises(CapExceeded, match="AGCODES_MATRICES_CAP"):
        list(enumerate_gl(2, gf2))


def test_enumerate_rref_counts_and_canonicality():
    for k, n, q in [(2, 4, 2), (1, 3, 3), (2, 3, 2), (0, 3, 2), (3, 3, 2)]:
        gf = field_for_order(q)
        reps = list(enumerate_rref(k, n, gf))
        assert len(reps) == gaussian_binomial(n, k, q)
        assert len(set(reps)) == len(reps)
        for w in reps:
            assert (w.nrows, w.ncols) == (k, n)
            assert w.rank() == k
            if k:
                assert w.rref_rows() == w
    with pytest.raises(ValueError):
        list(enumerate_rref(3, 2, gf2))


def cauchy_binet_reference(a, b):
    """The right side summed minor by minor through MatrixGF.minor."""
    gf, lead = a.gf, tuple(range(1, a.nrows + 1))
    out = 0
    for cols in combinations(range(1, a.ncols + 1), a.nrows):
        out = gf.add(out, gf.mul(a.minor(lead, cols), b.minor(cols, lead)))
    return out


def test_cauchy_binet():
    rng = random.Random(13)
    for _ in range(200):
        gf = rng.choice([gf2, gf3, gf4])
        r = rng.randint(0, 3)
        s = rng.randint(r, 4)
        a = rand_matrix(rng, gf, r, s)
        b = rand_matrix(rng, gf, s, r)
        [(lhs, rhs)] = cauchy_binet([(a, b)])
        assert lhs == rhs
    with pytest.raises(ValueError):
        cauchy_binet([(rand_matrix(rng, gf2, 3, 2), rand_matrix(rng, gf2, 2, 3))])
    with pytest.raises(ValueError):
        cauchy_binet([(rand_matrix(rng, gf2, 2, 3), rand_matrix(rng, gf2, 2, 3))])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 17, 25])
def test_batched_cauchy_binet_matches_the_minor_by_minor_sum(q):
    # both sides against a product and determinant per pair and a minor by
    # minor sum, r = 0 (the empty product, det 1) included; 17 and 25 take
    # the tuple vectors with no byte table
    gf = field_for_order(q)
    rng = random.Random(60 + q)
    for r in range(4):
        for s in range(r, 5):
            pairs = [
                (rand_matrix(rng, gf, r, s), rand_matrix(rng, gf, s, r))
                for _ in range(rng.randint(1, 12))
            ]
            expected = [((a @ b).det(), cauchy_binet_reference(a, b)) for a, b in pairs]
            assert cauchy_binet(pairs) == expected
            assert all(lhs == rhs for lhs, rhs in expected)
    assert cauchy_binet([]) == []


def test_cauchy_binet_refuses_a_mixed_batch():
    rng = random.Random(17)
    pair_23 = (rand_matrix(rng, gf3, 2, 3), rand_matrix(rng, gf3, 3, 2))
    pair_24 = (rand_matrix(rng, gf3, 2, 4), rand_matrix(rng, gf3, 4, 2))
    pair_13 = (rand_matrix(rng, gf3, 1, 3), rand_matrix(rng, gf3, 3, 1))
    pair_23_gf2 = (rand_matrix(rng, gf2, 2, 3), rand_matrix(rng, gf2, 3, 2))
    bad_b = (pair_23[0], rand_matrix(rng, gf3, 2, 2))
    for mixed in ([pair_23, pair_24], [pair_23, pair_13], [pair_23, pair_23_gf2], [pair_23, bad_b]):
        with pytest.raises(ValueError, match="one field and shape per batch"):
            cauchy_binet(mixed)
    assert len(cauchy_binet([pair_23, pair_23])) == 2


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_minor_table_matches_minor(q):
    """The table of all minors holds every minor of each order up to the
    one asked for, the empty minor included, each equal to MatrixGF.minor."""
    gf = field_for_order(q)
    rng = random.Random(80 + q)
    for nrows in range(5):
        for ncols in range(5):
            m = rand_matrix(rng, gf, nrows, ncols)
            for order in range(min(nrows, ncols) + 2):
                expected = {
                    (rows, cols): m.minor(rows, cols)
                    for k in range(min(order, nrows, ncols) + 1)
                    for rows in combinations(range(1, nrows + 1), k)
                    for cols in combinations(range(1, ncols + 1), k)
                }
                assert _all_minors(m, order) == expected
