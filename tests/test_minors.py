"""Minor combinations: the canonical basis, evaluation, specialization
against a substitute-then-evaluate oracle, vanishing loci, the determinant
expansion identities, and the unchecked internal results against the
checking constructor."""

import random
from collections import Counter
from itertools import product

import pytest

from agcodes.code import build, evaluate_vector, points, weight
from agcodes.fields import field_for_order
from agcodes.group import AffineMap, act_on_poly, apply_point
from agcodes.matrices import MatrixGF, _minors_plan
from agcodes.minors import (
    EMPTY_MINOR,
    MinorCombination,
    MinorIndex,
    _expansion_plan,
    _specialization_plan,
    absorb_translation,
    basis_positions,
    det_product_expansion,
    det_translation_expand,
    leading_maximal_minor,
    minor_basis,
    row_vanishing_locus,
    specialize_col,
    specialize_row,
)
from agcodes.params import CodeParams, dimension_formula
from agcodes.verify import _specialized_weight

gf2 = field_for_order(2)
gf3 = field_for_order(3)

P222 = CodeParams(2, 2, 2)
P223 = CodeParams(2, 2, 3)


def rand_combination(rng, p):
    k = dimension_formula(p)
    while True:
        coeffs = tuple(rng.randrange(p.q) for _ in range(k))
        if any(coeffs):
            return MinorCombination(p, coeffs)


def all_points(p):
    gf = p.field()
    for flat in product(range(p.q), repeat=p.delta):
        yield MatrixGF(gf, p.l, p.lp, flat)


def insert_row(point, i, a):
    """An l x lp matrix from an (l-1) x lp one with `a` put in as row i."""
    rows = point.tolists()
    rows.insert(i - 1, list(a))
    return MatrixGF.from_rows(point.gf, rows)


def insert_col(point, j, b):
    rows = [list(r) for r in point.tolists()]
    for r, x in zip(rows, b):
        r.insert(j - 1, x)
    return MatrixGF.from_rows(point.gf, rows)


def test_basis_2x2_exact():
    assert minor_basis(P222) == (
        MinorIndex((), ()),
        MinorIndex((1,), (1,)),
        MinorIndex((1,), (2,)),
        MinorIndex((2,), (1,)),
        MinorIndex((2,), (2,)),
        MinorIndex((1, 2), (1, 2)),
    )
    assert basis_positions(P222)[MinorIndex((1, 2), (1, 2))] == 5


def test_basis_2x3_counts():
    basis = minor_basis(P223)
    assert len(basis) == 10
    by_order = {}
    for mi in basis:
        by_order[mi.order] = by_order.get(mi.order, 0) + 1
    assert by_order == {0: 1, 1: 6, 2: 3}
    assert basis[0] == EMPTY_MINOR
    # ascending order, then lex rows, then lex cols
    keys = [(mi.order, mi.rows, mi.cols) for mi in basis]
    assert keys == sorted(keys)


def test_render():
    assert str(EMPTY_MINOR) == "-|-"
    assert str(MinorIndex((1, 2), (1, 3))) == "1,2|1,3"
    det = leading_maximal_minor(P222)
    assert det.to_text() == "1,2|1,2: 1"
    assert str(MinorCombination.zero(P222)) == "0"


def test_constructors_and_validation():
    assert MinorCombination.zero(P222).is_zero
    c = MinorCombination.constant(P223, 1)
    assert c.coeff(EMPTY_MINOR) == 1 and len(c.support()) == 1
    s = MinorCombination.single(P223, MinorIndex((1,), (3,)), 1)
    assert s.support() == {MinorIndex((1,), (3,))}
    with pytest.raises(ValueError):
        MinorCombination(P222, (0,) * 5)
    with pytest.raises(ValueError):
        MinorCombination(P222, (0, 0, 0, 0, 0, 2))


def test_evaluate():
    det = leading_maximal_minor(P222)
    assert det.evaluate(MatrixGF.identity(gf2, 2)) == 1
    assert det.evaluate(MatrixGF(gf2, 2, 2, (1, 1, 1, 1))) == 0
    f = MinorCombination.constant(P222, 1) + MinorCombination.single(
        P222, MinorIndex((1,), (1,)), 1
    )
    assert f.evaluate(MatrixGF(gf2, 2, 2, (1, 0, 0, 0))) == 0
    assert f.evaluate(MatrixGF.zeros(gf2, 2, 2)) == 1
    with pytest.raises(ValueError):
        det.evaluate(MatrixGF.zeros(gf2, 2, 3))
    with pytest.raises(ValueError):
        det.evaluate(MatrixGF.zeros(gf3, 2, 2))


def test_arithmetic():
    rng = random.Random(2)
    p = CodeParams(3, 1, 2)
    f, g = rand_combination(rng, p), rand_combination(rng, p)
    for pt in all_points(p):
        gf = p.field()
        assert (f + g).evaluate(pt) == gf.add(f.evaluate(pt), g.evaluate(pt))
        assert (f - g).evaluate(pt) == gf.sub(f.evaluate(pt), g.evaluate(pt))
        assert f.scale(2).evaluate(pt) == gf.mul(2, f.evaluate(pt))
    with pytest.raises(ValueError):
        f + MinorCombination.zero(P222)


@pytest.mark.parametrize("p", [P222, P223, CodeParams(3, 1, 2), CodeParams(3, 2, 2)])
def test_specialize_row_oracle(p):
    rng = random.Random(17)
    small = CodeParams(p.q, p.l - 1, p.lp)
    for _ in range(12):
        f = rand_combination(rng, p)
        for i in range(1, p.l + 1):
            for a in product(range(p.q), repeat=p.lp):
                g = specialize_row(f, i, a)
                for pt in all_points(small):
                    assert g.evaluate(pt) == f.evaluate(insert_row(pt, i, a))
    with pytest.raises(ValueError):
        specialize_row(rand_combination(rng, p), 0, (0,) * p.lp)
    with pytest.raises(ValueError):
        specialize_row(rand_combination(rng, p), 1, (0,) * (p.lp + 1))


@pytest.mark.parametrize("p", [P223, CodeParams(3, 1, 2), CodeParams(2, 1, 3)])
def test_specialize_col_oracle(p):
    rng = random.Random(19)
    small = CodeParams(p.q, p.l, p.lp - 1)
    for _ in range(12):
        f = rand_combination(rng, p)
        for j in range(1, p.lp + 1):
            for b in product(range(p.q), repeat=p.l):
                g = specialize_col(f, j, b)
                for pt in all_points(small):
                    assert g.evaluate(pt) == f.evaluate(insert_col(pt, j, b))


@pytest.mark.parametrize(
    "p", [P223, CodeParams(3, 2, 2), CodeParams(4, 2, 2), CodeParams(9, 1, 2)]
)
def test_specializations_one_pass_matches_single_vectors(p):
    # the specialization at every vector of every line, one call each, has
    # the smaller shape and evaluates like f with the vector put in (fields
    # 2, 3, 2^2 and 3^2, the zero and leading minors included)
    rng = random.Random(37)
    fs = [rand_combination(rng, p) for _ in range(4)]
    fs += [MinorCombination.zero(p), leading_maximal_minor(p)]
    sides = [(True, p.l, p.lp, specialize_row, insert_row)]
    if p.lp > p.l:
        sides.append((False, p.lp, p.l, specialize_col, insert_col))
    for f in fs:
        for is_row, nlines, length, single, insert in sides:
            small = CodeParams(p.q, p.l - 1, p.lp) if is_row else CodeParams(p.q, p.l, p.lp - 1)
            for line in range(1, nlines + 1):
                for v in product(range(p.q), repeat=length):
                    g = single(f, line, v)
                    assert g.params == small
                    for pt in all_points(small):
                        assert g.evaluate(pt) == f.evaluate(insert(pt, line, v))


@pytest.mark.parametrize(
    "p",
    [P223, CodeParams(3, 2, 3), CodeParams(4, 2, 2), CodeParams(5, 2, 2), CodeParams(9, 1, 2)],
)
def test_specialized_weight_matches_encoded_specializations(p):
    # the weight-partition suite's count from one packed word per
    # direction and the base weighs what encoding each specialization weighs, and each of those weights counts
    # the points of f's support whose line is that vector (fields 2, 3, 2^2,
    # 5 and 3^2, odd p on both sides of the line, and (9,1,2)'s rows land
    # on l - 1 = 0)
    rng = random.Random(43)
    fs = [rand_combination(rng, p) for _ in range(3)]
    fs += [MinorCombination.zero(p), leading_maximal_minor(p)]
    pts = points(p)
    sides = [(True, p.l, p.lp, MatrixGF.row, specialize_row)]
    if p.lp > p.l:
        sides.append((False, p.lp, p.l, MatrixGF.col, specialize_col))
    for f in fs:
        word = evaluate_vector(f)
        for is_row, nlines, length, read, single in sides:
            vectors = list(product(range(p.q), repeat=length))
            for line in range(1, nlines + 1):
                support = Counter(read(pt, line) for pt, x in zip(pts, word) if x)
                encoded = []
                for v in vectors:
                    g = single(f, line, v)
                    encoded.append(weight(build(g.params).encode(g.coeffs)))
                assert encoded == [support[v] for v in vectors]
                assert _specialized_weight(f, line, is_row) == sum(encoded) == weight(word)


def test_specialize_col_needs_wide_shape():
    with pytest.raises(ValueError):
        specialize_col(leading_maximal_minor(P222), 1, (0, 0))


def test_row_vanishing_locus_examples():
    det = leading_maximal_minor(P222)
    assert row_vanishing_locus(det, 1) == [(0, 0)]
    assert row_vanishing_locus(det, 2) == [(0, 0)]
    det3 = leading_maximal_minor(P223)
    assert row_vanishing_locus(det3, 1) == [(0, 0, 0), (0, 0, 1)]
    p11 = CodeParams(2, 1, 1)
    f = MinorCombination.constant(p11, 1) + MinorCombination.single(
        p11, MinorIndex((1,), (1,)), 1
    )
    assert row_vanishing_locus(f, 1) == [(1,)]
    # the zero combination vanishes under every substitution
    assert len(row_vanishing_locus(MinorCombination.zero(P222), 1)) == 4
    with pytest.raises(ValueError):
        row_vanishing_locus(det, 3)


@pytest.mark.parametrize(
    "p",
    [
        P222,
        P223,
        CodeParams(3, 2, 3),
        CodeParams(4, 2, 2),
        CodeParams(5, 2, 2),
        CodeParams(9, 1, 2),
        CodeParams(3, 1, 4),
    ],
)
def test_row_vanishing_locus_matches_the_codeword_oracle(p):
    # the solved locus of row i is the set of vectors v at which f's
    # codeword is zero at every point whose row i is v, read off the
    # codeword, not the plan: random f, random f moved by a random map
    # (affine loci of every size), the zero combination (the whole space),
    # a nonzero constant (an inconsistent system, the empty locus) and the
    # leading maximal minor
    rng = random.Random(47)
    gf = p.field()

    def matrix(nrows, ncols):
        return MatrixGF(gf, nrows, ncols, tuple(rng.randrange(p.q) for _ in range(nrows * ncols)))

    lead = leading_maximal_minor(p)
    fs = [rand_combination(rng, p) for _ in range(3)]
    for _ in range(3):
        while True:
            a = matrix(p.lp, p.lp)
            if a.det():
                break
        fs.append(act_on_poly(AffineMap(p, matrix(p.l, p.lp), a), lead))
    fs += [MinorCombination.zero(p), MinorCombination.constant(p, p.q - 1), lead]
    pts = points(p)
    everything = list(product(range(p.q), repeat=p.lp))
    sizes = set()
    for f in fs:
        word = evaluate_vector(f)
        for i in range(1, p.l + 1):
            nonzero = {pt.row(i) for pt, x in zip(pts, word) if x}
            expected = [v for v in everything if v not in nonzero]
            locus = row_vanishing_locus(f, i)
            assert locus == expected
            sizes.add(len(locus))
    assert {0, p.q**p.lp} <= sizes


def test_row_vanishing_locus_sorted():
    rng = random.Random(23)
    for _ in range(20):
        f = rand_combination(rng, P223)
        locus = row_vanishing_locus(f, rng.randint(1, 2))
        assert locus == sorted(locus)


def test_det_product_expansion_pointwise():
    """Over prime and extension fields, l < lp shapes included, with row
    sets of every size from 1 to l in turn."""
    rng = random.Random(29)
    cases = (
        (P223, 15),
        (CodeParams(3, 2, 2), 15),
        (CodeParams(2, 1, 3), 15),
        (CodeParams(4, 2, 3), 4),
        (CodeParams(9, 1, 2), 6),
        (CodeParams(9, 2, 2), 2),
    )
    for p, trials in cases:
        gf = p.field()
        pts = list(all_points(p))
        for t in range(trials):
            size = 1 + t % p.l
            rows = tuple(sorted(rng.sample(range(1, p.l + 1), size)))
            col_mix = MatrixGF(gf, p.lp, size, tuple(rng.randrange(p.q) for _ in range(p.lp * size)))
            shift = MatrixGF(gf, size, size, tuple(rng.randrange(p.q) for _ in range(size * size)))
            f = det_product_expansion(p, rows, col_mix, shift)
            for pt in pts:
                direct = (pt.submatrix(rows, tuple(range(1, p.lp + 1))) @ col_mix + shift).det()
                assert f.evaluate(pt) == direct


def test_expansion_plans_are_keyed_by_shape():
    """The index work of _expansion, _all_minors and the row and column
    substitutions is planned per shape, not per field: expanding and
    specializing one shape over GF(2), GF(3) and GF(4) makes no new plan
    after the first field, and every result equals the pointwise oracle."""
    rng = random.Random(41)
    _expansion_plan.cache_clear()  # so that no earlier test has planned for GF(3) or GF(4)
    _minors_plan.cache_clear()
    _specialization_plan.cache_clear()
    misses = []
    for q in (2, 3, 4):
        p = CodeParams(q, 2, 3)
        gf = p.field()

        def matrix(nrows, ncols):
            return MatrixGF(gf, nrows, ncols, tuple(rng.randrange(q) for _ in range(nrows * ncols)))

        f = MinorCombination(p, (1,) * dimension_formula(p))  # every basis minor is a term
        while True:
            a = matrix(3, 3)
            if a.det():
                break
        phi = AffineMap(p, matrix(2, 3), a)
        acted = act_on_poly(phi, f)
        # all rows, and one row of two
        cases = (((1, 2), matrix(3, 2), matrix(2, 2)), ((2,), matrix(3, 1), matrix(1, 1)))
        expanded = [(rows, m, s, det_product_expansion(p, rows, m, s)) for rows, m, s in cases]
        for pt in all_points(p):
            assert acted.evaluate(pt) == f.evaluate(apply_point(phi, pt))
            for rows, m, s, g in expanded:
                assert g.evaluate(pt) == (pt.submatrix(rows, (1, 2, 3)) @ m + s).det()
        # every row and every column
        sides = ((2, 3, specialize_row, insert_row), (3, 2, specialize_col, insert_col))
        for nlines, length, single, insert in sides:
            for line in range(1, nlines + 1):
                v = tuple(rng.randrange(q) for _ in range(length))
                g = single(f, line, v)
                for pt in all_points(g.params):
                    assert g.evaluate(pt) == f.evaluate(insert(pt, line, v))
        misses.append(
            tuple(
                plan.cache_info().misses
                for plan in (_expansion_plan, _minors_plan, _specialization_plan)
            )
        )
    assert all(misses[0]) and misses[0] == misses[1] == misses[2]


def test_det_product_expansion_validation():
    gf = gf2
    with pytest.raises(ValueError):
        det_product_expansion(P222, (2, 1), MatrixGF.zeros(gf, 2, 2), MatrixGF.zeros(gf, 2, 2))
    with pytest.raises(ValueError):
        det_product_expansion(P222, (1,), MatrixGF.zeros(gf, 2, 2), MatrixGF.zeros(gf, 1, 1))
    with pytest.raises(ValueError):
        det_product_expansion(P222, (1,), MatrixGF.zeros(gf, 2, 1), MatrixGF.zeros(gf, 2, 2))
    with pytest.raises(ValueError):
        det_product_expansion(P222, (1,), MatrixGF.zeros(gf3, 2, 1), MatrixGF.zeros(gf3, 1, 1))


def test_det_translation_expand():
    rng = random.Random(31)
    for q, l in ((2, 1), (2, 2), (2, 3), (3, 2)):
        gf = field_for_order(q)
        p = CodeParams(q, l, l)
        for _ in range(10):
            b = MatrixGF(gf, l, l, tuple(rng.randrange(q) for _ in range(l * l)))
            f = det_translation_expand(b)
            for pt in all_points(p):
                assert f.evaluate(pt) == (pt + b).det()
    with pytest.raises(ValueError):
        det_translation_expand(MatrixGF.zeros(gf2, 2, 3))


def test_absorb_translation_examples():
    det = leading_maximal_minor(P222)
    a, h = absorb_translation(det)
    assert a.is_zero and h.is_zero

    f = det + MinorCombination.single(P222, MinorIndex((1,), (1,)), 1)
    a, h = absorb_translation(f)
    assert a == MatrixGF(gf2, 2, 2, (0, 0, 0, 1))
    assert h.is_zero

    g = det + MinorCombination.constant(P222, 1)
    a, h = absorb_translation(g)
    assert a.is_zero
    assert h.support() == {EMPTY_MINOR}


def test_absorb_translation_split_is_exact():
    rng = random.Random(37)
    for q, l in ((2, 2), (3, 2)):
        gf = field_for_order(q)
        p = CodeParams(q, l, l)
        lead = leading_maximal_minor(p)
        for _ in range(15):
            # random lower-order perturbation on top of the unit determinant
            coeffs = list(rand_combination(rng, p).coeffs)
            coeffs[-1] = 0
            f = lead + MinorCombination(p, tuple(coeffs))
            a, h = absorb_translation(f)
            assert all(mi.order <= l - 2 for mi in h.support())
            for pt in all_points(p):
                direct = gf.add((pt + a).det(), h.evaluate(pt))
                assert f.evaluate(pt) == direct


def test_absorb_translation_validation():
    with pytest.raises(ValueError):
        absorb_translation(leading_maximal_minor(P223))
    p = CodeParams(3, 2, 2)
    with pytest.raises(ValueError):
        absorb_translation(leading_maximal_minor(p).scale(2))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_internal_combinations_pass_the_checking_constructor(q):
    """Every combination the package computes without the length and range
    check passes MinorCombination(...) and equals what it makes."""
    p = CodeParams(q, 2, 3)
    gf = p.field()
    rng = random.Random(60 + q)

    def matrix(nrows, ncols):
        return MatrixGF(gf, nrows, ncols, tuple(rng.randrange(q) for _ in range(nrows * ncols)))

    def same(f):
        assert type(f.coeffs) is tuple
        checked = MinorCombination(f.params, f.coeffs)
        assert f == checked and hash(f) == hash(checked)

    for _ in range(10):
        f, g = rand_combination(rng, p), rand_combination(rng, p)
        same(f + g)
        same(f - g)
        same(-f)
        same(f.scale(rng.randrange(q)))
        same(specialize_row(f, rng.randint(1, 2), tuple(rng.randrange(q) for _ in range(3))))
        same(specialize_col(f, rng.randint(1, 3), tuple(rng.randrange(q) for _ in range(2))))
        rows = rng.choice([(1,), (2,), (1, 2)])
        r = len(rows)
        same(det_product_expansion(p, rows, matrix(3, r), matrix(r, r)))
        while True:
            a = matrix(3, 3)
            if a.det():
                break
        same(act_on_poly(AffineMap(p, matrix(2, 3), a), f))
