"""The affine substitution group: composition laws, the symbolic action
against a pointwise oracle (and computed without MatrixGF.minor),
coordinate permutations, stabilizers, the minimum weight family and its
witness reconstruction."""

import random
from itertools import product

import pytest

from agcodes import group, minors, verify
from agcodes.code import build, evaluate_vector, point_index, points, weight
from agcodes.fields import field_for_order
from agcodes.group import (
    AffineMap,
    act_on_poly,
    apply_permutation,
    apply_point,
    compose,
    enumerate_group,
    generate_min_weight_polys,
    generating_set,
    inverse,
    min_weight_witness,
    permutation,
    stabilizer_criterion,
    stabilizer_test,
)
from agcodes.limits import CapExceeded
from agcodes.matrices import MatrixGF
from agcodes.minors import (
    MinorCombination,
    MinorIndex,
    det_product_expansion,
    leading_maximal_minor,
)
from agcodes.params import (
    CodeParams,
    dimension_formula,
    group_order_formula,
    min_distance_formula,
    min_weight_count_formula,
    stabilizer_order_formula,
)

P222 = CodeParams(2, 2, 2)
P223 = CodeParams(2, 2, 3)


def rand_combination(rng, p):
    k = dimension_formula(p)
    while True:
        coeffs = tuple(rng.randrange(p.q) for _ in range(k))
        if any(coeffs):
            return MinorCombination(p, coeffs)


def rand_map(rng, p):
    gf = p.field()
    u = MatrixGF(gf, p.l, p.lp, tuple(rng.randrange(p.q) for _ in range(p.delta)))
    while True:
        a = MatrixGF(gf, p.lp, p.lp, tuple(rng.randrange(p.q) for _ in range(p.lp**2)))
        if a.det() != 0:
            return AffineMap(p, u, a)


def test_affine_map_validation():
    gf = field_for_order(2)
    with pytest.raises(ValueError):
        AffineMap(P222, MatrixGF.zeros(gf, 2, 3), MatrixGF.identity(gf, 2))
    with pytest.raises(ValueError):
        AffineMap(P222, MatrixGF.zeros(gf, 2, 2), MatrixGF.zeros(gf, 2, 2))
    with pytest.raises(ValueError):
        AffineMap(P222, MatrixGF.zeros(field_for_order(4), 2, 2), MatrixGF.identity(gf, 2))


def test_identity_and_apply_point():
    rng = random.Random(3)
    e = AffineMap.identity(P223)
    for pt in points(P223):
        assert apply_point(e, pt) == pt
    phi = rand_map(rng, P223)
    gf = P223.field()
    pt = points(P223)[13]
    assert apply_point(phi, pt) == pt @ phi.a_inv + phi.u


def test_composition_laws():
    rng = random.Random(5)
    p = P223
    e = AffineMap.identity(p)
    pts = points(p)
    for _ in range(15):
        phi, psi, chi = (rand_map(rng, p) for _ in range(3))
        assert compose(phi, e) == compose(e, phi) == phi
        assert compose(phi, inverse(phi)) == e
        assert compose(inverse(phi), phi) == e
        assert compose(compose(phi, psi), chi) == compose(phi, compose(psi, chi))
        for pt in (pts[0], pts[17], pts[42]):
            assert apply_point(compose(phi, psi), pt) == apply_point(phi, apply_point(psi, pt))
    with pytest.raises(ValueError):
        compose(rand_map(rng, P222), rand_map(rng, P223))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_compose_and_inverse_carry_the_inverse_linear_part(q):
    # equality of maps ignores a_inv, so it is compared here on its own
    p = CodeParams(q, 1, 3)
    rng = random.Random(q)
    for _ in range(20):
        phi, psi = rand_map(rng, p), rand_map(rng, p)
        for made in (compose(phi, psi), inverse(phi)):
            assert made.a_inv == made.a.inverse()


def test_act_pointwise_oracle():
    rng = random.Random(7)
    for p in (P222, P223, CodeParams(3, 1, 2)):
        for _ in range(12):
            f, phi = rand_combination(rng, p), rand_map(rng, p)
            g = act_on_poly(phi, f)
            for pt in points(p):
                assert g.evaluate(pt) == f.evaluate(apply_point(phi, pt))


@pytest.mark.parametrize(
    "p", [CodeParams(2, 3, 3), CodeParams(3, 2, 3), CodeParams(9, 2, 2), CodeParams(4, 1, 3)]
)
def test_act_on_every_point(p):
    """Order-3 minors, an odd prime and a p^e field: the codeword of
    act_on_poly(phi, f) is f(apply_point(phi, P)) at every point P, for a
    random map, a translation and a linear map."""
    rng = random.Random(p.q * 100 + p.l * 10 + p.lp)
    gf = p.field()
    one, zero = MatrixGF.identity(gf, p.lp), MatrixGF.zeros(gf, p.l, p.lp)
    base = rand_map(rng, p)
    for phi in (base, AffineMap(p, base.u, one), AffineMap(p, zero, base.a)):
        f = rand_combination(rng, p)
        expected = tuple(f.evaluate(apply_point(phi, pt)) for pt in points(p))
        assert evaluate_vector(act_on_poly(phi, f)) == expected


def test_expansions_make_no_minor_calls(monkeypatch):
    """act_on_poly, det_product_expansion and the Cauchy-Binet suite read
    their minors from tables, never through MatrixGF.minor."""
    calls = []
    minor = MatrixGF.minor
    monkeypatch.setattr(MatrixGF, "minor", lambda self, *a: calls.append(a) or minor(self, *a))
    rng = random.Random(23)
    for p in (P222, CodeParams(2, 3, 3), CodeParams(3, 2, 3), CodeParams(9, 2, 2)):
        for _ in range(5):
            act_on_poly(rand_map(rng, p), rand_combination(rng, p))
        lead, every = tuple(range(1, p.l + 1)), tuple(range(1, p.lp + 1))
        m = rand_map(rng, p)
        det_product_expansion(p, lead, m.a_inv.submatrix(every, lead), m.u.submatrix(lead, lead))
    verify.suite_cauchy_binet(CodeParams(3, 1, 4), rng, 200)
    assert calls == []
    MatrixGF.identity(P222.field(), 2).minor((1,), (2,))
    assert calls == [((1,), (2,))]


def test_act_structure():
    rng = random.Random(11)
    p = P222
    e = AffineMap.identity(p)
    for _ in range(10):
        f, g = rand_combination(rng, p), rand_combination(rng, p)
        phi, psi = rand_map(rng, p), rand_map(rng, p)
        assert act_on_poly(e, f) == f
        assert act_on_poly(phi, f + g) == act_on_poly(phi, f) + act_on_poly(phi, g)
        # substitution reverses the order of composition
        assert act_on_poly(phi, act_on_poly(psi, f)) == act_on_poly(compose(psi, phi), f)
        # and is undone by the inverse map
        assert act_on_poly(inverse(phi), act_on_poly(phi, f)) == f
    with pytest.raises(ValueError):
        act_on_poly(rand_map(rng, P223), rand_combination(rng, P222))


def test_permutation_properties():
    rng = random.Random(13)
    for p in (P222, CodeParams(3, 1, 2)):
        n = p.npoints
        for _ in range(10):
            phi, psi = rand_map(rng, p), rand_map(rng, p)
            perm = permutation(phi)
            assert sorted(perm) == list(range(n))
            f = rand_combination(rng, p)
            assert apply_permutation(evaluate_vector(f), perm) == evaluate_vector(
                act_on_poly(phi, f)
            )
            # array composition follows the group composition
            combined = permutation(compose(phi, psi))
            assert combined == tuple(permutation(phi)[t] for t in permutation(psi))


@pytest.mark.parametrize(
    "p",
    [P222, CodeParams(3, 1, 2), P223, CodeParams(4, 1, 3)]
    + [CodeParams(9, 2, 2), CodeParams(2, 3, 3), CodeParams(2, 0, 2)],
    ids=lambda p: f"{p.q},{p.l},{p.lp}",
)
def test_permutation_matches_apply_point(p):
    """The row-table permutation is the MatrixGF route point by point, on
    random maps, every generator and the identity."""
    rng = random.Random(p.q * 100 + p.l * 10 + p.lp)
    maps = [rand_map(rng, p) for _ in range(3)] + generating_set(p) + [AffineMap.identity(p)]
    for phi in maps:
        expected = tuple(point_index(apply_point(phi, pt)) for pt in points(p))
        assert permutation(phi) == expected, phi


def test_permutation_refuses_over_the_points_cap(monkeypatch):
    """The cap is checked by permutation itself, before any row table."""
    p = CodeParams(7, 1, 2)
    phi = rand_map(random.Random(31), p)
    tables = []
    monkeypatch.setattr(group, "_row_tables", lambda phi: tables.append(phi) or [])
    monkeypatch.setenv("AGCODES_POINTS_CAP", str(p.npoints - 1))
    with pytest.raises(CapExceeded, match="AGCODES_POINTS_CAP"):
        permutation(phi)
    assert tables == []


def test_enumerate_group(monkeypatch):
    p = CodeParams(2, 1, 2)
    group = list(enumerate_group(p))
    assert len(group) == group_order_formula(p) == 24
    assert len(set(group)) == 24
    assert AffineMap.identity(p) in group
    monkeypatch.setenv("AGCODES_GROUP_CAP", "50")
    with pytest.raises(CapExceeded, match="AGCODES_GROUP_CAP"):
        list(enumerate_group(P222))


def test_cayley_table_of_the_coordinate_action():
    """Every one of the 96^2 products of (2,2,2) acts as the composite
    permutation; criterion 5 checks only generators times the group."""
    group = list(enumerate_group(P222))
    perm_of = {phi: permutation(phi) for phi in group}
    for phi in group:
        for psi in group:
            assert perm_of[compose(phi, psi)] == tuple(perm_of[phi][t] for t in perm_of[psi])


def _closure(gens, p):
    """The maps reached from the identity by composing with gens on the left."""
    reached = {AffineMap.identity(p)}
    frontier = list(reached)
    while frontier:
        h = frontier.pop()
        for s in gens:
            g = compose(s, h)
            if g not in reached:
                reached.add(g)
                frontier.append(g)
    return reached


@pytest.mark.parametrize(
    "p,size",
    [(P222, 6), (CodeParams(3, 1, 2), 5), (CodeParams(4, 1, 1), 3), (CodeParams(9, 1, 1), 3)],
    ids=lambda v: f"{v.q},{v.l},{v.lp}" if isinstance(v, CodeParams) else str(v),
)
def test_generating_set_generates(p, size):
    gens = generating_set(p)
    assert len(gens) == len(set(gens)) == size
    group = set(enumerate_group(p))
    assert set(gens) <= group
    assert _closure(gens, p) == group
    # the diagonal is what lifts SL(lp, q) to GL(lp, q) for q > 2
    if p.q > 2:
        sl_part = _closure(gens[:-1], p)
        assert len(sl_part) * (p.q - 1) == len(group)


def test_stabilizer_routes_agree():
    p = CodeParams(3, 1, 1)
    group = list(enumerate_group(p))
    assert len(group) == 6
    stab = [phi for phi in group if stabilizer_test(phi)]
    assert len(stab) == stabilizer_order_formula(p) == 1
    for phi in group:
        assert stabilizer_criterion(phi) == stabilizer_test(phi)
    # sampled agreement on a bigger shape
    rng = random.Random(17)
    for _ in range(25):
        phi = rand_map(rng, P223)
        assert stabilizer_criterion(phi) == stabilizer_test(phi)


def test_generate_min_weight_family(monkeypatch):
    fam = generate_min_weight_polys(P222)
    assert len(fam) == min_weight_count_formula(P222) == 16
    assert len({f.coeffs for f in fam}) == 16
    assert [f.coeffs for f in fam] == sorted(f.coeffs for f in fam)
    d = min_distance_formula(P222)
    for f in fam:
        assert weight(evaluate_vector(f)) == d
        assert min_weight_witness(f) is not None

    p12 = CodeParams(2, 1, 2)
    fam12 = generate_min_weight_polys(p12)
    assert len(fam12) == min_weight_count_formula(p12) == 6

    p11 = CodeParams(3, 1, 1)
    fam11 = generate_min_weight_polys(p11)
    assert len(fam11) == 6
    monkeypatch.setenv("AGCODES_GROUP_CAP", "10")
    with pytest.raises(CapExceeded, match="AGCODES_GROUP_CAP"):
        generate_min_weight_polys(P223)


def test_witness_round_trip():
    rng = random.Random(19)
    for p in (P222, CodeParams(2, 1, 2), CodeParams(3, 1, 1), CodeParams(3, 2, 3)):
        lead = tuple(range(1, p.l + 1))
        for f in generate_min_weight_polys(p):
            got = min_weight_witness(f)
            assert got is not None
            scalar, m, shift = got
            rebuilt = det_product_expansion(p, lead, m, shift).scale(scalar)
            assert rebuilt == f
            # the column space representative is column reduced
            assert m.transpose().rref_rows().transpose() == m


def test_witness_reads_off_with_one_expansion(monkeypatch):
    """One det_product_expansion per f with a nonzero order-l part, and no
    vanishing locus sweep, substitution, composition or row reduction."""
    rng = random.Random(29)
    fs = generate_min_weight_polys(P222) + [MinorCombination.constant(P223, 1)]
    fs += [rand_combination(rng, p) for p in (P222, P223, CodeParams(3, 2, 3)) for _ in range(20)]
    fs += [rand_combination(rng, CodeParams(9, 1, 2)) for _ in range(20)]
    top = sum(any(mi.order == f.params.l for mi in f.support()) for f in fs)
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapped

    for module, name in [(group, "det_product_expansion"), (group, "act_on_poly"), (group, "compose")]:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    monkeypatch.setattr(minors, "row_vanishing_locus", counting(minors.row_vanishing_locus))
    monkeypatch.setattr(MatrixGF, "_eliminate", counting(MatrixGF._eliminate))
    found = sum(min_weight_witness(f) is not None for f in fs)
    assert calls == ["det_product_expansion"] * top
    assert 16 <= found < top < len(fs)


def test_witness_known_forms():
    lead223 = leading_maximal_minor(P223)
    scalar, m, shift = min_weight_witness(lead223)
    assert scalar == 1
    assert m == MatrixGF.from_rows(field_for_order(2), [(1, 0), (0, 1), (0, 0)])
    assert shift.is_zero

    p11 = CodeParams(2, 1, 1)
    f = MinorCombination.constant(p11, 1) + MinorCombination.single(
        p11, MinorIndex((1,), (1,)), 1
    )
    scalar, m, shift = min_weight_witness(f)
    assert (scalar, m.tolists(), shift.tolists()) == (1, [[1]], [[1]])


def test_witness_refutations():
    assert min_weight_witness(MinorCombination.zero(P222)) is None
    assert min_weight_witness(MinorCombination.constant(P222, 1)) is None
    det = leading_maximal_minor(P222)
    assert min_weight_witness(det + MinorCombination.constant(P222, 1)) is None
    x11 = MinorCombination.single(P222, MinorIndex((1,), (1,)), 1)
    assert min_weight_witness(x11) is None
    with pytest.raises(ValueError):
        min_weight_witness(MinorCombination.zero(CodeParams(2, 0, 2)))


def test_witness_decides_membership_exhaustively():
    """Every nonzero message; l < lp over odd q and q = 9 is where a sign
    slip in M turns members into refutations, l = 2 over GF(3) is where a
    sign slip in m does, and GF(4) adds l = 2 over an extension field."""
    shapes = (P222, CodeParams(3, 1, 3), CodeParams(5, 1, 2), CodeParams(9, 1, 2))
    for p in shapes + (CodeParams(3, 2, 2), CodeParams(4, 2, 2)):
        code, d = build(p), min_distance_formula(p)
        for coeffs in product(range(p.q), repeat=dimension_formula(p)):
            if any(coeffs):
                f = MinorCombination(p, coeffs)
                assert (min_weight_witness(f) is not None) == (weight(code.encode(coeffs)) == d), f
