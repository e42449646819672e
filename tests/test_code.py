"""Evaluation codes and scan engines: point encoding round trips, a naive
reference scan, the packed scan against an encode-every-message oracle
(blind and with early exit), weight accounting oracles, and the resource
caps."""

import hashlib
import json
import random
import time
from functools import lru_cache
from itertools import product

import pytest

from agcodes.code import (
    LinearCode,
    build,
    evaluate_vector,
    min_distance,
    min_weight_codewords,
    point_index,
    point_matrix,
    points,
    rowspec_weight_bound,
    weight,
    weight_distribution,
)
from agcodes.fields import field_for_order
from agcodes.grassmann import build_grassmann_code
from agcodes.limits import CapExceeded
from agcodes.minors import MinorCombination, leading_maximal_minor, minor_basis
from agcodes.params import (
    CodeParams,
    dimension_formula,
    min_distance_formula,
    min_weight_count_formula,
)

gf2 = field_for_order(2)
gf3 = field_for_order(3)


def rand_combination(rng, p):
    k = dimension_formula(p)
    while True:
        coeffs = tuple(rng.randrange(p.q) for _ in range(k))
        if any(coeffs):
            return MinorCombination(p, coeffs)


def test_point_encoding_round_trip():
    p = CodeParams(2, 2, 3)
    for idx in (0, 1, 5, 17, 63):
        assert point_index(point_matrix(p, idx)) == idx
    assert point_matrix(p, 0).is_zero
    p3 = CodeParams(3, 1, 2)
    assert point_matrix(p3, 5).row(1) == (2, 1)  # 5 = 2 + 1*3, entry (1,1) first
    with pytest.raises(ValueError):
        point_matrix(p, 64)
    with pytest.raises(ValueError):
        point_matrix(p, -1)


def test_points_enumeration():
    p = CodeParams(2, 1, 2)
    pts = points(p)
    assert len(pts) == 4
    assert [pt.row(1) for pt in pts] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [point_index(pt) for pt in pts] == [0, 1, 2, 3]


def test_build_smallest():
    code = build(CodeParams(2, 1, 1))
    assert (code.n, code.k) == (2, 2)
    assert code.generator == ((1, 1), (0, 1))
    spanned = {code.encode(m) for m in product(range(2), repeat=2)}
    assert spanned == {(0, 0), (1, 1), (0, 1), (1, 0)}


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (3, 2, 2), (4, 2, 2), (9, 1, 2), (3, 0, 2), (257, 1, 1), (1024, 1, 1)],
    ids=lambda s: ",".join(map(str, s)),
)
def test_build_matches_per_point_minors(shape):
    """The batched generator against MatrixGF.minor at every point."""
    p = CodeParams(*shape)
    expect = tuple(tuple(pt.minor(mi.rows, mi.cols) for pt in points(p)) for mi in minor_basis(p))
    assert build(p).generator == expect
    if p.l == 0:
        assert expect == ((1,),)


# (n, k, SHA-256 of the JSON generator) recorded from the per-point build,
# one MatrixGF.minor call per entry, before the batched expansion replaced it
CONSTRUCT_PINS = {
    ("affine", 2, 3, 4): (4096, 35, "bbb77a9f920eb937165ee0afd0cca426b61e6705d835c8e3eaee9ac77d4f8813"),
    ("affine", 2, 2, 6): (4096, 28, "73ba9a0730f46b1bce477c571bc3ee6582d3be0901b8c2c6d911e27a87ace65f"),
    ("affine", 4, 2, 3): (4096, 10, "7f1c18214fa4be48a4f6a8ab4081986e836b98ad02cc456c1b75b664ba5e891b"),
    ("affine", 9, 2, 2): (6561, 6, "10d16c4c770ea203a19cc74ba465d5d54c5bbe4d3586b922f3065e68bee03d71"),
    ("grassmann", 2, 5, 3): (1210, 10, "25ea201ee105381d784199464fa36f3acd0ae3cea154389370d06086ac095b12"),
    ("grassmann", 3, 6, 2): (1395, 20, "0bd82ab35e6ae539d2548b03bb2cc477243fcf9f5c3f1dc08c0015cd8484bac3"),
}


@pytest.mark.parametrize("key", sorted(CONSTRUCT_PINS), ids=lambda k: "{}-{},{},{}".format(*k))
def test_construct_scale_generators_pinned(key):
    """Codes of the benchmark's construct sizes, byte for byte against the
    per-point build.  Affine keys are (q, l, lp), Grassmann keys (l, m, q)."""
    kind, a, b, c = key
    if kind == "affine":
        code = build(CodeParams(a, b, c))
    else:
        code = build_grassmann_code(a, b, field_for_order(c))
    n, k, sha = CONSTRUCT_PINS[key]
    got = hashlib.sha256(json.dumps(code.generator, separators=(",", ":")).encode()).hexdigest()
    assert (code.n, code.k, got) == (n, k, sha)


def test_naive_reference_scan():
    # rebuild two small codes from scratch and compare every codeword weight
    for p in (CodeParams(2, 2, 2), CodeParams(3, 1, 2), CodeParams(4, 1, 2), CodeParams(5, 1, 2)):
        gf = p.field()
        code = build(p)
        basis = minor_basis(p)
        naive = {}
        for msg in product(range(p.q), repeat=len(basis)):
            values = []
            for pt in points(p):
                v = 0
                for c, mi in zip(msg, basis):
                    v = gf.add(v, gf.mul(c, pt.minor(mi.rows, mi.cols)))
                values.append(v)
            w = sum(1 for v in values if v)
            naive[w] = naive.get(w, 0) + 1
        assert naive == weight_distribution(code)


def _random_code(q, k, n, seed):
    rng = random.Random(seed)
    gf = field_for_order(q)
    return LinearCode(gf, tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)))


# Every q <= 9 on small affine shapes, a Grassmann code, random generators
# that come from no affine code, and fields whose elements need 8-, 16- and
# 32-bit lanes (GF(128), GF(25), GF(131), GF(256), GF(729)).
DIFFERENTIAL = {
    **{f"affine({q},1,2)": lambda q=q: build(CodeParams(q, 1, 2)) for q in (2, 3, 4, 5, 7, 8, 9)},
    "affine(2,2,3)": lambda: build(CodeParams(2, 2, 3)),
    "affine(3,2,2)": lambda: build(CodeParams(3, 2, 2)),
    "grassmann(2,4,3)": lambda: build_grassmann_code(2, 4, field_for_order(3)),
    "random-gf8": lambda: _random_code(8, 3, 7, 8),
    "random-gf9": lambda: _random_code(9, 3, 7, 9),
    **{f"random-gf{q}": lambda q=q: _random_code(q, 2, 4, q) for q in (25, 128, 131, 256)},
    "random-gf729": lambda: _random_code(729, 1, 4, 729),
}


@lru_cache(maxsize=None)
def _encode_every_message(case):
    """(distribution, least nonzero weight, its words) by LinearCode.encode
    over every message in index order."""
    code = DIFFERENTIAL[case]()
    q, k = code.gf.q, code.k
    dist = {}
    best, words = code.n + 1, []
    for index in range(q**k):
        word = code.encode(tuple(index // q**i % q for i in range(k)))
        w = weight(word)
        dist[w] = dist.get(w, 0) + 1
        if index and w < best:
            best, words = w, []
        if index and w == best:
            words.append(word)
    return dict(sorted(dist.items())), best, words


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL))
def test_packed_scan_matches_encode_oracle(case):
    dist, d, words = _encode_every_message(case)
    code = DIFFERENTIAL[case]()
    fresh = LinearCode(code.gf, code.generator)
    assert weight_distribution(fresh) == dist
    assert min_distance(fresh) == d
    assert min_weight_codewords(fresh) == words
    # the early exit path on a code whose caches are empty
    assert min_distance(LinearCode(code.gf, code.generator), early_exit_at=d) == d


@pytest.mark.parametrize("shape", [(3, 2, 3), (8, 2, 2)], ids=["3,2,3", "8,2,2"])
def test_frontier_codes_blind(shape):
    p = CodeParams(*shape)
    start = time.perf_counter()
    code = build(p)
    d = min_distance(code)
    count = weight_distribution(code).get(d, 0)
    elapsed = time.perf_counter() - start
    assert d == min_distance_formula(p)
    assert count == min_weight_count_formula(p)
    assert elapsed < 10.0, f"{shape}: build and blind scans took {elapsed:.1f}s, budget 10s"


def test_blind_distance_and_early_exit_agree():
    p = CodeParams(2, 2, 3)
    code = build(p)
    d = min_distance(code)
    assert d == min_distance_formula(p) == 24
    assert min_distance(code, early_exit_at=24) == 24


def test_min_weight_codewords():
    p = CodeParams(2, 2, 2)
    code = build(p)
    words = min_weight_codewords(code)
    assert len(words) == min_weight_count_formula(p) == 16
    assert all(weight(w) == 6 for w in words)
    assert len(set(words)) == 16


def test_evaluate_vector_matches_direct():
    rng = random.Random(41)
    p = CodeParams(2, 2, 3)
    for _ in range(15):
        f = rand_combination(rng, p)
        vec = evaluate_vector(f)
        assert vec == tuple(f.evaluate(pt) for pt in points(p))


def test_max_minor_weight_oracle():
    for p in (CodeParams(2, 2, 2), CodeParams(2, 2, 3), CodeParams(3, 1, 2)):
        lead = leading_maximal_minor(p)
        assert weight(evaluate_vector(lead)) == min_distance_formula(p)
    assert min_distance_formula(CodeParams(2, 2, 3)) == 24
    assert min_distance_formula(CodeParams(3, 1, 2)) == 6


def test_rowspec_weight_bound():
    rng = random.Random(43)
    for p in (CodeParams(2, 2, 2), CodeParams(2, 2, 3), CodeParams(3, 1, 2)):
        lead = leading_maximal_minor(p)
        for i in range(1, p.l + 1):
            bound, actual = rowspec_weight_bound(lead, i)
            assert bound == actual == min_distance_formula(p)
        for _ in range(25):
            f = rand_combination(rng, p)
            bound, actual = rowspec_weight_bound(f, rng.randint(1, p.l))
            assert bound <= actual
    with pytest.raises(ValueError):
        rowspec_weight_bound(MinorCombination.zero(CodeParams(2, 2, 2)), 1)


def test_code_validation():
    with pytest.raises(ValueError):
        LinearCode(gf2, ())
    with pytest.raises(ValueError):
        LinearCode(gf2, ((0, 1), (1,)))
    with pytest.raises(ValueError):
        LinearCode(gf2, ((0, 2),))
    code = build(CodeParams(2, 1, 1))
    with pytest.raises(ValueError):
        code.encode((1,))
    with pytest.raises(ValueError):
        code.contains((0,))


def test_contains():
    p = CodeParams(2, 2, 2)
    code = build(p)
    for msg in ((0,) * 6, (1, 0, 1, 0, 1, 0), (0, 0, 0, 0, 0, 1)):
        assert code.contains(code.encode(msg))
    # a unit vector cannot be a codeword here: nonzero words weigh at least 6
    assert not code.contains((1,) + (0,) * 15)


def test_caps(monkeypatch):
    monkeypatch.setenv("AGCODES_POINTS_CAP", "10")
    with pytest.raises(CapExceeded):
        points(CodeParams(5, 1, 3))
    with pytest.raises(CapExceeded):
        build(CodeParams(5, 1, 3))
    monkeypatch.delenv("AGCODES_POINTS_CAP")
    monkeypatch.setenv("AGCODES_MESSAGES_CAP", "5")
    code = build(CodeParams(2, 1, 2))  # 2^3 = 8 messages
    code._cache.clear()
    with pytest.raises(CapExceeded):
        min_distance(code)
    monkeypatch.delenv("AGCODES_MESSAGES_CAP")
    code._cache.clear()
    assert min_distance(code) == min_distance_formula(CodeParams(2, 1, 2))
