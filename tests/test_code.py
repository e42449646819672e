"""Evaluation codes and scan engines: point encoding round trips, a naive
reference scan, both scan routes (the packed scan and the coset engine)
against an encode-every-message oracle and against each other, the coset
engine's certification, weight accounting oracles, and the resource caps."""

import hashlib
import json
import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest

import agcodes.code as code_module
from agcodes import limits
from agcodes.code import (
    LinearCode,
    build,
    evaluate_vector,
    min_distance,
    min_weight_codewords,
    point_index,
    point_matrix,
    points,
    weight,
    weight_distribution,
)
from agcodes.fields import field_for_order
from agcodes.grassmann import build_grassmann_code
from agcodes.limits import CapExceeded
from agcodes.matrices import MatrixGF
from agcodes.minors import MinorCombination, leading_maximal_minor, minor_basis
from agcodes.params import (
    CodeParams,
    dimension_formula,
    min_distance_formula,
    min_weight_count_formula,
)
from agcodes.verify import DESK_GRID

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
    [(2, 2, 3), (3, 2, 2), (4, 2, 2), (9, 1, 2), (3, 0, 2), (16, 1, 2), (17, 1, 2), (257, 1, 1), (1024, 1, 1)],
    ids=lambda s: ",".join(map(str, s)),
)
def test_build_matches_per_point_minors(shape):
    """The batched generator against MatrixGF.minor at every point."""
    p = CodeParams(*shape)
    expect = tuple(tuple(pt.minor(mi.rows, mi.cols) for pt in points(p)) for mi in minor_basis(p))
    assert build(p).generator == expect
    if p.l == 0:
        assert expect == ((1,),)


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (3, 2, 2), (4, 2, 3), (2, 3, 4), (9, 2, 2), (2, 2, 6), (3, 0, 2), (257, 1, 1)],
    ids=lambda s: ",".join(map(str, s)),
)
def test_rank_certificate_agrees_with_elimination(shape):
    """build certifies rank k by its unitriangular block; Gaussian
    elimination over the whole generator agrees, and the block has the
    shape the paper's basis predicts: at the partial permutation E_b, the
    minor a is 1 when a = b and 0 when a != b has order at least b's."""
    p = CodeParams(*shape)
    code = build(p)
    assert code.generator_matrix().rank() == code.k == dimension_formula(p)
    basis = minor_basis(p)
    cols = [sum(p.q ** ((i - 1) * p.lp + j - 1) for i, j in zip(*b)) for b in basis]
    for a, row in zip(basis, code.generator):
        for b, col in zip(basis, cols):
            if b.order <= a.order:
                assert row[col] == (a == b), (a, b)


@pytest.mark.parametrize("copy", [(0, 1), (4, 2), (2, 5)], ids=lambda c: "{}->{}".format(*c))
def test_build_refuses_a_generator_without_the_certificate(copy, monkeypatch):
    """A generator with one row copied over another has rank k - 1, and the
    build must refuse it."""
    real = code_module.batch_minors
    src, dst = copy

    def copied(*args):
        rows = list(real(*args))
        rows[dst] = rows[src]
        return tuple(rows)

    monkeypatch.setattr(code_module, "batch_minors", copied)
    with pytest.raises(AssertionError, match="not certified full rank"):
        build.__wrapped__(CodeParams(2, 2, 2))  # past the cache


@pytest.mark.parametrize("fault", ["entry", "column"])
def test_build_refuses_a_generator_whose_row_0_is_not_all_ones(fault, monkeypatch):
    """Row 0 is the empty minor, the constant 1; the build checks it, which
    also proves that no column is zero.  The fault sits at the point of all
    ones, a column outside the unitriangular block, so only that check can
    refuse it."""
    real = code_module.batch_minors
    p = CodeParams(2, 2, 2)
    at = p.npoints - 1

    def faulty(*args):
        rows = [list(row) for row in real(*args)]
        for row in rows[:1] if fault == "entry" else rows:
            row[at] = 0
        return tuple(map(tuple, rows))

    monkeypatch.setattr(code_module, "batch_minors", faulty)
    with pytest.raises(AssertionError, match=re.escape(f"{p} has a row 0 that is not all ones")):
        build.__wrapped__(p)  # past the cache


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


def _random_affine(q, delta, extra, seed):
    """Rows 0..delta of an affine generator, the constant and the point
    coordinates, under `extra` random rows: the engine accepts it, and no
    symmetry of a minor code hides a fault."""
    rng = random.Random(seed)
    n = q**delta
    rows = [(1,) * n] + [tuple(i // q**t % q for i in range(n)) for t in range(delta)]
    rows += [tuple(rng.randrange(q) for _ in range(n)) for _ in range(extra)]
    return LinearCode(field_for_order(q), rows)


def _powers(q, k):
    """Rows x^0, ..., x^(k-1) at the q points of GF(q): row 0 all ones and
    row 1 the point digit, the first-order rows at δ = 1."""
    gf = field_for_order(q)
    rows = [(1,) * q]
    for _ in range(k - 1):
        rows.append(tuple(map(gf.mul, rows[-1], range(q))))
    return LinearCode(gf, rows)


def _altered(shape, change):
    """The generator of build(shape) after change(rows), a list of rows."""
    code = build(CodeParams(*shape))
    rows = [list(row) for row in code.generator]
    change(rows, code.gf)
    return LinearCode(code.gf, rows)


def _swap_digit_rows(rows, gf):
    rows[1], rows[2] = rows[2], rows[1]


def _scale_digit_row(rows, gf):
    rows[1] = [gf.mul(2, x) for x in rows[1]]


def _drop_last_point(rows, gf):
    for row in rows:
        row.pop()


# Every q <= 9 on small affine shapes, a Grassmann code, random generators
# that come from no affine code, and fields whose elements need 8-, 16- and
# 32-bit lanes (GF(128), GF(25), GF(131), GF(256), GF(729)).  powers(25,3),
# powers(27,3) and random-affine-gf9 have δ = 1, and the affine(q,1,2) and
# first-order-gf5 are first-order codes, k = δ + 1: the engine refuses both;
# test_scan_routes_agree runs it on 16-bit lanes and over GF(9) at δ = 2.
# (4,2,2) and (7,1,3) are the benchmark's GF(4) and GF(7) codes: minimum
# words of scalars 2..q-1, in one top row and in three.  The altered affine
# generators span codes the coset engine must refuse: their digit rows are
# not the point coordinates in order, or n is not a power of q.
# random-affine-gf2 has n = 4: the engine's words of 4 bits are not whole
# bytes.  The single-point generators have n = 1 = q^0 and row 0 all ones:
# δ = 0 leaves the engine no stage, so it refuses them.
DIFFERENTIAL = {
    **{f"affine({q},1,2)": lambda q=q: build(CodeParams(q, 1, 2)) for q in (2, 3, 4, 5, 7, 8, 9)},
    "affine(2,2,3)": lambda: build(CodeParams(2, 2, 3)),
    "affine(3,2,2)": lambda: build(CodeParams(3, 2, 2)),
    "affine(4,2,2)": lambda: build(CodeParams(4, 2, 2)),
    "affine(7,1,3)": lambda: build(CodeParams(7, 1, 3)),
    "affine(2,2,2)-swapped": lambda: _altered((2, 2, 2), _swap_digit_rows),
    "affine(3,2,2)-scaled": lambda: _altered((3, 2, 2), _scale_digit_row),
    "affine(2,2,2)-punctured": lambda: _altered((2, 2, 2), _drop_last_point),
    "random-affine-gf2": lambda: _random_affine(2, 2, 1, 2),
    "random-affine-gf3": lambda: _random_affine(3, 2, 3, 3),
    "random-affine-gf4": lambda: _random_affine(4, 2, 2, 4),
    "random-affine-gf9": lambda: _random_affine(9, 1, 2, 9),
    "first-order-gf5": lambda: _random_affine(5, 2, 0, 5),
    "single-point-gf2": lambda: LinearCode(gf2, ((1,), (1,))),
    "single-point-gf3": lambda: LinearCode(gf3, ((1,), (2,))),
    "powers(25,3)": lambda: _powers(25, 3),
    "powers(27,3)": lambda: _powers(27, 3),
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


def _public_scans(code, blocks=None):
    """The three public scans of a fresh copy of code, its minimum words as
    tuples once each is seen to be bytes for q <= 256 and a tuple above;
    blocks sets the coset engine's batch size."""
    fresh = LinearCode(code.gf, code.generator)
    if blocks:
        code_module._cosets(fresh).blocks = blocks
    dist, d, words = weight_distribution(fresh), min_distance(fresh), min_weight_codewords(fresh)
    box = bytes if code.gf.q <= 256 else tuple
    assert words and all(type(w) is box for w in words)
    return dist, d, [tuple(w) for w in words]


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL))
def test_packed_scan_matches_encode_oracle(case, monkeypatch):
    """The public scans, then each route by name: the packed scan always,
    the coset engine wherever it accepts the generator, in batches of its
    own size and of one, two, three and five cosets, so that planes hold
    several cosets, the last batch is often partial, and a batch of five
    straddles the step tables of q^s = 4 or 3 words."""
    oracle = _encode_every_message(case)
    code = DIFFERENTIAL[case]()
    assert _public_scans(code) == oracle
    monkeypatch.setattr(code_module, "_scan", code_module._packed_scan)
    assert _public_scans(code) == oracle
    if code_module._cosets(LinearCode(code.gf, code.generator)) is not None:
        monkeypatch.setattr(code_module, "_scan", code_module._coset_scan)
        assert _public_scans(code) == oracle
        for blocks in (1, 2, 3, 5):
            assert _public_scans(code, blocks=blocks) == oracle, blocks


REFUSED = (
    "grassmann(2,4,3)",
    "random-gf8",
    "affine(2,2,2)-swapped",
    "affine(3,2,2)-scaled",
    "affine(2,2,2)-punctured",
    "single-point-gf2",
    "single-point-gf3",
    "powers(25,3)",
    "powers(27,3)",
    "random-affine-gf9",
    "affine(3,1,2)",
    "affine(9,1,2)",
    "first-order-gf5",
)


@pytest.mark.parametrize("case", REFUSED)
def test_coset_engine_refuses_uncertified_generators(case):
    """The engine trusts only what the generator shows: n = q^δ, δ >= 2,
    k > δ + 1, row 0 all ones and row 1 + t digit t of the point index.
    Refused codes still scan, by the packed route, to the oracle's
    results."""
    code = DIFFERENTIAL[case]()
    fresh = LinearCode(code.gf, code.generator, params=code.params)
    assert code_module._cosets(fresh) is None
    with pytest.raises(ValueError, match="not certified for the coset engine"):
        code_module._coset_scan(fresh, "min")
    assert _public_scans(code) == _encode_every_message(case)


ROUTE_PICKS = [
    *[(case, "_packed_scan") for case in REFUSED],
    ((9, 1, 2), "_packed_scan"),
    ((7, 1, 3), "_packed_scan"),
    *[
        (shape, "_coset_scan")
        for shape in [(2, 2, 2), (2, 2, 3), (4, 2, 2), (2, 3, 3), (9, 2, 2), (5, 2, 3), (3, 2, 4)]
    ],
]


@pytest.mark.parametrize(
    "case, route",
    ROUTE_PICKS,
    ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else x,
)
def test_route_is_picked_from_the_generator(case, route, monkeypatch):
    """The public scans take the coset engine exactly when _cosets accepts
    the generator, whatever the message count; first-order codes (the one
    coset RM_q(1, δ)) and the other refused generators stay packed.
    The routes are replaced by stubs that record the call, so no code is
    scanned here."""
    code = DIFFERENTIAL[case]() if isinstance(case, str) else build(CodeParams(*case))
    called = []

    def stub(name):
        return lambda c, mode: called.append(name) or (Counter(), 0, [])

    for name in ("_packed_scan", "_coset_scan"):
        monkeypatch.setattr(code_module, name, stub(name))
    fresh = LinearCode(code.gf, code.generator)
    min_distance(fresh)
    weight_distribution(fresh)
    min_weight_codewords(fresh)
    assert called == [route] * 3


# The grid's codes the engine takes, k > δ + 1 (so δ >= 2).  n = 2^15:
# fifteen stages, to counts that may need 16 planes; GF(25) and GF(27) at
# δ = 2: elements in 16-bit lanes; GF(9), an odd p^e
GENERATED = {
    "random-affine-gf2-n32768": lambda: _random_affine(2, 15, 1, 15),
    "random-affine-gf25": lambda: _random_affine(25, 2, 1, 25),
    "random-affine-gf27": lambda: _random_affine(27, 2, 1, 27),
    "random-affine-gf9-n81": lambda: _random_affine(9, 2, 2, 9),
}
ROUTE_GRID = [(p.q, p.l, p.lp) for p in DESK_GRID if dimension_formula(p) > p.delta + 1]
ROUTE_GRID += [(2, 3, 3), (3, 2, 3), (7, 2, 2), (8, 2, 2), *GENERATED]


@pytest.mark.parametrize(
    "shape", ROUTE_GRID, ids=lambda s: s if isinstance(s, str) else ",".join(map(str, s))
)
def test_scan_routes_agree(shape):
    """The packed scan and the coset engine return the same triple, mode by
    mode, each on a code of its own."""
    code = GENERATED[shape]() if isinstance(shape, str) else build(CodeParams(*shape))
    for mode in ("min", "dist", "words"):
        packed = code_module._packed_scan(LinearCode(code.gf, code.generator), mode)
        cosets = code_module._coset_scan(LinearCode(code.gf, code.generator), mode)
        assert packed == cosets, mode


@pytest.mark.parametrize("shape", [(2, 3, 3), (4, 2, 3), (9, 2, 2)], ids=lambda s: ",".join(map(str, s)))
def test_coset_charge_bounds_a_batch_transform(shape):
    """_cosets sizes a batch by _charge, the bytes one coset holds at the
    transform's widest stage: the first batch of the feed, its step table
    and words made and its shape built inside the trace, allocates no more
    than the charge and at least half of it."""
    code = build(CodeParams(*shape))
    engine = code_module._cosets(LinearCode(code.gf, code.generator))
    # the rows the step table and words are made from, cached once per code
    engine.shape(1)
    next(engine.feed())
    engine._shapes.clear()
    tracemalloc.start()
    try:
        hs, g = next(engine.feed())
        engine.transform(g, len(hs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    charge = len(hs) * code_module._charge(code.gf.q, engine.delta, engine.words.width)
    assert peak <= charge <= 2 * peak, (peak, charge)


def test_coset_engine_is_made_in_little_memory():
    """_cosets stores each route as its q source indices, no shifts: on a
    certified 4-row generator over GF(89), (q - 1)·q^2 = 697048 route
    entries, the engine and the lanes it makes stay under 4 MB."""
    code = _random_affine(89, 2, 1, 89)
    tracemalloc.start()
    try:
        assert code_module._cosets(code) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("shape", [(2, 2, 3), (3, 2, 2), (4, 2, 2)], ids=lambda s: ",".join(map(str, s)))
def test_coset_listing_builds_no_packed_table(shape, monkeypatch):
    """A code has one lane packing: the coset engine's words are the code's
    lanes, and after the engine min_weight_codewords packs its hits with
    them, making no other _Lanes and not the packed scan's table; the
    packed route makes it.  The words equal the packed route's, byte for
    byte."""
    code = build(CodeParams(*shape))
    fresh = LinearCode(code.gf, code.generator)
    assert code_module._cosets(fresh) is not None
    made = []
    init = code_module._Lanes.__init__

    def record(self, code):
        made.append(code)
        init(self, code)

    monkeypatch.setattr(code_module._Lanes, "__init__", record)
    words = min_weight_codewords(fresh)
    assert made == []
    lanes = code_module._lanes(fresh)
    assert lanes is code_module._cosets(fresh).words
    assert "table" not in vars(lanes)
    monkeypatch.setattr(code_module, "_scan", code_module._packed_scan)
    packed = LinearCode(code.gf, code.generator)
    assert min_weight_codewords(packed) == words
    assert "table" in vars(code_module._lanes(packed))


def _row_by_entries(lanes, a, r):
    """Generator row r times a, packed one entry at a time: each element's
    base-p digits in sub-lanes of lanes.sub bits, a lane of lanes.width bits
    per position, position 0 lowest."""
    gf, out = lanes.gf, 0
    for i, x in enumerate(lanes.generator[r]):
        y = gf.mul(a, x)
        pattern = sum(y // gf.p**j % gf.p << lanes.sub * j for j in range(gf.e))
        out |= pattern << lanes.width * i
    return out


@pytest.mark.parametrize(
    "case, width",
    [((2, 2, 2), 1), ((7, 1, 2), 8), ((25, 1, 1), 16), ("random-gf729", 32)],
    ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else str(x),
)
def test_row_matches_per_entry_packing(case, width):
    """_Lanes.row packs a row through one element table at C level; it
    equals the per-entry packing for every element a and every row, at
    lanes of 1, 8, 16 and 32 bits."""
    code = DIFFERENTIAL[case]() if isinstance(case, str) else build(CodeParams(*case))
    lanes = code_module._Lanes(LinearCode(code.gf, code.generator))
    assert lanes.width == width
    for r in range(code.k):
        for a in range(code.gf.q):
            assert lanes.row(a, r) == _row_by_entries(lanes, a, r), (r, a)


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 3), (3, 2, 2), (4, 2, 2), (9, 1, 2), (25, 1, 1), (5, 1, 3), (257, 1, 1), (8, 1, 2)],
    ids=lambda s: ",".join(map(str, s)),
)
def test_walk_matches_word(shape):
    """_Lanes.walker gives, at every scale, the stored word of scale times
    the message of each index, as word does row by row, on indices in any
    order: ascending, descending, repeated, index 0 and top coefficients
    other than 1.  (257,1,1)'s 257^2 messages are sampled.  It reads no
    table."""
    code = build.__wrapped__(CodeParams(*shape))  # past the cache, which test_caps needs free of (5,1,3)
    gf, k = code.gf, code.k
    q = gf.q
    lanes = code_module._Lanes(LinearCode(gf, code.generator))
    rng = random.Random(q)
    indices = range(q**k) if q**k <= 5000 else sorted(rng.sample(range(q**k), 100))
    order = [*indices, *reversed(indices), 0, 0, *rng.choices(indices, k=50), q**k - 1, q**k - 1]
    for scale in range(1, q):
        walk = lanes.walker(scale)
        expected = [lanes.word((r, gf.mul(scale, i // q**r % q)) for r in range(k)) for i in order]
        assert list(map(walk, order)) == expected, scale
    assert "table" not in vars(lanes)


def test_packed_scan_packs_each_row_when_first_added():
    """The walker packs a (digit, multiple) row the first time it adds it:
    a packed scan of a fresh (257,1,1) packs the table's 256 rows of row 0
    and one of row 1, for its two block starts, not all 256 multiples of
    row 1."""
    code = build(CodeParams(257, 1, 1))
    fresh = LinearCode(code.gf, code.generator)
    assert min_distance(fresh) == min_distance_formula(CodeParams(257, 1, 1))
    assert len(code_module._lanes(fresh)._rows) <= 257


@pytest.mark.parametrize("shape", [(3, 2, 3), (2, 2, 5)], ids=lambda s: ",".join(map(str, s)))
def test_listing_peak_stays_near_the_words(shape):
    """min_weight_codewords on a fresh code, its scan included, allocates
    at most twice the bytes of the words it returns: no copy of the words,
    and no key per multiple, outlives its step."""
    code = build(CodeParams(*shape))
    fresh = LinearCode(code.gf, code.generator)
    tracemalloc.start()
    try:
        words = min_weight_codewords(fresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(map(sys.getsizeof, words))
    assert peak <= 2 * size, (peak, size)


# (257,1,1) has 16-bit lanes and 257^2 messages, too many to encode one
# entry at a time here, so its row 1 coefficient runs over a fixed sample
PACKED_WEIGHT = {
    (2, 2, 2): None,
    (3, 1, 2): None,
    (4, 2, 2): None,
    (9, 1, 2): None,
    (5, 1, 2): None,
    (3, 0, 2): None,
    (257, 1, 1): (0, 1, 2, 128, 129, 255, 256, 17, 200),
}


@pytest.mark.parametrize("case", sorted(PACKED_WEIGHT), ids=lambda c: ",".join(map(str, c)))
def test_packed_weight_matches_encode(case):
    code = build(CodeParams(*case))
    q, k = code.gf.q, code.k
    if PACKED_WEIGHT[case] is None:
        messages = product(range(q), repeat=k)
    else:
        messages = ((c0, c1) for c1 in PACKED_WEIGHT[case] for c0 in range(q))
    for msg in messages:
        assert code_module._codeword_weight(code, msg) == weight(code.encode(msg)), msg
    with pytest.raises(ValueError, match="message length"):
        code_module._codeword_weight(code, (1,) * (k + 1))


@pytest.mark.parametrize(
    "shape", [(3, 2, 3), (8, 2, 2), (3, 2, 4), (5, 2, 3), (9, 2, 2)], ids=lambda s: ",".join(map(str, s))
)
def test_frontier_codes_blind(shape):
    p = CodeParams(*shape)
    start = time.perf_counter()
    code = build(p)
    d = min_distance(code)
    dist = weight_distribution(code)
    elapsed = time.perf_counter() - start
    assert d == min_distance_formula(p)
    assert dist.get(d, 0) == min_weight_count_formula(p)
    assert sum(dist.values()) == p.q ** code.k
    assert elapsed < 10.0, f"{shape}: build and blind scans took {elapsed:.1f}s, budget 10s"


def test_blind_distance_of_2_2_3():
    p = CodeParams(2, 2, 3)
    assert min_distance(build(p)) == min_distance_formula(p) == 24


def test_min_weight_codewords():
    p = CodeParams(2, 2, 2)
    code = build(p)
    words = min_weight_codewords(code)
    assert len(words) == min_weight_count_formula(p) == 16
    assert all(weight(w) == 6 for w in words)
    assert len(set(words)) == 16


def test_evaluate_vector_matches_direct():
    # (4,2,2) is q > 2 in 8-bit lanes, (25,1,1) has 16-bit lanes, and
    # (257,1,1) 16-bit lanes whose words unpack to tuples
    rng = random.Random(41)
    for shape in ((2, 2, 3), (4, 2, 2), (25, 1, 1), (257, 1, 1)):
        p = CodeParams(*shape)
        for _ in range(15):
            f = rand_combination(rng, p)
            vec = evaluate_vector(f)
            assert type(vec) is tuple
            assert vec == tuple(f.evaluate(pt) for pt in points(p)), shape


def test_max_minor_weight_oracle():
    for p in (CodeParams(2, 2, 2), CodeParams(2, 2, 3), CodeParams(3, 1, 2)):
        lead = leading_maximal_minor(p)
        assert weight(evaluate_vector(lead)) == min_distance_formula(p)
    assert min_distance_formula(CodeParams(2, 2, 3)) == 24
    assert min_distance_formula(CodeParams(3, 1, 2)) == 6


def test_code_validation():
    with pytest.raises(ValueError):
        LinearCode(gf2, ())
    with pytest.raises(ValueError):
        LinearCode(gf2, ((0, 1), (1,)))
    for bad in (-1, 2):  # entries lie in [0, q)
        with pytest.raises(ValueError, match="element indices"):
            LinearCode(gf2, ((0, 1), (1, bad)))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="element indices"):
            MatrixGF(gf3, 1, 2, (bad, 1))
    assert LinearCode(gf2, ((),)).n == 0
    assert MatrixGF(gf2, 0, 3, ()).nrows == 0
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


def _contains_by_rank(code, vector):
    """Membership by the rank comparison: appending a row-space vector to
    the generator keeps its rank."""
    stacked = MatrixGF.from_rows(code.gf, [*code.generator, vector])
    return stacked.rank() == code.generator_matrix().rank()


MEMBERSHIP = {
    **{f"affine{case}": lambda case=case: build(CodeParams(*case)) for case in ((2, 2, 2), (3, 1, 2), (4, 2, 2))},
    # rank 2 of 3: the reduced generator has a zero row
    "duplicated-row": lambda: LinearCode(gf3, ((1, 2, 0, 1, 1), (0, 1, 1, 2, 0), (1, 2, 0, 1, 1))),
    "zero-generator": lambda: LinearCode(gf2, ((0, 0, 0, 0),)),
}


@pytest.mark.parametrize("case", sorted(MEMBERSHIP))
def test_contains_matches_rank_comparison(case):
    code = MEMBERSHIP[case]()
    q, k, n = code.gf.q, code.k, code.n
    rng = random.Random(11)
    members = outsiders = 0
    for _ in range(40):
        word = code.encode(tuple(rng.randrange(q) for _ in range(k)))
        bent = list(word)
        bent[rng.randrange(n)] = rng.randrange(q)
        for vector in (word, tuple(bent), tuple(rng.randrange(q) for _ in range(n))):
            expect = _contains_by_rank(code, vector)
            assert code.contains(vector) == expect, (case, vector)
            members += expect
            outsiders += not expect
    assert members >= 40 and outsiders > 0


def test_power_cap_is_refused_on_the_exponent_alone(monkeypatch):
    monkeypatch.setenv("AGCODES_MESSAGES_CAP", "100")  # 7 bits
    limits.ensure_power("messages", 2, 6, "x")
    limits.ensure_power("messages", 10, 2, "x")  # exactly the cap
    with pytest.raises(CapExceeded, match=r"^x needs 243 messages, above the cap 100 "):
        limits.ensure_power("messages", 3, 5, "x")
    for exponent in (7, 10**6):  # 2^exponent > 100, not computed
        with pytest.raises(CapExceeded, match=rf"^x needs 2\^{exponent} messages, above the cap 100 "):
            limits.ensure_power("messages", 2, exponent, "x")


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


def test_min_weight_words_are_refused_over_the_points_cap_before_unpacking(monkeypatch):
    """(2,2,2) builds (k·n = 96) and scans (64 messages) under a points cap
    of 200, but its 16 minimum words of 16 entries need 256: refused before
    any word is stored (packed) or unpacked."""
    monkeypatch.setenv("AGCODES_POINTS_CAP", "200")
    code = build.__wrapped__(CodeParams(2, 2, 2))  # past the cache

    def refuse(*args):
        raise AssertionError("made a word past the cap")

    monkeypatch.setattr(code_module._Lanes, "stored", refuse)
    monkeypatch.setattr(code_module._Lanes, "unpack", refuse)
    refusal = r"^listing the minimum weight words of .* needs 256 points, above the cap 200 "
    with pytest.raises(CapExceeded, match=refusal):
        min_weight_codewords(code)
    assert "minwords" not in code._cache
    monkeypatch.undo()
    assert len(min_weight_codewords(code)) == 16


def test_build_refuses_k_times_n_evaluations_over_the_points_cap(monkeypatch):
    """(2,1,3) has n = 8 points, passing a cap of 8, and k = 4 minors: its 32
    evaluations are refused before any vector is made."""
    monkeypatch.setenv("AGCODES_POINTS_CAP", "8")

    def no_build(*args):
        raise AssertionError("evaluated minors past the cap")

    monkeypatch.setattr(code_module, "batch_minors", no_build)
    refusal = r"^evaluating 4 minors at each of the 8 points .* needs 32 points, above the cap 8 "
    with pytest.raises(CapExceeded, match=refusal):
        build.__wrapped__(CodeParams(2, 1, 3))  # past the cache
