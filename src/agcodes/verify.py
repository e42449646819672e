"""Acceptance checks: every headline quantity the package claims, verified
against an independent route (blind exhaustive scans, pointwise oracles,
structural matchings), each criterion reporting one pass/fail line.

The library keeps these runnable both from the test suite and from the
command line; a check never weakens a tolerance, every comparison here is
exact.
"""

from __future__ import annotations

import random
import time
from functools import reduce
from itertools import islice, product
from math import comb
from typing import Callable, NamedTuple

from . import limits
from .code import (
    LinearCode,
    _codeword_weight,
    _span_weight,
    build,
    ensure_scannable,
    evaluate_vector,
    min_distance,
    min_weight_codewords,
    point_index,
    points,
    weight,
    weight_distribution,
)
from .fields import field_for_order
from .grassmann import build_grassmann_code, cell_restriction_compare
from .group import (
    AffineMap,
    act_on_poly,
    apply_permutation,
    apply_point,
    compose,
    enumerate_group,
    generate_min_weight_polys,
    generating_set,
    min_weight_witness,
    permutation,
    stabilizer_criterion,
    stabilizer_test,
)
from .matrices import MatrixGF, cauchy_binet, enumerate_matrices
from .minors import (
    MinorCombination,
    _specialization_terms,
    absorb_translation,
    det_translation_expand,
    minor_basis,
    row_vanishing_locus,
)
from .params import (
    CodeParams,
    dimension_formula,
    gaussian_binomial,
    gl_order,
    group_order_formula,
    min_distance_formula,
    min_weight_count_formula,
    stabilizer_order_formula,
)

__all__ = ["CheckResult", "ACCEPTANCE", "identity_suites", "run_acceptance", "run_params_suite"]

DESK_GRID = (
    CodeParams(2, 1, 1),
    CodeParams(2, 1, 2),
    CodeParams(2, 1, 3),
    CodeParams(3, 1, 2),
    CodeParams(2, 2, 2),
    CodeParams(3, 2, 2),
    CodeParams(2, 2, 3),
    CodeParams(2, 2, 4),
    CodeParams(4, 2, 2),
    CodeParams(5, 2, 2),
)

GRASSMANN_GRID = ((1, 2, 2), (2, 4, 2), (2, 4, 3), (2, 5, 2))


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f": {self.detail}" if (self.detail and not self.ok) else ""
        return f"{status} {self.name} ({self.elapsed:.2f}s){tail}"


def _check(name: str, body: Callable[[], str | None]) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = body() or ""
        ok = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        ok = False
    elapsed = time.perf_counter() - start
    return CheckResult(name, ok, detail, elapsed)


# -- criterion 1: the binary [16, 6, 6] code, entry by entry --

# Fixed reference enumeration of the sixteen binary 2x2 matrices (as sets
# of unit positions) and the indicator of an invertible matrix over it.
_REFERENCE_POINT_ORDER = (
    (),
    ((1, 1),),
    ((1, 2),),
    ((2, 1),),
    ((2, 2),),
    ((1, 1), (1, 2)),
    ((1, 1), (2, 1)),
    ((1, 1), (2, 2)),
    ((1, 2), (2, 1)),
    ((1, 2), (2, 2)),
    ((2, 1), (2, 2)),
    ((1, 1), (1, 2), (2, 1)),
    ((1, 1), (1, 2), (2, 2)),
    ((1, 1), (2, 1), (2, 2)),
    ((1, 2), (2, 1), (2, 2)),
    ((1, 1), (1, 2), (2, 1), (2, 2)),
)
_REFERENCE_DET_PATTERN = (0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0)


def check_example_code() -> CheckResult:
    def body() -> str:
        start = time.perf_counter()
        p = CodeParams(2, 2, 2)
        code = build(p)
        assert code.n == 16, f"n = {code.n}, expected 16"
        assert code.k == 6, f"k = {code.k}, expected 6"
        d = min_distance(code)
        assert d == 6, f"blind minimum distance = {d}, expected 6"
        gf = p.field()
        expected = [0] * 16
        for support, value in zip(_REFERENCE_POINT_ORDER, _REFERENCE_DET_PATTERN):
            flat = [0, 0, 0, 0]
            for i, j in support:
                flat[(i - 1) * 2 + (j - 1)] = 1
            idx = point_index(MatrixGF(gf, 2, 2, tuple(flat)))
            expected[idx] = value
        message = tuple(1 if mi.order == 2 else 0 for mi in minor_basis(p))
        got = code.encode(message)
        assert got == tuple(expected), f"determinant codeword {got} != {tuple(expected)}"
        assert weight(got) == 6
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
        return "[16, 6, 6] reproduced entry by entry"

    return _check("binary-16-6-6-example", body)


# -- criterion 2: blind minimum distances across the grid --


def _blind_distance(p: CodeParams) -> int:
    """The blind minimum distance of the code of p, the least positive weight
    of its weight distribution, equal to the closed form.  With _census, the
    check on one p of criteria 2 and 3 and run_params_suite; both read the
    one distribution the code caches, so each code is scanned once."""
    d = min(w for w in weight_distribution(build(p)) if w > 0)
    expect = min_distance_formula(p)
    assert d == expect, f"{p}: blind d = {d}, formula {expect}"
    return d


def _census(p: CodeParams) -> int:
    """A_d of the blind weight distribution of the code of p, equal to the
    closed form; the distribution starts at weight d and counts q^k words."""
    dist = weight_distribution(build(p))
    d = min_distance_formula(p)
    count = dist.get(d, 0)
    expect = min_weight_count_formula(p)
    assert count == expect, f"{p}: census {count} at weight {d}, formula {expect}"
    assert min(w for w in dist if w > 0) == d, f"{p}: distribution minimum mismatch"
    assert sum(dist.values()) == p.q ** dimension_formula(p), f"{p}: distribution total is not q^k"
    return count


def check_min_distance_grid() -> CheckResult:
    def body() -> str:
        details = []
        for p in DESK_GRID:
            start = time.perf_counter()
            d = _blind_distance(p)
            elapsed = time.perf_counter() - start
            if p == CodeParams(2, 2, 4):
                assert elapsed < 30.0, f"(2, 2, 4) blind scan took {elapsed:.1f}s, budget 30s"
            details.append(f"d({p.q},{p.l},{p.lp})={d}")
        return "; ".join(details)

    return _check("blind-min-distance-grid", body)


# -- criterion 3: minimum weight census across the grid --


def check_min_weight_census() -> CheckResult:
    def body() -> str:
        details = []
        for p in DESK_GRID:
            details.append(f"A_d({p.q},{p.l},{p.lp})={_census(p)}")
        return "; ".join(details)

    return _check("min-weight-census", body)


# -- criterion 4: the minimum weight family, constructively --


def _minor_table(p: CodeParams) -> list[tuple[int, ...]]:
    """Every basis minor at every point, by elimination (MatrixGF.minor):
    one row per point in point index order, one entry per basis minor."""
    basis = minor_basis(p)
    return [tuple(pt.minor(mi.rows, mi.cols) for mi in basis) for pt in points(p)]


def check_min_weight_characterization() -> CheckResult:
    def body() -> str:
        details = []
        for p in (CodeParams(2, 2, 2), CodeParams(2, 2, 3)):
            code = build(p)
            d = min_distance_formula(p)
            scanned = set(map(tuple, min_weight_codewords(code)))  # bytes words, the family's are tuples
            family = generate_min_weight_polys(p)
            assert len(family) == min_weight_count_formula(p)
            generated = set()
            # the code of the basis minors taken by elimination at every point
            reference = LinearCode(p.field(), tuple(zip(*_minor_table(p))))
            for f in family:
                vec = reference.encode(f.coeffs)
                assert weight(vec) == d, f"{p}: generated combination of weight {weight(vec)}"
                generated.add(vec)
            assert len(generated) == len(family), f"{p}: generated family collides"
            assert generated == scanned, f"{p}: generated family != scanned minimum words"
            # the witness decision agrees with the scan on every message; the
            # coefficients of message msg_index are its base-q digits, lowest first
            messages = enumerate(product(range(p.q), repeat=dimension_formula(p)))
            for msg_index, top_first in islice(messages, 1, None):
                f = MinorCombination(p, top_first[::-1])
                is_min = _codeword_weight(code, f.coeffs) == d
                assert (min_weight_witness(f) is not None) == is_min, (
                    f"{p}: witness decision disagrees with scan on message {msg_index}"
                )
            details.append(f"({p.q},{p.l},{p.lp}): {len(family)} words")
        return "; ".join(details)

    return _check("min-weight-characterization", body)


# -- criterion 5: the automorphism suite on the smallest square shape --
#
# The coordinate action is certified a homomorphism without the |G|^2 Cayley
# table.  For every generator s of generating_set(p) and every map h,
# perm(s o h) = perm(s) o perm(h) is checked, and closing {identity} under
# left multiplication by the generators, read off the same S x G table,
# must reach all of G.  Then every g is a word s_1 o ... o s_r, and by
# associativity of compose and induction on r,
#     perm(g o h) = perm(s_1) o perm((s_2 o ... o s_r) o h)
#                 = perm(s_1) o perm(s_2 o ... o s_r) o perm(h) = perm(g) o perm(h)
# for every pair.  tests/test_group.py tests associativity and also checks
# the exhaustive 96^2 table for (2,2,2), so compose loses no coverage.
#
# Code preservation is checked on the generators only.  Pulling back along a
# permutation is linear, so a map preserves the code when it sends every
# generator row into it.  The homomorphism gives
#     apply_permutation(v, perm(s o h))
#         = apply_permutation(apply_permutation(v, perm(s)), perm(h)),
# so s o h preserves the code when s and h do, and by induction on the
# length of a word in the generators every map does.  Every other property
# is checked on all 96 maps.


def check_automorphism_suite() -> CheckResult:
    def body() -> str:
        start = time.perf_counter()
        p = CodeParams(2, 2, 2)
        code = build(p)
        group = list(enumerate_group(p))
        order = group_order_formula(p)
        assert len(group) == order == 96, f"{p}: group size {len(group)}, expected 96"
        stab = [phi for phi in group if stabilizer_test(phi)]
        assert len(stab) == stabilizer_order_formula(p) == 6, f"{p}: stabilizer {len(stab)}, expected 6"
        for phi in group:
            assert stabilizer_criterion(phi) == (phi in stab), (
                f"{p}: structural stabilizer test disagrees on {phi!r}"
            )
        family = generate_min_weight_polys(p)
        assert len(family) * len(stab) == order, f"{p}: orbit-stabilizer product mismatch"
        perms = [permutation(phi) for phi in group]
        assert len(set(perms)) == len(group), f"{p}: coordinate action is not injective"
        index_of = {phi: i for i, phi in enumerate(group)}
        gens = generating_set(p)
        # table[r][h] is the index of gens[r] o group[h]
        table = []
        for s in gens:
            assert s in index_of, f"{p}: generator {s!r} is not in the enumerated group"
            perm_s = perms[index_of[s]]
            for r in code.generator:
                assert code.contains(apply_permutation(r, perm_s)), (
                    f"{p}: the coordinate permutation of generator {s!r} left the code"
                )
            row = []
            for h, phi in enumerate(group):
                g = index_of.get(compose(s, phi))
                assert g is not None, f"{p}: {s!r} after {phi!r} is not in the enumerated group"
                assert perms[g] == tuple(perm_s[t] for t in perms[h]), (
                    f"{p}: coordinate action is not a homomorphism on {s!r} after {phi!r}"
                )
                row.append(g)
            table.append(row)
        identity = AffineMap.identity(p)
        assert identity in index_of, f"{p}: the identity is not in the enumerated group"
        reached = {index_of[identity]}
        frontier = list(reached)
        while frontier:
            h = frontier.pop()
            for row in table:
                if row[h] not in reached:
                    reached.add(row[h])
                    frontier.append(row[h])
        assert len(reached) == order, (
            f"{p}: the {len(gens)} generators do not generate: they reach {len(reached)} "
            f"of {order} maps, missing {group[min(set(range(order)) - reached)]!r}"
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        products = len(gens) * order
        return (
            f"{order} maps, {len(gens)} generators, {products} products: "
            "stabilizer 6, faithful action, code preserved"
        )

    return _check("automorphism-group-suite", body)


# -- criterion 6: algebra identity suites --
#
# Each suite is a plain function over (p, rng, trials): it draws its cases
# from rng, raises AssertionError naming p and the failing case, and returns
# its note.  Criterion 6 runs some of them with its own counts and parameter
# sets; `identity_suites` runs all six on one parameter set for `autocheck`.

# autocheck's trial bound: a trial takes about a millisecond on (2,2,2) and
# more on larger codes, so this is seconds to minutes of work, not days
MAX_TRIALS = 10_000


def _draws(rng: random.Random, q: int, count: int) -> list[int]:
    """count draws of rng.randrange(q), from the same stream and leaving
    rng in the same state: randrange's rejection rule, q.bit_length() bits
    a try (rng.getrandbits), tried again while the value is q or more, but
    without randrange's argument handling per draw."""
    bits, k = rng.getrandbits, q.bit_length()
    out = []
    for _ in range(count):
        x = bits(k)
        while x >= q:
            x = bits(k)
        out.append(x)
    return out


def _random_matrix(rng: random.Random, gf, nrows: int, ncols: int) -> MatrixGF:
    return MatrixGF._of(gf, nrows, ncols, tuple(_draws(rng, gf.q, nrows * ncols)))


def _random_invertible(rng: random.Random, gf, n: int) -> tuple[MatrixGF, MatrixGF]:
    """A random invertible n x n matrix and its inverse: matrices are drawn
    until one inverts, one row reduction each."""
    while True:
        m = _random_matrix(rng, gf, n, n)
        try:
            return m, m.inverse()
        except ValueError:  # singular
            continue


def _random_combination(rng: random.Random, p: CodeParams) -> MinorCombination:
    k = dimension_formula(p)
    while True:
        coeffs = tuple(_draws(rng, p.q, k))
        if any(coeffs):
            return MinorCombination._of(p, coeffs)


def _random_map(rng: random.Random, p: CodeParams) -> AffineMap:
    gf = p.field()
    u = _random_matrix(rng, gf, p.l, p.lp)
    return AffineMap._known_inverse(p, u, *_random_invertible(rng, gf, p.lp))


def _specialized_weight(f: MinorCombination, line: int, is_row: bool) -> int:
    """Total weight of f specialized along one row (or column) to every vector.

    The specialization at v is base + Σ_x v_x * T_x, affine in v, so its
    codeword is too, and the sum over every v is counted position by
    position from the packed words of base and of each T_x
    (code._span_weight), without making the q^len words.
    """
    target, base, directions = _specialization_terms(f, line, is_row)
    return _span_weight(build(target), base, directions)


def suite_substitution_pointwise(p: CodeParams, rng: random.Random, trials: int) -> str:
    """(f . phi)(P) = f(phi(P)) for random f, affine maps phi and points P."""
    gf = p.field()
    for _ in range(trials):
        f, phi = _random_combination(rng, p), _random_map(rng, p)
        g = act_on_poly(phi, f)
        pt = _random_matrix(rng, gf, p.l, p.lp)
        assert g.evaluate(pt) == f.evaluate(apply_point(phi, pt)), (
            f"{p}: substitution disagrees pointwise for f = {f.coeffs}, {phi!r}, P = {pt.tolists()}"
        )
    return f"{trials} trials"


def suite_permutation_consistency(p: CodeParams, rng: random.Random, trials: int) -> str:
    """The coordinate permutation of phi moves the codeword of f to that of f . phi."""
    for _ in range(trials):
        f, phi = _random_combination(rng, p), _random_map(rng, p)
        lhs = evaluate_vector(act_on_poly(phi, f))
        rhs = apply_permutation(evaluate_vector(f), permutation(phi))
        assert lhs == rhs, f"{p}: permutation moves the codeword wrongly for f = {f.coeffs}, {phi!r}"
    return f"{trials} trials, {p.npoints} points"


def suite_weight_partition(p: CodeParams, rng: random.Random, trials: int) -> str:
    """Specializing any one row, or any one column, partitions the weight of f."""
    for _ in range(trials):
        f = _random_combination(rng, p)
        total = _codeword_weight(build(p), f.coeffs)
        for i in range(1, p.l + 1):
            assert _specialized_weight(f, i, True) == total, (
                f"{p}: row {i} weight partition fails for f = {f.coeffs}"
            )
        if p.lp > p.l:
            for j in range(1, p.lp + 1):
                assert _specialized_weight(f, j, False) == total, (
                    f"{p}: column {j} weight partition fails for f = {f.coeffs}"
                )
    return f"{trials} trials"


def suite_locus_affine(p: CodeParams, rng: random.Random, trials: int) -> str:
    """Row vanishing loci obey the translation and basis change laws and are
    affinely closed."""
    gf = p.field()
    add, mul = gf.add, gf.mul
    identity = MatrixGF.identity(gf, p.lp)
    for _ in range(trials):
        f = _random_combination(rng, p)
        i = rng.randint(1, p.l)
        locus = row_vanishing_locus(f, i)
        case = f"f = {f.coeffs}, row {i}"
        u = _random_matrix(rng, gf, p.l, p.lp)
        # a pure translation: the identity is its own inverse, no reduction
        phi = AffineMap._known_inverse(p, u, identity, identity)
        translated = row_vanishing_locus(act_on_poly(phi, f), i)
        ui = u.row(i)
        shifted = sorted(tuple(map(add, v, ui)) for v in translated)
        assert shifted == locus, f"{p}: locus translation law fails for {case}, u = {u.tolists()}"
        a_lin, a_inv = _random_invertible(rng, gf, p.lp)
        phi_lin = AffineMap._known_inverse(p, MatrixGF.zeros(gf, p.l, p.lp), a_lin, a_inv)
        mixed = row_vanishing_locus(act_on_poly(phi_lin, f), i)
        # each v @ a_lin, entry j the dot product of v with column j
        cols = [a_lin.col(j) for j in range(1, p.lp + 1)]
        pushed = sorted(tuple(reduce(add, map(mul, v, c)) for c in cols) for v in locus)
        assert sorted(mixed) == pushed, (
            f"{p}: locus basis change law fails for {case}, A = {a_lin.tolists()}"
        )
        for _ in range(10):
            if len(locus) < 2:
                break
            x = rng.choice(locus)
            y = rng.choice(locus)
            lam = rng.randrange(p.q)
            z = tuple(gf.add(a, gf.mul(lam, gf.sub(b, a))) for a, b in zip(x, y))
            assert z in locus, f"{p}: locus is not affinely closed for {case}: {x}, {y}, {lam}"
    return f"{trials} trials"


def suite_cauchy_binet(p: CodeParams, rng: random.Random, trials: int) -> str:
    """Cauchy-Binet over GF(q) for random r x s times s x r products, with
    r <= min(3, lp) and r <= s <= lp; all pairs are drawn first, each shape
    is computed as one batch, and the first failing draw is reported."""
    gf = p.field()
    pairs = []
    for _ in range(trials):
        r = rng.randint(1, min(3, p.lp))
        s = rng.randint(r, p.lp)
        pairs.append((_random_matrix(rng, gf, r, s), _random_matrix(rng, gf, s, r)))
    sides = {}
    for shape in {(a.nrows, a.ncols) for a, _ in pairs}:
        draws = [t for t, (a, _) in enumerate(pairs) if (a.nrows, a.ncols) == shape]
        sides.update(zip(draws, cauchy_binet([pairs[t] for t in draws])))
    for t, (a, b) in enumerate(pairs):
        lhs, rhs = sides[t]
        assert lhs == rhs, (
            f"{p}: Cauchy-Binet fails over GF({p.q}) for A = {a.tolists()}, "
            f"B = {b.tolists()}: {lhs} != {rhs}"
        )
    return f"{trials} trials"


def suite_witness_vs_scan(p: CodeParams, rng: random.Random, trials: int) -> str:
    """min_weight_witness finds a witness exactly when the codeword has weight d."""
    code = build(p)
    d = min_distance_formula(p)
    for _ in range(trials):
        f = _random_combination(rng, p)
        is_min = _codeword_weight(code, f.coeffs) == d
        assert (min_weight_witness(f) is not None) == is_min, (
            f"{p}: witness {'missing' if is_min else 'found'} for f = {f.coeffs}"
        )
    return f"{trials} trials"


def identity_suites(p: CodeParams, seed: int, trials: int) -> list[CheckResult]:
    """The six randomized identity suites on one parameter set, drawing from
    one generator seeded with seed.  substitution-pointwise and cauchy-binet
    run trials cases, the others trials // 10 (at least one); witness-vs-scan
    runs only when the q^k messages are few enough to encode (q^k <= 2^15).
    trials must lie in 1..MAX_TRIALS, and l must be at least 1.  The q^δ
    points are checked against the points cap, exponent first, before any suite."""
    if p.l < 1:
        raise ValueError(f"the identity suites need l >= 1, got l={p.l}: locus-affine draws a row")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"need trials <= {MAX_TRIALS}, got {trials}")
    limits.ensure_power("points", p.q, p.delta, f"enumerating the domain of {p}")
    rng = random.Random(seed)
    few = max(1, trials // 10)
    suites = [
        ("substitution-pointwise", suite_substitution_pointwise, trials),
        ("permutation-consistency", suite_permutation_consistency, few),
        ("weight-partition", suite_weight_partition, few),
        ("locus-affine", suite_locus_affine, few),
        ("cauchy-binet", suite_cauchy_binet, trials),
    ]
    if p.q ** dimension_formula(p) <= 2**15:
        suites.append(("witness-vs-scan", suite_witness_vs_scan, few))
    return [_check(name, lambda fn=fn, n=n: fn(p, rng, n)) for name, fn, n in suites]


def check_algebra_identities() -> CheckResult:
    def body() -> str:
        rng = random.Random(0)
        # Cauchy-Binet, 1000 random pairs per field with r <= 3 and s <= 4
        for q in (2, 3, 4):
            suite_cauchy_binet(CodeParams(q, 1, 4), rng, 1000)
        # translation expansion evaluated against the direct determinant
        for t in range(200):
            q = (2, 3, 4)[t % 3]
            l = (1, 2, 3)[t % 3] if q == 2 else 2
            gf = field_for_order(q)
            shift = _random_matrix(rng, gf, l, l)
            pt = _random_matrix(rng, gf, l, l)
            expanded = det_translation_expand(shift)
            assert expanded.evaluate(pt) == (pt + shift).det(), "translation expansion wrong"
        # translation absorption, exhaustive for the binary square shape
        p22 = CodeParams(2, 2, 2)
        top = [mi.order == 2 for mi in minor_basis(p22)]
        lower = [i for i, t in enumerate(top) if not t]
        gf2 = field_for_order(2)
        candidates = [(cand, det_translation_expand(cand)) for cand in enumerate_matrices(gf2, 2, 2)]
        count = 0
        for bits in range(2 ** len(lower)):
            coeffs = [0] * dimension_formula(p22)
            coeffs[top.index(True)] = 1
            for pos, i in enumerate(lower):
                coeffs[i] = (bits >> pos) & 1
            f = MinorCombination(p22, tuple(coeffs))
            a, h = absorb_translation(f)
            assert all(mi.order <= 0 for mi in h.support())
            for pt in points(p22):
                direct = gf2.add((pt + a).det(), h.evaluate(pt))
                assert f.evaluate(pt) == direct, "absorbed split disagrees pointwise"
            matches = [
                cand
                for cand, expanded in candidates
                if all(mi.order <= 0 for mi in (f - expanded).support())
            ]
            assert matches == [a], "absorbed translation is not the unique one"
            count += 1
        assert count == 32
        # specialization weight partition, every row and column
        for p in DESK_GRID:
            suite_weight_partition(p, rng, 100)
        # vanishing locus: translation law, basis change law, affine closure
        for p in (CodeParams(2, 2, 2), CodeParams(3, 1, 2), CodeParams(2, 2, 3)):
            suite_locus_affine(p, rng, 100)
        return "all identity suites exact"

    return _check("algebra-identity-suites", body)


# -- criterion 7: Grassmann codes and the cell bridge --


def check_grassmann_bridge() -> CheckResult:
    def body() -> str:
        start = time.perf_counter()
        details = []
        for l, m, q in GRASSMANN_GRID:
            gf = field_for_order(q)
            code = build_grassmann_code(l, m, gf)
            n_expect = gaussian_binomial(m, l, q)
            k_expect = comb(m, l)
            d_expect = q ** (l * (m - l))
            assert code.n == n_expect, f"({l},{m},{q}): n = {code.n}, expected {n_expect}"
            assert code.k == k_expect, f"({l},{m},{q}): k = {code.k}, expected {k_expect}"
            # one scan: the blind d is the least positive weight, as in _blind_distance
            dist = weight_distribution(code)
            d = min(w for w in dist if w > 0)
            assert d == d_expect, f"({l},{m},{q}): blind d = {d}, expected {d_expect}"
            count = dist.get(d, 0)
            count_expect = (q - 1) * gaussian_binomial(m, l, q)
            assert count == count_expect, (
                f"({l},{m},{q}): census {count} at weight {d}, expected {count_expect}"
            )
            report = cell_restriction_compare(l, m, gf)
            assert report.cell_size == q ** (l * (m - l))
            assert len(report.matches) == k_expect
            details.append(f"[{code.n},{code.k},{d}]_{q}")
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        return "; ".join(details)

    return _check("grassmann-bridge", body)


# -- criterion 8: the formula grid, wide and symbolic --


def check_formula_grid() -> CheckResult:
    def body() -> str:
        count = 0
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            for lp in range(1, 9):
                for l in range(1, lp + 1):
                    p = CodeParams(q, l, lp)
                    d = min_distance_formula(p)  # internal two-shape assert
                    dimension_formula(p)  # internal convolution assert
                    g = group_order_formula(p)  # internal orbit-stabilizer assert
                    assert q**p.delta * gl_order(l, q) == q ** (l * l) * d, (
                        f"{p}: subgroup order identity fails"
                    )
                    assert gaussian_binomial(lp, l, q) == gaussian_binomial(lp, lp - l, q)
                    assert g == q**p.delta * gl_order(lp, q)
                    count += 1
        return f"{count} parameter sets, all identities exact"

    return _check("formula-grid", body)


ACCEPTANCE: tuple[tuple[int, Callable[[], CheckResult]], ...] = (
    (1, check_example_code),
    (2, check_min_distance_grid),
    (3, check_min_weight_census),
    (4, check_min_weight_characterization),
    (5, check_automorphism_suite),
    (6, check_algebra_identities),
    (7, check_grassmann_bridge),
    (8, check_formula_grid),
)


def run_acceptance(write: Callable[[str], None] | None = None) -> list[CheckResult]:
    """Run all acceptance criteria, emitting one line per criterion."""
    out = []
    for number, fn in ACCEPTANCE:
        res = fn()
        if write is not None:
            write(f"[{number}] {res.line()}")
        out.append(res)
    return out


def run_params_suite(p: CodeParams, write: Callable[[str], None] | None = None) -> list[CheckResult]:
    """Focused verification of a single parameter set."""
    ensure_scannable(p)

    def dims() -> str:
        code = build(p)
        assert code.k == dimension_formula(p)
        assert code.n == p.npoints
        assert code.generator_matrix().rank() == code.k
        return f"[{code.n}, {code.k}] over GF({p.q})"

    out = [
        _check("dimensions", dims),
        _check("blind-min-distance", lambda: f"d = {_blind_distance(p)}"),
        _check("min-weight-census", lambda: f"A_d = {_census(p)}"),
    ]
    if write is not None:
        for res in out:
            write(res.line())
    return out
