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
from dataclasses import dataclass
from math import comb
from typing import Callable

from .code import (
    build,
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
    is_min_weight_form,
    min_weight_witness,
    permutation,
    stabilizer_criterion,
    stabilizer_test,
)
from .matrices import MatrixGF, cauchy_binet, enumerate_matrices
from .minors import (
    MinorCombination,
    absorb_translation,
    det_translation_expand,
    minor_basis,
    row_vanishing_locus,
    specialize_col,
    specialize_row,
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


@dataclass
class CheckResult:
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


def check_min_distance_grid() -> CheckResult:
    def body() -> str:
        details = []
        for p in DESK_GRID:
            start = time.perf_counter()
            code = build(p)
            d = min_distance(code)
            expect = min_distance_formula(p)
            elapsed = time.perf_counter() - start
            assert d == expect, f"{p}: blind d = {d}, formula {expect}"
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
            if p.q**dimension_formula(p) > 2**15:
                continue
            code = build(p)
            dist = weight_distribution(code)
            d = min_distance_formula(p)
            count = dist.get(d, 0)
            expect = min_weight_count_formula(p)
            assert count == expect, f"{p}: census {count} at weight {d}, formula {expect}"
            assert min(w for w in dist if w > 0) == d, f"{p}: distribution minimum mismatch"
            assert sum(dist.values()) == p.q ** dimension_formula(p)
            details.append(f"A_d({p.q},{p.l},{p.lp})={count}")
        return "; ".join(details)

    return _check("min-weight-census", body)


# -- criterion 4: the minimum weight family, constructively --


def check_min_weight_characterization() -> CheckResult:
    def body() -> str:
        details = []
        for p in (CodeParams(2, 2, 2), CodeParams(2, 2, 3)):
            code = build(p)
            d = min_distance_formula(p)
            scanned = set(min_weight_codewords(code))
            family = generate_min_weight_polys(p)
            assert len(family) == min_weight_count_formula(p)
            generated = set()
            for f in family:
                vec = tuple(f.evaluate(pt) for pt in points(p))
                assert weight(vec) == d, f"{p}: generated combination of weight {weight(vec)}"
                generated.add(vec)
            assert len(generated) == len(family), f"{p}: generated family collides"
            assert generated == scanned, f"{p}: generated family != scanned minimum words"
            # the witness decision procedure agrees with the scan on every message
            q, k = p.q, dimension_formula(p)
            for msg_index in range(1, q**k):
                digits = []
                mm = msg_index
                for _ in range(k):
                    digits.append(mm % q)
                    mm //= q
                f = MinorCombination(p, tuple(digits))
                is_min = weight(code.encode(f.coeffs)) == d
                assert is_min_weight_form(f) == is_min, (
                    f"{p}: witness decision disagrees with scan on message {msg_index}"
                )
            details.append(f"({p.q},{p.l},{p.lp}): {len(family)} words")
        return "; ".join(details)

    return _check("min-weight-characterization", body)


# -- criterion 5: the automorphism suite on the smallest square shape --


def check_automorphism_suite() -> CheckResult:
    def body() -> str:
        start = time.perf_counter()
        p = CodeParams(2, 2, 2)
        code = build(p)
        group = list(enumerate_group(p))
        order = group_order_formula(p)
        assert len(group) == order == 96, f"group size {len(group)}, expected 96"
        stab = [phi for phi in group if stabilizer_test(phi)]
        assert len(stab) == stabilizer_order_formula(p) == 6, f"stabilizer {len(stab)}, expected 6"
        for phi in group:
            assert stabilizer_criterion(phi) == (phi in stab), "structural stabilizer test disagrees"
        family = generate_min_weight_polys(p)
        assert len(family) * len(stab) == order, "orbit-stabilizer product mismatch"
        perms = [permutation(phi) for phi in group]
        assert len(set(perms)) == len(group), "coordinate action is not injective"
        index_of = {phi: i for i, phi in enumerate(group)}
        for i, phi in enumerate(group):
            for j, psi in enumerate(group):
                combined = compose(phi, psi)
                left = perms[index_of[combined]]
                right = tuple(perms[i][t] for t in perms[j])
                assert left == right, "coordinate action is not a homomorphism"
        for perm in perms:
            for row in code.generator:
                assert code.contains(apply_permutation(row, perm)), (
                    "a coordinate permutation left the code"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        return "96 maps: stabilizer 6, faithful action, code preserved"

    return _check("automorphism-group-suite", body)


# -- criterion 6: algebra identity suites --
#
# Each suite is a plain function over (p, rng, trials): it draws its cases
# from rng, raises AssertionError naming p and the failing case, and returns
# its note.  Criterion 6 runs some of them with its own counts and parameter
# sets; `identity_suites` runs all six on one parameter set for `autocheck`.


def _random_matrix(rng: random.Random, gf, nrows: int, ncols: int) -> MatrixGF:
    return MatrixGF(gf, nrows, ncols, tuple(rng.randrange(gf.q) for _ in range(nrows * ncols)))


def _random_invertible(rng: random.Random, gf, n: int) -> MatrixGF:
    while True:
        m = _random_matrix(rng, gf, n, n)
        if m.det() != 0:
            return m


def _random_combination(rng: random.Random, p: CodeParams) -> MinorCombination:
    k = dimension_formula(p)
    while True:
        coeffs = tuple(rng.randrange(p.q) for _ in range(k))
        if any(coeffs):
            return MinorCombination(p, coeffs)


def _random_map(rng: random.Random, p: CodeParams) -> AffineMap:
    gf = p.field()
    u = _random_matrix(rng, gf, p.l, p.lp)
    return AffineMap(p, u, _random_invertible(rng, gf, p.lp))


def _all_vectors(q: int, n: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [v + (x,) for v in out for x in range(q)]
    return out


def _specialized_weight(f: MinorCombination, specialize, line: int, length: int) -> int:
    """Total weight of f specialized along one row (or column) to every vector."""
    parts = 0
    for v in _all_vectors(f.params.q, length):
        g = specialize(f, line, v)
        if not g.is_zero:
            parts += weight(evaluate_vector(g))
    return parts


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
    return f"{trials} trials, {len(points(p))} points"


def suite_weight_partition(p: CodeParams, rng: random.Random, trials: int) -> str:
    """Specializing any one row, or any one column, partitions the weight of f."""
    for _ in range(trials):
        f = _random_combination(rng, p)
        total = weight(evaluate_vector(f))
        for i in range(1, p.l + 1):
            assert _specialized_weight(f, specialize_row, i, p.lp) == total, (
                f"{p}: row {i} weight partition fails for f = {f.coeffs}"
            )
        if p.lp > p.l:
            for j in range(1, p.lp + 1):
                assert _specialized_weight(f, specialize_col, j, p.l) == total, (
                    f"{p}: column {j} weight partition fails for f = {f.coeffs}"
                )
    return f"{trials} trials"


def suite_locus_affine(p: CodeParams, rng: random.Random, trials: int) -> str:
    """Row vanishing loci obey the translation and basis change laws and are
    affinely closed."""
    gf = p.field()
    for _ in range(trials):
        f = _random_combination(rng, p)
        i = rng.randint(1, p.l)
        locus = row_vanishing_locus(f, i)
        case = f"f = {f.coeffs}, row {i}"
        u = _random_matrix(rng, gf, p.l, p.lp)
        phi = AffineMap(p, u, MatrixGF.identity(gf, p.lp))
        translated = row_vanishing_locus(act_on_poly(phi, f), i)
        ui = u.row(i)
        shifted = sorted(tuple(gf.add(x, y) for x, y in zip(v, ui)) for v in translated)
        assert shifted == locus, f"{p}: locus translation law fails for {case}, u = {u.tolists()}"
        a_lin = _random_invertible(rng, gf, p.lp)
        phi_lin = AffineMap(p, MatrixGF.zeros(gf, p.l, p.lp), a_lin)
        mixed = row_vanishing_locus(act_on_poly(phi_lin, f), i)
        pushed = sorted(tuple((MatrixGF(gf, 1, p.lp, v) @ a_lin).row(1)) for v in locus)
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
    r <= min(3, lp) and r <= s <= lp."""
    gf = p.field()
    for _ in range(trials):
        r = rng.randint(1, min(3, p.lp))
        s = rng.randint(r, p.lp)
        a = _random_matrix(rng, gf, r, s)
        b = _random_matrix(rng, gf, s, r)
        lhs, rhs = cauchy_binet(a, b)
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
        is_min = weight(code.encode(f.coeffs)) == d
        assert (min_weight_witness(f) is not None) == is_min, (
            f"{p}: witness {'missing' if is_min else 'found'} for f = {f.coeffs}"
        )
    return f"{trials} trials"


def identity_suites(p: CodeParams, seed: int, trials: int) -> list[CheckResult]:
    """The six randomized identity suites on one parameter set, drawing from
    one generator seeded with seed.  substitution-pointwise and cauchy-binet
    run trials cases, the others trials // 10 (at least one); witness-vs-scan
    runs only when the q^k messages are few enough to encode (q^k <= 2^15)."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
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


def check_algebra_identities(seed: int = 0) -> CheckResult:
    def body() -> str:
        rng = random.Random(seed)
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
                for cand in enumerate_matrices(gf2, 2, 2)
                if all(
                    mi.order <= 0 for mi in (f - det_translation_expand(cand)).support()
                )
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
            d = min_distance(code)
            assert d == d_expect, f"({l},{m},{q}): blind d = {d}, expected {d_expect}"
            dist = weight_distribution(code)
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

    def dims() -> str:
        code = build(p)
        assert code.k == dimension_formula(p)
        assert code.n == p.npoints
        assert code.generator_matrix().rank() == code.k
        return f"[{code.n}, {code.k}] over GF({p.q})"

    def distance() -> str:
        code = build(p)
        d = min_distance(code)
        expect = min_distance_formula(p)
        assert d == expect, f"blind d = {d}, formula {expect}"
        return f"d = {d}"

    def census() -> str:
        code = build(p)
        dist = weight_distribution(code)
        d = min_distance_formula(p)
        expect = min_weight_count_formula(p)
        assert dist.get(d, 0) == expect, f"census {dist.get(d, 0)}, formula {expect}"
        return f"A_d = {expect}"

    out = [
        _check("dimensions", dims),
        _check("blind-min-distance", distance),
        _check("min-weight-census", census),
    ]
    if write is not None:
        for res in out:
            write(res.line())
    return out
