"""Field arithmetic: exhaustive axioms on small orders, the canonical
modulus against a brute-force irreducibility oracle, and sampled axioms on
mid-size extensions."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agcodes.fields import (
    GF,
    MAX_FIELD_SIZE,
    _prime_factors,
    factor_prime_power,
    field_for_order,
    field_make,
    is_prime,
    smallest_irreducible,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25]
MID_ORDERS = [27, 32, 49, 64, 81, 121, 125, 128, 243, 256]


def power(gf, a, n):
    """a^n by n repeated multiplications."""
    out = 1
    for _ in range(n):
        out = gf.mul(out, a)
    return out


def test_is_prime_matches_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n]


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(4) == (2, 2)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(1024) == (2, 10)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_prime_factors_match_brute_force():
    limit = 5000
    primes = [f for f in range(2, limit) if all(f % d for d in range(2, int(f**0.5) + 1))]
    for n in range(1, limit):
        assert _prime_factors(n) == [p for p in primes if n % p == 0]


def test_factor_prime_power_refuses_orders_above_2_to_32_before_dividing():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds 4294967296"):
        factor_prime_power(4294967311)  # the least prime above 2^32
    assert time.perf_counter() - start < 0.1
    assert factor_prime_power(2**32) == (2, 32)


@pytest.mark.parametrize("q", [512, 729, 25, 257])
def test_negation_is_the_additive_inverse(q):
    """-a = a * (-1) off the exp/log tables, for p = 2, odd p^e and odd p."""
    gf = field_for_order(q)
    assert all(gf.add(a, gf.neg(a)) == 0 for a in range(q))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_axioms_exhaustive(q):
    gf = field_for_order(q)
    els = range(q)
    for a in els:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.mul(a, 0) == 0
        assert gf.add(a, gf.neg(a)) == 0
        assert gf.sub(a, a) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
    for a in els:
        for b in els:
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.sub(a, b) == gf.add(a, gf.neg(b))
            for c in els:
                assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_power_map_fixes_field(q):
    gf = field_for_order(q)
    for a in range(q):
        assert power(gf, a, q) == a
        if a:
            assert power(gf, a, q - 1) == 1


def _reducible_bruteforce(poly, p):
    """A monic poly splits iff it is a product of two smaller monic polys."""
    e = len(poly) - 1
    for d in range(1, e // 2 + 1):
        for t1 in range(p**d):
            f = []
            tt = t1
            for _ in range(d):
                f.append(tt % p)
                tt //= p
            f.append(1)
            for t2 in range(p ** (e - d)):
                g = []
                tt = t2
                for _ in range(e - d):
                    g.append(tt % p)
                    tt //= p
                g.append(1)
                prod = [0] * (e + 1)
                for i, x in enumerate(f):
                    for j, y in enumerate(g):
                        prod[i + j] = (prod[i + j] + x * y) % p
                if tuple(prod) == tuple(poly):
                    return True
    return False


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_smallest_irreducible_against_bruteforce(p, e):
    got = smallest_irreducible(p, e)
    assert len(got) == e + 1 and got[-1] == 1
    assert not _reducible_bruteforce(got, p)
    # nothing smaller in the base-p integer order is irreducible
    value = sum(c * p**i for i, c in enumerate(got[:-1]))
    for t in range(value):
        cand = []
        tt = t
        for _ in range(e):
            cand.append(tt % p)
            tt //= p
        cand.append(1)
        assert _reducible_bruteforce(cand, p)


def test_canonical_moduli():
    assert field_make(2, 2).modulus == (1, 1, 1)
    assert field_make(2, 3).modulus == (1, 1, 0, 1)
    assert field_make(3, 2).modulus == (1, 0, 1)
    assert field_make(5).modulus is None


def test_gf4_multiplication_table():
    gf = field_for_order(4)
    # index 2 is x, index 3 is x + 1; x^2 = x + 1 under x^2 + x + 1
    assert gf.mul(2, 2) == 3
    assert gf.mul(2, 3) == 1
    assert gf.mul(3, 3) == 2
    assert gf.inv(2) == 3
    assert gf.add(2, 3) == 1
    assert gf.neg(2) == 2


def test_gf9_spot_checks():
    gf = field_for_order(9)
    # index 3 is x; x^2 = -1 = 2 under x^2 + 1
    assert gf.mul(3, 3) == 2
    assert gf.add(3, 3) == 6
    assert gf.neg(1) == 2


def test_generator_is_primitive():
    for q in SMALL_ORDERS:
        gf = field_for_order(q)
        seen = set()
        cur = 1
        for _ in range(q - 1):
            seen.add(cur)
            cur = gf.mul(cur, gf.generator)
        assert cur == 1
        assert seen == set(range(1, q))


def test_invalid_construction():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(ValueError):
        GF(2, 17)  # 2^17 above the cap
    with pytest.raises(ValueError):
        field_for_order(6)
    assert MAX_FIELD_SIZE == 2**16


def test_zero_division():
    gf = field_for_order(5)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def test_instances_shared_and_comparable():
    assert field_make(2, 2) is field_make(2, 2)
    assert field_for_order(4) is field_make(2, 2)
    assert GF(2, 2) == field_make(2, 2)
    assert GF(2, 2) != GF(2, 3)
    assert hash(GF(3, 2)) == hash(field_for_order(9))


def test_rendering():
    assert str(field_make(2, 2)) == "2^2/1,1,1"
    assert str(field_make(7)) == "7^1"
    assert repr(field_make(2, 2)) == "GF(2, 2)"


@pytest.mark.parametrize("q", MID_ORDERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_axioms_sampled_mid_orders(q, data):
    gf = field_for_order(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
    assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
    assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
    assert gf.neg(gf.neg(a)) == a
    assert gf.sub(a, b) == gf.add(a, gf.neg(b))
    if a:
        assert gf.inv(gf.inv(a)) == a
        assert power(gf, a, q - 1) == 1
