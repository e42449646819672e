"""Exact arithmetic in small finite fields GF(p^e).

Elements are plain integers in [0, q).  For a prime field the integer is the
residue itself.  For an extension field the base-p digits of the integer are
the coefficients of the polynomial basis, least significant digit first, so 0
and 1 are always the additive and multiplicative identities and the natural
integer order is the canonical element order used by every other module.

The reduction modulus of an extension is chosen deterministically: among the
monic irreducible polynomials of degree e over GF(p), take the one whose
coefficient vector, read as a base-p integer with the constant term least
significant, is smallest.  This gives x^2+x+1 for GF(4) and x^3+x+1 for
GF(8).  The choice is part of the data format: exported element indices are
meaningless without it, so it is embedded in the rendered field string, e.g.
"2^2/1,1,1" (coefficients listed constant term first, leading 1 included).

Multiplication, inversion and negation run on exp/log tables built once per
field from the smallest generator of the multiplicative group: -a = a * (-1),
where -1 is the element of order 2, exp[(q-1)/2], for odd p and 1 for p = 2.
Addition uses a flat table for q <= 256 and digitwise arithmetic above that.
One trial division (_prime_factors) serves primality, the factoring of q into
p^e and the prime factors of q - 1 that test a generator.  Field sizes are
capped at 2^16, and factor_prime_power refuses q above 2^32 before dividing.
"""

from __future__ import annotations

from functools import lru_cache

MAX_FIELD_SIZE = 2**16

__all__ = [
    "MAX_FIELD_SIZE",
    "GF",
    "field_make",
    "field_for_order",
    "factor_prime_power",
    "is_prime",
    "smallest_irreducible",
]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for n <= 2^32."""
    return n >= 2 and _prime_factors(n) == [n]


@lru_cache(maxsize=128)  # CodeParams checks q on every construction
def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^e with p prime, or raise ValueError.  q above
    MAX_FIELD_SIZE^2 is refused before any division, so at most 2^16 are made."""
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    if q > MAX_FIELD_SIZE**2:
        raise ValueError(f"field order {q} exceeds {MAX_FIELD_SIZE**2}, the largest order factored")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = primes[0]
    return p, next(e for e in range(1, q.bit_length() + 1) if p**e == q)


# -- polynomial helpers over GF(p), coefficient lists constant term first --


def _poly_mul(f: list[int], g: list[int], p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def _poly_rem(f: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    # mod is monic; returns f reduced to degree < deg(mod)
    out = list(f)
    d = len(mod) - 1
    for top in range(len(out) - 1, d - 1, -1):
        c = out[top]
        if c:
            out[top] = 0
            for i in range(d):
                out[top - d + i] = (out[top - d + i] - c * mod[i]) % p
    return out[:d]


def _irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    e = len(poly) - 1
    if poly[0] == 0:
        return False
    for d in range(1, e // 2 + 1):
        for t in range(p**d):
            if not any(_poly_rem(list(poly), tuple(_digits(t, p, d) + [1]), p)):
                return False
    return True


def _digits(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Canonical monic irreducible of degree e over GF(p), see module doc."""
    for t in range(p**e):
        cand = tuple(_digits(t, p, e) + [1])
        if _irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")


class GF:
    """GF(p^e) with table-driven operations on integer element indices."""

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError(f"extension degree must be at least 1, got {e}")
        q = p**e
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds the supported cap {MAX_FIELD_SIZE}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus: tuple[int, ...] | None = None if e == 1 else smallest_irreducible(p, e)
        self._key = (p, e, self.modulus)
        self._build_tables()

    # -- construction of the operation tables --

    def _raw_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mul(_digits(a, self.p, self.e), _digits(b, self.p, self.e), self.p)
        red = _poly_rem(prod, self.modulus, self.p)  # type: ignore[arg-type]
        out = 0
        for c in reversed(red):
            out = out * self.p + c
        return out

    def _raw_pow(self, a: int, n: int) -> int:
        out = 1
        base = a
        while n:
            if n & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            n >>= 1
        return out

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        # smallest generator of the multiplicative group
        n = q - 1
        prime_factors = _prime_factors(n)
        gen = 1
        for g in range(1 if q == 2 else 2, q):
            if all(self._raw_pow(g, n // r) != 1 for r in prime_factors):
                gen = g
                break
        self.generator = gen
        exp = [0] * (2 * n)
        log = [0] * q
        cur = 1
        for i in range(n):
            exp[i] = cur
            log[cur] = i
            cur = self._raw_mul(cur, gen)
        if cur != 1:
            raise AssertionError("generator order mismatch")
        for i in range(n):
            exp[n + i] = exp[i]
        self._exp = exp
        self._log = log
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = exp[(n - log[a]) % n]
        # -a = a * (-1), and -1 is the element of order 2 (1 when p = 2)
        half = n // 2 if p > 2 else 0
        self._neg = [0] + [exp[i + half] for i in log[1:]]
        if q <= 256:
            add = [0] * (q * q)
            for a in range(q):
                for b in range(q):
                    add[a * q + b] = self._slow_add(a, b)
            self._add_tab: list[int] | None = add
        else:
            self._add_tab = None

    def _slow_add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        p, e = self.p, self.e
        out = 0
        mult = 1
        for _ in range(e):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    # -- arithmetic on element indices --

    def add(self, a: int, b: int) -> int:
        t = self._add_tab
        if t is not None:
            return t[a * self.q + b]
        return self._slow_add(a, b)

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self}")
        return self._inv[a]

    # -- plumbing --

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"GF({self.p}, {self.e})"

    def __str__(self) -> str:
        if self.modulus is None:
            return f"{self.p}^{self.e}"
        return f"{self.p}^{self.e}/" + ",".join(str(c) for c in self.modulus)


@lru_cache(maxsize=None)
def field_make(p: int, e: int = 1) -> GF:
    """Shared GF(p^e) instance with the canonical modulus."""
    return GF(p, e)


@lru_cache(maxsize=None)
def field_for_order(q: int) -> GF:
    """Shared GF(q) instance, factoring q into p^e."""
    p, e = factor_prime_power(q)
    return field_make(p, e)
