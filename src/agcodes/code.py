"""Evaluation codes from minor combinations, and exhaustive scan engines.

The evaluation domain is all l x lp matrices over GF(q).  A point's index is
its flat row-major entry tuple read as a base-q integer, entry (1,1) least
significant, so index 0 is the zero matrix and the enumeration is the natural
odometer over entries.  The generator matrix holds the canonical minor basis
evaluated at every point in index order; messages are coefficient vectors
over that basis.  It is built for all points at once: entry t of every point
is one vector of base-q digits, made by repetition, and each basis minor is a
Laplace expansion over those vectors (matrices.batch_minors), so no point is
materialized.  Before any vector is made, the build counts its k·n minor
evaluations against the points cap.

A build proves rank k without elimination (_certify_rank).  Let E_b be the
partial permutation with ones at (I[s], J[s]) for the basis minor b on rows I
and columns J.  A minor of order r is 0 at a partial permutation of order at
most r unless both have the same rows and columns, where it is 1; the basis
is sorted by order, so the generator's k x k block at the points E_b is upper
unitriangular, of determinant 1.  The build checks that block, entry by entry.

Minimum distance and weight distributions come from full message scans, by
one of two routes that return the same results, each for every field:

- The packed scan: codewords are packed into integers with one lane per
  position, a table holds the words of every message on the low digits, and
  each message costs one lane-packed operation and a popcount (see _Lanes).
- The coset engine: an affine code contains RM_q(1, δ), so its words fall
  into cosets of q^(δ+1) words each, and one shift transform counts the
  weights of a whole coset (see _Cosets).  It runs only on a generator that
  itself certifies the first-order rows (n = q^δ, row 0 all ones, row 1 + t
  digit t of the point index; the code's params are not consulted).

_scan picks the route from the generator alone, after the messages cap
passes: the coset engine when the generator certifies it and k > δ + 1, so
that the code has a coset besides RM_q(1, δ); the packed scan otherwise.
Grassmann codes, random codes and the codes RM_q(1, δ) itself stay on the
packed scan, which the tests also run as the second route.  The messages cap
also bounds the engine's memory (see _cosets).  Every scan is blind: it
visits every message, or counts every coset, so a scanned minimum is
independent of the closed form it confirms.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache, reduce
from itertools import compress, islice
from operator import add, itemgetter, methodcaller, or_
from typing import Iterable, Sequence

from . import limits
from .matrices import MatrixGF, batch_minors
from .minors import MinorCombination, minor_basis
from .params import CodeParams, dimension_formula

__all__ = [
    "point_index",
    "point_matrix",
    "points",
    "LinearCode",
    "build",
    "ensure_scannable",
    "evaluate_vector",
    "weight",
    "min_distance",
    "weight_distribution",
    "min_weight_codewords",
]


def point_index(point: MatrixGF) -> int:
    """Base-q integer of the flat entry tuple, entry (1,1) least significant."""
    q = point.gf.q
    out = 0
    for x in reversed(point._flat):
        out = out * q + x
    return out


def point_matrix(p: CodeParams, index: int) -> MatrixGF:
    """Inverse of point_index for the l x lp domain of p."""
    if not 0 <= index < p.npoints:
        raise ValueError(f"point index {index} outside [0, {p.npoints})")
    q = p.q
    flat = []
    for _ in range(p.delta):
        flat.append(index % q)
        index //= q
    return MatrixGF._of(p.field(), p.l, p.lp, tuple(flat))


# run_acceptance fills 2 entries of this cache and 18 of build's; the bounds
# leave room so that nothing it uses is evicted
@lru_cache(maxsize=8)
def points(p: CodeParams) -> tuple[MatrixGF, ...]:
    """The full evaluation domain in point index order."""
    limits.ensure("points", p.npoints, f"enumerating the domain of {p}")
    return tuple(point_matrix(p, i) for i in range(p.npoints))


class LinearCode:
    """A linear code given by an explicit generator matrix of element indices."""

    def __init__(
        self,
        gf,
        generator: tuple[tuple[int, ...], ...],
        params: CodeParams | None = None,
        label: str = "",
    ):
        generator = tuple(tuple(r) for r in generator)
        if not generator:
            raise ValueError("a generator needs at least one row")
        n = len(generator[0])
        if any(len(r) != n for r in generator):
            raise ValueError("ragged generator rows")
        if n and (min(map(min, generator)) < 0 or max(map(max, generator)) >= gf.q):
            raise ValueError("generator entries must be element indices")
        self.gf = gf
        self.generator = generator
        self.params = params
        self.label = label
        self._cache: dict = {}

    @classmethod
    def _of(
        cls, gf, generator: tuple[tuple[int, ...], ...], params: CodeParams | None = None, label: str = ""
    ) -> LinearCode:
        """A code the package built itself: generator is a non-empty tuple of
        equal-length tuples of element indices of gf by construction, so
        nothing is checked."""
        code = object.__new__(cls)
        code.gf, code.generator, code.params, code.label, code._cache = gf, generator, params, label, {}
        return code

    @property
    def n(self) -> int:
        return len(self.generator[0])

    @property
    def k(self) -> int:
        return len(self.generator)

    def generator_matrix(self) -> MatrixGF:
        return MatrixGF.from_rows(self.gf, self.generator)

    def encode(self, message: tuple[int, ...]) -> tuple[int, ...]:
        """The codeword of a message, one coefficient per generator row."""
        if len(message) != self.k:
            raise ValueError(f"message length must be {self.k}, got {len(message)}")
        gf = self.gf
        add, mul = gf.add, gf.mul
        out = [0] * self.n
        for c, row in zip(message, self.generator):
            if c == 0:
                continue
            if c == 1:
                out = [add(a, b) for a, b in zip(out, row)]
            else:
                out = [add(a, mul(c, b)) for a, b in zip(out, row)]
        return tuple(out)

    def contains(self, vector: tuple[int, ...]) -> bool:
        """Row space membership.  The generator is row reduced once per code;
        a vector of the row space is the combination of the reduced rows
        whose coefficients are its entries at the pivot columns, so it is a
        member exactly when that combination gives it back."""
        if len(vector) != self.n:
            raise ValueError(f"vector length must be {self.n}, got {len(vector)}")
        if any(not 0 <= x < self.gf.q for x in vector):
            raise ValueError("vector entries must be element indices")
        if "reduced" not in self._cache:
            rref = self.generator_matrix().rref_rows().rows()
            # each nonzero row of the reduced form leads with its pivot, a 1
            pivots = [row.index(1) for row in rref if any(row)]
            self._cache["reduced"] = (LinearCode._of(self.gf, tuple(rref)), pivots)
        reduced, pivots = self._cache["reduced"]
        message = [vector[c] for c in pivots] + [0] * (self.k - len(pivots))
        return reduced.encode(tuple(message)) == tuple(vector)

    def __repr__(self) -> str:
        tag = self.label or "linear code"
        return f"<{tag} [{self.n}, {self.k}] over GF({self.gf.q})>"


def _certify_rank(code: LinearCode, cols: list[int], what: str) -> None:
    """Prove that the generator has rank k: its k x k block on the columns
    cols, in that order, must be upper unitriangular, so of determinant 1.
    Raises AssertionError naming what otherwise."""
    for a, row in enumerate(code.generator):
        if [row[j] for j in cols[: a + 1]] != [0] * a + [1]:
            raise AssertionError(f"{what} is not certified full rank: row {a} of its block")


def _repeated(q: int, values: Sequence[int], w: int, size: int) -> bytes | tuple[int, ...]:
    """A vector of size element indices of GF(q): each of values w times in
    turn, that block tiled.  bytes when q <= 256."""
    if q <= 256:
        block = b"".join(bytes((v,)) * w for v in values)
    else:
        block = tuple(v for v in values for _ in range(w))
    return block * (size // (len(values) * w))


def _digits(q: int, delta: int) -> list[bytes | tuple[int, ...]]:
    """Base-q digit t of every index below q^delta, one vector per t, by
    repetition (_repeated): each element q^t times in turn, that block
    q^(delta-t-1) times."""
    return [_repeated(q, range(q), q**t, q**delta) for t in range(delta)]


@lru_cache(maxsize=64)  # bound: see points
def build(p: CodeParams) -> LinearCode:
    """The evaluation code of the full minor space on the domain of p."""
    gf = p.field()
    limits.ensure("points", p.npoints, f"enumerating the domain of {p}")
    q, n = p.q, p.npoints
    k = dimension_formula(p)
    limits.ensure("points", k * n, f"evaluating {k} minors at each of the {n} points of {p}")
    # base-q digit t of a point's index is its flat row-major entry t
    digits = _digits(q, p.delta)
    entries = [digits[r * p.lp : (r + 1) * p.lp] for r in range(p.l)]
    basis = minor_basis(p)
    rows = batch_minors(gf, entries, n, basis)
    code = LinearCode._of(gf, rows, params=p, label=f"affine[q={p.q},l={p.l},lp={p.lp}]")
    # the column of E_b, whose entry (i, j) is flat digit (i-1)*lp + j-1
    cols = [sum(q ** ((i - 1) * p.lp + j - 1) for i, j in zip(*b)) for b in basis]
    _certify_rank(code, cols, f"evaluation matrix of {p}")
    if not all(map(any, zip(*code.generator))):
        raise AssertionError(f"evaluation matrix of {p} has an all-zero column")
    return code


def ensure_scannable(p: CodeParams) -> None:
    """Refuse a scan of build(p) before building: build's points cap, then q^k messages."""
    limits.ensure("points", p.npoints, f"enumerating the domain of {p}")
    limits.ensure_power("messages", p.q, dimension_formula(p), f"scanning the code of {p}")


def evaluate_vector(f: MinorCombination) -> tuple[int, ...]:
    """The codeword of f: its values over the point enumeration."""
    return build(f.params).encode(f.coeffs)


def weight(vector: tuple[int, ...] | bytes) -> int:
    """Hamming weight of a vector of element indices."""
    return sum(1 for x in vector if x)


def _codeword_weight(code: LinearCode, message: tuple[int, ...]) -> int:
    """weight(code.encode(message)), from the packed rows of the scans: one
    lane-packed sum of the message's rows and one count of nonzero lanes."""
    if len(message) != code.k:
        raise ValueError(f"message length must be {code.k}, got {len(message)}")
    lanes = _lanes(code)
    return lanes.support(lanes.word(enumerate(message)) ^ lanes.zero).bit_count()


def _span_weight(
    code: LinearCode, base: Sequence[int], directions: Sequence[Sequence[tuple[int, int]]]
) -> int:
    """The sum of weight(code.encode(base + Σ_x v_x * T_x)) over every v in
    GF(q)^m, m = len(directions), where directions[x] lists T_x's
    coefficients as (row, c), counted per position without making any of
    the q^m words.

    At a position where every T_x's codeword is zero, the value is base's
    for every v: nonzero for all q^m vectors where base's is.  Where some
    T_x's is nonzero, the value is a nonconstant affine function of v, zero
    on a hyperplane of q^(m-1) vectors and nonzero on the other
    q^m - q^(m-1).  So the sum is q^m * |supp(base) minus U| +
    (q^m - q^(m-1)) * |U|, with U the union of the T_x's supports: the same
    number as weighing every word, read off m + 1 packed words."""
    lanes = _lanes(code)
    zero, support = lanes.zero, lanes.support
    moving = 0
    for d in directions:
        moving |= support(lanes.word(d) ^ zero)
    fixed = support(lanes.word(enumerate(base)) ^ zero) & ~moving
    count = code.gf.q ** len(directions)
    return count * fixed.bit_count() + (count - count // code.gf.q) * moving.bit_count()


# -- exhaustive message scans --
#
# Element indices are base-p digit vectors (see fields), so a message, a
# base-q number with row 0's coefficient least significant, is also a base-p
# number with e*k digits: digit t stands for the element p^(t % e) as the
# coefficient of row t // e.  Scaling a message by a nonzero scalar keeps its
# weight, so the scans visit only the messages whose top nonzero coefficient
# is 1: segment r holds q^r + s for s < q^r, and a scan position numbers the
# segments' messages in order.  Each one stands for its q-1 multiples.

_TABLE_ENTRIES = 2**12  # low-digit words kept per code
_TABLE_BYTES = 2**20  # and the memory they may take, as may a coset batch


class _Lanes:
    """Lane-packed codewords of one code, and the table its scans read.

    A codeword is one int with a lane of `width` bits per position.  A lane
    holds an element as its e base-p digits, each in a sub-lane of `sub`
    bits.  In characteristic 2 a sum is one XOR.  For odd p each stored
    digit carries a bias of 2^(sub-1) - p, so a digit sum reaches the
    sub-lane's top (guard) bit exactly when it is p or more, and subtracting
    p there reduces it (Boothby and Bradshaw, arXiv:0901.1413).  Every
    element has one lane pattern, so lane i of u ^ v is zero exactly where
    u and v agree.

    The table holds the words of the messages on the `low` lowest digits, in
    index order.  A message with high part h and low part j has the word
    w(h) + table[j], which is zero exactly where table[j] equals -w(h): a
    block of messages costs one XOR and one count of nonzero lanes each,
    against the negated word of the block's high part.

    A positive `width` asks for lanes of at least that many bits and no
    table (low = 0): the coset engine's words, 8 bits wide when the element
    patterns fit, from which it makes its count lanes.
    """

    def __init__(self, code: LinearCode, width: int = 0):
        gf = code.gf
        p, e, q, n = gf.p, gf.e, gf.q, code.n
        # no reference back to the code, which caches this object
        self.generator, self.gf, self.n = code.generator, gf, n
        self.box = bytes if q <= 256 else tuple  # holds a vector of elements
        self.sub = sub = 1 if p == 2 else (p - 1).bit_length() + 1
        tabled = not width
        need = 1 if q == 2 else next(w for w in (8, 16, 32) if e * sub < w)
        self.width = width = max(need, width)
        bias = 0 if p == 2 else (1 << (sub - 1)) - p

        def pattern(x: int, b: int) -> int:
            out = 0
            for j in range(e):
                out |= (x % p + b) << (sub * j)
                x //= p
            return out

        every, self.fill, self.high = _signs(n, width)
        self.zero = pattern(0, bias) * every
        self.guard = sum(1 << (sub * j + sub - 1) for j in range(e)) * every
        # lane pattern -> element; a 1-bit lane is unpacked as an ASCII digit
        decode = {pattern(x, bias) + (ord("0") if width == 1 else 0): x for x in range(q)}
        if width <= 8:
            lookup = bytearray(256)
            for key, x in decode.items():
                lookup[key] = x
            self.decode: bytes | dict[int, int] = bytes(lookup)
        else:
            self.decode = decode
        self._bits = [format(pattern(x, 0), f"0{width}b") for x in range(q)]
        self._rows: dict[tuple[int, int], int] = {}
        per_word = width * n // 8 + 32
        low = 0
        while (
            tabled
            and low < e * (code.k - 1)
            and p ** (low + 1) <= _TABLE_ENTRIES
            and p ** (low + 1) * per_word <= _TABLE_BYTES
        ):
            low += 1
        self.low = low
        table = [self.zero]
        for t in range(low):
            steps = [self.row(c * p ** (t % e), t // e) for c in range(1, p)]
            table += [self.add(x, v) for v in steps for x in table]
        self.table = table

    def row(self, a: int, r: int) -> int:
        """Generator row r times the element a, packed without bias."""
        key = (a, r)
        if key not in self._rows:
            mul, bits = self.gf.mul, self._bits
            times_a = [bits[mul(a, x)] for x in range(self.gf.q)]
            entries = map(times_a.__getitem__, reversed(self.generator[r]))
            self._rows[key] = int("".join(entries), 2)
        return self._rows[key]

    def word(self, terms: Iterable[tuple[int, int]]) -> int:
        """The stored word of the message with coefficient c at row r for
        each (r, c) in terms."""
        out = self.zero
        for r, c in terms:
            if c:
                out = self.add(out, self.row(c, r))
        return out

    def add(self, u: int, v: int) -> int:
        """u + v for a stored word u and an unbiased packed word v."""
        p = self.gf.p
        if p == 2:
            return u ^ v
        t = u + v
        return t - ((t & self.guard) >> (self.sub - 1)) * p

    def base(self, scale: int, r: int, h: int) -> int:
        """The stored word of scale times the message with coefficient 1 at
        row r and base-p digits h from digit `low` up, all lower digits 0."""
        gf, p, e = self.gf, self.gf.p, self.gf.e
        out = self.add(self.zero, self.row(scale, r))
        t = self.low
        while h:
            h, c = divmod(h, p)
            if c:
                out = self.add(out, self.row(gf.mul(scale, c * p ** (t % e)), t // e))
            t += 1
        return out

    def stored(self, indices: list[int]) -> list[tuple[int, int]]:
        """(index, stored word) for messages whose top nonzero coefficient
        is 1: a table word plus the word of the high part, which messages
        next to each other in the list often share."""
        q, out, last, high = self.gf.q, [], None, 0
        for index in indices:
            r = 0
            while q ** (r + 1) <= index:
                r += 1
            step = min(q**r, len(self.table))
            h, j = divmod(index - q**r, step)
            if (r, h) != last:
                last, high = (r, h), self.base(1, r, h) - self.zero
            out.append((index, self.add(self.table[j], high)))
        return out

    def support(self, diff: int) -> int:
        """One bit set in each nonzero lane of a XOR of two stored words,
        the lane's top bit, and no other."""
        if self.width > 1:
            return (diff + self.fill) & self.high
        return diff

    def weights(self, negated: int, count: int):
        """Weights of the words table[:count] + w, given -w stored."""
        diff = map(negated.__xor__, islice(self.table, count))
        if self.width > 1:
            diff = map(self.high.__and__, map(self.fill.__add__, diff))
        return map(int.bit_count, diff)

    def unpack(self, word: int) -> bytes | tuple[int, ...]:
        """Element indices of a stored word: bytes when q <= 256."""
        n, width = self.n, self.width
        if width == 1:
            return format(word, f"0{n}b")[::-1].encode().translate(self.decode)
        if width == 8:
            return word.to_bytes(n, "little").translate(self.decode)
        return self.box(map(self.decode.__getitem__, _lane_view(word, n, width)))

    def times(self) -> list:
        """times[c](v) is c * v, entry by entry, for a vector v of elements;
        times[1] returns v itself, which is immutable."""
        gf, q = self.gf, self.gf.q
        if self.box is tuple:
            out = [lambda v, c=c: tuple(gf.mul(c, x) for x in v) for c in range(q)]
        else:
            tables = (bytes(gf.mul(c, x) for x in range(q)).ljust(256, b"\0") for c in range(q))
            out = [methodcaller("translate", table) for table in tables]
        out[1] = lambda v: v
        return out


def _every(count: int, width: int) -> int:
    """1 in each of `count` lanes of `width` bits, 1 or a multiple of 8;
    made from bytes, as a division would take time quadratic in the size."""
    if width == 1:
        return (1 << count) - 1
    return int.from_bytes(b"\1".ljust(width // 8, b"\0") * count, "little")


def _signs(count: int, width: int) -> tuple[int, int, int]:
    """(every, fill, high): 1, 2^(w-1) - 1 and 2^(w-1) in each of `count`
    lanes of w = `width` bits.  (x + fill) & high has a lane's top bit set
    where x's lane is nonzero, if no lane of x has its top bit set."""
    every = _every(count, width)
    return every, ((1 << (width - 1)) - 1) * every, (1 << (width - 1)) * every


def _widen(x: int, count: int, width: int, wider: int) -> int:
    """The `count` lanes of x, of 8 or 16 bits, each in the low bytes of a
    lane of `wider` bits: one strided copy per byte of a lane, on
    little-endian bytes."""
    step, wide = width // 8, wider // 8
    lanes = x.to_bytes(count * step, "little")
    out = bytearray(count * wide)
    for j in range(step):
        out[j::wide] = lanes[j::step]
    return int.from_bytes(out, "little")


def _lane_view(x: int, count: int, width: int) -> memoryview:
    """The first `count` lanes of x, of 16 or 32 bits each, lowest first."""
    # native byte order, so the cast reads each lane whole; big-endian order
    # puts the last lane first
    lanes = memoryview(x.to_bytes(count * width // 8, sys.byteorder)).cast("H" if width == 16 else "I")
    return lanes if sys.byteorder == "little" else lanes[::-1]


def _lanes(code: LinearCode) -> _Lanes:
    # built on the first scan, not with the code, so a build pays nothing
    if "lanes" not in code._cache:
        code._cache["lanes"] = _Lanes(code)
    return code._cache["lanes"]


def _scan(code: LinearCode, mode: str) -> tuple[Counter, int, list[int]]:
    """Scan every message whose top nonzero coefficient is 1; returns
    (weight counts, min weight, hits).

    Mode "dist" counts weights, "min" only tracks the least, and "words"
    keeps the index of each message at the least weight, in index order.
    Both routes return the same triple: the coset engine where the generator
    certifies it and k > δ + 1, the packed scan otherwise (a first-order
    code is the one coset RM_q(1, δ)).
    """
    q, n, k = code.gf.q, code.n, code.k
    limits.ensure_power("messages", q, k, f"scanning {code!r}")
    delta = _degree(q, n)
    # k and δ first: certifying a generator costs more than a small scan
    if delta is not None and k > delta + 1 and _cosets(code) is not None:
        return _coset_scan(code, mode)
    return _packed_scan(code, mode)


def _packed_scan(code: LinearCode, mode: str) -> tuple[Counter, int, list[int]]:
    """The triple of _scan, one lane-packed XOR and popcount per message."""
    q = code.gf.q
    lanes = _lanes(code)
    minus_one = code.gf.neg(1)
    counts: Counter = Counter()
    best, hits = code.n + 1, []
    for r in range(code.k):
        size = q**r
        step = min(size, len(lanes.table))
        for at in range(0, size, step):
            weights = lanes.weights(lanes.base(minus_one, r, at // step), step)
            if mode == "dist":
                counts.update(weights)
            elif mode == "min":
                best = min(best, min(weights))
            else:
                ws = list(weights)
                least = min(ws)
                if least > best:
                    continue
                if least < best:
                    best, hits = least, []
                hits += compress(range(size + at, size + at + step), map(least.__eq__, ws))
    return counts, best, hits


# -- the coset engine --
#
# When rows 0..δ of the generator are the constant 1 and the δ digits of the
# point index, the code contains RM_q(1, δ), and a message is a higher part
# h, its coefficients on rows δ+1..k-1, above b + q·L: b on row 0 and L the
# index of the linear form x -> L·x on the points.  The q^(δ+1) words with
# higher part h make the coset g + RM_q(1, δ) of its word g.


def _degree(q: int, n: int) -> int | None:
    """δ with q^δ = n, or None when n is not a power of q."""
    delta, size = 0, 1
    while size < n:
        delta, size = delta + 1, size * q
    return delta if size == n else None


class _Cosets:
    """Weight counts of an affine code, one shift transform per coset of its
    first-order Reed–Muller subcode: the q-ary, count-valued form of the
    fast Hadamard transform that MacWilliams and Sloane (The Theory of
    Error-Correcting Codes, 1977, ch. 14) apply to the cosets of RM(1, m).

    For a coset word g, A_c holds [g(x) = c] in one lane per point x, one
    int per c != 0; A_0 is the lanes' point count minus their sum.  Stage t
    replaces digit t of the lane index, the coordinate x_t, by a
    coefficient L_t: B_c[..L_t..] = Σ_v A_{c - L_t·v}[..v..], through the
    field tables.  After the δ stages lane L of B_c counts the points where
    g + L·x = c.  So the word g + L·x + b has weight n - B_c[L] for b = -c,
    and for b = 0 weight S[L], the sum of B_c[L] over c != 0.

    Lanes are only as wide as their counts.  The coset words and the A_c
    take 8 bits when the element patterns fit (see _Lanes).  After stage t a
    lane holds at most q^(t+1), so stage t runs in the narrowest of 8, 16 or
    32 bits that holds that, and no narrower than the stage before: q = 2
    runs 7 stages in 8 bits, q = 3 runs 5, q = 4 or 5 run 3.  A widening
    copies each lane's bytes into the low bytes of a wider lane
    (_widen).  The B_c come out in lanes of 16 bits, or 32 once n >= 2^15,
    so that a count of at most n compared against a bound in packed form
    keeps its top bit free.  A batch of cosets sits side by side in the
    same ints, one block of n lanes each, and no stage moves a count out of
    its block.
    """

    def __init__(self, code: LinearCode, delta: int, words: _Lanes, width: int, blocks: int):
        gf = code.gf
        q = gf.q
        self.gf, self.n, self.k, self.delta = gf, code.n, code.k, delta
        self.words, self.blocks = words, blocks  # cosets per full batch
        self.width = width  # of the B_c's lanes
        sub, mul = gf.sub, gf.mul
        # the pieces of a stage are A_c's lanes of digit t = v, at c * q + v
        self.plan = [[[sub(c, mul(b, v)) * q + v for v in range(q)] for b in range(q)] for c in range(1, q)]
        self.widths, w = [], words.width  # stage t's lane width
        for t in range(delta):
            w = max(w, next(x for x in (8, 16, 32) if q ** (t + 1) < 1 << x))
            self.widths.append(w)
        self._shape: tuple = (0, None)  # the last batch's, the only one kept

    def shape(self, blocks: int) -> tuple:
        """(every, fill, high, start, stages) of a batch of that many cosets:
        1, 2^(w-1) - 1 and 2^(w-1) in each lane of the final width w; start
        = (fill, high, constants) at the words' width, with each constant
        word c != 0; and per stage its width, shift, the mask of the lanes
        whose digit t is 0 and their point count, at that width."""
        if self._shape[0] != blocks:
            words, q, lanes = self.words, self.gf.q, blocks * self.n
            stages = []
            for t, width in enumerate(self.widths):
                shift = width * q**t
                # digit t is 0 on the first q^t lanes of each q^(t+1)
                run = b"\xff" * (shift // 8)
                mask = int.from_bytes(run.ljust(len(run) * q, b"\0") * (lanes // q ** (t + 1)), "little")
                stages.append((width, shift, mask, q**t * (_every(lanes, width) & mask)))
            size = self.n * words.width // 8
            # row 0 is all ones, so c times it is the constant word c
            one = (words.add(words.zero, words.row(c, 0)).to_bytes(size, "little") for c in range(1, q))
            constants = [int.from_bytes(x * blocks, "little") for x in one]
            start = (*_signs(lanes, words.width)[1:], constants)
            self._shape = (blocks, (*_signs(lanes, self.width), start, stages))
        return self._shape[1]

    def batches(self):
        """(hs, B, S) for the higher part 0 alone, then for batches of the
        higher parts whose top coefficient is 1, in index order."""
        batch = [(0, self.words.zero)]
        higher = self._higher()
        while batch:
            hs, gs = zip(*batch)
            b = self.transform(gs)
            yield hs, b, b[0] if self.gf.q == 2 else sum(b)
            batch = list(islice(higher, self.blocks))

    def _higher(self):
        """(h, g) for every higher part h whose top coefficient is 1, in
        index order, g its stored word."""
        words, p, e = self.words, self.gf.p, self.gf.e
        first = self.delta + 1
        # base-p digit t stands for p^(t % e) on row first + t // e
        steps = [words.row(p ** (t % e), first + t // e) for t in range(e * (self.k - first))]
        for r in range(self.k - first):
            g = words.add(words.zero, words.row(1, first + r))
            digits = [0] * (e * r)
            for h in range(self.gf.q**r, 2 * self.gf.q**r):
                yield h, g
                for t in range(e * r):  # g of h + 1
                    g = words.add(g, steps[t])
                    digits[t] += 1
                    if digits[t] < p:
                        break
                    digits[t] = 0

    def transform(self, gs: tuple[int, ...]) -> list[int]:
        """The B_c of the cosets of the stored words gs, side by side."""
        q, plan, width, lanes = self.gf.q, self.plan, self.words.width, len(gs) * self.n
        (fill, high, constants), stages = self.shape(len(gs))[3:]
        size = self.n * width // 8
        g = int.from_bytes(b"".join(x.to_bytes(size, "little") for x in gs), "little")
        # A_c: 1 in the lanes where g - c is zero
        a = [(((g ^ c) + fill) & high ^ high) >> (width - 1) for c in constants]
        for wider, shift, mask, count in stages:
            if wider > width:
                a, width = [_widen(x, lanes, width, wider) for x in a], wider
            pieces = [0] * q  # A_0's pieces go here; v = 0 is never read
            for x in a:
                pieces += [(x >> (v * shift)) & mask for v in range(q)]
            for v in range(1, q):
                pieces[v] = count - reduce(add, pieces[v + q :: q])
            get = pieces.__getitem__
            a = [
                reduce(or_, [reduce(add, map(get, row)) << (b * shift) for b, row in enumerate(rows)])
                for rows in plan
            ]
        if self.width > width:
            a = [_widen(x, lanes, width, self.width) for x in a]
        return a

    def lanes(self, x: int, blocks: int) -> memoryview:
        """The lanes of x, a batch of that many cosets, in order."""
        return _lane_view(x, blocks * self.n, self.width)

    def weights(self, b: list[int], s: int) -> list[int]:
        """The weight of the word b + q·L of a single coset, for every index."""
        n, q, neg = self.n, self.gf.q, self.gf.neg
        out = [0] * (q * n)
        out[0::q] = self.lanes(s, 1)
        for c, x in zip(range(1, q), b):
            out[neg(c) :: q] = [n - v for v in self.lanes(x, 1)]
        return out

    def tally(self, into: Counter, x: int, blocks: int) -> None:
        """Add to `into` how many lanes of x hold each value.  While few
        values are known, each is counted in packed form, in a few ops; a
        Counter takes the lanes with other values, if any are left."""
        every, fill, high = self.shape(blocks)[:3]
        lanes = left = blocks * self.n
        known = list(into) if len(into) <= 32 else []
        for v in known:
            same = lanes - (((x ^ v * every) + fill) & high).bit_count()
            into[v] += same
            left -= same
            if not left:
                return
        for v, c in Counter(self.lanes(x, blocks)).items():
            if v not in known:
                into[v] += c

    def reaches(self, b: list[int], s: int, reach: int, blocks: int) -> bool:
        """Whether a word of the batch has weight at most reach >= -1: a
        lane of some B_c of at least n - reach, or a lane of S of at most
        reach."""
        if reach >= self.n:
            return True
        every, _, high = self.shape(blocks)[:3]
        half = 1 << (self.width - 1)
        low, up = (half - self.n + reach) * every, (half - 1 - reach) * every
        return (s + up) & high != high or any((x + low) & high for x in b)

    def find(self, hs: tuple[int, ...], b: list[int], s: int, weight: int) -> list[int]:
        """The message indices of the batch's words of that weight, in order."""
        n, q, blocks = self.n, self.gf.q, len(hs)
        span = q * n  # words per coset
        every, fill, high = self.shape(blocks)[:3]
        step = self.width // 8
        found = []
        for low, x, v in [(0, s, weight)] + [(self.gf.neg(c), x, n - weight) for c, x in zip(range(1, q), b)]:
            same = ((x ^ v * every) + fill) & high ^ high
            # a lane's top bit is the top bit of its last byte
            tops = same.to_bytes(blocks * n * step, "little")[step - 1 :: step]
            at = tops.find(128)
            while at >= 0:
                found.append(hs[at // n] * span + low + q * (at % n))
                at = tops.find(128, at + 1)
        return sorted(found)


def _cosets(code: LinearCode) -> _Cosets | None:
    """The coset engine of the code, or None when the generator itself does
    not certify the first-order rows (n = q^δ, row 0 all 1, row 1 + t digit t
    of the point index).

    A batch holds as many cosets as fit _TABLE_BYTES, and at least one.  One
    coset takes at most (q^2 + 3q + 2δ + 4)·n lanes, charged at the final
    width of 2 or 4 bytes: the stages before a widening run in narrower
    lanes (see _Cosets), so this stays an upper bound on the ints it counts.
    _scan runs the engine only when k >= δ + 2, so n·q^2 <= q^k, which the
    messages cap bounds: one coset's ints are at most a few times q^k lanes.
    At the default caps the largest is (19,2,2)'s, 430·19^4 lanes charged
    at 4 bytes, about 224 MB; a transform's temporaries can exceed that."""
    if "cosets" not in code._cache:
        code._cache["cosets"] = None
        q, n, k, gen = code.gf.q, code.n, code.k, code.generator
        delta = _degree(q, n)
        if delta is None or k <= delta or gen[0] != (1,) * n:
            return None
        if any(gen[1 + t] != tuple(digit) for t, digit in enumerate(_digits(q, delta))):
            return None
        words = _Lanes(code, 8)
        width = max(words.width, 16 if n < 2**15 else 32)
        # the ints of a batch: q^2 pieces, q - 1 A_c, q - 1 B_c, S, a
        # temporary, and its shape's 5 + (q - 1) + 2δ
        blocks = max(1, _TABLE_BYTES // ((q * q + 3 * q + 2 * delta + 4) * n * width // 8))
        code._cache["cosets"] = _Cosets(code, delta, words, width, blocks)
    return code._cache["cosets"]


def _top_is_one(j: int, q: int) -> bool:
    """Whether the top nonzero base-q digit of j is 1."""
    while j >= q:
        j //= q
    return j == 1


def _coset_scan(code: LinearCode, mode: str) -> tuple[Counter, int, list[int]]:
    """The triple of _scan, one transform per coset.  Only g = 0 and the
    higher parts with top coefficient 1 are transformed: every word of such
    a coset has top coefficient 1, and the nonzero words of g = 0 fall into
    classes of q - 1 multiples.  "dist" counts lanes; "min" and "words"
    unpack only the batches whose lanes, compared against the least weight
    in packed form, reach it."""
    engine = _cosets(code)
    if engine is None:
        raise ValueError(f"{code!r} is not certified for the coset engine")
    n, q = code.n, code.gf.q
    counts: Counter = Counter()
    plus: Counter = Counter()  # S lanes, weight v
    minus = plus if q == 2 else Counter()  # B_c lanes, weight n - v
    best, hits = n + 1, []
    for hs, b, s in engine.batches():
        blocks = len(hs)
        if hs == (0,):  # RM_q(1, δ) itself, without its zero word
            ws = engine.weights(b, s)[1:]
            if mode == "dist":
                counts.update({w: c // (q - 1) for w, c in Counter(ws).items()})
                continue
            least = min(ws)
            found = [j for j, w in enumerate(ws, 1) if w == least and _top_is_one(j, q)]
        elif mode == "dist":
            engine.tally(plus, s, blocks)
            for x in b if q > 2 else ():
                engine.tally(minus, x, blocks)
            continue
        elif engine.reaches(b, s, best - 1, blocks):
            most = max(max(engine.lanes(x, blocks)) for x in b)
            least = min(min(engine.lanes(s, blocks)), n - most)
            found = engine.find(hs, b, s, least) if mode == "words" else []
        elif mode == "words" and engine.reaches(b, s, best, blocks):
            least, found = best, engine.find(hs, b, s, best)
        else:
            continue
        if mode == "min" or least > best:
            best = min(best, least)
            continue
        if least < best:
            best, hits = least, []
        hits += found
    for v, c in plus.items():
        counts[v] += c
    for v, c in minus.items():
        counts[n - v] += c
    return counts, best, hits


def min_distance(code: LinearCode) -> int:
    """Minimum weight over all nonzero messages, every message visited."""
    if "mindist" not in code._cache:
        code._cache["mindist"] = _scan(code, "min")[1]
    return code._cache["mindist"]


def weight_distribution(code: LinearCode) -> dict[int, int]:
    """Weight -> count over all q^k messages, including the zero codeword."""
    if "dist" not in code._cache:
        scalars = code.gf.q - 1
        dist = {w: c * scalars for w, c in _scan(code, "dist")[0].items()}
        dist[0] = dist.get(0, 0) + 1
        code._cache["dist"] = dict(sorted(dist.items()))
    return dict(code._cache["dist"])


def min_weight_codewords(code: LinearCode) -> list[bytes] | list[tuple[int, ...]]:
    """All codewords of minimum weight, in message index order.  Each word
    holds the element index of every position: `bytes` when q <= 256,
    a tuple of ints above that.

    The scan's hits are counted against the points cap, (q - 1)·n entries
    each, before any word is stored or unpacked.  The list is made on every
    call and kept nowhere else, so it is freed with the caller's reference."""
    hits = _scan(code, "words")[2]
    q, k, n = code.gf.q, code.k, code.n
    limits.ensure("points", len(hits) * (q - 1) * n, f"listing the minimum weight words of {code!r}")
    lanes = _lanes(code)
    times = lanes.times()
    # each hit stands for its multiples c * hit, whose coefficients, top
    # first, are the hit's times c: sorting those puts them in index order
    multiples = []
    for index, packed in lanes.stored(hits):
        top_first = lanes.box(index // q**i % q for i in reversed(range(k)))
        word = lanes.unpack(packed)
        multiples += [(times[c](top_first), c, word) for c in range(1, q)]
    multiples.sort(key=itemgetter(0))
    return [times[c](word) for _, c, word in multiples]
