"""Evaluation codes from minor combinations, and exhaustive scan engines.

The evaluation domain is all l x lp matrices over GF(q).  A point's index is
its flat row-major entry tuple read as a base-q integer, entry (1,1) least
significant, so index 0 is the zero matrix and the enumeration is the natural
odometer over entries.  The generator matrix holds the canonical minor basis
evaluated at every point in index order; messages are coefficient vectors
over that basis.  It is built for all points at once: entry t of every point
is one vector of base-q digits, and each basis minor is a Laplace expansion
over those vectors (matrices.batch_minors), so no point is materialized.

Minimum distance and weight distributions come from full message scans, one
engine for every field: codewords are packed into integers with one lane per
position, a table holds the words of every message on the low digits, and
each message costs one lane-packed operation and a popcount (see _Lanes).
Early exit is taken only when the caller passes a conjectured distance; blind
runs see every message.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from operator import itemgetter, methodcaller

from . import limits
from .matrices import MatrixGF, batch_minors
from .minors import MinorCombination, minor_basis, row_vanishing_locus
from .params import CodeParams, min_distance_formula

__all__ = [
    "point_index",
    "point_matrix",
    "points",
    "LinearCode",
    "build",
    "evaluate_vector",
    "weight",
    "min_distance",
    "weight_distribution",
    "min_weight_codewords",
    "rowspec_weight_bound",
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
    return MatrixGF(p.field(), p.l, p.lp, tuple(flat))


@lru_cache(maxsize=None)
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
        if any(not 0 <= x < gf.q for r in generator for x in r):
            raise ValueError("generator entries must be element indices")
        self.gf = gf
        self.generator = generator
        self.params = params
        self.label = label
        self._cache: dict = {}

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
        """Row space membership, decided by a rank comparison."""
        if len(vector) != self.n:
            raise ValueError(f"vector length must be {self.n}, got {len(vector)}")
        g = self.generator_matrix()
        stacked = MatrixGF.from_rows(self.gf, list(self.generator) + [tuple(vector)])
        return stacked.rank() == g.rank()

    def __repr__(self) -> str:
        tag = self.label or "linear code"
        return f"<{tag} [{self.n}, {self.k}] over GF({self.gf.q})>"


@lru_cache(maxsize=None)
def build(p: CodeParams) -> LinearCode:
    """The evaluation code of the full minor space on the domain of p."""
    gf = p.field()
    limits.ensure("points", p.npoints, f"enumerating the domain of {p}")
    q, n = p.q, p.npoints
    # base-q digit t of a point's index is its flat row-major entry t
    digits = [[i // w % q for i in range(n)] for w in (q**t for t in range(p.delta))]
    entries = [digits[r * p.lp : (r + 1) * p.lp] for r in range(p.l)]
    rows = batch_minors(gf, entries, n, minor_basis(p))
    code = LinearCode(gf, rows, params=p, label=f"affine[q={p.q},l={p.l},lp={p.lp}]")
    if code.generator_matrix().rank() != code.k:
        raise AssertionError(f"evaluation matrix of {p} is rank deficient")
    if any(all(row[j] == 0 for row in code.generator) for j in range(code.n)):
        raise AssertionError(f"evaluation matrix of {p} has an all-zero column")
    return code


def evaluate_vector(f: MinorCombination) -> tuple[int, ...]:
    """The codeword of f: its values over the point enumeration."""
    return build(f.params).encode(f.coeffs)


def weight(vector: tuple[int, ...]) -> int:
    """Hamming weight."""
    return sum(1 for x in vector if x)


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
_TABLE_BYTES = 2**20  # and the memory they may take


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
    """

    def __init__(self, code: LinearCode):
        gf = code.gf
        p, e, q, n = gf.p, gf.e, gf.q, code.n
        # no reference back to the code, which caches this object
        self.generator, self.gf, self.n = code.generator, gf, n
        self.box = bytes if q <= 256 else tuple  # holds a vector of elements
        self.sub = sub = 1 if p == 2 else (p - 1).bit_length() + 1
        self.width = width = 1 if q == 2 else next(w for w in (8, 16, 32) if e * sub < w)
        bias = 0 if p == 2 else (1 << (sub - 1)) - p

        def pattern(x: int, b: int) -> int:
            out = 0
            for j in range(e):
                out |= (x % p + b) << (sub * j)
                x //= p
            return out

        every = ((1 << (width * n)) - 1) // ((1 << width) - 1)  # 1 in each lane
        self.zero = pattern(0, bias) * every
        self.guard = sum(1 << (sub * j + sub - 1) for j in range(e)) * every
        # (x + fill) & high has a lane's top bit set where x's lane is nonzero
        self.fill = ((1 << (width - 1)) - 1) * every
        self.high = (1 << (width - 1)) * every
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
            low < e * (code.k - 1)
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
        # native byte order, so the cast reads each lane whole; big-endian
        # order puts the last lane first
        raw = word.to_bytes(n * width // 8, sys.byteorder)
        lanes = memoryview(raw).cast("H" if width == 16 else "I")
        if sys.byteorder == "big":
            lanes = lanes[::-1]
        return self.box(map(self.decode.__getitem__, lanes))

    def times(self) -> list:
        """times[c](v) is c * v, entry by entry, for a vector v of elements."""
        gf, q = self.gf, self.gf.q
        if self.box is tuple:
            return [lambda v, c=c: tuple(gf.mul(c, x) for x in v) for c in range(q)]
        tables = (bytes(gf.mul(c, x) for x in range(q)).ljust(256, b"\0") for c in range(q))
        return [methodcaller("translate", table) for table in tables]


def _lanes(code: LinearCode) -> _Lanes:
    # built on the first scan, not with the code, so a build pays nothing
    if "lanes" not in code._cache:
        code._cache["lanes"] = _Lanes(code)
    return code._cache["lanes"]


def _scan(
    code: LinearCode, mode: str, early_exit_at: int | None = None
) -> tuple[Counter, int, list[tuple[int, int]]]:
    """Scan every message whose top nonzero coefficient is 1; returns
    (weight counts, min weight, hits).

    Mode "dist" counts weights, "min" only tracks the least and stops once it
    is at most early_exit_at, when that is given, and "words" keeps (message
    index, stored word) for each message at the least weight, in message
    index order.
    """
    q = code.gf.q
    limits.ensure("messages", q**code.k, f"scanning {code!r}")
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
                if early_exit_at is not None and best <= early_exit_at:
                    return counts, best, hits
            else:
                ws = list(weights)
                least = min(ws)
                if least > best:
                    continue
                if least < best:
                    best, hits = least, []
                word = lanes.base(1, r, at // step) - lanes.zero
                found = compress(range(step), map(least.__eq__, ws))
                hits += [(size + at + j, lanes.add(lanes.table[j], word)) for j in found]
    return counts, best, hits


def min_distance(code: LinearCode, *, early_exit_at: int | None = None) -> int:
    """Minimum weight over all nonzero messages.

    With early_exit_at set, the scan stops as soon as a codeword of that
    weight shows up; pass it only when that value is known to be a lower
    bound (the closed formula).  Without it, every message is visited.
    """
    key = ("mindist", early_exit_at)
    if key not in code._cache:
        code._cache[key] = _scan(code, "min", early_exit_at)[1]
    return code._cache[key]


def weight_distribution(code: LinearCode) -> dict[int, int]:
    """Weight -> count over all q^k messages, including the zero codeword."""
    if "dist" not in code._cache:
        scalars = code.gf.q - 1
        dist = {w: c * scalars for w, c in _scan(code, "dist")[0].items()}
        dist[0] = dist.get(0, 0) + 1
        code._cache["dist"] = dict(sorted(dist.items()))
    return dict(code._cache["dist"])


def min_weight_codewords(code: LinearCode) -> list[tuple[int, ...]]:
    """All codewords of minimum weight, in message index order."""
    if "minwords" not in code._cache:
        hits = _scan(code, "words")[2]
        lanes = _lanes(code)
        q, k = code.gf.q, code.k
        times = lanes.times()
        # each hit stands for its multiples c * hit, whose coefficients, top
        # first, are the hit's times c: sorting those puts them in index order
        multiples = []
        for index, packed in hits:
            top_first = lanes.box(index // q**i % q for i in reversed(range(k)))
            word = lanes.unpack(packed)
            multiples += [(times[c](top_first), c, word) for c in range(1, q)]
        multiples.sort(key=itemgetter(0))
        code._cache["minwords"] = [tuple(times[c](word)) for _, c, word in multiples]
    return list(code._cache["minwords"])


def rowspec_weight_bound(f: MinorCombination, i: int) -> tuple[Fraction, int]:
    """(lower bound from the row-i vanishing locus, actual weight of f).

    With t points in the locus, the weight of a nonzero f is at least
    (q^lp - t) / (q^lp - q^(lp-l)) times the minimum distance; the actual
    weight is returned alongside for the caller to compare.
    """
    p = f.params
    if f.is_zero:
        raise ValueError("the zero combination has no weight bound")
    t = len(row_vanishing_locus(f, i))
    d = min_distance_formula(p)
    denom = p.q**p.lp - p.q ** (p.lp - p.l)
    bound = Fraction((p.q**p.lp - t) * d, denom)
    actual = weight(evaluate_vector(f))
    return bound, actual
