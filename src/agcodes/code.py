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
unitriangular, of determinant 1.  The build checks that block, entry by entry,
and that row 0, the empty minor, is the all-ones word, so no column is zero;
that row is also what _cosets requires before the engine runs.

Minimum distance and weight distributions come from full message scans, by
one of two routes that return the same results, each for every field:

- The packed scan: codewords are packed into integers with one lane per
  position, a table holds the words of every message on the low digits, and
  each message costs one lane-packed operation and a popcount (see _Lanes).
- The coset engine: an affine code contains RM_q(1, δ), so its words fall
  into cosets of q^(δ+1) words each, and one shift transform counts the
  weights of a whole coset (see _Cosets).  It runs only on a generator that
  itself certifies the first-order rows and has a coset besides RM_q(1, δ)
  (n = q^δ, δ >= 2, k > δ + 1, row 0 all ones, row 1 + t digit t of the
  point index; the code's params are not consulted).

_scan takes the engine wherever _cosets gives one, after the messages cap
passes, and the packed scan otherwise: Grassmann codes, random codes and
the codes RM_q(1, δ) itself stay on the packed scan, which the tests also
run as the second route.  The messages cap also bounds the engine's memory
(see _cosets).  Every scan is blind: it
visits every message, or counts every coset, so a scanned minimum is
independent of the closed form it confirms.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter
from functools import cached_property, lru_cache, partial, reduce
from itertools import compress, islice, repeat
from operator import and_, lshift, methodcaller, or_, rshift
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
    limits.ensure_power("points", p.q, p.delta, f"enumerating the domain of {p}")
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
    """The evaluation code of the full minor space on the domain of p, its
    rank proved by the unitriangular block (_certify_rank) and its row 0
    checked to be the all-ones word."""
    gf = p.field()
    limits.ensure_power("points", p.q, p.delta, f"enumerating the domain of {p}")
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
    # row 0, the empty minor, is the constant 1, so no column is zero
    if code.generator[0] != (1,) * n:
        raise AssertionError(f"evaluation matrix of {p} has a row 0 that is not all ones")
    return code


def ensure_scannable(p: CodeParams) -> None:
    """Refuse a scan of build(p) before building: build's points cap, then q^k messages."""
    limits.ensure_power("points", p.q, p.delta, f"enumerating the domain of {p}")
    limits.ensure_power("messages", p.q, dimension_formula(p), f"scanning the code of {p}")


def evaluate_vector(f: MinorCombination) -> tuple[int, ...]:
    """The codeword of f: its values over the point enumeration, one
    lane-packed sum of the code's packed rows, with no table made
    (LinearCode.encode gives the same entries)."""
    lanes = _lanes(build(f.params))
    return tuple(lanes.unpack(lanes.word(enumerate(f.coeffs))))


def weight(vector: tuple[int, ...] | bytes) -> int:
    """Hamming weight of a vector of element indices."""
    return len(vector) - vector.count(0)


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
# is 1, the indices in [q^r, 2·q^r) for each top row r; each one stands for
# its q-1 multiples.  A walker (_Lanes.walker) gives the word of any index
# from the last one it gave, adding the rows of the base-p digits that
# changed, the top row's digit like any other.

_TABLE_ENTRIES = 2**12  # low-digit words kept per code
_TABLE_BYTES = 2**20  # and the memory they may take, as may a coset batch


class _Lanes:
    """Lane-packed codewords of one code, and the table its packed scan reads.

    A codeword is one int with a lane of `width` bits per position: 1 bit
    for q = 2, else the narrowest of 8, 16 or 32 bits whose top bit is above
    the element's pattern.  A lane holds an element as its e base-p digits,
    each in a sub-lane of `sub` bits.  In characteristic 2 a sum is one XOR.
    For odd p each stored digit carries a bias of 2^(sub-1) - p, so a digit
    sum reaches the sub-lane's top (guard) bit exactly when it is p or more,
    and subtracting p there reduces it (Boothby and Bradshaw,
    arXiv:0901.1413).  Every element has one lane pattern, so lane i of
    u ^ v is zero exactly where u and v agree.

    The table, made when the packed scan first reads it, holds the words of
    the messages on the lowest base-p digits, in index order.  A message
    with high part h and low part j has the word w(h) + table[j], which is
    zero exactly where table[j] equals -w(h): a block of messages costs one
    XOR and one count of nonzero lanes each, against the negated word of
    the block's high part, which a walker at scale -1 gives.
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

        # (x + fill) & high has a lane's top bit set where x's lane is
        # nonzero, if no lane of x has its top bit set
        every = _tiled(1, width, n)
        self.fill, self.high = ((1 << (width - 1)) - 1) * every, (1 << (width - 1)) * every
        # each element's lane as stored: its digits with their bias
        self.stored_patterns = [pattern(x, bias) for x in range(q)]
        self.zero = self.stored_patterns[0] * every
        self.add = self.adder(1)
        # lane pattern -> element; a 1-bit lane is unpacked as an ASCII digit
        decode = {y + (ord("0") if width == 1 else 0): x for x, y in enumerate(self.stored_patterns)}
        if width <= 8:
            lookup = bytearray(256)
            for key, x in decode.items():
                lookup[key] = x
            self.decode: bytes | dict[int, int] = bytes(lookup)
        else:
            self.decode = decode
        self._patterns = [pattern(x, 0) for x in range(q)]
        self._rows: dict[tuple[int, int], int] = {}
        self._tables: dict[int, bytes | list[bytes]] = {}  # row's table per multiple a
        self._row_bytes: dict[int, bytes] = {}  # generator row r as bytes, for 8-bit lanes

    @cached_property
    def table(self) -> list[int]:
        """combinations(0, low), low the most base-p digits below the top
        row's whose words fit _TABLE_ENTRIES and _TABLE_BYTES."""
        p, per_word = self.gf.p, self.width * self.n // 8 + 32
        low = 0
        while (
            low < self.gf.e * (len(self.generator) - 1)
            and p ** (low + 1) <= _TABLE_ENTRIES
            and p ** (low + 1) * per_word <= _TABLE_BYTES
        ):
            low += 1
        return self.combinations(0, low)

    def combinations(self, first: int, digits: int) -> list[int]:
        """The stored words of every message on the base-p digits first to
        first + digits - 1, in index order.  Base-p digit t of a message is
        the element p^(t % e) as the coefficient of row t // e."""
        p, e = self.gf.p, self.gf.e
        out = [self.zero]
        for t in range(first, first + digits):
            steps = [self.row(c * p ** (t % e), t // e) for c in range(1, p)]
            out += [self.add(x, v) for v in steps for x in out]
        return out

    def row(self, a: int, r: int) -> int:
        """Generator row r times the element a, packed without bias.  One
        table maps each element x to the lane pattern of a·x, and the row
        goes through it at C level: an ASCII translate read in base 2 for
        1-bit lanes, a byte translate for 8-bit lanes, and a join of each
        entry's little-endian lane bytes above that.  The table depends on
        a alone, so it is made once per multiple; a row is packed at up to
        q - 1 multiples, so 8-bit lanes keep its bytes from the first."""
        key = (a, r)
        if key not in self._rows:
            width, row = self.width, self.generator[r]
            table = self._tables.get(a) or self._table(a)
            if width == 1:
                self._rows[key] = int(bytes(row).translate(table)[::-1], 2)
            elif width == 8:
                if r not in self._row_bytes:
                    self._row_bytes[r] = bytes(row)
                self._rows[key] = int.from_bytes(self._row_bytes[r].translate(table), "little")
            else:
                self._rows[key] = int.from_bytes(b"".join(map(table.__getitem__, row)), "little")
        return self._rows[key]

    def _table(self, a: int) -> bytes | list[bytes]:
        """row's table for the multiple a: a translate table for 1-bit and
        8-bit lanes, else each element's lane bytes."""
        mul, width = self.gf.mul, self.width
        times_a = [self._patterns[mul(a, x)] for x in range(self.gf.q)]
        if width == 1:
            table = bytes(ord("0") + x for x in times_a).ljust(256, b"0")
        elif width == 8:
            table = bytes(times_a).ljust(256, b"\0")
        else:
            table = [x.to_bytes(width // 8, "little") for x in times_a]
        self._tables[a] = table
        return table

    def word(self, terms: Iterable[tuple[int, int]]) -> int:
        """The stored word of the message with coefficient c at row r for
        each (r, c) in terms."""
        out = self.zero
        for r, c in terms:
            if c:
                out = self.add(out, self.row(c, r))
        return out

    def adder(self, count: int):
        """u + v for stored words u and unbiased packed words v of at most
        `count` words side by side: XOR for p = 2, else a lane add with the
        guard bits tiled.  add is adder(1)."""
        p, e, sub = self.gf.p, self.gf.e, self.sub
        if p == 2:
            return int.__xor__
        lane = sum(1 << (sub * j + sub - 1) for j in range(e))
        guard = _tiled(lane, self.width, self.n * count)

        def add(u: int, v: int) -> int:
            t = u + v
            return t - ((t & guard) >> (sub - 1)) * p

        return add

    def stored(self, indices: list[int]):
        """The stored words of min_weight_codewords' hits, by one walker:
        the step its points cap check comes before."""
        return map(self.walker(), indices)

    def walker(self, scale: int = 1):
        """A callable that gives the stored word of scale times the message
        of any index, called on indices in any order.  It keeps the last
        index and its word, and adds only the rows of the base-p digits that
        changed, every digit alike, the top row's too: c times the digit's
        place for a digit that rose by c modulo p.  For p = 2 those are the
        bits set in index ^ prev; for odd p, the digits up to the highest
        one where index and prev differ.  Each (digit, multiple) row is
        packed the first time it is added."""
        gf, add, row = self.gf, self.add, self.row
        p, e, mul = gf.p, gf.e, gf.mul
        digits = e * len(self.generator)
        steps: list = [None] * (p * digits)  # digit t's row times c at c·digits + t
        prev, word = 0, self.zero

        def place(t: int, c: int) -> int:
            """scale·c times the place of digit t, p^(t % e) on row t // e."""
            steps[c * digits + t] = row(mul(scale, c * p ** (t % e)), t // e)
            return steps[c * digits + t]

        def walk(index: int) -> int:
            nonlocal prev, word
            if p == 2:
                x = index ^ prev
                while x:
                    bit = x & -x
                    t = bit.bit_length() - 1
                    word ^= steps[digits + t] or place(t, 1)
                    x ^= bit
            else:
                a, b, t = index, prev, 0
                while a != b:
                    x, y = a % p, b % p
                    if x != y:
                        c = (x - y) % p
                        word = add(word, steps[c * digits + t] or place(t, c))
                    a, b, t = a // p, b // p, t + 1
            prev = index
            return word

        return walk

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
        """times[c](v) is c * v, entry by entry, for a vector v of elements."""
        gf, q = self.gf, self.gf.q
        if self.box is tuple:
            return [lambda v, c=c: tuple(gf.mul(c, x) for x in v) for c in range(q)]
        tables = (bytes(gf.mul(c, x) for x in range(q)).ljust(256, b"\0") for c in range(q))
        return [methodcaller("translate", table) for table in tables]


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
    Both routes return the same triple: the coset engine wherever _cosets
    accepts the generator, the packed scan otherwise.
    """
    limits.ensure_power("messages", code.gf.q, code.k, f"scanning {code!r}")
    return (_packed_scan if _cosets(code) is None else _coset_scan)(code, mode)


def _packed_scan(code: LinearCode, mode: str) -> tuple[Counter, int, list[int]]:
    """The triple of _scan, one lane-packed XOR and popcount per message."""
    q = code.gf.q
    lanes = _lanes(code)
    table, negated = len(lanes.table), lanes.walker(code.gf.neg(1))
    counts: Counter = Counter()
    best, hits = code.n + 1, []
    # each top row's messages in blocks of the table's size, or in one block
    for start in (q**r + at for r in range(code.k) for at in range(0, q**r, table)):
        step = min(start, table)
        weights = lanes.weights(negated(start), step)
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
            hits += compress(range(start, start + step), map(least.__eq__, ws))
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

    For a coset word g, A_c counts [g(x) = c] at each point x, for c != 0;
    A_0 is the point count minus their sum.  Stage t replaces digit t of the
    point index, the coordinate x_t, by a coefficient L_t:
    B_c[..L_t..] = Σ_v A_{c - L_t·v}[..v..], through the field tables.
    After the δ stages B_c[L] counts the points where g + L·x = c.  So the
    word g + L·x + b has weight n - B_c[L] for b = -c, and for b = 0 weight
    S[L], the sum of B_c[L] over c != 0.

    Counts are bit-sliced (Boothby and Bradshaw, arXiv:0901.1413): a count
    array is a list of planes, least significant first, and plane j is an
    int with bit i set where count i has bit j set.  A batch of cosets sits
    side by side, n bits of each plane per coset, and no stage moves a count
    out of its coset.  Each A_c starts as one plane, the points where g = c,
    read off g's lane bytes by translates (indicators).
    Stage t takes A_0 = q^t - Σ_c A_c by a ripple subtractor (_minus).  For
    each B_c and each v it then moves the counts of A_{c - b·v} at digit
    t = v to digit b, for every b at once, by one shift and mask per plane
    (_moved), and adds the q moved arrays with ripple adders (_add): AND, OR
    and XOR on ints of one bit per count.  A count after stage t is at most
    q^(t+1), so its array has at most bits(q^(t+1)) planes.  The counts are
    read the same way: a walk down the planes splits the counts by value
    (_levels), for a tally, a least or greatest count and where it is.
    The coset words are made in bulk, from a step table (feed).
    """

    def __init__(self, code: LinearCode, delta: int, words: _Lanes, blocks: int):
        gf = code.gf
        q = gf.q
        self.gf, self.n, self.k, self.delta = gf, code.n, code.k, delta
        self.words, self.blocks = words, blocks  # cosets per full batch
        sub, mul = gf.sub, gf.mul
        # B_c at digit b is the sum over v of A_{c - b·v} at digit v: route
        # (c, v) lists that array's index for each b, 2 bytes each (q <= 2^16)
        self.routes = [[array("H", [sub(c, mul(b, v)) for b in range(q)]) for v in range(q)] for c in range(1, q)]
        # per stage, the counts of one coset whose digit t is 0: the first
        # q^t of each q^(t+1)
        runs = [q**t for t in range(delta)]
        self.masks = [_tiled((1 << run) - 1, run * q, self.n // (run * q)) for run in runs]
        # per c != 0, (j, a table that translates a byte to ASCII "1" where
        # it is byte j of c's stored lane, else "0") for each byte j on which
        # the stored lanes differ, as a byte they share gives all ones; for
        # q = 2 indicators reads none
        lanes = [y.to_bytes((words.width + 7) // 8, "little") for y in words.stored_patterns]
        varied = [j for j, column in enumerate(zip(*lanes)) if len(set(column)) > 1]
        self.tables = [[(j, b"0" * x[j] + b"1" + b"0" * (255 - x[j])) for j in varied] for x in lanes[1:]]
        self._shapes: dict[int, tuple] = {}

    def shape(self, blocks: int) -> tuple[int, list[int]]:
        """(every, stages) of a batch of that many cosets: every has a bit
        per count, and per stage the mask of the counts whose digit t is 0."""
        if blocks not in self._shapes:
            stages = [_tiled(mask, self.n, blocks) for mask in self.masks]
            self._shapes[blocks] = ((1 << blocks * self.n) - 1, stages)
        return self._shapes[blocks]

    def feed(self):
        """(hs, g) for batches of `blocks` cosets, the last maybe fewer: hs
        the higher parts 0, which gives RM_q(1, δ) itself, then those whose
        top coefficient is 1, in index order; g their stored words side by
        side, the first lowest.

        A step table T holds the words of the span = q^s combinations of
        the s lowest higher rows side by side (_Lanes.combinations), span
        <= blocks.  Higher parts that agree above those rows have the words
        T[j] + w, w the word of the common part, which the walker gives, so
        a run of them is one slice of T and one lane add of w tiled: a batch
        is made from a few such segments."""
        words, q, e = self.words, self.gf.q, self.gf.e
        bits, blocks, first = self.n * words.width, self.blocks, self.delta + 1
        s = 0
        while first + s < self.k and q ** (s + 1) <= blocks:
            s += 1
        span = q**s
        plus, walk = words.adder(span), words.walker()
        table = _joined(words.combinations(e * first, e * s), bits)
        hs, g = [], 0
        # runs of consecutive higher parts: 0, then [q^r, 2·q^r) per higher row r
        for start, end in [(0, 1), *((q**r, 2 * q**r) for r in range(self.k - first))]:
            while start < end:
                j = start % span
                size = min(end - start, span - j, blocks - len(hs))
                seg = table if size == span else table >> j * bits & (1 << size * bits) - 1
                if start > j:  # plus the tiled word of the common part start - j
                    common = walk((start - j) * q**first) - words.zero
                    seg = plus(seg, _tiled(common, bits, size))
                g |= seg << len(hs) * bits
                hs += range(start, start + size)
                start += size
                if len(hs) == blocks:
                    yield hs, g
                    hs, g = [], 0
        if hs:
            yield hs, g

    def indicators(self, g: int, count: int) -> list[list[int]]:
        """A_c of the cosets of `count` stored words g side by side, one
        plane each: for q > 2 the AND, over the bytes j that vary (tables),
        of the lanes whose byte j is c's, each read off g's bytes by one
        translate to ASCII digits, reversed so that lane 0 is bit 0."""
        if self.gf.q == 2:  # one bit per point: A_1 is g
            return [[g]]
        step = self.words.width // 8
        raw = g.to_bytes(count * self.n * step, "little")
        return [
            [reduce(and_, (int(raw[j::step].translate(table)[::-1], 2) for j, table in tables))]
            for tables in self.tables
        ]

    def transform(self, g: int, count: int) -> list[list[int]]:
        """The B_c, c = 1..q-1, of the cosets of `count` stored words g side
        by side, as plane lists."""
        q = self.gf.q
        every, stages = self.shape(count)
        a = self.indicators(g, count)
        for t, mask in enumerate(stages):
            run = q**t  # the bits between digits t = v and v + 1, and the most a count holds
            masks = [mask] + [mask << b * run for b in range(1, q)]  # digit t = b
            # A_0 first, then every array padded to the planes of run
            a = [_minus(run, reduce(_add, a), every), *a]
            a = [x + [0] * (len(a[0]) - len(x)) for x in a]
            move = partial(_moved, a, run=run, masks=masks)
            a = [reduce(_add, map(move, routes, range(q))) for routes in self.routes]
        return a

    def weights(self, b: list[list[int]], s: list[int], lives: list[int]) -> Counter:
        """How many words of a batch have each weight, over the live counts,
        lives[0] S's and lives[c] B_c's: S's count v is a word of weight v,
        B_c's one of weight n - v."""
        n = self.n
        got = _tally(s, lives[0])
        if self.gf.q == 2:  # B_1 is S: its tally is S's, plus the lanes only B_1 reads
            minus = got + _tally(s, lives[1] ^ lives[0])
        else:
            minus = sum(map(_tally, b, lives[1:]), Counter())
        for v, c in list(minus.items()):
            got[n - v] += c
        return got


def _tiled(x: int, bits: int, count: int) -> int:
    """count copies of x, an int of at most `bits` bits, side by side; made
    from bytes or a binary string, as shifts would take time quadratic in
    the count."""
    if count == 1:
        return x
    if bits % 8:
        return int(format(x, f"0{bits}b") * count, 2)
    return int.from_bytes(x.to_bytes(bits // 8, "little") * count, "little")


def _joined(words: list[int], bits: int) -> int:
    """words, ints of at most `bits` bits each, side by side, the first
    lowest; made as _tiled is."""
    if bits % 8:
        return int("".join(format(x, f"0{bits}b") for x in reversed(words)), 2)
    return int.from_bytes(b"".join(x.to_bytes(bits // 8, "little") for x in words), "little")


def _moved(arrays: list[list[int]], route: Sequence[int], v: int, run: int, masks: list[int]) -> list[int]:
    """The planes of route (c, v) of a stage: for each digit b, the counts of
    arrays[route[b]] at digit v moved d = b - v digits of `run` bits, and
    ORed together."""
    parts = []
    for d, (i, mask) in enumerate(zip(route, masks), -v):
        planes: Iterable[int] = arrays[i]
        if d > 0:
            planes = map(lshift, planes, repeat(d * run))
        elif d < 0:
            planes = map(rshift, planes, repeat(-d * run))
        parts.append(map(and_, planes, repeat(mask)))
    return list(reduce(partial(map, or_), parts))


def _add(x: list[int], y: list[int]) -> list[int]:
    """The planes of x + y, for plane lists x and y: a ripple adder."""
    if len(x) < len(y):
        x, y = y, x
    a, b = x[0], y[0]
    out, carry = [a ^ b], a & b
    for a, b in zip(x[1:], y[1:]):
        t = a ^ b
        out.append(t ^ carry)
        carry = (a & b) | (t & carry)
    for j in range(len(y), len(x)):
        if not carry:
            return out + x[j:]
        a = x[j]
        out.append(a ^ carry)
        carry &= a
    if carry:
        out.append(carry)
    return out


def _minus(k: int, x: list[int], mask: int) -> list[int]:
    """The planes of k - x, for counts x <= k in the lanes of mask, k >= 1:
    k + 1 + ~x modulo 2^m, m the planes of k, ~x taken in mask."""
    out, carry = [], 0
    for j in range(k.bit_length()):
        y = x[j] ^ mask if j < len(x) else mask
        if (k + 1) >> j & 1:  # y + 1 + carry
            out.append(y ^ carry ^ mask)
            carry |= y
        else:
            out.append(y ^ carry)
            carry &= y
    return out


def _levels(planes: list[int], live: int, descending: bool = False):
    """(value, lanes) for each value held by a count in the lanes of live,
    ascending (or descending), lanes the mask of the counts that hold it: a
    walk down the planes from the top, which splits a set of lanes where a
    plane has both bits, 2 ops per plane on the way."""
    stack = [(len(planes), live, 0)]
    while stack:
        j, lanes, value = stack.pop()
        while j:
            j -= 1
            one = lanes & planes[j]
            if not one:
                continue
            zero = lanes ^ one
            if not zero:
                value |= 1 << j
            elif descending:
                stack.append((j, zero, value))
                lanes, value = one, value | 1 << j
            else:
                stack.append((j, one, value | 1 << j))
                lanes = zero
        yield value, lanes


def _tally(planes: list[int], live: int) -> Counter:
    """How many counts in the lanes of live hold each value."""
    return Counter({v: lanes.bit_count() for v, lanes in _levels(planes, live)})


def _positions(x: int) -> list[int]:
    """The positions of the bits set in x, lowest first."""
    bits = format(x, "b")[::-1]
    out, at = [], bits.find("1")
    while at >= 0:
        out.append(at)
        at = bits.find("1", at + 1)
    return out


def _cosets(code: LinearCode) -> _Cosets | None:
    """The coset engine of the code, or None unless n = q^δ with δ >= 2,
    k > δ + 1 and the generator itself certifies the first-order rows (row
    0 all 1, row 1 + t digit t of the point index), tested in that order,
    as certifying costs more than a small scan.  At k = δ + 1 the code is
    the one coset RM_q(1, δ), and at δ = 1 the engine's (q - 1)·q^2 route
    entries outnumber a 3-row code's messages: both scan cheaper packed.

    A batch holds as many cosets as fit _TABLE_BYTES at _charge's bytes
    each, and at least one.  As k >= δ + 2, n·q^2 <= q^k, which the
    messages cap bounds, and a coset's charge is about (2q + 1)·bits(n/q)
    planes of n bits.  At the default caps the largest is (19,2,2)'s, 522
    planes of 19^4 bits, about 9 MB."""
    if "cosets" not in code._cache:
        code._cache["cosets"] = None
        q, n, k, gen = code.gf.q, code.n, code.k, code.generator
        delta = _degree(q, n)
        if delta is None or delta < 2 or k <= delta + 1 or gen[0] != (1,) * n:
            return None
        if any(gen[1 + t] != tuple(digit) for t, digit in enumerate(_digits(q, delta))):
            return None
        words = _lanes(code)
        blocks = max(1, _TABLE_BYTES // _charge(q, delta, words.width))
        code._cache["cosets"] = _Cosets(code, delta, words, blocks)
    return code._cache["cosets"]


def _charge(q: int, delta: int, width: int) -> int:
    """Bytes one coset of a batch holds at the transform's widest stage, the
    last, for stored words of that width: n bits of each plane, in ints of
    30 bits per 4 bytes.  A plane is as long as its highest set bit, and a
    count array's counts cluster at their mean, so an array is charged the
    planes of twice that mean: q^(δ-2) for the A_c entering the stage, and
    q^(δ-1) = n/q for the B_c it makes."""
    n = q**delta
    a, b = (2 * q ** (delta - 2)).bit_length(), (2 * q ** (delta - 1)).bit_length()
    planes = (
        width  # the coset's word
        + width * (2 if q % 2 else 1)  # the step table, and its tiled guard for odd p
        + delta + 1  # the batch's stage masks, and its every
        + (q + 1) * a  # A_0..A_{q-1} and the array being moved
        + q * b  # q - 2 B_c made, a running sum and the next one
        + q + 8  # the stage's masks and the temporaries of a step
    )
    return planes * -(-2 * n // 15)


def _coset_scan(code: LinearCode, mode: str) -> tuple[Counter, int, list[int]]:
    """The triple of _scan, one transform per coset, over the live counts:
    those of the words whose top nonzero coefficient is 1.  Every count of
    a coset whose higher part has top coefficient 1 is live.  In coset 0,
    RM_q(1, δ), the words L·x + b whose L has top base-q digit 1 are, and
    of L = 0 only the constant word 1, count 0 of the B_c with -c = 1.
    "dist" tallies every batch; "min" and "words" walk each count array to
    its least weight, and "words" lists the counts there when that weight
    is the least so far."""
    engine = _cosets(code)
    if engine is None:
        raise ValueError(f"{code!r} is not certified for the coset engine")
    n, q, neg = code.n, code.gf.q, code.gf.neg
    # coset 0's counts that are not live: L = 0, but for the constant word
    # 1, and each L in [2·q^r, q^(r+1)), whose top digit is not 1
    dead = (1 << n) - 1 ^ sum(((1 << q**r) - 1) << q**r for r in range(engine.delta))
    counts: Counter = Counter()
    best, hits = n + 1, []
    for hs, g in engine.feed():
        bc = engine.transform(g, len(hs))
        s = reduce(_add, bc)
        lives = [engine.shape(len(hs))[0]] * q  # S's live counts, then B_c's for c = 1..q-1
        if hs[0] == 0:  # coset 0 leads the batch, and its constant word 1 is B_{-1}'s L = 0
            lives = [lives[0] ^ dead] * q
            lives[neg(1)] |= 1
        if mode == "dist":
            counts.update(engine.weights(bc, s, lives))
            continue
        # (weight, lanes, b) of each array's least weight: S's least count
        # and each B_c's greatest
        v, lanes = next(_levels(s, lives[0]))
        ends = [(v, lanes, 0)]
        for c, x in zip(range(1, q), bc):
            v, lanes = next(_levels(x, lives[c], descending=True))
            ends.append((n - v, lanes, neg(c)))
        least = min(end[0] for end in ends)
        if mode == "min" or least > best:
            best = min(best, least)
            continue
        if least < best:
            best, hits = least, []
        # count `at` is the word g + L·x + b of coset at // n, L = at % n
        hits += sorted(
            (hs[at // n] * n + at % n) * q + b for w, lanes, b in ends if w == least for at in _positions(lanes)
        )
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

    The scan's hits, the messages m with top coefficient 1, come in index
    order, so for q = 2 their words are the list.  For q > 2 the hits with
    top row r are the run in [q^r, 2·q^r), and their multiples c·m fill
    [c·q^r, (c+1)·q^r): per top row, the run's own words, then for each
    c = 2..q-1 the words c·m, ordered by the r + 1 digits of c·m, top
    first, which are the hit's digits times c.

    The hits are counted against the points cap, (q - 1)·n entries each,
    before any word is stored or unpacked.  They are packed by one walker
    (_Lanes.stored), from each hit's word to the next, that reads no
    table, with the code's one lane packing, whichever route scanned.  The
    list is made on every call and kept nowhere else, so it is freed with
    the caller's reference."""
    hits = _scan(code, "words")[2]
    q, n = code.gf.q, code.n
    limits.ensure("points", len(hits) * (q - 1) * n, f"listing the minimum weight words of {code!r}")
    lanes = _lanes(code)
    words = list(map(lanes.unpack, lanes.stored(hits)))
    if q == 2:
        return words
    times, out = lanes.times(), []
    start, r = 0, 0
    while start < len(hits):
        end = bisect_left(hits, q ** (r + 1), start)
        run = words[start:end]
        # each hit's r + 1 base-q digits, one column per digit from the
        # lowest, read back as a key per hit, top digit first
        rest, columns = hits[start:end], []
        for _ in range(r + 1):
            columns.append([x % q for x in rest])
            rest = [x // q for x in rest]
        digits = list(map(lanes.box, zip(*reversed(columns))))
        out += run
        for c in range(2, q):
            keys = list(map(times[c], digits))
            out += [times[c](run[i]) for i in sorted(range(len(run)), key=keys.__getitem__)]
        start, r = end, r + 1
    return out
