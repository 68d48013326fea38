"""Base-m digit words and the brute-force counting oracle.

The object of study is the block-counting sequence: for a base m >= 2 and
a digit word w, e_{m;w}(n) is the number of (possibly overlapping)
occurrences of w in the base-m expansion of n, and a_{m;w}(n) is that
count reduced mod m.  a_{2;1} is the Thue-Morse sequence and a_{2;11} is
the Rudin-Shapiro sequence.

Everything here is exact integer arithmetic.  Two independent oracle
paths are provided: a scalar one built on digit strings (`e_count`,
`a_value`) and a vectorized one built on numpy digit windows.  Its
`a_batch` takes arbitrary indices and walks each index's windows by
carrying its quotient n // m^j in a narrow unsigned dtype; its
`a_prefix` takes the first N indices and fills them in ascending blocks
by the digit recursion e(n) = [the expansion of n ends in w] + e(n // m),
testing only each index's lowest window.  Both count a zero-led window
only where it fits inside the expansion, and neither uses an automaton
or the doubling.  `recursion_mismatch` checks another generator's
output x against the same recursion with every term it reads taken
from x, so `verify` checks x without building a second output: below
the row head term by term, and past it by whole rows of m^K terms, each
a row of one table picked by the row's parent and its border class
(the row identity that `RowTable` states, which `windows._row_chunks`
builds its rows from too).  By strong induction the least index that
fails is the least one where x is wrong, and the check gives the true
a(n) there.  It tests no index on its own.
The scalar path is the ground truth for tests; the vectorized path is
the workhorse the rest of the package validates against, and `a_batch`
is the independent check of `a_prefix`.  The package's text renderers
live here too.  They render in numpy only what a sequence value can
be: a(n) is at most the number of digits of n, so every value is one
decimal digit for m <= 10, and for any m at every n below m^9.
`digit_string` writes one-digit values into one uint8 row each (the
digit, and a space above base 10) in one add.  `indexed_rows` yields
the "index value" lines of a sequence that comes in chunks of values
of any length, as text chunks cut at the edges of the value chunks and
of the blocks of a template of at most 10^4 index rows tiled from the
ten digits: one block per index digit count below 10^4, and from 10^4
on one per 10^4 indices, each starting on a multiple of 10^4.  Per
digit count it builds the template once, each text chunk is a slice of
its rows, and each later one writes over them only the high index
digits that changed and the values.  So `generate` renders `bfile` and
`table` text from about N/L bytes of parents, one row chunk and one
template block.  Either renderer writes a piece that holds a value of
10 or more line by line in Python, and refuses a value that is negative
or not an integer, which its uint8 cast would misread.

Conventions, fixed deliberately and relied on throughout:

* the expansion of 0 is the single digit "0" (not the empty word), so
  a_{2;0}(0) = 1;
* expansions of n > 0 carry no leading zeros;
* digits are stored most-significant first.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidBaseError, InvalidPatternError

# Indices of the vectorized oracle stay below 2^62: such an index has at
# most 62 digits, so its window counts fit in uint8.
MAX_INDEX = 2 ** 62


# The first 13 primes: as Miller-Rabin witnesses they decide every
# n < psi_13 = 3,317,044,064,679,887,385,961,981; the first 12 alone
# decide only n < psi_12 = 318,665,857,834,031,151,167,461 (Sorenson and
# Webster, Math. Comp. 86, 2017).
WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality below WITNESS_BOUND, by deterministic Miller-Rabin
    with WITNESSES.  An n at or past the bound raises ValueError, as the
    witnesses do not decide it."""
    if n >= WITNESS_BOUND:
        raise ValueError(f"primality is decided only below {WITNESS_BOUND}")
    if n < 2:
        return False
    for p in WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0  # n - 1 = d * 2^s with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in WITNESSES:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


# An index template holds the low digits of 10^TEMPLATE_DIGITS indices.
TEMPLATE_DIGITS = 4


def _template(d: int, width: int | None, sep: bytes) -> np.ndarray:
    """The row matrix of the lines "index sep value" of d-digit indices:
    one row for each k = min(d, TEMPLATE_DIGITS) low digits 0, ...,
    10^k - 1, holding the leading spaces, those k digits zero-padded,
    `sep` and the newline, but not the d - k high digits or the value.
    Low digit column c repeats each of the ten digits 10^(k-1-c) times
    and tiles that run 10^c times."""
    low = min(d, TEMPLATE_DIGITS)
    high_at = (width or d) - d  # the index's first column
    value_at = high_at + d + len(sep)
    # spaces first, in one contiguous fill: the leading spaces and a
    # blank `sep` need no write of their own, as slices with a few
    # columns per row are slow to write
    rows = np.full((10 ** low, value_at + 2), ord(" "), dtype=np.uint8)
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    # one column at a time: one (rows, k) slice is slower
    for c in range(low):
        rows[:, high_at + d - low + c] = np.tile(
            np.repeat(ten, 10 ** (low - 1 - c)), 10 ** c)
    if sep.strip(b" "):
        rows[:, value_at - len(sep):value_at] = np.frombuffer(sep, np.uint8)
    rows[:, -1] = ord("\n")
    return rows


def _integers(values) -> np.ndarray:
    """values as an array (an ndarray subclass kept as it is).  A
    non-empty one that holds anything but integers or bools raises
    TypeError: a renderer's uint8 cast would truncate 1.9 to 1."""
    values = np.asanyarray(values)
    if values.size and values.dtype.kind not in "biu":
        raise TypeError(f"values must be integers, not {values.dtype}")
    return values


def indexed_rows(chunks, width: int | None, sep: bytes):
    """The lines "index sep value" for the values that the arrays in
    `chunks` hold in turn, indexed 0, 1, ..., yielded as text chunks.
    The index is right-aligned in `width` columns, or unpadded when
    width is None.  A chunk of values may be a buffer its source reuses:
    it is read before the next one is asked for.  So `generate`, which
    feeds it the row chunks of `windows._row_chunks`, holds about N/L
    bytes of parents, one row chunk and one template block, at any N.

    Each text chunk is the piece of one value chunk that lies in one
    block of the index template: below 10^4 one block per index digit
    count, and from 10^4 on one per 10^4 indices starting on a multiple
    of 10^4.  A block that straddles two value chunks comes out as two
    pieces, whose text joins to the block's.  A piece of one-digit
    values takes the numpy path, as every piece of a sequence a_{m;w}
    does for m <= 10, and below m^9 terms for any m (a(n) is at most
    the number of digits of n).  The first such piece of a digit count
    builds its row matrix (`_template`), whose rows each later piece of
    that digit count reuses: it writes over them only its values and
    those high index digits that differ from the ones the rows hold.
    Each value chunk is tested for a value of 10 or more once, and only
    the pieces of a chunk that holds one are tested again: a piece
    holding one is written line by line instead.  A negative value
    raises ValueError, and a value that is not an integer TypeError,
    before any text of its value chunk is yielded.
    """
    line = f"{{:>{width or 0}}}{sep.decode()}{{}}\n".format
    lo = d = 0  # the next index; the index digit count of `rows`
    for chunk in chunks:
        chunk = _integers(chunk)
        # checked before the unsafe cast to uint8, where -1 would read
        # as "/"
        if chunk.size and chunk.dtype.kind not in "bu" and chunk.min() < 0:
            raise ValueError("values must be non-negative")
        wide = bool(chunk.size) and chunk.max() >= 10
        at = 0
        while at < len(chunk):
            if len(str(lo)) != d:
                d = len(str(lo))
                block = 10 ** min(d, TEMPLATE_DIGITS)
                high_at = (width or d) - d  # the index's first column
                value_at = high_at + d + len(sep)
                rows = held = None  # the row matrix and its high digits
            # to the end of lo's block or of the chunk
            values = chunk[at:at + block - lo % block]
            first, lo = lo, lo + len(values)
            at += len(values)
            if wide and values.max() >= 10:
                yield "".join(map(line, range(first, lo), values.tolist()))
                continue
            if rows is None:
                rows = _template(d, width, sep)
            if d > TEMPLATE_DIGITS:
                # high digits one column at a time, over every row, so
                # `held` is true of all of them
                high = str(first // block)
                for col, digit in enumerate(high):
                    if held is None or held[col] != digit:
                        rows[:, high_at + col] = ord(digit)
                held = high
            out = rows[first % block:first % block + len(values)]
            np.add(values, ord("0"), out=out[:, value_at], casting="unsafe")
            # decodes the buffer, no bytes copy
            yield str(out, "ascii")


def digit_string(digits, base: int) -> str:
    """Render a digit vector: concatenated for base <= 10, else
    space-separated.  A digit outside [0, base) raises ValueError, and
    one that is not an integer TypeError.  One-digit values are written
    into one uint8 row per value, in one numpy add, so no Python string
    is built per value; a vector holding a wider one is written value
    by value."""
    digits = _integers(digits)
    high = int(digits.max()) if digits.size else 0
    # checked before the cast to uint8, where 256 would read as 0
    if high >= base or (digits.size and digits.dtype.kind not in "bu"
                        and digits.min() < 0):
        raise ValueError(f"digits must lie in [0, {base})")
    sep = " " if base > 10 else ""
    if high >= 10:
        return sep.join(map(str, digits.tolist()))
    rows = np.empty((digits.size, 1 + len(sep)), dtype=np.uint8)
    np.add(digits, ord("0"), out=rows[:, 0], casting="unsafe")
    rows[:, 1:] = ord(" ")
    return str(rows, "ascii")[:rows.size - len(sep)]


# The rows of the identity a(sL + r) = (U[r] + a(s) + cut terms) mod m
# (`RowTable`, L = m^K by `PatternSpec.row_digits`): at most ROW_CAP
# terms each, unless m is more, with the table of border classes at most ROW_CHUNK bytes below
# m = 64, and ROW_CHUNK // L rows per chunk of `windows._row_chunks`.
ROW_CAP = 1 << 12
ROW_CHUNK = 1 << 16


@dataclass(frozen=True)
class PatternSpec:
    """The pair (base m, pattern word w); the universal parameter object.

    `base` is normalized to an int and `pattern`, a digit sequence or a
    digit string (ASCII digits, or above base 10 decimal numbers
    separated by ASCII space, tab, newline, carriage return, vertical
    tab or form feed), to a tuple of ints.  A base or digit that is not an
    integer (2.5, or a digit of 1.9) is rejected, never truncated, and so
    is the empty pattern.
    """

    base: int
    pattern: tuple = field()

    def __post_init__(self):
        try:
            base = operator.index(self.base)
        except TypeError as exc:
            raise InvalidBaseError(
                f"base must be an integer, got {self.base!r}") from exc
        if base < 2:
            raise InvalidBaseError(f"base must be >= 2, got {base}")
        object.__setattr__(self, "base", base)
        p = self.pattern
        try:
            if isinstance(p, str):
                if not p.isascii():
                    raise ValueError(p)
                # bytes.split() cuts only at ASCII space, \t, \n, \r, \v
                # and \f; str.split() also cuts at \x1c-\x1f
                tokens = p if base <= 10 else p.encode("ascii").split()
                # int() alone also takes "1_0", "+5" and non-ASCII digits
                if not all(t.isdigit() for t in tokens):
                    raise ValueError(p)
                p = tuple(int(t) for t in tokens)
            else:
                p = tuple(operator.index(d) for d in p)
        except (TypeError, ValueError) as exc:
            raise InvalidPatternError(
                f"pattern {self.pattern!r} is not a digit sequence") from exc
        if len(p) == 0:
            raise InvalidPatternError("empty pattern is not allowed")
        for d in p:
            if not 0 <= d < base:
                raise InvalidPatternError(
                    f"pattern digit {d} out of range for base {base}")
        object.__setattr__(self, "pattern", p)

    @property
    def modulus_is_prime(self) -> bool:
        """Whether the base is prime.  A base at or past WITNESS_BOUND
        raises InvalidBaseError, as `is_prime` does not decide it."""
        try:
            return is_prime(self.base)
        except ValueError as exc:
            raise InvalidBaseError(f"base {self.base}: {exc}") from exc

    @property
    def width(self) -> int:
        """|w|, the pattern length."""
        return len(self.pattern)

    @property
    def value(self) -> int:
        """(w)_m, the pattern read as a base-m integer."""
        return from_base(self.pattern, self.base)

    @property
    def is_zero_word(self) -> bool:
        """True when the pattern starts with digit 0."""
        return self.pattern[0] == 0

    @property
    def first_end(self) -> int:
        """The least n whose base-m expansion ends in w: (w)_m, or
        (w)_m + m^|w| for a zero-led w of two or more digits, whose
        (w)_m is too short to hold w.  So the n whose expansion ends in
        w are exactly first_end + j * m^|w|, j >= 0."""
        short = self.is_zero_word and self.width > 1
        return self.value + (self.base ** self.width if short else 0)

    def row_head(self) -> int:
        """The terms below the first row of `RowTable`: L, or 2L for a
        zero-led w no wider than K, whose U reads a(L + r)."""
        K = self.row_digits()
        return self.base ** K * (2 if self.is_zero_word
                                 and K >= self.width else 1)

    def row_cuts(self) -> list:
        """(f_j, m^j, I_j) for each j in [max(1, |w| - K), |w|), the
        occurrences of w across the cut between s and r padded to K
        digits (see `RowTable`): w[:j] ends the expansion of s exactly
        for the s >= f_j with s = f_j mod m^j (f_j the `first_end` of
        w[:j]), and the padded r starts with w[j:] exactly for r in the
        slice I_j."""
        m, w, K = self.base, self.pattern, self.row_digits()
        cuts = []
        for j in range(max(1, len(w) - K), len(w)):
            width = m ** (K - len(w) + j)
            start = from_base(w[j:], m) * width
            cuts.append((PatternSpec(m, w[:j]).first_end, m ** j,
                         slice(start, start + width)))
        return cuts

    def row_digits(self) -> int:
        """K for the rows of L = m^K terms of `RowTable`: the largest
        with L at most ROW_CAP whose table of border classes, min(|w|,
        K + 1) * m rows of L bytes, fits in ROW_CHUNK below m = 64; at
        least 1, so L = m where no larger power fits (m itself past
        ROW_CAP)."""
        return _row_digits(self.base, self.width, ROW_CAP, ROW_CHUNK)

    def row_table(self, prefix: np.ndarray) -> "RowTable":
        """The rows of L = m^K terms past the head, with U read from
        `prefix` (see `RowTable`)."""
        return RowTable(self, prefix)

    def __str__(self) -> str:
        return f"m={self.base} w={digit_string(self.pattern, self.base)}"


@functools.lru_cache(maxsize=None)
def _row_digits(m: int, k: int, cap: int, chunk: int) -> int:
    """`PatternSpec.row_digits` at ROW_CAP = cap and ROW_CHUNK = chunk,
    kept per (m, |w|), since each row check and row generator asks for
    it a few times."""
    K = 1
    while m ** (K + 1) <= cap and (
            m >= 64 or min(k, K + 2) * m ** (K + 2) <= chunk):
        K += 1
    return K


class RowTable:
    """The rows s >= 1 of L = m^K terms of a_{m;w}, K being
    `PatternSpec.row_digits`.  With n = sL + r, s >= 1 and 0 <= r < L,
    the expansion of n is that of s followed by r padded to K digits, so

        a(sL + r) = (U[r] + a(s) + #{j in B(s) : r in I_j}) mod m.

    U[r] counts w in the padded r: 0 for K < |w|, else a(r), or a(L + r)
    for a zero-led w, which can start in the padding zeros that [r]_m
    lacks; U is read from `prefix`, which holds the terms below the head
    (`PatternSpec.row_head`).  The j, max(1, |w| - K) <= j < |w|, count
    the occurrences across the cut: j is in B(s) when w[:j] ends the
    expansion of s, that is s >= f_j and s = f_j mod m^j for f_j the
    `PatternSpec.first_end` of w[:j], and I_j is the slice of r whose
    padding starts with w[j:], m^(K-|w|+j) values
    (`PatternSpec.row_cuts`).  If J is the largest j in B(s), the others
    are the j < J with w[:j] a border of w[:J], so B(s) is fixed by J:
    one border class.  Below m = 64 `table` holds, in row c*m + v, the
    row (U + v + the cut terms of class c) mod m, class 0 having no j
    and class c >= 1 the c-th least j as its largest, and `fill` writes
    a chunk of rows with one np.take of it; from m = 64 on, where no
    count reaches m and nothing wraps, `table` is None and `fill` adds
    a(s) to U and one on the slices (B(s), I_j).  `chunk_rows` is
    ROW_CHUNK // L rows (at least one)."""

    def __init__(self, spec: PatternSpec, prefix: np.ndarray):
        m, w = spec.base, spec.pattern
        K = spec.row_digits()
        L = m ** K
        if K < len(w):
            u = np.zeros(L, dtype=np.uint8)
        else:
            u = prefix[L:2 * L] if spec.is_zero_word else prefix[:L]
        self.u = u
        cuts = spec.row_cuts()  # (f_j, m^j, I_j), j ascending
        self.chunk_rows = max(1, ROW_CHUNK // L)
        # per cut: f_j, m^j (capped past every index, so that a slice
        # takes it), the first table row of its class and I_j
        self._marks = [(f, min(step, MAX_INDEX), c * m, cols)
                       for c, (f, step, cols) in enumerate(cuts, 1)]
        self.table = None
        if m >= 64:
            return
        first = len(w) - len(cuts)  # the least j
        # border[i]: the longest proper border of w[:i + 1]
        border = [0] * len(w)
        for i in range(1, len(w)):
            b = border[i - 1]
            while b and w[i] != w[b]:
                b = border[b - 1]
            border[i] = b + (w[i] == w[b])
        ramp = np.arange(m, dtype=np.uint8)[:, None]
        table = np.empty(((len(cuts) + 1) * m, L), dtype=np.uint8)
        np.add(ramp, u, out=table[:m])
        _reduce_once(table[:m], m)  # every sum is below 2m
        for c, (_, _, cols) in enumerate(cuts, 1):
            # class c is the class of the longest border of w[:j] that is
            # a cut (class 0 if none is) plus one on I_j, j = first + c - 1
            b = border[first + c - 2]
            row = table[c * m]
            row[:] = table[(b - first + 1) * m if b >= first else 0]
            one = row[cols]
            one += 1
            _reduce_once(one, m)  # each term was below m
            block = table[c * m + 1:(c + 1) * m]
            np.add(ramp[1:], row, out=block)
            _reduce_once(block, m)
        self.table = table

    def fill(self, s0: int, parents: np.ndarray, out: np.ndarray) -> None:
        """Write the rows s0, ..., s0 + len(parents) - 1 (s0 >= 1) into
        out, their parents a(s) given.  A parent of m or more picks a
        wrong row (the np.take is clipped), but it is wrong at its own
        index, which comes first."""
        end = s0 + len(parents)
        if self.table is None:
            np.add(self.u, parents[:, None], out=out)
        else:
            pick = np.zeros(len(parents), dtype=np.intp)
        # the rows s in each S_j, j ascending: the largest is written last
        for f, step, at, cols in self._marks:
            s = f if f >= s0 else s0 + (f - s0) % step  # the first >= s0
            if s < end:
                if self.table is None:
                    out[s - s0::step, cols] += 1
                else:
                    pick[s - s0::step] = at
        if self.table is not None:
            pick += parents
            self.table.take(pick, axis=0, out=out, mode="clip")


def to_base(n: int, m: int) -> tuple:
    """Canonical base-m expansion of n, most-significant digit first.

    The expansion of 0 is the single digit "0"; expansions of n > 0 have
    no leading zero.
    """
    if m < 2:
        raise InvalidBaseError(f"base must be >= 2, got {m}")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return (0,)
    out = []
    while n:
        n, r = divmod(n, m)
        out.append(r)
    return tuple(reversed(out))


def from_base(digits, m: int) -> int:
    """Integer value of a base-m digit sequence; leading zeros are
    accepted."""
    n = 0
    for d in digits:
        n = n * m + d
    return n


def count_occurrences(v: tuple, w: tuple) -> int:
    """Number of (possibly overlapping) occurrences of the digit tuple w
    in v."""
    if len(w) == 0:
        raise InvalidPatternError("occurrence counting needs a non-empty pattern")
    k = len(w)
    return sum(1 for i in range(len(v) - k + 1) if v[i:i + k] == w)


def e_count(spec: PatternSpec, n: int) -> int:
    """Unreduced occurrence count of the pattern in the expansion of n."""
    return count_occurrences(to_base(n, spec.base), spec.pattern)


def a_value(spec: PatternSpec, n: int) -> int:
    """The block-counting sequence value a_{m;w}(n) = e_{m;w}(n) mod m."""
    return e_count(spec, n) % spec.base


def _mod(x: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """x mod d into `out`: a mask for a power of two, else x - (x // d) * d,
    because numpy divides an unsigned array by a scalar about ten times
    faster than it takes the remainder."""
    if d & (d - 1) == 0:
        return np.bitwise_and(x, d - 1, out=out)
    np.floor_divide(x, d, out=out)
    out *= d
    return np.subtract(x, out, out=out)


def a_batch(spec: PatternSpec, ns) -> np.ndarray:
    """Vectorized a_{m;w} over an arbitrary array of indices.

    Works windowwise, each index on its own: the length-|w| digit window
    starting j positions from the least-significant end is q mod m^|w|,
    where the quotient q = n // m^j is carried from one window to the
    next by q //= m, in uint32 when every index fits and uint64
    otherwise.  An occurrence is a window equal to (w)_m that also fits
    inside the canonical expansion (len([n]_m) >= j + |w|).  A window
    with a nonzero first digit always fits; a zero-led one fits when
    q >= m^(|w|-1), except that the units digit of every n fits, so the
    single "0" of n = 0 is counted.  Counts stay below the 63 windows of
    an index, so they are kept in uint8 and reduced mod m only for m < 64.
    Indices that are not integers (2.7) raise ValueError, never truncate.
    """
    ns = np.asarray(ns)
    if ns.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if ns.dtype.kind not in "biu":
        raise ValueError(
            f"indices must be integers below 2^62, not {ns.dtype}")
    # bounds are checked in the caller's dtype, so a uint64 index past
    # 2^63 reads as too large, not as negative
    if ns.dtype.kind == "i" and ns.min() < 0:
        raise ValueError("indices must be non-negative")
    m = spec.base
    k = spec.width
    wv = spec.value
    nmax = int(ns.max())
    if nmax >= MAX_INDEX:
        raise ValueError(f"index {nmax} too large for the vectorized oracle")

    # number of digits of the largest index
    ndig = 1
    while m ** ndig <= nmax:
        ndig += 1

    counts = np.zeros(ns.shape, dtype=np.uint8)
    if k > ndig or wv > nmax:  # no window can equal (w)_m
        return counts
    q = ns.astype(np.uint32 if nmax < 2 ** 32 else np.uint64)
    win = np.empty_like(q)
    hit = np.empty(ns.shape, dtype=bool)
    fits = np.empty(ns.shape, dtype=bool) if spec.is_zero_word else None
    mk = m ** k
    lead = m ** (k - 1)
    for j in range(ndig - k + 1):
        # q //= m before each window but the first: a second window means
        # m <= nmax, so m fits q's dtype, where after the last it may not
        if j:
            q //= m
        # once m^|w| > nmax (it may not fit the dtype) q is its own window
        window = q if mk > nmax else _mod(q, mk, win)
        np.equal(window, wv, out=hit)
        if fits is not None and j + k > 1:
            hit &= np.greater_equal(q, lead, out=fits)
        counts += hit
    return _mod(counts, m, np.empty_like(counts)) if m < 64 else counts


def _reduce_once(c: np.ndarray, m: int) -> None:
    """c mod m in place, for a uint8 c < 2m: c - m wraps above 192 for
    c < m and is c mod m from c = m on, so the lesser of c and c - m is
    c mod m.  A count stays below the 63 windows of an index, so from
    m = 64 on c < m already and nothing is done."""
    if m < 64:
        np.minimum(c, c - m, out=c)


# Terms per block in `a_prefix`.  A block's scratch is about 10
# bytes per term (18 past 2^32 terms); the block size also sets the
# oracle's speed, which criterion 11 ranks below the morphism leg's.
PREFIX_CHUNK = 1 << 16


def a_prefix(spec: PatternSpec, n_terms: int) -> np.ndarray:
    """First n_terms values of a_{m;w}, by the digit recursion.

    The expansion of n >= m is that of n // m followed by the digit
    n mod m, so e(n) = H(n) + e(n // m), where H(n) = 1 when the
    expansion of n ends in w: n = `PatternSpec.first_end` + j * m^|w|,
    j >= 0.  Those are the n with n mod m^|w| == (w)_m, less (w)_m
    itself where it is below first_end, too short to hold a zero-led w.
    Below m, e(n) = H(n), which also gives a(0) by the convention.
    Hence a(n) = (H(n) + a(n // m)) mod m, and the output
    is filled in ascending blocks [lo, hi) of at most PREFIX_CHUNK
    terms with hi <= m * lo, so a block reads only entries already
    written.  Each index is tested once, in a uint32 arange (uint64 past
    2^32); its parents are read with one np.repeat, and the block is
    reduced mod m in place, so peak memory is the n_terms output bytes
    plus one block of scratch.  `recursion_mismatch` checks a given
    prefix against the same recursion below the row head, and past it
    by whole rows of m^K terms (`RowTable`).
    """
    counts = np.empty(n_terms, dtype=np.uint8)
    m, wv = spec.base, spec.value
    mk = m ** spec.width
    size = min(PREFIX_CHUNK, n_terms)
    dtype = np.uint32 if n_terms <= 2 ** 32 else np.uint64
    win = np.empty(size, dtype=dtype)
    lo = 0
    while lo < n_terms:
        hi = min(n_terms, lo + PREFIX_CHUNK, m * lo if lo >= m else m)
        q = np.arange(lo, hi, dtype=dtype)
        c = counts[lo:hi]
        h = c.view(bool)  # H is written straight into the output
        # once m^|w| > hi - 1 (it may not fit the dtype) q is its own window
        np.equal(q if mk >= hi else _mod(q, mk, win[:q.size]), wv, out=h)
        # the one n = (w)_m mod m^|w| too short to end in w, if any
        if lo <= wv < hi and wv < spec.first_end:
            h[wv - lo] = False
        if lo >= m:  # add a(n // m): each parent stands for m indices
            parents = np.repeat(counts[lo // m:(hi - 1) // m + 1], m)
            c += parents[lo % m:lo % m + c.size]
            _reduce_once(c, m)  # a(n // m) < m, so c <= m
        lo = hi
    return counts


def recursion_mismatch(spec: PatternSpec, x: np.ndarray) -> tuple | None:
    """Check a uint8 candidate prefix x of a_{m;w}, reading every term it
    needs from x.  Return (n, a(n)) for the least index n that fails, or
    None.

    Below the row head (`PatternSpec.row_head`, L or 2L) it checks the
    digit recursion a(n) = (H(n) + a(n // m)) mod m of `a_prefix` in one
    pass, a(n) = H(n) below m; past it, the rows of L = m^K terms by the
    row identity that `RowTable` states.  By strong induction x = a on
    [0, N) iff no index fails, and the least failing n is the least n
    with x(n) != a(n): every term either rule reads from x (n // m, or
    s and U's r or L + r) lies below n and is right, so the rule gives
    a(n), here read from the failing row written again.  Each chunk of
    rows is one `RowTable.fill` from their parents (below m = 64 one
    np.take of the table of (border class, a(s)) rows, from m = 64 on
    one broadcast add and one on a few slices), one in-place compare
    with x and one `any`.  The table's bytes past m * L come out of the
    chunk of expected rows, ROW_CHUNK bytes less those, so the scratch,
    the table and one chunk, is at most ROW_CHUNK + m * L bytes.  No
    index is held in an array.  Anything but a uint8 array raises
    TypeError: a wider value would wrap in the uint8 scratch, where 256
    reads as 0.
    """
    if not isinstance(x, np.ndarray) or x.dtype != np.uint8:
        raise TypeError("the candidate must be a uint8 array")
    m, n_terms = spec.base, len(x)
    end = min(n_terms, spec.row_head())
    want = np.zeros(end, dtype=np.uint8)  # H(n)
    if spec.first_end < end:
        want[spec.first_end::min(m ** spec.width, end)] = 1
    if end > m:  # add a(n // m): each parent stands for m indices
        want[m:] += np.repeat(x[1:-(-end // m)], m)[:end - m]
        _reduce_once(want[m:], m)  # a right parent is below m
    bad = np.flatnonzero(x[:end] != want)
    if bad.size:
        return int(bad[0]), int(want[bad[0]])
    if end == n_terms:
        return None
    del want, bad  # freed before the rows' scratch is allocated
    row_table = spec.row_table(x)
    L = len(row_table.u)
    per = row_table.chunk_rows
    # the table's bytes past m * L come out of the chunk of expected rows
    if row_table.table is not None:
        per = max(1, per - len(row_table.table) + m)
    s_lo, s_hi = end // L, -(-n_terms // L)
    expected = np.empty((min(per, s_hi - s_lo), L), dtype=np.uint8)
    for s0 in range(s_lo, s_hi, per):
        s1 = min(s_hi, s0 + per)
        chunk = expected[:s1 - s0]
        row_table.fill(s0, x[s0:s1], chunk)
        n0 = s0 * L
        flat = chunk.reshape(-1)[:n_terms - n0]
        ne = flat.view(bool)
        np.not_equal(x[n0:n0 + len(flat)], flat, out=ne)
        if ne.any():
            s, r = divmod(n0 + int(ne.argmax()), L)
            row_table.fill(s, x[s:s + 1], chunk[:1])
            return s * L + r, int(chunk[0, r])
    return None
