"""Uniform-morphism presentations of block-counting sequences.

For every base p >= 2, prime or not, the sequence (a_{p;w}(n)) is
p-automatic, so it arises as a coding of the fixed point of a p-uniform
substitution.  This module constructs that presentation exactly, from
the pattern alone, and holds it as read-only numpy arrays: the S x p
letters of the substitution and the S codes of its coding.

Read the digits of n most-significant first through the
Knuth-Morris-Pratt automaton of w while counting completed matches mod
p: the count in the state (KMP state, count mod p) reached after the
last digit is a(n).  A start state stands for n = 0 before any digit;
it loops on 0 (leading zeros do not change n) and its code is a(0).
Reading one more digit j maps the block of values a(s*p^d + v),
0 <= v < p^d, onto its j-th sub-block, so the automaton's transitions
are a p-uniform substitution, its outputs a coding, and the start
letter's image begins with itself.

The minimal automaton is known in closed form (Knuth, Morris & Pratt,
1977; Allouche & Shallit, *Automatic Sequences*, ch. 5): the states
(q, c) for KMP states q < |w|, plus the start state only when w_0 = 0,
so |w|*p + [w_0 = 0] letters.  The letters are the states themselves:
letter q*p + c is (q, c) and codes c, so every letter but a zero-led
w's start has KMP state letter // p and count letter % p.  The start
letter is 0, the state (0, 0), when w_0 != 0, and |w|*p, the last
letter, when w_0 = 0.

* The full-match state (|w|, c) has the transitions and code of
  (fail, c), fail being the KMP state after w[1:], so it folds into it.
* (q, c) and (q', c') with c != c' differ on the empty word.
* For (q, c) and (q', c) with q != q', take the shortest word that
  tells q from q' in the KMP automaton of the words ending in w.  The
  counts agree on every proper prefix of it, and only one side completes
  a match at its last digit, so the counts differ by 1, which is nonzero
  mod any p >= 2.
* If w_0 != 0, the start state is (0, 0).  Otherwise it loops on 0 and
  reads a nonzero digit as (0, 0) does.  Against a (q, c) with its code,
  the word 0^(|w|-q), for w = 0^|w|, or 0^|w| w[z:], for w with z < |w|
  leading zeros (after 0^|w| every (q, c) sits at (z, c), and w[z:] is
  too short to match from (0, 0)), completes one match from (q, c) and
  none from the start.
* Every state is reachable: the start reaches (0, 0) on a digit d != 0
  or is (0, 0).  For a digit d != w_0, w d^|w| takes (0, c) to
  (0, c + 1), because w cannot overlap a run of d's, and w[:q] takes
  (0, c) to (q, c).

The coded fixed point x of mu is its own image, and the image of the
start letter under mu^d begins with itself, so mu^d has the same fixed
point (Cobham, "Uniform tag sequences", 1972) and, with P = p^d,
x[:n] = mu^d(x[:ceil(n / P)])[:n].  `_prefix` applies that identity
recursively, down to x[:1], the start letter, and each level is one
whole-row gather through the letters of mu^d.  `expand_fixed_point`
runs on mu^d for the least d with P >= 4, so each gathered letter
yields at least 4 letters: mu^2 for p = 2 and 3, and mu itself from
p = 4 on.  Its last gather reads the codes of the images instead of
the letters, and it is the one place a code is narrowed: codes of
p > 256 are uint16 and go into the uint8 output one chunk at a time,
refusing a code past 255.  `fixed_point_mismatch` is `verify`'s check
of the window.  It runs on its own wider table, the rows of mu^e for
the least e with P = p^e >= 64 whose letter table fits in 64 KiB
(P = 64 for p = 2, 81 for p = 3, 125 for p = 5, and p itself from
p = 64 on, where it is the expansion's table), so each gathered index
codes at least 64 terms where the cap allows.  It builds
x[:ceil(N / P)] for N terms, about N / (P - 1) letters in all levels,
codes those letters' images one reused chunk of 64 KiB of codes at a
time, in the codes' own dtype, and compares each with the window in
place, the flags written over the chunk, so it holds that level and one
chunk, never a second output.  The expansion keeps its
narrower rows, so the generators' timings are not moved.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidBaseError
from .words import PatternSpec

__all__ = [
    "UniformMorphism",
    "build_morphism",
    "expand_fixed_point",
    "fixed_point_mismatch",
]


# `fixed_point_mismatch` codes rows of at least CHECK_WIDTH letters, so
# each np.take index yields that many terms, where the letter table of
# the next power of mu fits in CHECK_TABLE_BYTES.
CHECK_WIDTH = 64
CHECK_TABLE_BYTES = 1 << 16
# Bytes of codes per chunk of `fixed_point_mismatch`: 2^16 terms for
# uint8 codes, half as many for uint16 (p > 256).
CHECK_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class UniformMorphism:
    """A width-p substitution over abstract letters 0..S-1 with an output
    coding and a start letter whose image begins with itself."""

    width: int
    substitution: np.ndarray  # S x width letters, uint8 if S <= 256 else int64
    coding: np.ndarray        # S digits in [0, width), least dtype for width-1
    start: int

    def __post_init__(self):
        rows, codes = np.asarray(self.substitution), np.asarray(self.coding)
        if rows.dtype.kind not in "iu" or codes.dtype.kind not in "iu":
            raise ValueError("letters and codes must be integers")
        if rows.ndim != 2 or rows.shape[1] != self.width:
            raise ValueError("substitution is not uniform")
        s = len(rows)
        if codes.shape != (s,):
            raise ValueError("coding and substitution disagree on alphabet size")
        if not 0 <= self.start < s or rows[self.start, 0] != self.start:
            raise ValueError("start letter outside alphabet or not prolongable")
        # cast to uint64, a negative value wraps past the bound
        if rows.astype(np.uint64).max() >= s:
            raise ValueError(f"letter outside alphabet [0, {s})")
        if codes.astype(np.uint64).max() >= self.width:
            raise ValueError(f"coding digit outside [0, {self.width})")
        rows = rows.astype(np.uint8 if s <= 256 else np.int64)
        codes = codes.astype(np.min_scalar_type(self.width - 1))
        rows.flags.writeable = codes.flags.writeable = False
        object.__setattr__(self, "substitution", rows)
        object.__setattr__(self, "coding", codes)

    @property
    def alphabet_size(self) -> int:
        """S, the number of letters; the benchmark tracer records it as
        the size of each `build_morphism` call."""
        return len(self.substitution)

    @cached_property
    def _tables(self) -> tuple:
        """(letters, codes) of mu^d, for d the least power with p^d >= 4,
        built once and read-only: the rows of mu^d, p^d letters each (mu's
        own from p = 4 on), and coding[letters], the codes of every image."""
        rows = table = self.substitution
        while table.shape[1] < 4:  # mu^(d+1)(s) is mu applied to mu^d(s)
            table = rows[table].reshape(len(rows), -1)
        coded = self.coding[table]
        table.flags.writeable = coded.flags.writeable = False
        return table, coded

    @cached_property
    def _check_tables(self) -> tuple:
        """(letters, codes) of mu^e for `fixed_point_mismatch`, built once
        and read-only: `_tables` extended by one more application of mu
        at a time while its rows are under CHECK_WIDTH letters and the
        next letter table, S x P*p letters, fits in CHECK_TABLE_BYTES.
        Where nothing is extended (from p = CHECK_WIDTH on, or where the
        cap binds at once) it is `_tables` itself, so no second table is
        built."""
        rows = self.substitution
        table = self._tables[0]
        while (table.shape[1] < CHECK_WIDTH
               and table.nbytes * self.width <= CHECK_TABLE_BYTES):
            table = rows[table].reshape(len(rows), -1)
        if table is self._tables[0]:
            return self._tables
        coded = self.coding[table]
        table.flags.writeable = coded.flags.writeable = False
        return table, coded


def _kmp_automaton(w: tuple, p: int) -> tuple:
    """(delta, fail): delta[q][d], for 0 <= q < |w|, is the length of the
    longest prefix of w that is a suffix of w[:q] followed by d, and fail
    is the state after reading w[1:], whose row state |w| would repeat."""
    k = len(w)
    delta = [[0] * p for _ in range(k)]
    delta[0][w[0]] = 1
    fail = 0  # the state reached by reading w[1:q]
    for q in range(1, k):
        delta[q] = list(delta[fail])
        delta[q][w[q]] = q + 1
        fail = delta[fail][w[q]]
    return delta, fail


def build_morphism(spec: PatternSpec) -> UniformMorphism:
    """Build the p-uniform morphism + coding whose coded fixed point is
    (a_{p;w}(n)): the minimal automaton of the sequence, constructed from
    the pattern alone.  Letter q*p + c is the state (q, c) and codes c;
    the start letter is 0 for a nonzero-led w and |w|*p for a zero-led w.
    A base past sys.maxsize raises InvalidBaseError: no list or array
    holds its p transitions per state.
    """
    p, w, k = spec.base, spec.pattern, spec.width
    if p > sys.maxsize:
        raise InvalidBaseError(f"base {p}: a morphism is built only up to "
                               f"base {sys.maxsize}")
    delta, fail = _kmp_automaton(w, p)
    nxt = np.array(delta)  # KMP state after each digit
    hit = nxt == k         # the digit completes a match
    # state q*p + c goes on digit d to nxt[q, d]*p + c, or to
    # fail*p + (c + 1) % p where the digit completes a match
    c = np.arange(p)[:, None]
    trans = (np.where(hit, fail, nxt)[:, None] * p
             + (c + hit[:, None]) % p).reshape(-1, p)
    start = 0
    if w[0] == 0:
        # a start state: it reads digits as state (0, 0) does, but loops on 0
        start = k * p
        trans = np.concatenate([trans, trans[:1]])
        trans[start, 0] = start
    coding = np.arange(len(trans)) % p  # state q*p + c codes its count c
    coding[start] = w == (0,)  # the start codes a(0) = [w = "0"]
    return UniformMorphism(p, trans, coding, start)


# Terms per np.take gather in `_gather`, and per chunk of wide codes
# that `expand_fixed_point` narrows.  np.take copies its indices to
# int64, so gathering a whole level at once would need 8 scratch bytes
# per letter read.
TAKE_CHUNK = 1 << 15


def _gather(table: np.ndarray, seq: np.ndarray) -> np.ndarray:
    """table[seq]: the rows of `table` that `seq` selects, P letters
    each, laid end to end in one new array of seq.size * P letters in
    the table's dtype, filled by np.take TAKE_CHUNK // P rows at a
    time.  Callers slice the result."""
    p = table.shape[1]
    step = max(1, TAKE_CHUNK // p)
    out = np.empty((seq.size, p), dtype=table.dtype)
    for lo in range(0, seq.size, step):
        # every letter is a valid row, and "clip" skips the bounds check
        # and the buffering of `out` that the default mode needs
        np.take(table, seq[lo:lo + step], axis=0, out=out[lo:lo + step],
                mode="clip")
    return out.reshape(-1)


def _prefix(table: np.ndarray, start: int, n: int) -> np.ndarray:
    """x[:n], n >= 1, for x the fixed point of the power of mu whose
    rows, P letters each, `table` holds: x is its own image, so x[:n]
    is the first n letters of the rows of x[:ceil(n / P)]."""
    if n == 1:
        return np.array([start], dtype=table.dtype)
    return _gather(table, _prefix(table, start, -(-n // table.shape[1])))[:n]


def fixed_point_mismatch(mu: UniformMorphism, x: np.ndarray) -> tuple | None:
    """Check a candidate prefix x against the coded fixed point of mu.
    Return (n, the coded term there) for the least index n where they
    differ, or None.

    It runs on the rows of `UniformMorphism._check_tables`, mu^e with
    P = p^e >= CHECK_WIDTH letters where the letter table fits in
    CHECK_TABLE_BYTES (64 for p = 2, 81 for p = 3, 125 for p = 5, and
    p itself from p = CHECK_WIDTH on), which has the same fixed point
    as mu.  The coded fixed point's first len(x) terms are the codes of
    the rows of its first ceil(len(x) / P) letters, which `_prefix`
    builds.  Those rows are coded CHECK_CHUNK bytes at a time (2^16
    terms for uint8 codes, half as many for uint16), whole rows, into
    one reused chunk in the codes' own dtype.  The chunk is compared
    with the matching slice of x in place, each code's first byte
    overwritten by whether it differs, and one `any` tells whether one
    does; the term at the first that does is read again from the codes.
    So the check holds that level, about len(x) / (P - 1) letters, and
    one chunk, never a second output or a temporary per chunk, and
    narrows no code: a reachable code past 255 is reported as it is.
    An empty x passes.  Anything but a uint8 array raises TypeError, as
    in `words.recursion_mismatch`: a list has no uint8 terms to compare,
    and a wider array's terms would be compared as ints.
    """
    if not isinstance(x, np.ndarray) or x.dtype != np.uint8:
        raise TypeError("the candidate must be a uint8 array")
    table, coded = mu._check_tables
    width = coded.shape[1]
    # an empty x is compared with the empty head of the start letter's row
    seq = _prefix(table, mu.start, max(1, -(-len(x) // width)))
    step = max(1, CHECK_CHUNK // coded.itemsize // width)
    rows = np.empty((min(step, seq.size), width), dtype=coded.dtype)
    for q in range(0, seq.size, step):
        letters = seq[q:q + step]
        want = x[q * width:(q + letters.size) * width]
        got = np.take(coded, letters, axis=0, out=rows[:letters.size],
                      mode="clip").reshape(-1)[:want.size]
        # each code's first byte holds whether it differs
        ne = got.view(bool)[::coded.itemsize]
        np.not_equal(got, want, out=ne)
        if ne.any():
            i = int(ne.argmax())
            return q * width + i, int(coded[letters[i // width], i % width])
    return None


def expand_fixed_point(mu: UniformMorphism, n_terms: int) -> np.ndarray:
    """First n_terms letters of the fixed point, coded, as uint8.

    The start letter's image under mu begins with itself, so its image
    under mu^d does too, and mu^d has the same fixed point x: x is its
    own image, so x[:n] = mu^d(x[:ceil(n / P)])[:n] with P = p^d.  The
    expansion runs on the rows of mu^d from `UniformMorphism._tables`,
    with d the least power such that P >= 4 (mu^2 for p = 2 and 3, mu
    itself from p = 4 on), so every gathered letter yields at least 4
    letters of the next level.  `_prefix` builds x[:ceil(n_terms / P)]
    by that identity, each level gathered from the one before by
    `_gather`, a chunked np.take of the rows, so about
    n_terms * P / (P - 1) letters are gathered in all; the last gather
    reads the codes of those letters' images.  Codes of p <= 256 are
    uint8 and are returned as gathered.  Wider codes (p > 256, uint16)
    are the one place a code is narrowed: one chunk of rows at a time,
    refusing a code past 255, so the output holds one chunk of wide
    codes beside it.  `fixed_point_mismatch` checks a given prefix
    instead, coding its own level chunk by chunk through the wider rows
    of `UniformMorphism._check_tables`.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    table, coded = mu._tables
    width = coded.shape[1]
    seq = _prefix(table, mu.start, -(-n_terms // width))
    if coded.dtype == np.uint8:
        return _gather(coded, seq)[:n_terms]
    out = np.empty(n_terms, dtype=np.uint8)
    step = max(1, TAKE_CHUNK // width)
    for q in range(0, seq.size, step):
        dest = out[q * width:(q + step) * width]
        wide = _gather(coded, seq[q:q + step])[:dest.size]
        # a(n) counts at most the 63 windows of n, but a morphism built
        # elsewhere may code a reachable letter past 255: refuse, never wrap
        if wide.max() > 255:
            raise ValueError("coded fixed point holds a digit above 255")
        dest[:] = wide
        del wide  # so the next chunk is not taken beside this one
    return out
