"""Uniform-morphism presentations of block-counting sequences.

For every base p >= 2, prime or not, the sequence (a_{p;w}(n)) is
p-automatic, so it arises as a coding of the fixed point of a p-uniform
substitution.  This module constructs that presentation exactly, from
the pattern alone.

Read the digits of n most-significant first through the
Knuth-Morris-Pratt automaton of w while counting completed matches mod
p: the count in the state (KMP state, count mod p) reached after the
last digit is a(n).  A start state stands for n = 0 before any digit;
it loops on 0 (leading zeros do not change n) and its code is a(0).
Reading one more digit j maps the block of values a(s*p^d + v),
0 <= v < p^d, onto its j-th sub-block, so the automaton's transitions
are a p-uniform substitution, its outputs a coding, and the start
letter's image begins with itself.  After Moore minimization (initial
partition by code) the letters are the classes of states that no digit
string tells apart, numbered breadth-first from the start state with
children in digit order.  See Allouche & Shallit, *Automatic Sequences*,
section 5, and Moore (1956).

`expand_fixed_point` gathers the rows of mu^d, the d-th power of the
substitution, for the least d with p^d >= 4: the image of the start
letter under mu^d begins with itself, so mu^d has the same fixed point
as mu (Cobham, "Uniform tag sequences", 1972), and each gathered index
yields p^d letters instead of p.  That is mu^2 for p = 2 and 3, and mu
itself from p = 4 on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidPatternError
from .words import PatternSpec

__all__ = [
    "UniformMorphism",
    "build_morphism",
    "pure_single_letter_morphism",
    "expand_fixed_point",
]


@dataclass(frozen=True)
class UniformMorphism:
    """A width-p substitution over abstract letters 0..S-1 with an output
    coding and a start letter whose image begins with itself."""

    width: int
    substitution: tuple  # S rows, each a tuple of `width` letters
    coding: tuple        # S digits in [0, width)
    start: int

    def __post_init__(self):
        object.__setattr__(
            self, "substitution",
            tuple(tuple(int(x) for x in row) for row in self.substitution))
        object.__setattr__(self, "coding", tuple(int(c) for c in self.coding))
        s = len(self.substitution)
        if len(self.coding) != s:
            raise ValueError("coding and substitution disagree on alphabet size")
        for row in self.substitution:
            if len(row) != self.width:
                raise ValueError("substitution is not uniform")
            for letter in row:
                if not 0 <= letter < s:
                    raise ValueError(f"letter {letter} outside alphabet")
        for c in self.coding:
            if not 0 <= c < self.width:
                raise ValueError(f"coding digit {c} outside [0, {self.width})")
        if not 0 <= self.start < s:
            raise ValueError("start letter outside alphabet")
        if self.substitution[self.start][0] != self.start:
            raise ValueError("morphism is not prolongable from its start letter")

    @property
    def alphabet_size(self) -> int:
        return len(self.substitution)

    @cached_property
    def _tables(self) -> tuple:
        """(letters, codes) of mu^d, for d the least power with p^d >= 4,
        built once and read-only: the rows of mu^d as an array, p^d
        letters each, and coding[letters], the codes of every image."""
        dtype = np.uint8 if self.alphabet_size <= 256 else np.int64
        rows = np.array(self.substitution, dtype=dtype)
        table = rows
        while table.shape[1] < 4:  # mu^(d+1)(s) is mu applied to mu^d(s)
            table = rows[table].reshape(len(rows), -1)
        coded = np.array(self.coding, np.min_scalar_type(self.width - 1))[table]
        table.flags.writeable = coded.flags.writeable = False
        return table, coded


def _kmp_automaton(w: tuple, p: int) -> list:
    """The Knuth-Morris-Pratt automaton of w over digits [0, p):
    delta[q][d], for 0 <= q <= |w|, is the length of the longest prefix
    of w that is a suffix of w[:q] followed by d."""
    k = len(w)
    delta = [[0] * p for _ in range(k + 1)]
    delta[0][w[0]] = 1
    restart = 0  # the state reached by reading w[1:q]
    for q in range(1, k + 1):
        delta[q] = list(delta[restart])
        if q < k:
            delta[q][w[q]] = q + 1
            restart = delta[restart][w[q]]
    return delta


def build_morphism(spec: PatternSpec) -> UniformMorphism:
    """Build the p-uniform morphism + coding whose coded fixed point is
    (a_{p;w}(n)): the minimal automaton of the sequence, constructed from
    the pattern alone.

    States are (KMP state q, occurrence count c mod p), numbered q*p + c,
    plus a start state that stays put on the leading zeros of n = 0.
    Moore's refinement merges the states no digit string tells apart,
    and the classes are numbered in breadth-first order from the start
    state, children in digit order.
    """
    p, w, k = spec.base, spec.pattern, spec.width
    nxt = np.array(_kmp_automaton(w, p))  # KMP state after each digit
    start = (k + 1) * p
    # state q*p + c goes on digit d to nxt[q, d]*p + (c + [nxt[q, d] == k]) % p
    c = np.arange(p)[:, None]
    trans = (nxt[:, None] * p + (c + (nxt[:, None] == k)) % p).reshape(-1, p)
    # the start state reads a nonzero digit as state 0 (q = 0, c = 0) does
    trans = [*trans.tolist(), [start, *trans[0, 1:].tolist()]]
    # the expansion of 0 is the single digit "0", so a(0) = 1 only for w = "0"
    code = [s % p for s in range(start)] + [int(w == (0,))]

    # Moore: refine the partition by code until no class splits
    block, classes = code, len(set(code))
    while True:
        keys = {}
        block = [keys.setdefault((block[s], *(block[t] for t in trans[s])),
                                 len(keys))
                 for s in range(start + 1)]
        if len(keys) == classes:
            break
        classes = len(keys)

    letter = {block[start]: 0}
    reps = [start]   # one state per letter; the loop below visits appended ones
    substitution = []
    for s in reps:
        row = []
        for t in trans[s]:
            if block[t] not in letter:
                letter[block[t]] = len(reps)
                reps.append(t)
            row.append(letter[block[t]])
        substitution.append(row)
    return UniformMorphism(p, substitution, [code[s] for s in reps], start=0)


def pure_single_letter_morphism(p: int, x: int) -> UniformMorphism:
    """The explicit pure presentation for a single nonzero letter x:
    alphabet [0, p), identity coding, and the image of i equal to i
    everywhere except position x, which holds i+1 mod p."""
    if not 1 <= x <= p - 1:
        raise InvalidPatternError(
            f"single-letter pure morphism needs 1 <= x <= {p - 1}, got {x}")
    substitution = tuple(
        tuple((i + 1) % p if k == x else i for k in range(p)) for i in range(p))
    return UniformMorphism(p, substitution, tuple(range(p)), start=0)


# Terms per np.take gather in `expand_fixed_point`.  np.take copies its
# indices to int64, so gathering a whole level at once would need 8
# scratch bytes per letter read.
TAKE_CHUNK = 1 << 15


def _substitute(table: np.ndarray, seq: np.ndarray, n: int,
                dtype=None) -> np.ndarray:
    """The first n terms of the rows of `table` that `seq` selects,
    concatenated (n > (seq.size - 1) * p): the row gather table[seq],
    written by np.take into one buffer about TAKE_CHUNK terms at a time.
    With a narrower `dtype` than the table's, each gathered slice is
    checked to hold no value above 255 before it is narrowed."""
    p = table.shape[1]
    out = np.empty(seq.size * p, dtype=dtype or table.dtype)
    step = max(1, TAKE_CHUNK // p)
    narrow = out.dtype != table.dtype
    scratch = np.empty((min(step, seq.size), p), table.dtype) if narrow else None
    for lo in range(0, seq.size, step):
        rows = seq[lo:lo + step]
        dest = out[lo * p:(lo + rows.size) * p]
        # every letter is a valid row, and "clip" skips the bounds check
        # and the buffering of `out` that the default mode needs
        if not narrow:
            np.take(table, rows, axis=0, out=dest.reshape(-1, p), mode="clip")
            continue
        wide = np.take(table, rows, axis=0, out=scratch[:rows.size],
                       mode="clip").reshape(-1)[:n - lo * p]
        # a(n) counts at most the 63 windows of n, but a morphism built
        # elsewhere may code a reachable letter past 255: refuse, never wrap
        if wide.max() > 255:
            raise ValueError("coded fixed point holds a digit above 255")
        dest[:wide.size] = wide
    return out[:n]


def expand_fixed_point(mu: UniformMorphism, n_terms: int) -> np.ndarray:
    """First n_terms letters of the fixed point, coded.

    The start letter's image under mu begins with itself, so its image
    under mu^d does too, and mu^d has the same fixed point: level i of
    mu^d is level d*i of mu.  The expansion runs on the rows of mu^d
    from `UniformMorphism._tables`, with d the least power such that
    P = p^d >= 4 (mu^2 for p = 2 and 3, mu itself from p = 4 on), so
    every gathered letter yields at least 4 letters of the next level.
    Each level is a prefix of the next, and the level i steps before
    the output is cut to the ceil(n_terms / P^i) letters that the levels
    after it read, so about n_terms * P / (P - 1) letters are gathered
    in all, where expanding whole levels could build up to P times
    n_terms in the last one alone.  Each level is gathered from the one
    before by `_substitute`, a chunked np.take of the rows; the last
    gather reads the codes of every letter's image and writes the coded
    terms directly as uint8.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    table, coded = mu._tables
    width = table.shape[1]  # P = p^d
    lengths = []  # ceil(n_terms / P^i), down to the first one <= P
    n = n_terms
    while n > width:
        n = -(-n // width)
        lengths.append(n)
    seq = np.array([mu.start], dtype=table.dtype)
    for n in reversed(lengths):
        seq = _substitute(table, seq, n)
    return _substitute(coded, seq, n_terms, np.uint8)
