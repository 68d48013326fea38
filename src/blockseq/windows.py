"""Fast generation of block-counting sequences by window doubling.

The window transform phi_w increments (mod m) exactly the digits of a
word whose indices fall in [alpha*L, beta*L), where L is the word length
and alpha = (w')_m / m^(|w|-1), beta = ((w')_m + 1) / m^(|w|-1) with w'
the pattern minus its first letter.  With den = m^(|w|-1) and tail =
(w')_m the window is [tail*L/den, (tail+1)*L/den); every word the
generator transforms has length L = m^K with K >= |w| - 1, so both
bounds are exact integers.

One doubling step builds u_{k+1} from u_k.  With x the first letter of
the pattern,

    u_{k+1} = u_k^x phi(u_k) u_k^(m-x-1),

and u_{-1} = 0^den, so that u_0 (length m^|w|) is zeros with a single 1
at index (w)_m.  The blocks u_k are assembled into the sequence in one
of two ways:

* pattern starting with x != 0:  u_k converges to the sequence itself,
  so a prefix of u_k is the output;
* pattern starting with 0 (the step reads u_{k+1} = phi(u_k) u_k^(m-1)):
  the sequence is  w_{-1} w_0 w_1 ...  with chunks w_k = u_k^(m-1).

The leading chunk w_{-1} covers n in [0, m^|w|), where the expansion of
n is shorter than the pattern, so no occurrence fits and w_{-1} is all
zeros -- except for the single-letter pattern "0", whose one occurrence
in [0]_m = "0" forces w_{-1} = u_0.  (Stating the exception as "w_{-1} =
u_0 whenever the pattern is all zeros" overcounts at n = 0 for lengths
>= 2; the oracle-equivalence tests pin the version implemented here.)

Both assemblies are written level by level into one output buffer s
of N terms, which is never grown or concatenated.  Only its first m*den
terms are zeroed, since every later term is written before it is read;
a(0) = 1 is set first for the pattern "0".  Each level copies terms
already written forward in chunks of doubling length, then increments
one window in place, every write clipped at N:

* x != 0: u_k is s[:L].  Repeating it through s[:mL] and incrementing
  the window of the copy at xL leaves u_{k+1} = s[:mL].
* x = 0: u_k is s[L:2L] and s[L:mL] is the chunk w_k.  Repeating u_k
  through 2mL and incrementing the window of the copy at mL leaves
  u_{k+1} = s[mL:2mL]; repeating that through m^2 L writes w_{k+1}.

Both start from L = den, where s[:m*den] already holds u_{-1}^m (x != 0)
or w_{-1} = s[:den] u_{-1}^(m-1) (x = 0).  A level costs O(log m) numpy
calls, and nothing past N is materialized, so the peak is N bytes.

For m = 2, (c + 1) mod 2 is c ^ 1, so a level writes each term once:
the incremented copy is the source's window xor 1 and plain copies of
the rest (x != 0: s[L:2L] = phi(s[:L]); x = 0: s[2L:3L] = phi(s[L:2L])
and s[3L:4L] = s[L:2L]).

Those calls cost a few microseconds each whatever their length, so the
short levels, up to SEED_TERMS terms, are built first as bytes objects
by the same step (the window incremented by `bytes.translate`) and
copied into s once; the numpy levels go on from there.

The step and both assemblies are valid for composite m as well as
prime m.

`_row_chunks` yields the same terms a chunk at a time, holding about
N/L bytes of them instead of N, by the doubling step generalized to
every aligned block of L = m^K terms: the row identity a(sL + r) =
(U[r] + a(s) + cut terms) mod m that `words.RowTable` states, and that
`words.recursion_mismatch` checks a window with.  The `generate` and
`blocks` subcommands take their terms from it, so neither holds N
bytes; the others take theirs from `generate`.  The head, below L
(below 2L where U reads a(L + r)), and the parents a(s) come from
`generate`; each later row is one row of the table of (border class,
a(s)) rows, or from m = 64 on U plus a(s) plus one on a few slices.
"""

from __future__ import annotations

import numpy as np

from .words import PatternSpec

__all__ = ["generate"]


def _repeat(s: np.ndarray, lo: int, filled: int, hi: int) -> None:
    """Extend the periodic run s[lo:filled] through index hi (clipped at
    the end of s) by copies of doubling length; filled - lo must be a
    whole number of periods."""
    hi = min(hi, s.size)
    while filled < hi:
        k = min(filled - lo, hi - filled)
        s[filled:filled + k] = s[lo:lo + k]
        filled += k


def _flip_copy(s: np.ndarray, src: int, dst: int, length: int, a: int,
               b: int) -> None:
    """s[dst:dst + length] = s[src:src + length] with its terms [a, b)
    xor 1, clipped at the end of s (src + length <= dst): a base-2 step
    in one pass, since (c + 1) mod 2 is c ^ 1."""
    end = max(0, min(length, s.size - dst))
    a, b = min(a, end), min(b, end)
    s[dst:dst + a] = s[src:src + a]
    np.bitwise_xor(s[src + a:src + b], 1, out=s[dst + a:dst + b])
    s[dst + b:dst + end] = s[src + b:src + end]


# Terms per chunk in `_wrap`: its one temporary is this long.
WRAP_CHUNK = 1 << 14


def _wrap(seg: np.ndarray, m: int) -> None:
    """seg mod m in place for terms in [1, m] and m <= 64, without
    np.remainder, which is ten times slower on uint8: a mask for a power
    of two, else min(c, c - m) over chunks of WRAP_CHUNK terms, since
    c - m wraps above 192 in uint8 for every c < m and is 0 for c = m."""
    if m & (m - 1) == 0:
        np.bitwise_and(seg, m - 1, out=seg)
        return
    for lo in range(0, seg.size, WRAP_CHUNK):
        c = seg[lo:lo + WRAP_CHUNK]
        np.minimum(c, c - m, out=c)


# Levels up to this many terms are built as bytes objects: below about
# 10^4 terms a numpy call's fixed overhead costs more than its work.  Of
# 2^11, 2^12, 2^14 and 2^16, 2^14 gave the fastest base-2 and base-3
# windows at 10^5 terms.
SEED_TERMS = 1 << 14


def generate(spec: PatternSpec, n_terms: int) -> np.ndarray:
    """First n_terms values of (a_{m;w}(n)) as a uint8 array, written in
    place level by level (see the module docstring)."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    m, x = spec.base, spec.pattern[0]
    den = m ** (spec.width - 1)
    tail = spec.value - x * den
    # s[:m * den], u_{-1}^m (x != 0) or w_{-1} (x = 0), is the only part
    # read before it is written
    s = np.empty(n_terms, dtype=np.uint8)
    s[:m * den] = 0
    s[0] = spec.pattern == (0,)

    def window(length: int) -> tuple:
        """The window [a, b) of a word of this length."""
        return tail * length // den, (tail + 1) * length // den

    def increment_window(start: int, length: int) -> None:
        a, b = window(length)
        seg = s[start + a:start + b]
        seg += 1
        # a(n) <= 63 < m past m = 64, so only small bases wrap
        if m <= 64:
            _wrap(seg, m)

    # digit c -> (c + 1) mod m; past m = 256 only c <= 63 is ever read
    inc = bytes(range(1, min(m, 256))) + bytes(257 - min(m, 256))

    def phi(u: bytes) -> bytes:
        a, b = window(len(u))
        return u[:a] + u[a:b].translate(inc) + u[b:]

    L = den
    if x:
        if m * L <= SEED_TERMS:
            u = bytes(L)  # u_{-1}
            while L < n_terms and m * L <= SEED_TERMS:
                u = u * x + phi(u) + u * (m - x - 1)
                L *= m
            s[:L] = np.frombuffer(u, np.uint8)[:n_terms]
        while L < n_terms:
            if m == 2:  # u_{k+1} = u_k phi(u_k)
                _flip_copy(s, 0, L, L, *window(L))
            else:
                _repeat(s, 0, L, m * L)
                increment_window(x * L, L)
            L *= m
    else:
        if m * m * L <= SEED_TERMS:
            u, head = bytes(L), bytearray(s[:m * L])  # u_{-1}, s[:mL]
            while m * L < n_terms and m * m * L <= SEED_TERMS:
                u = phi(u) + u * (m - 1)
                head += u * (m - 1)
                L *= m
            s[:len(head)] = np.frombuffer(head, np.uint8)[:n_terms]
        while m * L < n_terms:
            if m == 2:  # w_{k+1} = u_{k+1} = phi(u_k) u_k
                _flip_copy(s, L, 2 * L, L, *window(L))
                _flip_copy(s, L, 3 * L, L, 0, 0)
            else:
                _repeat(s, L, m * L, 2 * m * L)
                increment_window(m * L, L)
                _repeat(s, m * L, 2 * m * L, m * m * L)
            L *= m
    return s


def _row_chunks(spec: PatternSpec, n_terms: int):
    """Yield the first n_terms values of (a_{m;w}(n)) in order, as uint8
    chunks of one reused buffer, each valid until the next is asked for.

    Every chunk but the last is whole rows of L = m^K terms,
    `RowTable.chunk_rows` of them (ROW_CHUNK // L, one where a row is
    longer), and the first holds the head; the rows past it are
    `RowTable.fill`'s.  L is the largest power of m at most ROW_CAP with
    the table of (border class, a(s)) rows at most ROW_CHUNK bytes below
    m = 64, and m itself past ROW_CAP (`PatternSpec.row_digits`).  So
    the chunks cost about N/L bytes of parents from `generate`, one
    chunk and the table, at any n_terms.  All three are allocated
    before the first chunk is yielded, so a request they do not fit
    fails on the first one.  Past m = 4096, where L = m, the head and
    the one-row buffer of L terms each take about L bytes, so the peak
    is about 2L when n_terms is just past L, above the n_terms bytes of
    `generate`'s whole window.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    head = spec.row_head()
    if n_terms <= head:
        yield generate(spec, n_terms)
        return
    L = spec.base ** spec.row_digits()
    n_rows = -(-n_terms // L)
    a = generate(spec, max(head, n_rows))  # the head and the parents
    row_table = spec.row_table(a)
    buf = np.empty((min(row_table.chunk_rows, n_rows), L), dtype=np.uint8)
    for s0 in range(0, n_rows, len(buf)):
        rows = buf[:min(len(buf), n_rows - s0)]
        s1 = s0 + len(rows)
        lo = min(s1, max(s0, head // L))  # the first row past the head
        if lo > s0:
            rows[:lo - s0] = a[s0 * L:lo * L].reshape(-1, L)
        if lo < s1:
            row_table.fill(lo, a[lo:s1], rows[lo - s0:])
        yield rows.reshape(-1)[:n_terms - s0 * L]
