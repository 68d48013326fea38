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
