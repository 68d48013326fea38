"""Fast generation of block-counting sequences by window doubling.

The window transform phi_w increments (mod m) exactly the digits of a
word whose indices fall in [alpha*L, beta*L), where L is the word length
and alpha = (w')_m / m^(|w|-1), beta = ((w')_m + 1) / m^(|w|-1) with w'
the pattern minus its first letter.  Window bounds are exact rationals
with denominator m^(|w|-1); they are evaluated with integer arithmetic
only, and lengths that would make them non-integral are rejected.

One doubling step builds (a_{m;w}(n)) from the seed block u_0 (length
m^|w|, a single 1 at index (w)_m).  With x the first letter of the
pattern,

    u_{k+1} = u_k^x phi(u_k) u_k^(m-x-1),

and the blocks u_k are assembled into the sequence in one of two ways:

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

The step and both assemblies are valid for composite m as well as
prime m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WindowAlignmentError
from .words import PatternSpec, Word, from_base

__all__ = [
    "WindowSpec",
    "phi",
    "initial_block",
    "step",
    "generate",
]


@dataclass(frozen=True)
class WindowSpec:
    """Exact-rational window bounds alpha = alpha_numerator/denominator,
    beta = beta_numerator/denominator for the transform phi_w."""

    alpha_numerator: int
    beta_numerator: int
    denominator: int
    pattern: PatternSpec

    def __post_init__(self):
        if not 0 <= self.alpha_numerator < self.beta_numerator <= self.denominator:
            raise ValueError("window bounds out of order")
        if self.beta_numerator != self.alpha_numerator + 1:
            raise ValueError("window must have width 1/denominator")

    @classmethod
    def from_pattern(cls, spec: PatternSpec) -> "WindowSpec":
        tail = Word(spec.pattern[1:], spec.base)  # pattern minus first letter
        alpha = from_base(tail)
        den = spec.base ** (spec.width - 1)
        return cls(alpha, alpha + 1, den, spec)


def _window_bounds(ws: WindowSpec, length: int) -> tuple:
    if length <= 0 or length % ws.denominator != 0:
        raise WindowAlignmentError(
            f"length {length} is not a positive multiple of {ws.denominator}")
    lo = ws.alpha_numerator * length // ws.denominator
    hi = ws.beta_numerator * length // ws.denominator
    return lo, hi


def phi(ws: WindowSpec, v: np.ndarray) -> np.ndarray:
    """Apply the window transform to a uint8 word of aligned length."""
    lo, hi = _window_bounds(ws, v.size)
    out = v.copy()
    out[lo:hi] = (v[lo:hi].astype(np.int16) + 1) % ws.pattern.base
    return out


def initial_block(spec: PatternSpec) -> np.ndarray:
    """The seed block u_0: length m^|w|, a single 1 at index (w)_m."""
    u0 = np.zeros(spec.base ** spec.width, dtype=np.uint8)
    u0[spec.value] = 1
    return u0


def step(ws: WindowSpec, u: np.ndarray) -> np.ndarray:
    """One doubling step u -> u^x phi(u) u^(m-x-1), x the pattern's
    first letter."""
    m = ws.pattern.base
    x = ws.pattern.pattern[0]
    return np.concatenate([u] * x + [phi(ws, u)] + [u] * (m - x - 1))


def generate(spec: PatternSpec, n_terms: int) -> np.ndarray:
    """First n_terms values of (a_{m;w}(n)) as a uint8 array.

    For n_terms <= m^|w| the output is u_0[:n_terms] (nonzero-leading
    patterns) or w_{-1}[:n_terms] (zero-leading ones): zeros, with a 1
    at (w)_m if that index is below n_terms and the pattern is not a
    zero-led one of width >= 2.  It is built directly, without the
    m^|w|-term seed.  Past m^|w|, nonzero-leading patterns iterate the
    doubling step and truncate; zero-leading patterns emit w_{-1} and
    then the chunks u_k^(m-1), building each u_k only while more output
    is still needed.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    m = spec.base
    if n_terms <= m ** spec.width:
        out = np.zeros(n_terms, dtype=np.uint8)
        if spec.value < n_terms and (spec.width == 1 or not spec.is_zero_word):
            out[spec.value] = 1
        return out
    ws = WindowSpec.from_pattern(spec)
    u = initial_block(spec)

    if not spec.is_zero_word:
        while u.size < n_terms:
            u = step(ws, u)
        return u[:n_terms].copy()

    # zero-leading pattern: w_{-1} then chunks u_0^(m-1), u_1^(m-1), ...
    # (pattern "0": a(0) = 1 lands inside w_{-1}, which is then u_0)
    lead = u if spec.width == 1 else np.zeros_like(u)
    parts = [lead[:n_terms]]
    total, copies = parts[0].size, 0
    while total < n_terms:
        if copies == m - 1:  # chunk u_k^(m-1) is complete: double u
            u, copies = step(ws, u), 0
        take = min(u.size, n_terms - total)
        parts.append(u[:take])
        total += take
        copies += 1
    return np.concatenate(parts)
