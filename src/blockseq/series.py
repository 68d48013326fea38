"""Truncated series over F_p as arrays, and the degree-p functional equation.

For prime p let f = sum a_{p;w}(n) t^n over F_p.  Splitting indices as
n = p*q + j and using the Frobenius identity f(t)^p = f(t^p) gives

    (1 + t + ... + t^(p-1)) f^p - f = sum_{q,j} (a(q) - a(pq+j)) t^(pq+j).

For q >= 1 the expansion of pq+j is the expansion of q with digit j
appended, so a(pq+j) - a(q) is 1 exactly when the pattern occupies the
appended window, and telescoping over the pattern's digits collapses the
double sum to a geometric tail:

    rhs = -sum_{j>=0} t^(j*p^k + [w]_p)        (pattern starts nonzero)
    rhs = -sum_{j>=1} t^(j*p^k + [w]_p)        (pattern starts with 0)

with k = |w| and [w]_p the pattern read as a base-p integer; both equal
rational functions with denominator t^(p^k) - 1.

A series truncated at order N is the numpy array of its first N
coefficients.  Since f^p = f(t^p), multiplying by 1 + t + ... + t^(p-1)
spreads each coefficient of f over p consecutive places, so the left
side has coefficient f[n // p] at t^n: one `np.repeat`.  The residual is
reduced mod p in int64, so it is exact for every prime p that int64
holds; `rhs_series` refuses a larger one with InvalidBaseError.

The q = 0 column is the one place the digit-append model breaks: the
expansion of j is the single digit "j", not "0j".  For every pattern of
length >= 2, and for single nonzero letters, no occurrence is affected
and the identity above is exact.  For the single-letter pattern "0" each
j in [1, p-1] loses one occurrence relative to the model, shifting the
true relation by  + sum_{j=1}^{p-1} t^j.  `origin_correction` supplies
that term; the residual computed here subtracts it so that the residual
is identically zero for every pattern (verified coefficientwise by the
acceptance suite).

Because f then satisfies an explicit degree-p polynomial relation over
F_p(t), its algebraic degree divides p, i.e. is 1 or p.  Degree 1 would
make f rational, hence its coefficient sequence eventually periodic;
`degree_evidence` scans for such a period and reports its absence as
(explicitly labeled) evidence that the degree is exactly p.  It returns
the `series` subcommand's two records as `ClaimReport`s: the
functional equation (with the first nonzero residual coefficient, if
any) and the degree evidence.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidBaseError, InvalidPatternError, VerificationError
from .structure import ClaimReport, tail_periods
from .windows import generate
from .words import PatternSpec, recursion_mismatch

__all__ = [
    "series_from_sequence",
    "rhs_series",
    "origin_correction",
    "functional_equation_residual",
    "degree_evidence",
]


def series_from_sequence(spec: PatternSpec, order: int) -> np.ndarray:
    """The coefficients a(0), .., a(order-1) of f, sourced from the fast
    window generator and checked whole against the oracle's digit
    recursion (`words.recursion_mismatch`), which names the least
    index where the window is wrong."""
    if not spec.modulus_is_prime:
        raise InvalidPatternError("series over F_p needs a prime base")
    coeffs = generate(spec, order)
    wrong = recursion_mismatch(spec, coeffs)
    if wrong is not None:
        raise VerificationError(f"window generator disagrees with the "
                                f"oracle at n={wrong[0]} ({spec})")
    return coeffs


def rhs_series(spec: PatternSpec, order: int) -> np.ndarray:
    """Expansion of the rational right-hand side: -t^n summed over the
    n = first_end + j*p^k, j >= 0, whose expansion ends in w
    (`PatternSpec.first_end`; 1/(t^M - 1) = -sum t^(jM) over F_p).
    For w = "0" it starts at p^k instead, as n = 0 belongs to the q = 0
    column (`origin_correction`).  A base past int64 raises
    InvalidBaseError, as its p - 1 would not fit."""
    if not spec.modulus_is_prime:
        raise InvalidPatternError("series over F_p needs a prime base")
    p = spec.base
    if p > np.iinfo(np.int64).max:
        raise InvalidBaseError(f"base {p}: series are computed in int64, "
                               f"so only up to base {np.iinfo(np.int64).max}")
    pk = p ** spec.width
    start = spec.first_end if spec.pattern != (0,) else pk
    out = np.zeros(order, dtype=np.int64)
    if start < order:
        out[start::pk] = p - 1  # -1 mod p
    return out


def origin_correction(spec: PatternSpec, order: int) -> np.ndarray:
    """Correction for the q = 0 column of the index split, where the
    expansion of j is "j" rather than "0j": nonzero only for the
    single-letter pattern "0", where it equals sum_{j=1}^{p-1} t^j."""
    out = np.zeros(order, dtype=np.int64)
    if spec.pattern == (0,):
        out[1:min(spec.base, order)] = 1
    return out


def _residual(spec: PatternSpec, f: np.ndarray) -> np.ndarray:
    # (1 + t + ... + t^(p-1)) f(t^p) has coefficient f[n // p] at t^n;
    # only the first ceil(n / p) coefficients are repeated, at most n
    # times each (p > n repeats f[0] alone), in f's own dtype.  The rest
    # is subtracted in place, so one int64 array of n terms is built,
    # and one more is alive at a time: rhs_series, then
    # origin_correction.
    p, n = spec.base, f.size
    out = np.repeat(f[:-(-n // p)], min(p, n))[:n].astype(np.int64)
    out -= f
    out -= rhs_series(spec, n)
    out -= origin_correction(spec, n)
    return np.remainder(out, p, out=out)


def functional_equation_residual(spec: PatternSpec,
                                 order: int) -> np.ndarray:
    """The coefficients of (1 + t + ... + t^(p-1)) f^p - f - rhs -
    origin_correction in [0, p), truncated at the given order;
    identically zero for every pattern."""
    return _residual(spec, series_from_sequence(spec, order))


def degree_evidence(spec: PatternSpec, order: int) -> tuple:
    """The records (functional-equation, degree-evidence) for one series
    truncated at the given order.

    The first checks that the residual vanishes to that order, and
    names its first nonzero coefficient if not.  The second also scans
    the coefficients for an eventual period (candidates and preperiod up
    to order/4): a found period would make f rational, contradicting
    degree p; absence is evidence only, and is labeled as such.  Both
    read one series, checked against the oracle's recursion."""
    f = series_from_sequence(spec, order)
    nonzero = np.flatnonzero(_residual(spec, f))
    quarter = max(1, order // 4)
    periods = tail_periods(f, max_period=quarter, preperiod=quarter)
    equation = ClaimReport(
        claim="functional-equation", params=str(spec), scan_length=order,
        evidence=(f"first_nonzero={nonzero[0]}",) if nonzero.size else (),
        verdict="FAIL" if nonzero.size else "PASS")
    degree = ClaimReport(
        claim="degree-evidence", params=str(spec), scan_length=order,
        evidence=(f"residual_zero={not nonzero.size}",
                  f"periods={list(periods)}"),
        verdict="PASS" if not nonzero.size and not periods else "FAIL")
    return equation, degree
