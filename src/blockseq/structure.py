"""Structural verification: p-block classification and power-prefix scans.

Block dichotomy.  Group the sequence into p-blocks (a(pn), ..,
a(pn+p-1)).  Each block is either constant ("type 1") or constant except
at index i0 = w[|w|-1], where it holds the incremented value mod p
("type 2"); and a block is type 2 exactly when w minus its last letter
is a suffix of [n]_p, that is, when the expansion of pn + i0 ends in w.
(Block 0 is read through the one-digit expansion of i0, so it is type
2 only for |w| = 1, where the empty word is a suffix of everything.)
The n whose expansion ends in w are first_end + j*p^|w|, j >= 0, with
first_end the least of them (`PatternSpec.first_end`).  The predicted
type-2 blocks are therefore one arithmetic progression, step p^(|w|-1)
from first_end // p: every block when |w| = 1.  Their deviating digits
sit at one strided slice of the sequence, from first_end with step
p^|w|.  Stepping each of those digits back by one, mod p, turns every
block that obeys both the dichotomy and the predicate into a constant
one, and no other block with digits in [0, p): so the whole claim is
one test that every block of the stepped sequence is constant.  Any integer
sequence, whole or as consecutive chunks that start on block
boundaries, is stepped and tested in pieces of about 2^16 terms, in
scratch of the narrowest unsigned dtype that holds p - 1 (a stepped 0
wraps past p - 1 and is clipped to it), allocated once and reused.
Where the period p^|w| fits in a piece, its steps are one slice of a
fixed strided row, at the piece's offset in the period; for a longer
period a piece holds at most one deviating digit.  So the check holds
piece-sized scratch at any length, for any input dtype, and `blocks`
checks the generator's chunks as they come without holding them.  The
library treats the dichotomy as a hard contract: a block matching
neither shape, or a type-2 verdict disagreeing with the suffix
predicate, raises ClaimViolationError.  So a check that passes has
verified the predicted progression itself, and classify_range returns
it as a range; nothing is stored per block.

Power prefixes.  A prefix of shape v^e (e identical blocks) at block
length L means x[L:eL] == x[:(e-1)L]; T is a period of a tail y (the
eventual-periodicity scan used by the series module) iff
y[T:] == y[:|y|-T].  Both compare a shifted copy of the word with its
start, so one exact primitive serves both: common-prefix doubling over
the surviving shifts.  Every shift starts as a survivor if it matches
the first symbol; each round compares every survivor's next span of
symbols, at least as many as it has matched, as gathered rows of one
view of the word, and drops the shifts that differ.  Symbols are
compared in the input's own dtype.  A periodic word would keep most
shifts alive, so when the least survivor c0 is short enough, one
period extent E of c0 settles every multiple of c0 below E at once; a
run of one symbol costs a single comparison.  Peak memory is a few
bytes per term, and no comparison reads past a shift's own range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClaimViolationError, InvalidPatternError
from .windows import generate
from .words import PatternSpec, digit_string

__all__ = [
    "ClaimReport",
    "classify_range",
    "classify_chunks",
    "scan_power_prefixes",
    "tail_periods",
    "check_power_claims",
]


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one structural claim check, serializable to one text
    record."""

    claim: str
    params: str
    scan_length: int
    evidence: tuple
    verdict: str
    detail: str = ""

    def format(self) -> str:
        ev = ",".join(str(x) for x in self.evidence)
        line = (f"claim={self.claim} params=[{self.params}] "
                f"scan={self.scan_length} evidence=[{ev}] verdict={self.verdict}")
        if self.detail:
            line += f" detail={self.detail}"
        return line


# ---------------------------------------------------------------------------
# block dichotomy
# ---------------------------------------------------------------------------

# Terms per chunk of the block check: a whole number of periods p^|w|
# when one fits, else of blocks.
BLOCK_CHUNK = 1 << 16


def classify_range(spec: PatternSpec, prefix: np.ndarray) -> range:
    """Check every complete block in the prefix at once; returns the
    type-2 block indices, verified, as range(first_end // p, nb,
    p^(|w|-1)) with nb = floor(len(prefix)/p).

    The prefix is any integer or bool array, or a list of ints; other
    input that is not empty raises TypeError, never truncates.  It is
    checked as one chunk by `classify_chunks`, which says how and what
    it raises.
    """
    return classify_chunks(spec, [prefix], len(prefix))


def classify_chunks(spec: PatternSpec, chunks, n_terms: int) -> range:
    """`classify_range` of the n_terms terms that `chunks` holds, in
    order, each an integer or bool array that starts on a block boundary
    (only the last may end inside a block); a chunk that does not, or a
    total other than n_terms, raises ValueError.

    The type-2 blocks are the predicted ones, one arithmetic progression
    (see the module docstring), so nothing is stored per block.  Each
    chunk is checked in pieces of at most BLOCK_CHUNK terms, stepped in
    scratch allocated once (sized by n_terms) and reused: a piece, less
    the deviation row, obeys the dichotomy and the predicate exactly
    when each of its blocks is constant.  When the period p^|w| fits in
    BLOCK_CHUNK the row is one slice of a strided row of ones, at the
    piece's offset in the period; else a piece holds at most one
    deviating digit, set in a zero row for that piece alone.  Only
    blocks that fail that test or hold a digit outside [0, p) are
    classified one by one, against their predicted flags.

    Raises ClaimViolationError on the first block violating the two-shape
    dichotomy, else on the first contradicting the suffix predicate.
    """
    p = spec.base
    nb = n_terms // p
    step = p ** (spec.width - 1)
    type2 = range(spec.first_end // p, nb, step)
    end = nb * p  # the terms in complete blocks
    first, period = spec.first_end, step * p
    r = first % period
    rows = period <= BLOCK_CHUNK  # the steps repeat within a piece
    unit = period if rows else p
    size = min(end, max(1, BLOCK_CHUNK // unit) * unit)
    if size:
        dt = np.min_scalar_type(p - 1)
        # the deviation row at offset o into the period is dev[o:]
        dev = np.zeros(size + period - 1 if rows else size, dtype=dt)
        if rows:
            dev[::period] = 1
        inside = np.ones(size - 1, dtype=bool)
        inside[p - 1::p] = False  # pairs that straddle two blocks
        cap = np.full(size, p - 1, dtype=dt)
        y = np.empty(size, dtype=dt)
        diff = np.empty(size - 1, dtype=bool)
    mismatch = None  # the first contradiction of the predicate
    at = 0  # the index of the chunk's first term
    for chunk in chunks:
        x = np.asarray(chunk)
        if x.dtype.kind == "b":
            x = x.view(np.uint8)
        elif x.size and x.dtype.kind not in "iu":
            raise TypeError(f"symbols must be integers, not {x.dtype}")
        if at % p:
            raise ValueError("every chunk but the last must end on a "
                             "block boundary")
        # read unsigned, a negative digit is at least 2^(bits-1): every
        # digit outside [0, p) reads >= lim, and none does if lim
        # exceeds the dtype
        bits = 8 * x.itemsize
        lim = min(p, 1 << bits - (x.dtype.kind == "i"))
        checked = lim < 1 << bits
        u = x.view(f"u{x.itemsize}")
        stop = min(end, at + x.size)
        for a in range(at, stop, max(size, 1)):
            k, i = min(size, stop - a), a - at
            xc, uc, yc, dc = x[i:i + k], u[i:i + k], y[:k], diff[:k - 1]
            # the one digit this piece steps unlike the row: the
            # deviating digit of a period longer than BLOCK_CHUNK, or
            # for a zero-led w the digit r < first, which is not
            # predicted
            if rows:
                row = dev[(a - r) % period:][:k]
                flip = r - a if a <= r < first else k
            else:
                row = dev[:k]
                flip = max(first - a, (r - a) % period)
            if flip < k:
                row[flip] ^= 1
            # in the scratch dtype: a wider digit keeps only its low
            # bits, which alters only digits outside [0, p), found below
            np.subtract(uc, row, out=yc, dtype=dt, casting="unsafe")
            if flip < k:
                row[flip] ^= 1
            # a stepped 0 wrapped past p - 1; make it p - 1.  cap is an
            # array: numpy 2.4 runs a scalar operand 11-21x slower
            np.minimum(yc, cap[:k], out=yc)
            np.not_equal(yc[1:], yc[:-1], out=dc)
            dc &= inside[:k - 1]
            out_of_range = checked and int(uc.max()) >= lim
            if not (dc.any() or out_of_range):
                continue
            parts = [np.flatnonzero(dc) // p]
            if out_of_range:
                parts.append(np.flatnonzero(uc >= lim) // p)
            local = np.unique(np.concatenate(parts))
            # raises on a neither block, which beats an earlier mismatch
            found = _diagnose(spec, xc.reshape(-1, p)[local].astype(np.int64),
                              a // p + local, nb)
            mismatch = mismatch or found
        at += x.size
    if at != n_terms:
        raise ValueError(f"the chunks hold {at} terms, not {n_terms}")
    if mismatch:
        raise ClaimViolationError(mismatch)
    return type2


def _diagnose(spec: PatternSpec, blocks: np.ndarray, ns: np.ndarray,
              nb: int) -> str | None:
    """Classify the given int64 blocks (block indices ns, ascending, of
    nb in all): raise ClaimViolationError on the first that is neither
    constant nor singly deviant, else return the message for the first
    whose shape contradicts the suffix predicate, or None."""
    p = spec.base
    i0 = spec.pattern[-1]
    step, lo = p ** (spec.width - 1), spec.first_end // p
    # one index in range at most once step >= nb; step and lo may then
    # be past int64
    predicted = (ns == lo if step >= nb
                 else (ns >= lo) & ((ns - lo) % step == 0))
    t = blocks[:, 1] if i0 == 0 else blocks[:, 0]
    rest_ok = np.ones(len(blocks), dtype=bool)
    for j in range(p):
        if j != i0:
            rest_ok &= blocks[:, j] == t
    is_type2 = rest_ok & (blocks[:, i0] == (t + 1) % p)
    is_type1 = rest_ok & (blocks[:, i0] == t)
    bad = ~(is_type1 | is_type2)
    if bad.any():
        k = int(np.argmax(bad))
        block = blocks[k]
        # digit_string renders only digits in [0, p) faithfully
        shown = (digit_string(block, p) if 0 <= block.min() and block.max() < p
                 else " ".join(map(str, block.tolist())))
        raise ClaimViolationError(
            f"block at n={int(ns[k])} ({spec}) is neither constant nor "
            f"singly-deviant: {shown}")
    mismatch = is_type2 != predicted
    if not mismatch.any():
        return None
    k = int(np.argmax(mismatch))
    return (f"block at n={int(ns[k])} ({spec}): classification "
            f"{'type2' if is_type2[k] else 'type1'} contradicts the suffix "
            "predicate")


# ---------------------------------------------------------------------------
# repetition scans: common-prefix doubling over the surviving shifts
# ---------------------------------------------------------------------------

# Bytes of rows and indices one gather holds at most; a round with few
# survivors compares spans that fill it.
_GATHER_BYTES = 1 << 16


def _period_extent(x: np.ndarray, c: int, lo: int, hi: int) -> int:
    """Largest E <= hi such that x[:E] has period c, given that x[:lo]
    has it: the first i in [lo, hi) with x[i] != x[i - c], or hi.
    Compares chunks of doubling size, from lo - c symbols on, and stops
    at the first mismatch (lo > c)."""
    step = lo - c
    while lo < hi:
        top = min(hi, lo + step)
        ne = x[lo:top] != x[lo - c:top - c]
        if ne.any():
            return lo + int(ne.argmax())
        lo, step = top, 2 * step
    return hi


def _rows(x: np.ndarray, k: int) -> np.ndarray:
    """A view of contiguous x whose item i is x[i:i+k] as one scalar: an
    unsigned integer when it spans 1, 2, 4 or 8 bytes, else raw bytes.
    Two items are equal iff their symbols are."""
    size = k * x.itemsize
    dtype = f"u{size}" if size in (1, 2, 4, 8) else f"V{size}"
    return np.ndarray((x.size - k + 1,), dtype, x, strides=(x.itemsize,))


def _same(rows: np.ndarray, c: np.ndarray, s) -> np.ndarray:
    """rows[c + s] == rows[s] for every shift in c, with s one offset or
    one per shift; gathers at most _GATHER_BYTES of rows and indices at
    a time."""
    out = np.empty(c.size, dtype=bool)
    step = max(1, _GATHER_BYTES // (rows.itemsize + c.itemsize))
    for i in range(0, c.size, step):
        si = s if np.isscalar(s) else s[i:i + step]
        out[i:i + step] = rows[c[i:i + step] + si] == rows[si]
    return out


def _shift_matches(x: np.ndarray, cmax: int, a: int, b: int) -> np.ndarray:
    """Every c in [1, cmax] with x[c:a*c+b] == x[:(a-1)*c+b], ascending
    (x contiguous, a = 0 or a >= 2, and a*cmax + b <= len(x)).

    Shift c holds iff x and x[c:] share their first need(c) =
    (a-1)*c + b symbols.  The survivors start as the c with x[c] ==
    x[0].  Each round, every survivor has matched its first k symbols
    and compares a span of s >= k more: as many as _GATHER_BYTES allows,
    but no more than any survivor needs.  A survivor with need(c) <=
    k + s compares the s symbols that end at need(c) instead, which
    overlap only symbols already matched, and is settled.  If the least
    survivor c0 is at most k, or is settled this round, x[:c0+k] has
    period c0, and one period extent E settles every multiple c < E of
    c0 first: x and x[c:] share exactly E - c symbols, or all of them if
    E is the end of the range.  So a periodic word costs one extent.
    """
    if cmax < 1:
        return np.zeros(0, dtype=np.intp)
    if x.dtype.kind not in "biu":
        raise TypeError(f"symbols must be integers, not {x.dtype}")
    hit = np.zeros(cmax + 1, dtype=bool)
    live = np.flatnonzero(x[1:cmax + 1] == x[0])
    live += 1
    hi = a * cmax + b
    k = 1
    while live.size:
        least_need = min((a - 1) * int(live[0]), (a - 1) * int(live[-1])) + b
        span = min(max(k, _GATHER_BYTES // (live.size * x.itemsize)),
                   least_need)
        top = k + span
        c0 = int(live[0])
        if c0 <= k or (a - 1) * c0 + b <= top:
            extent = _period_extent(x, c0, c0 + k, hi)
            j = np.searchsorted(live, extent)
            multiple = live[:j] % c0 == 0
            settled = live[:j][multiple]
            hit[settled[a * settled + b <= extent]] = True
            live = np.concatenate((live[:j][~multiple], live[j:]))
        # the survivors with need(c) <= top: a prefix of live, or for
        # a = 0 (need falling with c) a suffix
        if a:
            i = np.searchsorted(live, (top - b) // (a - 1), "right")
            ends, live = live[:i], live[i:]
        else:
            i = np.searchsorted(live, b - top)
            ends, live = live[i:], live[:i]
        rows = _rows(x, span)
        hit[ends[_same(rows, ends, (a - 1) * ends + b - span)]] = True
        live = live[_same(rows, live, k)]
        k = top
    return np.flatnonzero(hit)


def scan_power_prefixes(prefix, exponent: int) -> tuple:
    """Every block length L, ascending, with prefix[0:exponent*L] equal
    to exponent copies of prefix[0:L]."""
    if exponent < 2:
        raise ValueError("exponent must be >= 2")
    arr = np.ascontiguousarray(prefix)
    found = _shift_matches(arr, arr.size // exponent, exponent, 0)
    return tuple(found.tolist())


def tail_periods(x: np.ndarray, max_period: int, preperiod: int) -> tuple:
    """Period lengths T <= max_period for which x becomes T-periodic from
    index `preperiod` on: the tail y has period T iff y[T:] == y[:-T].
    A negative preperiod raises ValueError, as it would read the end of
    x instead."""
    if preperiod < 0:
        raise ValueError("preperiod must be >= 0")
    y = np.ascontiguousarray(x[preperiod:])
    found = _shift_matches(y, min(max_period, y.size - 1), 0, y.size)
    return tuple(found.tolist())


# ---------------------------------------------------------------------------
# claim checks
# ---------------------------------------------------------------------------

def check_power_claims(spec: PatternSpec, n_terms: int) -> tuple:
    """Scan the first n_terms terms once per distinct exponent and
    return the records (power-length-multiple, exclusion); a claim that
    a found block length breaks reads FAIL, naming the first such one.

    power-length-multiple: every v^(p+1) prefix length at least 2*p^|w|
    is divisible by p^(|w|-1).  The exclusion matches (pattern, p):

    * pattern "0", p = 2: no square prefix with |v| >= 5;
    * pattern "0", p >= 3: no square prefix with |v| >= p^2;
    * pattern "10", p = 2: the only square prefix has |v| = 1;
    * pattern "10", p >= 3: no v^p prefix with |v| > p^2;
    * other |w| > 1: no v^(p+1) prefix with |v| = i*p^(|w|-1), i >= p+1;
    * single nonzero letter: no exclusion (a pure presentation exists);
      the scan evidence is reported informationally.
    """
    if not spec.modulus_is_prime:
        raise InvalidPatternError("power-prefix claims need a prime base")
    p = spec.base
    modulus = p ** (spec.width - 1)
    if spec.pattern == (0,):
        bound = 5 if p == 2 else p * p
        claim, exponent = "zero-pattern-square-bound", 2
        offends = lambda L: L >= bound
        detail = f"no square prefix with block length >= {bound}"
    elif spec.pattern == (1, 0) and p == 2:
        claim, exponent = "one-zero-pattern-square-bound", 2
        offends = lambda L: L != 1
        detail = "the only square prefix has block length 1"
    elif spec.pattern == (1, 0):
        claim, exponent = "one-zero-pattern-power-bound", p
        offends = lambda L: L > p * p
        detail = f"no {p}-power prefix with block length > {p * p}"
    elif spec.width > 1:
        claim, exponent = "power-prefix-cap", p + 1
        offends = lambda L: L % modulus == 0 and L // modulus >= p + 1
        detail = (f"no {p + 1}-power prefix with block length "
                  f"i*{modulus}, i >= {p + 1}")
    else:
        # single nonzero letter: the sequence has a pure presentation, so
        # no power-exclusion argument applies; report the scan as-is.
        claim, exponent = "single-letter-pure", p + 1
        offends = lambda L: False
        detail = "no exclusion asserted; pure presentation exists"

    x = generate(spec, n_terms)
    found = {e: scan_power_prefixes(x, e)
             for e in dict.fromkeys((p + 1, exponent))}
    threshold = 2 * p ** spec.width
    bad = [L for L in found[p + 1] if L >= threshold and L % modulus != 0]
    multiple = ClaimReport(
        claim="power-length-multiple", scan_length=n_terms,
        params=f"{spec} exponent={p + 1} threshold={threshold} modulus={modulus}",
        evidence=found[p + 1], verdict="FAIL" if bad else "PASS",
        detail=(f"power-prefix length {bad[0]} (>= {threshold}) is not a "
                f"multiple of {modulus} for {spec}" if bad else
                f"all found lengths >= {threshold} divisible by {modulus}"))
    bad = [L for L in found[exponent] if offends(L)]
    exclusion = ClaimReport(
        claim=claim, params=f"{spec} exponent={exponent}", scan_length=n_terms,
        evidence=found[exponent], verdict="FAIL" if bad else "PASS",
        detail=(f"{claim} violated for {spec}: offending block length "
                f"{bad[0]} within {n_terms} terms" if bad else detail))
    return multiple, exclusion
