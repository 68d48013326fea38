"""Shared test toolkit: the pattern enumerator, the 60-pattern grid, the
golden prefixes, a pure-Python digit string, a peak-memory meter, a
probe of the path each rendered chunk takes and the layout of the rows
that the oracle check and the row generator share.

Each shared thing is defined here once; test modules import it from
here and never from one another (`test_toolkit.py` checks both).
pytest does not collect this module, since its name is not test_*.py.
"""

import collections
import itertools
import tracemalloc

import numpy as np

import blockseq.words


def patterns(base, max_width):
    """Every digit word over `base` of width 1 to `max_width`, as digit
    tuples, in order of width and then of value."""
    return [w for width in range(1, max_width + 1)
            for w in itertools.product(range(base), repeat=width)]


# The shared pattern grid (60 entries): every pattern of width <= 3 over
# base 2 (14) and base 3 (39), plus a documented 7-pattern base-5 sample
# -- the four nonzero single letters, the zero-led pair "10", the generic
# pair "23", and the generic triple "123".  The full width-<=3 base-5
# family would add 155 patterns of the same shapes at ~25x the scan
# cost; the sample keeps a representative of each remaining structural
# case (single letter, zero-led, nonzero-led multi-letter).
#
# The base-5 all-zero patterns are deliberately not in the grid: the
# degree-evidence period scan at 2^16 terms would report a spurious
# period 5^6 = 15625 for them.  Over [5^k, 5^(k+1)) the zero-counting
# sequence is four identical copies of one block, and 2^16 = 65536 ends
# inside [5^6, 5^7), so the scan tail never leaves one such zone; the
# "period" breaks at 5^7 = 78125, just past the window, and a 2^17-term
# scan finds no period at all (pinned as a unit test in test_series.py).
# Base-5 zero-word coverage lives in the dedicated power-exclusion
# criterion (2^22-term scans) and throughout the unit suites; the
# base-2 and base-3 zero words stay in the grid, where 2^16 crosses a
# zone boundary and the scan is sound.
GRID = (
    [(2, w) for w in patterns(2, 3)]
    + [(3, w) for w in patterns(3, 3)]
    + [(5, (1,)), (5, (2,)), (5, (3,)), (5, (4,)),
       (5, (1, 0)), (5, (2, 3)), (5, (1, 2, 3))]
)
assert len(GRID) == 60

# Hand-checked expansion chunks of the two classic base-2 sequences:
# prefixes of a_{2;11} (Rudin-Shapiro) of 8, 16 and 32 terms, and the
# chunks s_k = u_k of a_{2;01} at [2^(k+2), 2^(k+3)) with its 64-term
# prefix.
RS_S1 = "00010010"
RS_S2 = "0001001000011101"
RS_S3 = "00010010000111010001001011100010"

ZW_S0 = "0100"
ZW_S1 = "01110100"
ZW_S2 = "0111101101110100"
ZW_S3 = "01111011100010110111101101110100"
ZW_PREFIX64 = "0000" + ZW_S0 + ZW_S1 + ZW_S2 + ZW_S3


def as_str(values) -> str:
    """Digits below 10 as one string, written in pure Python so that it
    shares no code with the package's renderers."""
    return "".join(str(int(v)) for v in values)


def peak_bytes(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc saw during that
    one call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class _Watched(np.ndarray):
    """Values whose slices share one list, `read`, to which every
    `tolist` call on any of them appends the slice's length."""

    def __array_finalize__(self, obj):
        self.read = getattr(obj, "read", None)

    def tolist(self):
        self.read.append(len(self))
        return super().tolist()


def line_path_chunks(render, values):
    """(the chunks render(values) yields, for each whether it was written
    line by line): that path reads a chunk's values as Python ints with
    `tolist`, and the numpy path never does."""
    watched = np.asarray(values).view(_Watched)
    watched.read = []
    chunks, by_line = [], []
    for chunk in render(watched):
        chunks.append(chunk)
        by_line.append(bool(watched.read))
        watched.read.clear()
    return chunks, by_line


# The row identity's layout: see `row_layout`.
Rows = collections.namedtuple("Rows", "L rows head starts")


def row_layout(m, w, n=0):
    """The rows of a(sL + r) = (U[r] + a(s) + cut terms) mod m for
    a_{m;w} at the current `words.ROW_CHUNK` and `ROW_CAP`, which both
    `recursion_mismatch` and `windows._row_chunks` take:

    * L = m^K, the largest power of m at most ROW_CAP whose table of
      border classes, min(|w|, K + 1) * m rows of L bytes, is at most
      ROW_CHUNK below m = 64, or m past ROW_CAP;
    * rows: the rows in each chunk of `_row_chunks` but the last,
      ROW_CHUNK // L, or one where a row is longer;
    * head: the terms below the first row, L, or 2L for a zero-led w no
      wider than K;
    * starts: the indices below n where a chunk of rows of
      `recursion_mismatch` begins: the head, and every per * L after it,
      per being ROW_CHUNK // L rows less the table's rows past m."""
    chunk, cap = blockseq.words.ROW_CHUNK, blockseq.words.ROW_CAP
    spec = blockseq.words.PatternSpec(m, w)
    k = spec.width

    def table_rows(K):  # no table from m = 64 on
        return min(k, K + 1) * m if m < 64 else 0

    K = 1
    while m ** (K + 1) <= cap and (
            m >= 64 or table_rows(K + 1) * m ** (K + 1) <= chunk):
        K += 1
    L = m ** K
    head = L * (2 if spec.is_zero_word and K >= k else 1)
    per = max(1, chunk // L - max(0, table_rows(K) - m))
    return Rows(L, max(1, chunk // L), head, list(range(head, n, per * L)))
