"""Unit tests for digit expansions, occurrence counting, and the oracle."""

import itertools
import random

import numpy as np
import pytest

import blockseq.words
from blockseq import (
    InvalidBaseError,
    InvalidPatternError,
    PatternSpec,
    a_batch,
    a_prefix,
    a_value,
    count_occurrences,
    digit_string,
    e_count,
    from_base,
    is_prime,
    to_base,
)
from blockseq.words import (TEMPLATE_DIGITS, _template, indexed_rows,
                            recursion_mismatch)
from support import GRID, line_path_chunks, patterns, peak_bytes, row_layout


def ref_digits(n: int, m: int) -> list:
    """Independent re-implementation of the canonical base-m expansion.

    Zero expands to the single digit 0, everything else to its usual
    most-significant-first digit list without leading zeros.
    """
    if n == 0:
        return [0]
    out = []
    while n:
        out.append(n % m)
        n //= m
    return out[::-1]


# ---------------------------------------------------------------------------
# primality helper
# ---------------------------------------------------------------------------

def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(40):
        assert is_prime(n) == (n in primes)


def test_is_prime_agrees_with_a_sieve():
    sieve = np.ones(2 * 10 ** 5, dtype=bool)
    sieve[:2] = False
    for d in range(2, 448):  # 448^2 > 2 * 10^5
        if sieve[d]:
            sieve[d * d::d] = False
    assert [n for n in range(sieve.size) if is_prime(n)] == \
        np.flatnonzero(sieve).tolist()


def test_is_prime_pseudoprimes_and_wide_values():
    """Carmichael numbers and strong base-2 pseudoprimes are composite,
    and 61- and 64-bit values are decided at once."""
    for n in (561, 2047, 41041, 3215031751, (2 ** 31 - 1) ** 2):
        assert not is_prime(n), n
    for n in (2 ** 61 - 1, 2 ** 64 - 59):
        assert is_prime(n), n


# psi_12: the least strong pseudoprime to each of the first 12 primes
PSI_12 = 318_665_857_834_031_151_167_461


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether the odd n > 2 passes the Miller-Rabin test to the base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    y = pow(a, d, n)
    if y in (1, n - 1):
        return True
    for _ in range(s - 1):
        y = y * y % n
        if y == n - 1:
            return True
    return False


def test_is_prime_needs_a_13th_witness_past_psi_12():
    """psi_12 = 399,165,290,221 * 798,330,580,441 passes the test to
    each of the first 12 primes, and 41 shows it composite; 10^24 + 7,
    a prime past psi_12, is decided at once."""
    small, large = 399_165_290_221, 798_330_580_441
    assert small * large == PSI_12 and is_prime(small) and is_prime(large)
    assert all(strong_probable_prime(PSI_12, a)
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not strong_probable_prime(PSI_12, 41)
    assert not is_prime(PSI_12)
    assert is_prime(10 ** 24 + 7)


def test_is_prime_refuses_values_past_the_witness_bound():
    """At or past WITNESS_BOUND the witnesses decide nothing, so
    `is_prime` raises ValueError, and a base there has no primality:
    `modulus_is_prime` raises InvalidBaseError."""
    for n in (blockseq.words.WITNESS_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="only below"):
            is_prime(n)
        with pytest.raises(InvalidBaseError, match="only below"):
            PatternSpec(n, "1").modulus_is_prime


# ---------------------------------------------------------------------------
# base conversion
# ---------------------------------------------------------------------------

def test_to_base_examples():
    assert to_base(0, 2) == (0,)
    assert to_base(6, 2) == (1, 1, 0)
    assert to_base(7, 3) == (2, 1)


def test_from_base_examples():
    assert from_base((1, 1), 2) == 3
    # Leading zeros are legal input for evaluation even though canonical
    # expansions never carry them.
    assert from_base((0, 1), 2) == 1
    assert from_base((0,), 5) == 0
    assert from_base((2, 3), 5) == PatternSpec(5, "23").value == 13


@pytest.mark.parametrize("m", [2, 3, 5, 10])
def test_round_trip_dense_and_sampled(m):
    for n in range(20000):
        v = to_base(n, m)
        assert v == tuple(ref_digits(n, m))
        assert from_base(v, m) == n
    rng = random.Random(1000 + m)
    for _ in range(2000):
        n = rng.randrange(20000, 10 ** 6)
        assert from_base(to_base(n, m), m) == n


def test_to_base_no_leading_zeros():
    for m in (2, 3, 7):
        for n in range(1, 500):
            assert to_base(n, m)[0] != 0


def test_to_base_rejects_bad_input():
    with pytest.raises(InvalidBaseError):
        to_base(5, 1)
    with pytest.raises(ValueError):
        to_base(-1, 2)


def test_digit_string_wide_base_uses_separators():
    assert digit_string((1, 0, 11), 16) == "1 0 11"
    assert digit_string((1, 0, 1), 2) == "101"
    assert digit_string(np.array([100, 7, 255], dtype=np.uint8), 256) == \
        "100 7 255"
    assert digit_string((), 16) == digit_string((), 2) == ""
    # a digit outside [0, base) is refused, never written as another byte
    for digits, base in [((1, 12), 10), ((1, -1), 16), ((2,), 2),
                         (np.array([256], dtype=np.uint16), 256),
                         (np.array([1, -1], dtype=np.int8), 11)]:
        with pytest.raises(ValueError, match=f"\\[0, {base}\\)"):
            digit_string(digits, base)


@pytest.mark.parametrize("width, sep", [(None, b" "), (9, b"  "),
                                        (9, b" = ")])
@pytest.mark.parametrize("d", range(1, 8))
def test_template_rows_match_f_strings(d, width, sep):
    """Row i of the index template of digit count d is the line of the
    d-digit index whose k = min(d, TEMPLATE_DIGITS) low digits are i,
    zero-padded, once its high digits and its value are written: with
    the blank separators of `bfile` and `table`, which the fill of
    spaces writes, and with one that is not blank."""
    rows = _template(d, width, sep)
    k = min(d, TEMPLATE_DIGITS)
    assert rows.shape[0] == 10 ** k and rows.dtype == np.uint8
    high = str(10 ** (d - k - 1)) if d > k else ""
    for col, digit in enumerate(high, (width or d) - d):
        rows[:, col] = ord(digit)
    rows[:, -2] = ord("7")
    # compared as lists of lines: a failing compare of the joined text
    # would make pytest diff 10^4 lines
    assert rows.tobytes().decode("ascii").splitlines(keepends=True) == [
        f"{high}{i:0{k}d}".rjust(width or 0) + f"{sep.decode()}7\n"
        for i in range(10 ** k)]


def test_digit_string_drops_pad_bytes_only_where_a_value_padded():
    """A base > 10 prints each value unpadded, whether the values share
    one width or not; random one-digit values, and values of 1 to 3
    digits, read as str() of each value joined, in every dtype."""
    assert digit_string(np.array([5, 10, 123, 7]), 256) == "5 10 123 7"
    assert digit_string(np.array([10, 20, 30]), 101) == "10 20 30"
    assert digit_string(np.array([100, 200, 300, 999]), 1000) == \
        "100 200 300 999"
    assert digit_string(np.array([7]), 11) == "7"
    assert digit_string(np.zeros(0, dtype=np.int64), 11) == ""
    rng = np.random.default_rng(7)
    for dtype in (np.uint8, np.uint16, np.int64):
        for base in (2, 10, 11, 101, 256):
            sep = " " if base > 10 else ""
            for high in sorted({min(base, 10), base}):
                for n in (1, 2, 1000):
                    values = rng.integers(0, high, n).astype(dtype)
                    assert digit_string(values, base) == sep.join(
                        str(v) for v in values.tolist()), (dtype, base, n)


def test_indexed_rows_needs_one_index_digit_count():
    """The template holds one digit count's rows, so the indices 0-9 and
    10-11 come in two chunks, in either layout."""
    values = np.ones(12, dtype=np.uint8)
    assert list(indexed_rows([values[:3]], None, b" ")) == ["0 1\n1 1\n2 1\n"]
    assert list(indexed_rows([values], None, b" ")) == [
        "".join(f"{i} 1\n" for i in range(10)), "10 1\n11 1\n"]
    assert list(indexed_rows([values], 3, b"  ")) == [
        "".join(f"{i:>3}  1\n" for i in range(10)), " 10  1\n 11  1\n"]
    assert list(indexed_rows([values[:0]], None, b" ")) == []


@pytest.mark.parametrize("width, sep", [(None, b" "), (7, b"  ")])
def test_indexed_rows_reuse_rows_across_any_chunks(width, sep):
    """Each chunk reads as one f-string per row while its values' width
    (1, 2 or 1 to 3 digits) changes from chunk to chunk, so the chunks
    of one-digit values fill the row matrix of their digit count, leave
    it to the chunks written line by line, and take it up again, on both
    sides of 10^5 and across the high-digit carries at 10^5 + 10^4 and
    2 * 10^5: 210,000 takes up the rows 180,000 left, with both high
    digits stale, after 190,000 and 200,000 are written line by line."""
    n = 230_001
    rng = np.random.default_rng(5)
    values = np.empty(n, dtype=np.uint16)
    starts = sorted({0, 10, 100, 1000}
                    | set(range(10 ** 4, n, 10 ** TEMPLATE_DIGITS)))
    widths = []
    for j, (lo, hi) in enumerate(zip(starts, starts[1:] + [n])):
        low, high = [(0, 10), (10, 100), (0, 257)][j % 3]
        values[lo:hi] = rng.integers(low, high, hi - lo)
        values[hi - 1] = high - 1
        widths.append(len(str(high - 1)))
    chunks, by_line = line_path_chunks(
        lambda v: indexed_rows([v], width, sep), values)
    lo = 0
    for chunk in chunks:
        lines = chunk.splitlines()
        for i, line in enumerate(lines, lo):
            assert line == f"{i:>{width or 0}}{sep.decode()}{values[i]}", i
        lo += len(lines)
    assert lo == n and by_line == [w > 1 for w in widths]
    assert len(chunks) == 4 + 9 + 14
    one_digit = [lo for lo, w in zip(starts, widths) if w == 1]
    assert one_digit[one_digit.index(180_000) + 1] == 210_000


def reused_buffer_chunks(values, sizes):
    """values in chunks of the given sizes, in turn, each written into
    one buffer that the next overwrites, as `windows._row_chunks`
    yields them."""
    buf = np.empty_like(values, shape=max(sizes))
    lo = 0
    for size in sizes:
        buf[:size] = values[lo:lo + size]
        lo += size
        yield buf[:size]


@pytest.mark.parametrize("width, sep", [(None, b" "), (6, b"  ")])
def test_indexed_rows_cut_blocks_at_value_chunk_edges(width, sep):
    """Value chunks of any length, in one reused buffer, come out as text
    cut at the template blocks' edges and at the value chunks' edges: a
    block inside a chunk, one across two chunks or across several
    shorter than it, and a last block left over.  The text joins to the
    reference, each text chunk lies inside one block and one value
    chunk, and a value of 10 or more has only the piece of its own
    value chunk that holds it written line by line, not the rest of its
    block or of its value chunk."""
    n = 61_234
    values = np.random.default_rng(3).integers(0, 10, n).astype(np.uint8)
    wide = [15_003, 44_999]  # in blocks 10^4 and 4 * 10^4
    values[wide] = [12, 10]
    # cuts at 7, 15,004 and 18,000 (inside blocks), every 3000 to 45,000
    # and at 50,000 (a block edge)
    sizes = [7, 3, 2990, 12_004, 2996] + [3000] * 9 + [5000, 11_234]
    assert sum(sizes) == n
    chunks, by_line = line_path_chunks(
        lambda v: indexed_rows(reused_buffer_chunks(v, sizes), width, sep),
        values)
    assert "".join(chunks) == "".join(
        f"{i:>{width or 0}}{sep.decode()}{v}\n"
        for i, v in enumerate(values.tolist()))
    blocks = [0, 10, 100, 1000] + list(range(10 ** 4, n, 10 ** 4))
    edges = np.cumsum([0] + sizes[:-1]).tolist()
    lines = [c.count("\n") for c in chunks]
    starts = np.cumsum([0] + lines[:-1]).tolist()
    assert min(lines) > 0 and starts == sorted(set(blocks) | set(edges))
    assert by_line == [any(lo <= i < lo + size for i in wide)
                       for lo, size in zip(starts, lines)]
    assert by_line.count(True) == 2


# ---------------------------------------------------------------------------
# occurrence counting
# ---------------------------------------------------------------------------

def test_count_occurrences_examples():
    assert count_occurrences((1, 1, 1), (1, 1)) == 2
    assert count_occurrences((0, 0, 1, 0, 1, 1, 0), (0, 1)) == 2
    assert count_occurrences((1, 0), (1, 0, 1)) == 0
    with pytest.raises(InvalidPatternError, match="non-empty pattern"):
        count_occurrences((1, 0), ())


def test_count_occurrences_overlapping_runs():
    # In 1^k the factor 11 occurs k-1 times: occurrences may overlap.
    for k in range(2, 65):
        assert count_occurrences((1,) * k, (1, 1)) == k - 1


def test_count_occurrences_against_string_scan():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.choice([2, 3, 5])
        v = [rng.randrange(m) for _ in range(rng.randrange(0, 30))]
        w = [rng.randrange(m) for _ in range(rng.randrange(1, 4))]
        expected = sum(
            1
            for i in range(len(v) - len(w) + 1)
            if v[i : i + len(w)] == w
        )
        assert count_occurrences(tuple(v), tuple(w)) == expected


# ---------------------------------------------------------------------------
# the counting sequence itself
# ---------------------------------------------------------------------------

def test_e_count_examples():
    assert e_count(PatternSpec(2, "11"), 7) == 2
    # The expansion of 0 is the single digit 0, so the pattern 0 occurs once.
    assert e_count(PatternSpec(2, "0"), 0) == 1
    assert e_count(PatternSpec(2, "01"), 5) == 1


def test_a_value_examples():
    assert a_value(PatternSpec(2, "1"), 3) == 0
    assert a_value(PatternSpec(2, "11"), 13) == 1
    assert a_value(PatternSpec(3, "1"), 4) == 2


def test_a_value_thue_morse_prefix():
    """a for base 2, pattern 1 is the parity of the binary digit sum."""
    spec = PatternSpec(2, "1")
    got = [a_value(spec, n) for n in range(64)]
    want = [bin(n).count("1") % 2 for n in range(64)]
    assert got == want


def test_a_value_matches_digit_count_reference():
    rng = random.Random(11)
    for _ in range(500):
        m = rng.choice([2, 3, 4, 5, 10])
        width = rng.randrange(1, 4)
        w = [rng.randrange(m) for _ in range(width)]
        if all(d == 0 for d in w) and width > 1 and rng.random() < 0.5:
            w[0] = 1  # keep a mix of zero-led and nonzero-led patterns
        spec = PatternSpec(m, tuple(w))
        n = rng.randrange(0, 10 ** 7)
        digits = ref_digits(n, m)
        expected = sum(
            1
            for i in range(len(digits) - width + 1)
            if digits[i : i + width] == w
        )
        assert e_count(spec, n) == expected
        assert a_value(spec, n) == expected % m


# ---------------------------------------------------------------------------
# vectorized oracle
# ---------------------------------------------------------------------------

def test_a_batch_matches_scalar():
    rng = np.random.default_rng(5)
    for m, w in [(2, "1"), (2, "11"), (2, "0"), (3, "12"), (5, "10"), (10, "00")]:
        spec = PatternSpec(m, w)
        ns = rng.integers(0, 10 ** 9, size=400)
        got = a_batch(spec, ns)
        want = np.array([a_value(spec, int(n)) for n in ns])
        assert np.array_equal(got, want)


EDGE_INDICES = [2 ** 62 - 1, 0, 2 ** 32, 7, 2 ** 32 - 1, 1, 2 ** 32 + 1,
                3 ** 30, 2 ** 40]


@pytest.mark.parametrize("m, w", [
    (2, "1"), (2, "11"), (2, "0"), (2, "010"), (3, "0"), (3, "001"),
    (3, "12"), (5, "10"), (10, "00"), (16, "15"), (65, "1"), (65, "0"),
    (257, "1"), (257, "0 0"), (257, "1 0 0 0"),
])
def test_a_batch_edge_indices_unsorted(m, w):
    """Unsorted, non-contiguous indices on both sides of 2^32, so the
    uint64 quotient is exercised as well as the uint32 one."""
    spec = PatternSpec(m, w)
    rng = np.random.default_rng(17 + m)
    ns = np.array(EDGE_INDICES + rng.integers(2 ** 32, 2 ** 62, 200).tolist()
                  + rng.integers(0, 2 ** 32, 100).tolist(), dtype=np.int64)
    rng.shuffle(ns)
    got = a_batch(spec, ns)
    assert got.dtype == np.uint8
    assert got.tolist() == [a_value(spec, int(n)) for n in ns]
    small = ns[ns < 2 ** 32]  # the uint32 quotient
    assert np.array_equal(a_batch(spec, small), got[ns < 2 ** 32])


def test_a_batch_zero_conventions():
    """The expansion of 0 is the digit "0": it holds one occurrence of
    w = 0 and none of any longer word; zero-led windows count only
    inside the expansion."""
    ns = np.array([0, 1, 2, 4, 8, 9, 16, 17, 36])
    for m, w in [(2, "0"), (3, "0"), (2, "00"), (2, "001"), (3, "010")]:
        spec = PatternSpec(m, w)
        got = a_batch(spec, ns)
        assert got.tolist() == [a_value(spec, int(n)) for n in ns], spec
    assert a_batch(PatternSpec(2, "0"), [0]).tolist() == [1]
    # 1 and 4 would read 001 only with leading zeros; 1001 and 10001 hold it
    assert a_batch(PatternSpec(2, "001"), [1, 4, 9, 17, 8]).tolist() == \
        [0, 0, 1, 1, 0]


def test_a_batch_wide_base_counts_are_not_reduced():
    """For m >= 64 no count reaches m, so a(n) is the raw count."""
    for m in (65, 257):
        ones = sum(m ** i for i in range(7))  # seven digits 1
        assert m ** 7 < 2 ** 62
        spec = PatternSpec(m, "1")
        assert a_batch(spec, [ones, 0, m ** 6]).tolist() == [7, 0, 1]
        zero = PatternSpec(m, "0")
        assert a_batch(zero, [m ** 7, 0, ones]).tolist() == [7, 1, 0]


@pytest.mark.parametrize("m", [4_294_967_311, 2 ** 61 - 1])
def test_a_batch_at_bases_past_uint32(m):
    """A base past 2^32 does not fit the uint32 quotient of indices below
    2^32, which have a single window: the quotient is divided by m only
    between windows, never after the last.  Indices from m on take the
    uint64 quotient and two windows."""
    spec = PatternSpec(m, "1")
    for ns in ([0, 1, 2, 9, 10 ** 6], [m - 1, m, m + 1, 2 * m + 1]):
        assert a_batch(spec, ns).tolist() == [a_value(spec, n) for n in ns]


def test_a_batch_rejects_negative_and_oversized():
    spec = PatternSpec(2, "1")
    with pytest.raises(ValueError):
        a_batch(spec, np.array([-1]))
    with pytest.raises(ValueError):
        a_batch(spec, np.array([2 ** 62]))


def test_a_batch_rejects_non_integer_indices():
    """Fractional indices raise rather than truncate to a(2) and a(3);
    integer lists, bool arrays and empty input of any dtype still work."""
    spec = PatternSpec(2, "1")
    for bad in ([2.7, 3.2], np.array([2.0, 3.0]), np.array([1 + 0j]),
                [2 ** 70]):
        with pytest.raises(ValueError, match="integers"):
            a_batch(spec, bad)
    assert a_batch(spec, [2, 3]).tolist() == [1, 0]
    assert a_batch(spec, np.array([True, False])).tolist() == [1, 0]
    for empty in ([], np.array([]), np.zeros(0, dtype=np.int64)):
        assert a_batch(spec, empty).size == 0


def test_a_batch_checks_bounds_in_the_callers_dtype():
    """A uint64 index past 2^63 is too large, not negative, and every
    integer dtype reads its indices as the scalar oracle does."""
    spec = PatternSpec(2, "1")
    with pytest.raises(ValueError, match="too large"):
        a_batch(spec, np.array([2 ** 63 + 5], dtype=np.uint64))
    for dtype in (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64):
        ns = [n for n in (0, 127, 2 ** 32 - 1, 2 ** 32, 2 ** 62 - 1)
              if n <= np.iinfo(dtype).max]
        assert a_batch(spec, np.array(ns, dtype=dtype)).tolist() == \
            [a_value(spec, n) for n in ns], dtype


def test_a_prefix_equals_batch_over_range():
    for m, w in [(2, "11"), (3, "02"), (4, "3")]:
        spec = PatternSpec(m, w)
        pre = a_prefix(spec, 5000)
        assert np.array_equal(pre, a_batch(spec, np.arange(5000)))


def test_a_prefix_chunking_is_seamless(monkeypatch):
    """Blocks of 1 and 100 quotients split the runs of every level at
    other places than one whole block does."""
    for m, w in [(2, "01"), (2, "1"), (3, "0"), (3, "102"), (6, "50"),
                 (65, "0"), (257, "1 0")]:
        spec = PatternSpec(m, w)
        whole = a_prefix(spec, 4099)
        for chunk in (1, 100):
            monkeypatch.setattr(blockseq.words, "PREFIX_CHUNK", chunk)
            assert np.array_equal(a_prefix(spec, 4099), whole), (spec, chunk)
            monkeypatch.undo()


def _boundary_patterns(m: int) -> list:
    """Zero-led and nonzero-led patterns of widths 1 to 3."""
    top = m - 1
    return list(dict.fromkeys([
        (0,), (1,), (top,), (0, 0), (0, top), (top, 0), (1, 1),
        (0, 0, 0), (0, 1, 0), (1, 0, 0), (top, top, 1)]))


@pytest.mark.parametrize("m", [2, 3, 6, 64, 65, 257])
def test_a_prefix_at_run_boundaries(m, monkeypatch):
    """Lengths 0, 1, 2 and m^j - 1, m^j, m^j + 1 up to 5000, where the
    last run of a level is cut short or just whole, with blocks of the
    default size and of 7 quotients, which straddle run boundaries."""
    limit = 5000
    sizes = {0, 1, 2, limit}
    power = m
    while power + 1 <= limit:
        sizes |= {power - 1, power, power + 1}
        power *= m
    spot = sorted(n for n in sizes | {limit - 1} if n < limit)
    for w in _boundary_patterns(m):
        spec = PatternSpec(m, w)
        want = a_batch(spec, np.arange(limit))
        assert [int(want[n]) for n in spot] == [a_value(spec, n) for n in spot]
        for chunk in (blockseq.words.PREFIX_CHUNK, 7):
            monkeypatch.setattr(blockseq.words, "PREFIX_CHUNK", chunk)
            for n in sorted(sizes):
                got = a_prefix(spec, n)
                assert got.dtype == np.uint8 and got.size == n
                assert np.array_equal(got, want[:n]), (spec, n, chunk)
            monkeypatch.undo()


@pytest.mark.parametrize("m", [2, 3, 5, 10, 65])
def test_a_prefix_recursion_around_powers_of_the_base(m, monkeypatch):
    """a(n) = (H(n) + a(n // m)) mod m reads the term one digit shorter;
    at n = m^j - 1, m^j and m^j + 1 that term drops below or reaches a
    power of m, and n = 0, 1 sit below the first parent.  Blocks of 1, 7
    and 100 terms cut the output at other places than the default."""
    limit = max(2000, m * m + 2)
    spot = {0, 1}
    power = m
    while power + 1 < limit:
        spot |= {power - 1, power, power + 1}
        power *= m
    for w in _boundary_patterns(m):
        spec = PatternSpec(m, w)
        want = a_batch(spec, np.arange(limit))
        for chunk in (blockseq.words.PREFIX_CHUNK, 1, 7, 100):
            monkeypatch.setattr(blockseq.words, "PREFIX_CHUNK", chunk)
            got = a_prefix(spec, limit)
            monkeypatch.undo()
            assert np.array_equal(got, want), (spec, chunk)
            assert [int(got[n]) for n in sorted(spot)] == \
                [a_value(spec, n) for n in sorted(spot)], (spec, chunk)


@pytest.mark.parametrize("m", [2, 3, 7, 257])
def test_a_prefix_zero_pattern_at_index_zero(m):
    """The expansion of 0 is "0": one occurrence of w = "0" and none of
    a longer zero word, which the recursion must not pass on to the
    indices 1..m-1 whose parent is 0."""
    zero = a_prefix(PatternSpec(m, "0"), m + 1)
    assert zero[0] == 1 and not zero[1:m].any() and zero[m] == 1
    for w in ([0, 0], [0, 1]):
        assert a_prefix(PatternSpec(m, w), 1).tolist() == [0]
    assert a_prefix(PatternSpec(m, "0"), 0).size == 0


@pytest.mark.parametrize("m", [2, 3, 5])
def test_a_prefix_shorter_than_the_pattern_window(m):
    """Below m^|w| an index has at most |w| digits: a nonzero-led w
    occurs only at n = (w)_m, and a zero-led one nowhere."""
    for w in _boundary_patterns(m):
        spec = PatternSpec(m, w)
        if spec.width < 2:
            continue
        for n in (1, spec.value, spec.value + 1, m ** spec.width - 1):
            want = np.zeros(n, dtype=np.uint8)
            if not spec.is_zero_word and spec.value < n:
                want[spec.value] = 1
            assert np.array_equal(a_prefix(spec, n), want), (spec, n)


def _prefix_blocks(m: int, n: int, chunk: int):
    """The blocks [lo, hi) that `a_prefix` fills for n terms with
    PREFIX_CHUNK = chunk: at most chunk terms each, cut at m below m and
    at hi <= m * lo from there on."""
    lo = 0
    while lo < n:
        hi = min(n, lo + chunk, m * lo if lo >= m else m)
        yield lo, hi
        lo = hi


def _zero_led(bases=(2, 3, 5, 10), max_width=3):
    """Every zero-led pattern of width 1 to max_width over each base,
    the all-zero ones among them."""
    return [(m, w) for m in bases for w in patterns(m, max_width)
            if w[0] == 0]


@pytest.mark.parametrize("m", [2, 3, 5, 10])
def test_a_prefix_clears_only_the_short_index_of_a_zero_led_w(
        m, monkeypatch):
    """On every zero-led pattern of width <= 3, a_prefix equals a_value
    through first_end, with blocks cut so that (w)_m, the one index that
    is (w)_m mod m^|w| but too short to end in w, is a block's first
    index, and then its last."""
    for _, w in _zero_led((m,)):
        spec = PatternSpec(m, w)
        v, n = spec.value, spec.first_end + 2
        want = [a_value(spec, i) for i in range(n)]
        for edge in (0, -1):  # v first in its block, then last
            chunks = [c for c in range(1, 2 * v + 3)
                      if any((lo, hi - 1)[edge] == v
                             for lo, hi in _prefix_blocks(m, n, c))]
            monkeypatch.setattr(blockseq.words, "PREFIX_CHUNK", max(chunks))
            assert a_prefix(spec, n).tolist() == want, (spec, edge)
            monkeypatch.undo()


@pytest.mark.parametrize("m, w", [(2, "11"), (3, "02"), (6, "50"),
                                  (65, "0"), (257, "1 0")])
def test_recursion_blocks_name_the_least_wrong_index(m, w, monkeypatch):
    """The recursion read from a candidate prefix x instead of a checks x:
    `recursion_mismatch` passes x = a, and otherwise names the least
    index where x differs from a, with a there.  x is a with 1 to 3
    random indices set to other values inside or outside [0, m), one of
    them sometimes a child i * m + 1 of another; chunks of the default
    size and of 7 and 1 children."""
    n = 5000
    spec = PatternSpec(m, w)
    want = a_batch(spec, np.arange(n))
    rng = random.Random(m)
    for chunk in (blockseq.words.ROW_CHUNK, 7, 1):
        monkeypatch.setattr(blockseq.words, "ROW_CHUNK", chunk)
        assert recursion_mismatch(spec, want.copy()) is None, (spec, chunk)
        for _ in range(40):
            x = want.copy()
            at = rng.sample(range(n), rng.randint(1, 3))
            if at[0] * m + 1 < n and rng.random() < 0.5:
                at.append(at[0] * m + 1)
            for i in at:
                x[i] = rng.choice([v for v in (0, 1, m - 1, m, 9, 255)
                                   if v != want[i] and v <= 255])
            first = int(np.flatnonzero(x != want)[0])
            assert recursion_mismatch(spec, x) == (first, want[first]), (
                spec, chunk, at)
        monkeypatch.undo()


@pytest.mark.parametrize("m, w", GRID,
                         ids=[f"{m}-{''.join(map(str, w))}" for m, w in GRID])
def test_recursion_mismatch_over_the_grid(m, w):
    """On the grid, at lengths around the head (m - 1, m, m + 1), the
    first parent with a short last child run (2m + 1), the chunk size and
    past three chunks: `a_prefix`'s output passes, and a copy wrong at
    the first index, the last one, either side of each start of the
    check's rows of m, rows of L and chunks of rows, and either side of
    m * (ROW_CHUNK // m + 1), by one or by 255, is named at its least
    wrong index, with a there."""
    spec = PatternSpec(m, w)
    chunk = blockseq.words.ROW_CHUNK
    for n in sorted({1, m - 1, m, m + 1, 2 * m + 1, chunk - 1, chunk + 1,
                     3 * 2 ** 16 + 11}):
        want = a_prefix(spec, n)
        assert recursion_mismatch(spec, want) is None, n
        starts = [*row_layout(m, w, n).starts, m * (chunk // m + 1)]
        edges = {0, n - 1, *(i for start in starts
                             for i in (start - 1, start))}
        for i in edges & set(range(n)):
            for bad in ((int(want[i]) + 1) % m, 255):
                x = want.copy()
                x[i] = bad
                first = int(np.flatnonzero(x != want)[0])
                assert recursion_mismatch(spec, x) == (first, want[first]), (
                    n, i, bad)


@pytest.mark.parametrize("m", [2, 3, 257])
def test_recursion_mismatch_takes_only_a_uint8_array(m):
    """A wider array would be copied into the uint8 scratch, where 256
    reads as 0, and a list has no reshape: both raise one TypeError at
    entry, at m + 1 terms (the head alone) and at 2m terms (past it)."""
    spec = PatternSpec(m, "1")
    for n in (m + 1, 2 * m):
        want = a_prefix(spec, n)
        assert recursion_mismatch(spec, want) is None
        wide = want.astype(np.int64)
        wide[-1] += 256  # the same as want once wrapped into uint8
        for x in (want.astype(np.int64), wide, want.tolist()):
            with pytest.raises(TypeError, match="uint8"):
                recursion_mismatch(spec, x)


def assert_names_each_edge(spec, n, edges):
    """`recursion_mismatch` passes a_batch's first n terms, and names the
    least wrong index, with a there, in a copy wrong at an edge i, by
    one or by 255, alone or with 255 at its children i * m + 1 and
    i * L + 1 too."""
    row = row_layout(spec.base, spec.pattern).L
    want = a_batch(spec, np.arange(n))
    assert recursion_mismatch(spec, want) is None
    for i in sorted(set(edges) & set(range(n))):
        for bad in ((int(want[i]) + 1) % spec.base, 255):
            for kids in ([], [i * spec.base + 1, i * row + 1]):
                x = want.copy()
                x[i] = bad
                x[[j for j in kids if j < n]] = 255
                first = int(np.flatnonzero(x != want)[0])
                assert recursion_mismatch(spec, x) == (
                    first, want[first]), (i, bad, kids)


# (m, w, N, ROW_CHUNK, ROW_CAP), each first at the module's sizes and
# then with small chunks and rows: K < |w| at m = 2 (L = 2^12 against a
# 13-digit w) and m = 10 (10^3 against a zero-led 8-digit w), a zero-led
# w with K >= |w| (U read from [L, 2L), so the rows of L begin at 2L),
# w = "0" (the compare with H runs to 2m), the broadcast add from m = 64
# on, and rows of m alone at m = 257, 4099 and 2^64, the last with N < m.
ROW_CASES = [
    (2, "1011001110001", 3 * 2 ** 16 + 11, None, None),
    (2, "1011001110001", 500, 24, 4),
    (10, "01234567", 3 * 2 ** 16 + 11, None, None),
    (10, "01234567", 12345, 1000, 100),
    (3, "02", 3 * 2 ** 16 + 11, None, None),
    (3, "02", 700, 30, 9),
    (2, "0", 3 * 2 ** 16 + 11, None, None),
    (2, "0", 300, 16, 8),
    (5, "123", 3 * 2 ** 16 + 11, None, None),
    (5, "123", 2000, 100, 25),
    (64, "1 0", 3 * 2 ** 16 + 11, None, None),
    (64, "1 0", 20000, 4096, 64),
    (257, "1 0", 3 * 2 ** 16 + 11, None, None),
    (4099, "1", 20 * 4099 + 17, None, None),
    (4099, "0 5", 10 * 4099 + 5, 4099, 1),
    (2 ** 64, "1 0", 1000, None, None),
    (2 ** 64, "0", 1000, 7, 1),
]


@pytest.mark.parametrize("m, w, n, chunk, cap", ROW_CASES,
                         ids=[f"m{m}-w{w.replace(' ', '_')}-{n}-{chunk}-{cap}"
                              for m, w, n, chunk, cap in ROW_CASES])
def test_recursion_mismatch_at_row_chunk_and_head_edges(m, w, n, chunk, cap,
                                                       monkeypatch):
    """Wrong terms either side of m, where the head's parents begin, of
    the head and each chunk of rows after it, of the rows of L at L, 2L,
    3L, 4L and the last, at m + 1 and at the last index are each named,
    and so is a wrong parent whose wrong children lie in a later row,
    chunk or the rows past the head, which read it as their parent or
    U."""
    if chunk is not None:
        monkeypatch.setattr(blockseq.words, "ROW_CHUNK", chunk)
        monkeypatch.setattr(blockseq.words, "ROW_CAP", cap)
    row, _, _, starts = row_layout(m, w, n)
    starts += [m, *(k * row for k in (1, 2, 3, 4, n // row))]
    assert_names_each_edge(PatternSpec(m, w), n, [
        0, m + 1, n - 1, *(i for start in starts for i in (start - 1, start))])


# K < |w| and K >= |w| below m = 64 (table rows), a zero-led w (U read
# from [L, 2L)), a 13-digit w at m = 2 (K = 11) and the broadcast add of
# m = 257.
CUT_CASES = [(2, "101"), (3, "012"), (2, "1101101101101"), (257, "1 0")]


@pytest.mark.parametrize("m, w", CUT_CASES,
                         ids=[f"m{m}-w{w.replace(' ', '_')}"
                              for m, w in CUT_CASES])
def test_recursion_mismatch_names_a_fault_at_each_cut_slice(m, w):
    """For each cut j, a term wrong at the first r of I_j (the r whose
    padding to K digits starts with w[j:]) in the first row s past the
    head whose expansion ends in w[:j] is named with a_value there, by
    one or by 255: that row is filled again from the table to read it."""
    spec = PatternSpec(m, w)
    L, _, head, _ = row_layout(m, w)
    K, k = len(to_base(L, m)) - 1, spec.width
    faults = []
    for j in range(max(1, k - K), k):
        f, step = PatternSpec(m, spec.pattern[:j]).first_end, m ** j
        s = f + -(-max(0, head // L - f) // step) * step
        faults.append(s * L + from_base(spec.pattern[j:], m) * m ** (K - k + j))
    assert len(faults) == min(K, k - 1) and min(faults) >= head
    want = a_prefix(spec, max(faults) + 1)
    for n in faults:
        for bad in ((int(want[n]) + 1) % m, 255):
            x = want.copy()
            x[n] = bad
            assert recursion_mismatch(spec, x) == (n, a_value(spec, n)), (
                n, bad)


# The widest tables of border classes on the np.take path: at m = 61,
# 62 and 63 a row of m^2 <= 4096 terms would need a table past 2^16
# bytes, so the rows are m terms long and the table min(|w|, 2) * m rows
# of them, whose bytes past m * L shorten each chunk; zero-led words,
# K < |w| there, and 13-digit words at m = 2, where K = 11 < |w|.
SWEEP_CASES = [(61, "0 60"), (61, "5 0 5"), (62, "0 1"), (62, "61 61 61"),
               (63, "0 0 62"), (63, "7"), (2, "0110110110110"),
               (2, "1101101101101")]


@pytest.mark.parametrize("m, w", SWEEP_CASES,
                         ids=[f"m{m}-w{w.replace(' ', '_')}"
                              for m, w in SWEEP_CASES])
def test_recursion_mismatch_names_faults_at_each_chunk_start(m, w):
    """Over three chunks and more, a wrong term at the first or last
    index or either side of each start of the rows and their chunks, by
    one or by 255, alone or with wrong children, is named at its least
    wrong index with a_batch's term there."""
    n = 3 * 2 ** 16 + 11
    starts = row_layout(m, w, n).starts
    assert len(starts) >= 3, starts  # the head and two chunks past it
    assert_names_each_edge(PatternSpec(m, w), n, [
        0, n - 1, *(i for start in starts for i in (start - 1, start))])


@pytest.mark.parametrize("m, width", [(2, 6), (3, 4)])
def test_recursion_mismatch_on_every_pattern_with_small_rows(m, width,
                                                             monkeypatch):
    """Every pattern of widths 1 to `width`, with rows of m^2 terms in
    chunks of 3m rows, so K < |w| and K >= |w| both arise: wrong terms
    either side of each start of rows and chunks and at three random
    indices are named."""
    monkeypatch.setattr(blockseq.words, "ROW_CHUNK", 3 * m ** 3)
    monkeypatch.setattr(blockseq.words, "ROW_CAP", m ** 2)
    rng = random.Random(m)
    n = 4 * m ** 5 + 3
    for w in patterns(m, width):
        starts = row_layout(m, w, n).starts
        assert_names_each_edge(PatternSpec(m, w), n, [
            *(i for start in starts for i in (start - 1, start)),
            *rng.sample(range(n), 3)])


@pytest.mark.parametrize("m, w", [(2, "11"), (3, "2"), (61, "1"), (64, "1"),
                                  (257, "1 0"), (2, "1011001110001")])
def test_recursion_mismatch_scratch_stays_under_a_fifth_of_a_mib(m, w):
    """At 2^20 terms the check holds one chunk of expected rows and, below
    m = 64, its table of border classes: under the 0.2 MiB that `verify`
    promises, for a long w too.  A table of m * L bytes for the largest
    L = m^K <= 4096 would alone take 61 * 3721 bytes at m = 61."""
    spec = PatternSpec(m, w)
    x = a_prefix(spec, 1 << 20)
    result, peak = peak_bytes(recursion_mismatch, spec, x)
    assert result is None
    assert peak <= 0.2 * 2 ** 20, f"scratch {peak / 2 ** 20:.3f} MiB"


@pytest.mark.parametrize("m, w, n", [
    (2, "11", 2 ** 20 + 1), (3, "02", 3 ** 12 + 1), (257, "1", 257 ** 2 + 1),
])
def test_a_prefix_peak_memory(m, w, n):
    """The output plus one block of quotients: no array of n int64
    indices or n quotients, which took about 20 bytes per term."""
    spec = PatternSpec(m, w)
    scratch = 16 * blockseq.words.PREFIX_CHUNK  # quotients and their tests
    out, peak = peak_bytes(a_prefix, spec, n)
    assert out.size == n
    assert peak <= 3 * n + scratch, f"peak {peak / n:.2f} bytes per term"


# ---------------------------------------------------------------------------
# PatternSpec validation
# ---------------------------------------------------------------------------

def test_pattern_spec_normalizes_inputs():
    assert PatternSpec(2, "11").pattern == (1, 1)
    assert PatternSpec(3, [1, 2]).pattern == (1, 2)
    assert PatternSpec(5, (2, 3)).pattern == (2, 3)


def test_pattern_spec_value_and_flags():
    spec = PatternSpec(2, "11")
    assert spec.value == 3
    assert spec.width == 2
    assert not spec.is_zero_word
    assert PatternSpec(2, "01").is_zero_word
    assert PatternSpec(2, "11").modulus_is_prime
    assert not PatternSpec(4, "11").modulus_is_prime
    assert str(PatternSpec(3, "02")) == "m=3 w=02"


def _ends_in(n: int, spec: PatternSpec) -> bool:
    """Whether the canonical expansion of n has at least |w| digits and
    ends in w."""
    digits = to_base(n, spec.base)
    return len(digits) >= spec.width and digits[-spec.width:] == spec.pattern


FIRST_END_CASES = list(dict.fromkeys(
    GRID + _zero_led()
    + [(257, (0,)), (257, (0, 1)), (257, (5, 0))]))


@pytest.mark.parametrize(
    "m, w", FIRST_END_CASES,
    ids=[f"{m}-{'_'.join(map(str, w))}" for m, w in FIRST_END_CASES])
def test_first_end_is_the_least_index_ending_in_w(m, w):
    """first_end is the least n whose expansion ends in w, and the n
    that do, up to two periods past it, are first_end + j * m^|w|."""
    spec = PatternSpec(m, w)
    period = m ** spec.width
    first = next(n for n in itertools.count() if _ends_in(n, spec))
    assert spec.first_end == first
    for n in range(first + 2 * period + 1):
        assert _ends_in(n, spec) == (n >= first and (n - first) % period == 0)


def test_first_end_past_two_to_the_64():
    """At a base past 2^64 a zero-led w ends no index below m^|w|: the
    n that are (w)_m mod m^|w| are (w)_m and then (w)_m + m^|w|."""
    m = 2 ** 64 + 13
    for w in ((0, 1), (0, 0), (0, m - 1, 0)):
        spec = PatternSpec(m, w)
        v, period = spec.value, m ** spec.width
        assert spec.first_end == v + period
        assert _ends_in(v + period, spec) and not _ends_in(v, spec)
        assert not any(_ends_in(n, spec) for n in (0, 1, v + 1, period - 1))
    assert PatternSpec(m, (m - 1, 0)).first_end == (m - 1) * m
    assert PatternSpec(m, (0,)).first_end == 0


def test_pattern_spec_rejects_bad_input():
    with pytest.raises(InvalidPatternError):
        PatternSpec(2, "")
    with pytest.raises(InvalidPatternError):
        PatternSpec(2, "21")
    with pytest.raises(InvalidBaseError):
        PatternSpec(1, "0")
    with pytest.raises(InvalidPatternError):
        PatternSpec(2, "1x")


def test_pattern_spec_rejects_non_integers():
    """A fractional base or digit raises rather than truncating; numpy
    integers are integers, and the base is stored as an int."""
    for base in (2.5, 3.0, "3", None):
        with pytest.raises(InvalidBaseError):
            PatternSpec(base, "1")
    for pattern in ((1.9,), [1, 0.0], np.array([1.0])):
        with pytest.raises(InvalidPatternError):
            PatternSpec(2, pattern)
    spec = PatternSpec(np.int64(3), "12")
    assert spec == PatternSpec(3, "12") and type(spec.base) is int
    assert PatternSpec(3, np.array([1, 2])).pattern == (1, 2)
    assert PatternSpec(np.uint8(2), (np.int64(1),)).pattern == (1,)


def test_pattern_spec_takes_only_ascii_digits():
    """int() would read an underscore separator, a sign, an Arabic-Indic
    or a fullwidth digit, or split on an ideographic space; the digit
    forms still parse."""
    for m, w in [(16, "1_0"), (10, "1_0"), (16, "+5 -0"), (2, "\u0661"),
                 (3, "\uff112"), (16, "1\u30002")]:
        with pytest.raises(InvalidPatternError,
                           match="is not a digit sequence"):
            PatternSpec(m, w)
    assert PatternSpec(2, "011").pattern == (0, 1, 1)
    assert PatternSpec(16, " 1  2 ").pattern == (1, 2)
    assert PatternSpec(16, "1 \t\n\r\v\f2").pattern == (1, 2)


@pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f",
                                       "\x00", ",", "\x85", "\xa0"])
def test_pattern_spec_separates_numbers_only_by_ascii_spacing(separator):
    """Above base 10 numbers are separated by ASCII space, tab, newline,
    carriage return, vertical tab or form feed; str.split() would also
    cut at the control characters 0x1c-0x1f (and at two non-ASCII
    spaces)."""
    with pytest.raises(InvalidPatternError, match="is not a digit sequence"):
        PatternSpec(16, f"1{separator}2")
    assert PatternSpec(257, "256 0").pattern == (256, 0)
    assert PatternSpec(3, (1, 2)).pattern == (1, 2)
    assert PatternSpec(5, (np.int64(3), np.uint8(0))).pattern == (3, 0)
