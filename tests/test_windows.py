"""Unit tests for the window transform and the doubling generator."""

import numpy as np
import pytest

import blockseq.windows
import blockseq.words
from blockseq import (PatternSpec, a_batch, a_prefix, a_value,
                      build_morphism, expand_fixed_point, generate)
from support import (GRID, RS_S1, RS_S2, RS_S3, ZW_PREFIX64, ZW_S0, ZW_S1,
                     ZW_S2, as_str, patterns, peak_bytes, row_layout)


# ---------------------------------------------------------------------------
# the seed block u_0 and the doubling step, read off the output: for a
# nonzero-led pattern u_k is the prefix of length m^(|w|+k); for a
# zero-led one it starts the chunk u_k^(m-1) at m^(|w|+k)
# ---------------------------------------------------------------------------

def test_initial_block_examples():
    assert as_str(generate(PatternSpec(2, "11"), 4)) == "0001"
    assert as_str(generate(PatternSpec(2, "01"), 8)[4:8]) == ZW_S0
    assert as_str(generate(PatternSpec(3, "2"), 3)) == "001"
    assert generate(PatternSpec(3, "2"), 3).dtype == np.uint8


def test_step_nonzero_examples():
    out = generate(PatternSpec(2, "11"), 16)
    assert as_str(out[:8]) == RS_S1
    assert as_str(out[:16]) == RS_S2

    # single-letter pattern: u -> u phi(u) for base 2, from u_0 = 01
    assert as_str(generate(PatternSpec(2, "1"), 4)) == "0110"


def test_step_zero_examples():
    # a pattern starting with 0 puts phi(u) first: u -> phi(u) u^(m-1)
    out = generate(PatternSpec(2, "01"), 32)
    assert as_str(out[8:16]) == ZW_S1
    assert as_str(out[16:32]) == ZW_S2

    # pattern 0: u_0 = 10 at [2, 4), u_1 = phi(u_0) u_0 at [4, 8)
    out = generate(PatternSpec(2, "0"), 8)
    assert as_str(out[2:4]) == "10"
    assert as_str(out[4:8]) == "0110"


# ---------------------------------------------------------------------------
# full generation: golden strings
# ---------------------------------------------------------------------------

def test_generate_golden_nonzero_word():
    out = generate(PatternSpec(2, "11"), 32)
    assert as_str(out) == RS_S3


def test_generate_golden_zero_word():
    out = generate(PatternSpec(2, "01"), 64)
    assert as_str(out) == ZW_PREFIX64


def test_generate_golden_single_zero():
    # a for base 2, pattern 0 counts zeros in the expansion; its lead block
    # is the seed itself, giving a(0) = 1.
    out = generate(PatternSpec(2, "0"), 8)
    assert as_str(out) == "10100110"


def test_generate_all_zero_length_two_starts_flat():
    # For the pattern 00 no index below 4 has two zeros in its expansion,
    # and a(4) = 1 from "100".
    out = generate(PatternSpec(2, "00"), 8)
    assert as_str(out) == "00001000"


def test_generate_thue_morse():
    out = generate(PatternSpec(2, "1"), 16)
    assert as_str(out) == "0110100110010110"


def test_generate_short_requests_and_edge_lengths():
    spec = PatternSpec(2, "11")
    full = generate(spec, 4096)
    for n in (1, 2, 3, 4, 5, 63, 64, 65, 4095):
        assert np.array_equal(generate(spec, n), full[:n])
    spec0 = PatternSpec(2, "01")
    full0 = generate(spec0, 4096)
    for n in (1, 2, 3, 4, 5, 63, 64, 65, 4095):
        assert np.array_equal(generate(spec0, n), full0[:n])


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_generate_matches_oracle(m):
    """The doubling generator and the counting oracle agree for every
    pattern of width <= 3, prime base or not."""
    n = 2500
    for pat in patterns(m, 3):
        spec = PatternSpec(m, pat)
        got = generate(spec, n)
        want = a_prefix(spec, n)
        assert np.array_equal(got, want), f"mismatch for {spec}"


# bases on both sides of the m > 64 skip of the wrap; base 257 stops at
# width 1, where width 2 would need 2*257^3 oracle terms
WIDE_BASE_PATTERNS = {64: ["1", "0", "10", "01"], 65: ["1", "0", "10", "01"],
                      257: ["1", "0"]}


@pytest.mark.parametrize("m", [2, 3, 5, 64, 65, 257])
def test_generate_up_to_seed_length_matches_oracle(m):
    """Lengths on both sides of the level boundaries m^(|w|-1), m^|w|
    and m^(|w|+1), where the in-place levels start, and past the first
    clipped level; short requests take the same loop as long ones."""
    pats = patterns(m, 3) if m <= 5 else WIDE_BASE_PATTERNS[m]
    for pat in pats:
        spec = PatternSpec(m, pat)
        den, seed = m ** (spec.width - 1), m ** spec.width
        for n in sorted({1, den - 1, den + 1, seed, seed + 1, m * seed - 1,
                         m * seed + 1, 2 * m * seed + 1} - {0}):
            got = generate(spec, n)
            assert got.dtype == np.uint8
            assert np.array_equal(got, a_prefix(spec, n)), (spec, n)


def test_generate_short_request_allocates_no_seed():
    spec = PatternSpec(10, "01234567")  # the seed would be 10^8 bytes
    out, peak = peak_bytes(generate, spec, 1000)
    assert not out.any()
    assert peak < 1 << 20


@pytest.mark.parametrize("m, w, n", [
    (2, "1", 2 ** 20 + 1), (2, "11", 2 ** 20 + 1), (2, "0", 2 ** 20 + 1),
    (3, "02", 3 ** 12 + 1), (257, "1", 257 ** 2 + 1), (257, "0", 4 * 257 ** 2),
    (3, "1", 3 ** 13 + 1), (5, "4", 5 ** 9 + 1),
])
def test_generate_peak_memory_is_linear(m, w, n):
    """The levels are written into the one N-byte output buffer: no
    block past N, no copy per level and no mask.  Single letters of
    bases that are not powers of two wrap the longest windows, N/m
    terms, in chunks whose scratch must stay fixed."""
    spec = PatternSpec(m, w)
    out, peak = peak_bytes(generate, spec, n)
    assert out.size == n
    assert peak <= 1.1 * n + (64 << 10), f"peak {peak / n:.2f} bytes per term"


@pytest.mark.parametrize("m, w", [(3, "1"), (5, "4"), (6, "5"), (7, "3"),
                                  (3, "02")])
def test_generate_wraps_windows_longer_than_a_chunk(m, w):
    """Bases that are not powers of two wrap a window chunk by chunk;
    the last levels here hold windows longer than one chunk."""
    spec = PatternSpec(m, w)
    n = 16 * m * blockseq.windows.WRAP_CHUNK + 1
    assert np.array_equal(generate(spec, n), a_prefix(spec, n))


@pytest.mark.parametrize("seed_terms", [1, 7, 1 << 14, 1 << 20])
@pytest.mark.parametrize("m, w", [(2, "1"), (2, "01"), (2, "0"), (3, "102"),
                                  (3, "00"), (5, "4"), (6, "05"), (65, "1"),
                                  (257, "0")])
def test_generate_bytes_levels_hand_over_to_numpy(monkeypatch, seed_terms,
                                                  m, w):
    """The levels up to SEED_TERMS terms are built as bytes and the numpy
    levels go on from the last of them: with no bytes level, with every
    level as bytes and with cuts in between, each length on either side
    of a cut gives the oracle's terms."""
    monkeypatch.setattr(blockseq.windows, "SEED_TERMS", seed_terms)
    spec = PatternSpec(m, w)
    for n in (1, 2, m ** spec.width + 1, (1 << 14) - 1, (1 << 14) + 1,
              3 * (1 << 14) + 5, 200_003):
        assert np.array_equal(generate(spec, n), a_prefix(spec, n)), (spec, n)


@pytest.mark.parametrize("m, w, sizes", [
    (2, "11", (3, 5000)),  # x != 0, levels from bytes
    (3, "00", (5, 5000)),  # x = 0, levels from bytes
    (2, "1" + "0" * 15, (100, 40_000, 200_000)),  # x != 0, m^|w| > SEED_TERMS
    (2, "0" + "1" * 15, (100, 40_000, 200_000)),  # x = 0, m^|w| > SEED_TERMS
    (10, "00000", (500, 50_000, 300_000)),
])
def test_generate_on_a_dirty_heap_matches_oracle(m, w, sizes):
    """The output buffer is not zeroed beyond its first m^|w| terms, so
    every later term must be written before it is read.  Freed arrays
    of 0xFF bytes and the output's size first make the allocator hand
    back dirty memory, both short of m^|w| and past it."""
    spec = PatternSpec(m, w)
    for n in sizes:
        for _ in range(2):
            np.full(n, 0xFF, dtype=np.uint8)
        assert np.array_equal(generate(spec, n), a_prefix(spec, n)), n


def test_generate_matches_oracle_wider_pattern():
    for m, w in [(2, "1101"), (3, "0012")]:
        spec = PatternSpec(m, w)
        assert np.array_equal(generate(spec, 4000), a_prefix(spec, 4000))


# ---------------------------------------------------------------------------
# structural laws of the expansions
# ---------------------------------------------------------------------------

def test_nonzero_word_block_structure():
    """For a pattern with first letter x, every length-m^L block of the
    expansion at offset j != x repeats the leading block."""
    for m, w in [(2, "11"), (3, "12"), (3, "21")]:
        spec = PatternSpec(m, w)
        x = spec.pattern[0]
        for L in (2, 3, 4):
            size = m ** L
            out = generate(spec, m * size)
            lead = out[:size]
            for j in range(m):
                block = out[j * size : (j + 1) * size]
                if j != x:
                    assert np.array_equal(block, lead)
                else:
                    assert not np.array_equal(block, lead)


def test_zero_word_chunk_repetition():
    """For 0-words the segment between consecutive base powers consists of
    base-1 identical copies of one chunk."""
    for m, w in [(2, "01"), (3, "02"), (3, "0")]:
        spec = PatternSpec(m, w)
        width = spec.width
        out = generate(spec, m ** (width + 3))
        for j in range(width, width + 3):
            lo, hi = m ** j, m ** (j + 1)
            seg = out[lo:hi]
            chunk = seg[: m ** j]
            for c in range(1, m - 1):
                assert np.array_equal(seg[c * m ** j : (c + 1) * m ** j], chunk)


def test_zero_word_high_block_invariance():
    """Prepending a nonzero digit never changes the count of a 0-word:
    a(r + y*m^(k+1)) = a(r) for t < m^k <= r < m^(k+1)."""
    from blockseq import a_batch

    for m, w in [(2, "0"), (2, "01"), (3, "00"), (3, "012")]:
        spec = PatternSpec(m, w)
        t = spec.value
        for k in range(1, 7):
            if not t < m ** k:
                continue
            r = np.arange(m ** k, m ** (k + 1))
            base_vals = a_batch(spec, r)
            for y in range(1, m):
                assert np.array_equal(a_batch(spec, r + y * m ** (k + 1)), base_vals)


def test_generate_rejects_bad_count():
    with pytest.raises(ValueError):
        generate(PatternSpec(2, "11"), 0)


@pytest.mark.parametrize("seed_terms", [1, blockseq.windows.SEED_TERMS])
def test_base2_one_pass_levels_on_a_dirty_heap_match_oracle(monkeypatch,
                                                            seed_terms):
    """Base-2 levels write the incremented copy in one pass (the window
    xor 1, the rest copied).  Every base-2 pattern of width <= 3, at
    2^K - 1, 2^K and 2^K + 1 for 2^K = SEED_TERMS, 2 * SEED_TERMS and
    2^20, after freed 0xFF arrays of the output's size, gives the
    oracle's terms, with the numpy levels starting at m^(|w|-1) or
    after the bytes levels."""
    k = blockseq.windows.SEED_TERMS
    sizes = [s + d for s in (k, 2 * k, 1 << 20) for d in (-1, 0, 1)]
    monkeypatch.setattr(blockseq.windows, "SEED_TERMS", seed_terms)
    for pat in patterns(2, 3):
        spec = PatternSpec(2, pat)
        for n in sizes:
            want = a_prefix(spec, n)
            for _ in range(2):
                np.full(n, 0xFF, dtype=np.uint8)
            assert np.array_equal(generate(spec, n), want), (spec, n)


# ---------------------------------------------------------------------------
# the row generator: a[0:N) a chunk of whole rows at a time
# ---------------------------------------------------------------------------

# the grid, bases 4, 6, 10, 11 and 257 (zero-led and not), and 13-digit
# words at m = 2, where the rows are shorter than w
ROW_PATTERNS = GRID + [
    (4, (1,)), (4, (0, 3)), (4, (3, 0, 2)), (6, (5,)), (6, (0,)),
    (6, (1, 0)), (10, (0, 1, 2, 3, 4, 5, 6, 7)), (10, (9, 9)),
    (11, (1,)), (11, (10, 0)), (11, (0, 10)), (257, (1,)), (257, (0,)),
    (257, (5, 0)), (2, (1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1)),
    (2, (0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0)),
]


def row_chunks(spec, n):
    """The chunks `_row_chunks` yields for n terms, each copied (they
    share one buffer), after checking that every chunk but the last is
    whole rows and that all but the first share the first one's
    buffer."""
    L, rows, _, _ = row_layout(spec.base, spec.pattern)
    chunks, first = [], None
    for chunk in blockseq.windows._row_chunks(spec, n):
        assert chunk.dtype == np.uint8
        if first is None:
            first = chunk
        else:
            assert len(chunks[-1]) == rows * L
            assert np.shares_memory(chunk, first)
        chunks.append(chunk.copy())
    assert sum(map(len, chunks)) == n
    return chunks


def row_sizes(spec, n_max):
    """N = 1, the edges of the head and of the first rows (L +- 1,
    2L +- 1, 3L + 1) and of every chunk, and n_max, below n_max."""
    L, rows, head, _ = row_layout(spec.base, spec.pattern)
    sizes = {1, n_max}
    for edge in [L, 2 * L, 3 * L, head, *range(0, n_max, rows * L)]:
        sizes.update((edge - 1, edge, edge + 1))
    return sorted(n for n in sizes if 1 <= n <= n_max)


@pytest.mark.parametrize("chunk, cap", [(None, None), (1 << 8, 1 << 4)])
def test_row_chunks_match_the_oracle(monkeypatch, chunk, cap):
    """For every row pattern, the concatenated chunks are the oracle's
    a_batch over the first N indices at each of `row_sizes`, with the
    module's sizes and with rows of at most 16 terms in chunks of 256
    bytes, where every width-3 word past m = 2, every width-2 word past
    m = 4 and both 13-digit words have rows shorter than w (K < |w|)."""
    if chunk:
        monkeypatch.setattr(blockseq.words, "ROW_CHUNK", chunk)
        monkeypatch.setattr(blockseq.words, "ROW_CAP", cap)
    for m, w in ROW_PATTERNS:
        spec = PatternSpec(m, w)
        L, rows, _, _ = row_layout(m, w)
        n_max = min(4 * rows * L + 3 * L + 5, 1 << 18)
        want = a_batch(spec, np.arange(n_max))
        for n in row_sizes(spec, n_max):
            got = np.concatenate(row_chunks(spec, n))
            assert np.array_equal(got, want[:n]), (spec, n)


def test_row_chunks_match_the_scalar_oracle_and_the_morphism():
    """At 2*10^6 + 3 terms the chunks are the morphism's fixed point
    (a prime base) or the oracle's a_batch, and each term either side
    of every chunk edge is a_value's."""
    n = 2 * 10 ** 6 + 3
    for m, w in [(2, "11"), (2, "0"), (3, "12"), (5, "10"), (6, "01"),
                 (257, "5 0"), (2, "1101101101101")]:
        spec = PatternSpec(m, w)
        chunks = row_chunks(spec, n)
        got = np.concatenate(chunks)
        want = (expand_fixed_point(build_morphism(spec), n)
                if spec.modulus_is_prime else a_batch(spec, np.arange(n)))
        assert np.array_equal(got, want), spec
        edges = np.cumsum([len(c) for c in chunks])[:-1]
        for i in sorted({0, n - 1, *(edges - 1), *edges}):
            assert got[i] == a_value(spec, int(i)), (spec, i)


def test_row_chunks_of_a_short_request_are_the_window():
    """Below the head, and for a base past every N, the one chunk is
    the doubling window itself: m = 2^61 - 1 at 10 terms needs no row."""
    for spec, n in [(PatternSpec(2, "11"), 100),
                    (PatternSpec(2 ** 61 - 1, "1"), 10),
                    (PatternSpec(5003, "0"), 10_006)]:
        (chunk,) = blockseq.windows._row_chunks(spec, n)
        assert np.array_equal(chunk, generate(spec, n))


def test_row_chunks_reject_bad_count():
    with pytest.raises(ValueError):
        next(blockseq.windows._row_chunks(PatternSpec(2, "11"), 0))


@pytest.mark.parametrize("m, w", [(2, "0"), (3, "12"), (61, "1 0"),
                                  (257, "5 0"), (2, "1101101101101")])
def test_row_chunks_hold_parents_not_terms(m, w):
    """Consuming 2^23 terms peaks at most the 3 * 2^21 / L more parent
    bytes above 2^21 terms, plus 8 KiB (1.5 KiB more in all at m = 2,
    where L = 4096), and under 0.3 MiB: one chunk, the table and the
    parents."""
    spec = PatternSpec(m, w)
    L = row_layout(m, w).L

    def consume(n):
        for _ in blockseq.windows._row_chunks(spec, n):
            pass

    peaks = [peak_bytes(consume, n)[1] for n in (1 << 21, 1 << 23)]
    assert peaks[1] - peaks[0] <= 3 * (1 << 21) // L + (8 << 10), peaks
    assert max(peaks) <= 0.3 * 2 ** 20, peaks
