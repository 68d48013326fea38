"""Unit tests for block classification and power-prefix scanning."""

import random

import numpy as np
import pytest

from blockseq import (
    ClaimViolationError,
    InvalidPatternError,
    PatternSpec,
    check_power_claims,
    classify_range,
    generate,
    scan_power_prefixes,
    tail_periods,
)
from blockseq import structure
from blockseq.words import digit_string
from support import GRID, peak_bytes


def ref_type2(spec: PatternSpec, n: int) -> bool:
    """Reference predicate, straight from the digit expansion: the
    pattern minus its last letter must be a suffix of the expansion of n.

    Appending a digit to n = 0 produces a single-digit expansion, so the
    carrier word for n = 0 is empty, not "0".  Digits are compared as a
    list, so bases above 10 work too.
    """
    head = list(spec.pattern[:-1])
    digits = []
    while n:
        digits.append(n % spec.base)
        n //= spec.base
    digits.reverse()
    return len(digits) >= len(head) and digits[len(digits) - len(head):] == head


def ref_classify_range(spec: PatternSpec, prefix) -> np.ndarray:
    """Reference classifier: every block widened to int64, both shapes
    and the predicate tested block by block with `%`."""
    p = spec.base
    i0 = spec.pattern[-1]
    nb = len(prefix) // p
    blocks = np.asarray(prefix[:nb * p], dtype=np.int64).reshape(nb, p)
    t = blocks[:, 1] if i0 == 0 else blocks[:, 0]
    rest_ok = np.ones(nb, dtype=bool)
    for j in range(p):
        if j != i0:
            rest_ok &= blocks[:, j] == t
    is_type2 = rest_ok & (blocks[:, i0] == (t + 1) % p)
    is_type1 = rest_ok & (blocks[:, i0] == t)
    bad = ~(is_type1 | is_type2)
    if bad.any():
        n = int(np.argmax(bad))
        block = blocks[n].tolist()
        shown = (digit_string(block, p) if all(0 <= d < p for d in block)
                 else " ".join(map(str, block)))
        raise ClaimViolationError(
            f"block at n={n} ({spec}) is neither constant nor singly-deviant: "
            f"{shown}")
    q = spec.width - 1
    ns = np.arange(nb, dtype=np.int64)
    if q == 0:
        predicted = np.ones(nb, dtype=bool)
    elif p ** (q - 1) >= nb:  # no block index has q digits
        predicted = np.zeros(nb, dtype=bool)
    else:
        s = 0
        for d in spec.pattern[:-1]:
            s = s * p + d
        predicted = (ns >= p ** (q - 1)) & (ns % (p ** q) == s)
    mismatch = is_type2 != predicted
    if mismatch.any():
        n = int(np.argmax(mismatch))
        raise ClaimViolationError(
            f"block at n={n} ({spec}): classification "
            f"{'type2' if is_type2[n] else 'type1'} contradicts the suffix "
            "predicate")
    return is_type2


def flags_of(type2: range, nb: int) -> np.ndarray:
    """The bool array (True = type 2) over nb blocks that a type-2
    range from classify_range marks; an index past nb raises."""
    flags = np.zeros(nb, dtype=bool)
    flags[list(type2)] = True
    return flags


def outcome(classify, spec: PatternSpec, prefix):
    """The flags a classifier returns (rebuilt from a range over the
    prefix's complete blocks), or the type and text of what it
    raises."""
    try:
        result = classify(spec, prefix)
        if isinstance(result, range):
            result = flags_of(result, len(prefix) // spec.base)
        return result.tolist()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# the suffix predicate
# ---------------------------------------------------------------------------

def type2_at(spec: PatternSpec, n: int) -> bool:
    return n in classify_range(spec, generate(spec, spec.base * (n + 1)))


def test_expected_type2_examples():
    spec = PatternSpec(2, "11")
    assert type2_at(spec, 1)
    assert not type2_at(spec, 0)
    assert not type2_at(spec, 2)  # "10" does not end in "1"
    assert type2_at(spec, 3)

    # single-letter patterns: every block is type 2
    assert type2_at(PatternSpec(2, "0"), 0)
    assert type2_at(PatternSpec(3, "2"), 7)

    # zero-led width-2 pattern: n = 0 is NOT type 2 (its children are
    # single digits, which cannot contain a width-2 pattern)
    assert not type2_at(PatternSpec(2, "01"), 0)
    assert type2_at(PatternSpec(2, "01"), 2)


def test_expected_type2_against_reference():
    rng = random.Random(31)
    for m, w in [(2, "1"), (2, "11"), (2, "01"), (2, "010"), (3, "12"),
                 (3, "00"), (5, "23")]:
        spec = PatternSpec(m, w)
        ns = list(range(300)) + [rng.randrange(10 ** 6) for _ in range(200)]
        type2 = classify_range(spec, generate(spec, m * (max(ns) + 1)))
        want = [ref_type2(spec, n) for n in ns]
        assert [n in type2 for n in ns] == want, spec


# ---------------------------------------------------------------------------
# block classification
# ---------------------------------------------------------------------------

def test_classify_block_examples():
    spec = PatternSpec(2, "11")
    type2 = classify_range(spec, generate(spec, 32))

    assert 0 not in type2  # block 0 is constant
    assert 1 in type2      # block 1 is 01: type 2
    # the expansion "110" of 6 does not end in "1", so the block stays flat
    assert 6 not in type2


def test_classify_block_detects_corruption():
    spec = PatternSpec(2, "11")
    prefix = generate(spec, 64).copy()
    prefix[12] ^= 1  # makes block 6 contradict the suffix predicate
    with pytest.raises(ClaimViolationError, match="n=6 .*suffix predicate"):
        classify_range(spec, prefix)


def test_classify_block_detects_shape_violation():
    spec = PatternSpec(3, "2")
    with pytest.raises(ClaimViolationError, match="neither constant"):
        classify_range(spec, np.array([0, 1, 2], dtype=np.uint8))


def test_classify_range_matches_scalar():
    for m, w in [(2, "11"), (2, "0"), (3, "02"), (3, "120"), (5, "23")]:
        spec = PatternSpec(m, w)
        prefix = generate(spec, m * 700)
        type2 = classify_range(spec, prefix)
        assert type2.stop == 700
        assert flags_of(type2, 700).tolist() == [ref_type2(spec, n)
                                                 for n in range(700)]


def test_classify_range_full_grid_never_errors():
    for m in (2, 3):
        for w in ("0", "1", "00", "01", "10", "11"):
            try:
                spec = PatternSpec(m, w)
            except InvalidPatternError:
                continue  # digit out of range for the base
            classify_range(spec, generate(spec, m * 4000))


def test_classify_range_detects_corruption():
    spec = PatternSpec(2, "11")
    prefix = generate(spec, 64).copy()
    prefix[3] ^= 1
    with pytest.raises(ClaimViolationError):
        classify_range(spec, prefix)


def test_classify_range_names_out_of_range_digits():
    """A block holding a digit outside [0, p) is shown as decimals; an
    in-range block keeps the concatenated digits."""
    for m, prefix, shown in [
            (2, np.array([0, 300]), "0 300"),
            (2, np.array([-2, 0]), "-2 0"),
            (2, np.array([0, 255], dtype=np.uint8), "0 255"),
            (3, np.array([0, 2, 0], dtype=np.uint8), "020")]:
        with pytest.raises(ClaimViolationError) as err:
            classify_range(PatternSpec(m, "1"), prefix)
        assert str(err.value).endswith(f"singly-deviant: {shown}")


@pytest.mark.parametrize("m,w", [(2, "11"), (2, "0"), (3, "02"),
                                 (3, "120"), (5, "23")])
def test_classify_range_matches_reference_under_every_corruption(m, w):
    """Set each position of a 40-block prefix to every other digit, to p
    and to 255: the same flags, or the same error and message, as the
    reference classifier."""
    spec = PatternSpec(m, w)
    clean = generate(spec, 40 * m)
    assert outcome(classify_range, spec, clean) == outcome(
        ref_classify_range, spec, clean)
    raised = 0
    for i in range(clean.size):
        for v in [*range(m), m, 255]:
            if v == clean[i]:
                continue
            x = clean.copy()
            x[i] = v
            want = outcome(ref_classify_range, spec, x)
            assert outcome(classify_range, spec, x) == want, (i, v)
            raised += isinstance(want, tuple)
    assert raised > 0


def test_classify_range_matches_reference_on_odd_inputs():
    rng = np.random.default_rng(61)
    for m, w in [(2, "11"), (2, "0"), (3, "02"), (3, "120"), (5, "23")]:
        spec = PatternSpec(m, w)
        x = generate(spec, 40 * m + m - 1)  # length not a multiple of p
        cases = [x, x[:m - 1], x[:0], x.astype(np.int64), x.tolist(),
                 np.full(4 * m, m + 3, dtype=np.uint8)]  # constant, out of range
        wide = x.astype(np.int64)
        wide[m * 7] += 256  # the same digit as uint8, not as int64
        # -2 is not -3 + 1 mod p, though it is one step above it
        n = next(n for n in range(40) if ref_type2(spec, n))
        neg = x.astype(np.int64)
        neg[n * m:(n + 1) * m] = -3
        neg[n * m + spec.pattern[-1]] = -2
        cases += [wide, neg]
        for _ in range(20):
            y = x.copy()
            y[rng.integers(0, y.size, 3)] = rng.integers(0, 256, 3)
            cases += [y, y.astype(np.int64)]
        for case in cases:
            assert outcome(classify_range, spec, case) == outcome(
                ref_classify_range, spec, case)


def test_classify_range_rejects_non_integer_symbols():
    """A float prefix raises, as the power and period scans do, rather
    than truncating 1.5 to a clean 1; integer lists, bool arrays and
    empty input of any dtype still classify."""
    spec = PatternSpec(2, "1")
    x = generate(spec, 16)
    bad = x.astype(float)
    bad[3] += 0.5
    for case in (bad, x.astype(float), x[:1].astype(float), [0.0, 1.0]):
        with pytest.raises(TypeError, match="integers"):
            classify_range(spec, case)
    assert classify_range(spec, x.tolist()) == classify_range(spec, x) \
        == range(0, 8)
    assert classify_range(spec, x.astype(bool)) == range(0, 8)
    for empty in ([], np.array([]), x[:0]):
        assert classify_range(spec, empty) == range(0, 0)


@pytest.mark.parametrize("m", [251, 257])
@pytest.mark.parametrize("w", ["1", "0", "5 0"])
def test_classify_range_wide_bases(m, w):
    """At p = 257 a deviating 0 steps back to 256, past uint8."""
    spec = PatternSpec(m, w)
    x = generate(spec, 2000 * m)
    flags = flags_of(classify_range(spec, x), 2000)
    assert flags.tolist() == [ref_type2(spec, n) for n in range(2000)]
    i0 = spec.pattern[-1]
    for n in (int(np.argmax(flags)), int(np.argmin(flags))):
        for rest in (None, 255):  # 255 around a 0 looks constant in uint8
            for v in (0, 255):
                y = x.copy()
                if rest is not None:
                    y[n * m:(n + 1) * m] = rest
                y[n * m + i0] = v
                assert outcome(classify_range, spec, y) == outcome(
                    ref_classify_range, spec, y), (n, rest, v)


def test_classify_range_pattern_wider_than_int64():
    """p^(|w|-1) past 2^63 predicts no type-2 block in any prefix."""
    spec = PatternSpec(2, "1" * 70)
    assert len(classify_range(spec, generate(spec, 4096))) == 0


def test_classify_range_matches_reference_past_int64():
    """p^(|w|-1) = 257^8 is past int64: a clean 300-block prefix, and
    the same with a block made type 2 against the predicate or made
    neither shape, classify as the reference does, as uint8 and int64."""
    spec = PatternSpec(257, "1 1 1 1 1 1 1 1 1")
    clean = generate(spec, 300 * 257)
    cases = [clean, clean.astype(np.int64)]
    for i, v in ((7 * 257 + 1, 1), (7 * 257 + 3, 2), (299 * 257 + 1, 255)):
        x = clean.copy()
        x[i] = v
        cases += [x, x.astype(np.int64)]
    outcomes = [outcome(ref_classify_range, spec, x) for x in cases]
    assert outcomes[0] == [False] * 300
    assert all(isinstance(want, tuple) for want in outcomes[2:])
    for x, want in zip(cases, outcomes):
        assert outcome(classify_range, spec, x) == want


@pytest.mark.parametrize("m,w", [(2, "0"), (5, "10")])
def test_classify_range_peak_memory(m, w):
    """No int64 copy of the prefix and nothing per block: chunk-sized
    scratch."""
    spec = PatternSpec(m, w)
    n = 2 ** 21 + 1
    x = generate(spec, n)
    type2, peak = peak_bytes(classify_range, spec, x)
    assert type2.stop == n // m
    assert peak <= 3 * n, f"peak {peak / n:.2f} bytes per term"


@pytest.mark.parametrize("m,w", [(2, "0"), (5, "10")])
@pytest.mark.parametrize("n", [2 ** 21 + 1, 2 ** 23 + 1])
def test_classify_range_scratch_does_not_grow(m, w, n):
    """A clean uint8 prefix needs at most 1 MiB of scratch at any length,
    and nothing per block."""
    spec = PatternSpec(m, w)
    x = generate(spec, n)
    type2, peak = peak_bytes(classify_range, spec, x)
    assert type2.stop == n // m
    assert peak <= 1 << 20, f"scratch {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("m,w", [(2, "0"), (5, "10")])
def test_classify_range_int64_scratch_does_not_grow(m, w):
    """An int64 prefix is read in place, never widened or copied: at
    most 1 MiB of scratch, and nothing per block."""
    spec = PatternSpec(m, w)
    n = 2 ** 21 + 1
    x = generate(spec, n).astype(np.int64)
    type2, peak = peak_bytes(classify_range, spec, x)
    assert type2.stop == n // m
    assert peak <= 1 << 20, f"scratch {peak / 2**20:.2f} MiB"


def _chunk_sizes(spec: PatternSpec) -> tuple:
    """BLOCK_CHUNK values to patch in: one period p^|w|, three periods,
    and one less than a period, which is no multiple of it, so each
    chunk holds at most one deviating digit."""
    period = spec.base ** spec.width
    return period, 3 * period, period - 1


@pytest.mark.parametrize("m,w", [(2, "01"), (2, "11"), (3, "120"), (5, "23"),
                                 (257, "5 0")])
def test_classify_range_matches_reference_at_chunk_boundaries(
        monkeypatch, m, w):
    """Set each term within p of a chunk boundary to every other digit,
    to p and to 255: the same flags, or the same error and message, as
    the reference classifier, for every patched chunk size.  At p = 257
    the terms are the first two and the last of each block there, set
    to 0, t + 1 and 255.  Each case also runs as an int64 prefix, which
    sets the term to -1, p, 256 and 2^40 as well.  m2 w01 has lo = s +
    step, so block s = 0 must not be stepped in chunk 0."""
    spec = PatternSpec(m, w)
    period = m ** spec.width
    for chunk in _chunk_sizes(spec):
        monkeypatch.setattr(structure, "BLOCK_CHUNK", chunk)
        unit = period if chunk >= period else m
        size = max(1, chunk // unit) * unit
        edges = 1 if m > 5 else 3
        clean = generate(spec, edges * size + 5 * m)
        assert outcome(classify_range, spec, clean) == outcome(
            ref_classify_range, spec, clean)
        raised = 0
        for edge in range(size, edges * size + 1, size):
            terms = (range(edge - m, edge + m + 1) if m <= 5 else
                     [edge + d for d in (-m, 1 - m, -1, 0, 1, m - 1, m)])
            for i in terms:
                t = int(clean[i])
                values = ([*range(m), m, 255] if m <= 5 else
                          [0, (t + 1) % 256, 255])
                wide = dict.fromkeys([*values, -1, m, 256, 2 ** 40])
                for v, dtype in [*((v, np.uint8) for v in values),
                                 *((v, np.int64) for v in wide)]:
                    if v == t:
                        continue
                    x = clean.astype(dtype)
                    x[i] = v
                    want = outcome(ref_classify_range, spec, x)
                    assert outcome(classify_range, spec, x) == want, (
                        chunk, i, v, dtype)
                    raised += isinstance(want, tuple)
        assert raised > 0


@pytest.mark.parametrize("m,w", [(256, "1"), (256, "3 255"), (65537, "1"),
                                 (65537, "0")])
def test_classify_range_matches_reference_at_scratch_dtype_edges(m, w):
    """p - 1 is uint8's largest value at p = 256, and needs uint32
    scratch at p = 65537.  A clean prefix of a few blocks, and one
    predicted type-2 block made t = p - 1 around a stepped 0 or t = p - 2
    around p - 1 (both valid), or t = p - 2 around 0 (a violation),
    classify as the reference does, as int64 and as the narrowest
    dtypes that hold p - 1.  At p = 256 an int8 copy reads p - 2 and
    p - 1 as -2 and -1, digits out of range."""
    spec = PatternSpec(m, w)
    clean = generate(spec, 4 * m + 1)
    n = int(np.argmax(ref_classify_range(spec, clean)))
    assert ref_type2(spec, n)
    i0 = spec.pattern[-1]
    for block in (None, (m - 1, 0), (m - 2, m - 1), (m - 2, 0)):
        x = clean.astype(np.int64)
        if block is not None:
            x[n * m:(n + 1) * m], x[n * m + i0] = block
        want = outcome(ref_classify_range, spec, x)
        assert isinstance(want, tuple) == (block == (m - 2, 0))
        narrow = (np.uint8, np.int8) if m <= 256 else (np.uint32,)
        for dtype in (*narrow, np.int64):
            y = x.astype(dtype)
            expected = (want if np.array_equal(y, x)
                        else outcome(ref_classify_range, spec, y))
            assert outcome(classify_range, spec, y) == expected, (dtype, block)


def test_classify_range_chunking_leaves_the_grid_unchanged(monkeypatch):
    """Every pattern of the acceptance grid classifies as the reference
    does: each prefix up to two periods p^|w| long (a zero-led
    pattern's unpredicted block s may lie past the end), and a longer
    clean prefix under the default and each patched chunk size."""
    for m, w in GRID:
        spec = PatternSpec(m, w)
        period = m ** spec.width
        x = generate(spec, 20 * period + 3 * m + 1)
        for n in range(2 * period + m):
            assert outcome(classify_range, spec, x[:n]) == outcome(
                ref_classify_range, spec, x[:n]), (spec, n)
        want = ref_classify_range(spec, x).tolist()
        for chunk in (structure.BLOCK_CHUNK, *_chunk_sizes(spec)):
            monkeypatch.setattr(structure, "BLOCK_CHUNK", chunk)
            assert flags_of(classify_range(spec, x), x.size // m).tolist() \
                == want, (spec, chunk)
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# power-prefix scanning
# ---------------------------------------------------------------------------

def naive_powers(arr, e) -> tuple:
    out = []
    for length in range(1, len(arr) // e + 1):
        first = arr[:length]
        if all(
            np.array_equal(arr[k * length : (k + 1) * length], first)
            for k in range(1, e)
        ):
            out.append(length)
    return tuple(out)


def naive_tail_periods(x, max_period, preperiod) -> tuple:
    y = np.asarray(x[preperiod:])
    return tuple(t for t in range(1, min(max_period, len(y) - 1) + 1)
                 if np.array_equal(y[t:], y[:len(y) - t]))


def test_scan_against_naive_random():
    rng = np.random.default_rng(43)
    for _ in range(40):
        size = int(rng.integers(4, 600))
        e = int(rng.integers(2, 5))
        arr = rng.integers(0, int(rng.integers(2, 5)), size=size).astype(np.uint8)
        assert scan_power_prefixes(arr, e) == naive_powers(arr, e)


def test_scan_against_naive_planted_powers():
    rng = np.random.default_rng(47)
    for _ in range(40):
        e = int(rng.integers(2, 4))
        block = rng.integers(0, 3, size=int(rng.integers(1, 40))).astype(np.uint8)
        tail = rng.integers(0, 3, size=int(rng.integers(0, 60))).astype(np.uint8)
        arr = np.concatenate([np.tile(block, e), tail])
        found = scan_power_prefixes(arr, e)
        assert len(block) in found
        assert found == naive_powers(arr, e)


def test_scan_rejects_exponent_one():
    with pytest.raises(ValueError):
        scan_power_prefixes(np.zeros(8, dtype=np.uint8), 1)


def test_square_prefixes_of_classic_sequences():
    # Thue-Morse has no square prefix at all.
    tm = generate(PatternSpec(2, "1"), 4096)
    assert scan_power_prefixes(tm, 2) == ()

    # Zero-counting in base 2: squares at block lengths 2 and 6 only.
    # (The length-6 square 101001.101001 is real: indices 0..11.)
    z2 = generate(PatternSpec(2, "0"), 1 << 16)
    assert scan_power_prefixes(z2, 2) == (2, 6)

    # The pattern 10 in base 2: the single square 00.
    t2 = generate(PatternSpec(2, "10"), 1 << 16)
    assert scan_power_prefixes(t2, 2) == (1,)


def test_exclusion_stability_under_longer_scans():
    """Doubling the scanned prefix preserves all verdicts below the old
    horizon."""
    for m, w, e in [(2, "0", 2), (2, "10", 2), (2, "11", 3), (3, "0", 2)]:
        spec = PatternSpec(m, w)
        small = scan_power_prefixes(generate(spec, 1 << 12), e)
        large = scan_power_prefixes(generate(spec, 1 << 13), e)
        horizon = (1 << 12) // e
        assert small == tuple(L for L in large if L <= horizon)


def test_scans_exact_on_dense_binary_words(monkeypatch):
    """On binary words about half of all shifts survive each symbol, and
    planted powers keep many alive for long.  With one row per gather
    the scan compares one doubling span at a time; with the default
    budget few survivors compare long spans.  Both must return precisely
    the true matches."""
    for gather_bytes in (1, structure._GATHER_BYTES):
        monkeypatch.setattr(structure, "_GATHER_BYTES", gather_bytes)
        rng = np.random.default_rng(53)
        for trial in range(60):
            e = int(rng.integers(2, 6))
            tail = rng.integers(0, 2, size=int(rng.integers(0, 80))).astype(np.uint8)
            if trial % 2:
                block = rng.integers(0, 2, size=int(rng.integers(1, 12))).astype(np.uint8)
                arr = np.concatenate([np.tile(block, e + int(rng.integers(0, 3))), tail])
            else:
                arr = tail
            assert scan_power_prefixes(arr, e) == naive_powers(arr, e)
            pre = int(rng.integers(0, 6))
            for max_period in (len(arr) // 3, len(arr)):
                periods = tail_periods(arr, max_period, pre)
                assert periods == naive_tail_periods(arr, max_period, pre)


def test_scans_compare_wide_symbols_exactly():
    """Symbols are compared in the input's own dtype, never cut to a
    byte: 1 and 257 differ although they agree mod 256."""
    assert scan_power_prefixes(np.array([1, 257]), 2) == ()
    assert scan_power_prefixes([1, 257], 2) == ()
    assert scan_power_prefixes([300, 300], 2) == (1,)
    x = np.array([0, 256, 0, 256, 512, 0])
    assert tail_periods(x, 3, 0) == ()
    assert tail_periods(x.tolist(), 3, 0) == ()
    rng = np.random.default_rng(59)
    for _ in range(40):
        block = rng.integers(0, 2, size=int(rng.integers(1, 9))) * 256
        arr = np.concatenate([np.tile(block, int(rng.integers(2, 5))),
                              rng.integers(0, 2, size=int(rng.integers(0, 20))) * 256])
        for e in (2, 3):
            assert scan_power_prefixes(arr, e) == naive_powers(arr, e)
        for dtype in (np.int64, np.uint16):
            assert (tail_periods(arr.astype(dtype), len(arr), 1)
                    == naive_tail_periods(arr, len(arr), 1))
    with pytest.raises(TypeError):
        scan_power_prefixes([1 << 70, 1 << 70], 2)


def test_tail_periods_refuses_a_negative_preperiod():
    """A negative preperiod is refused, as x[-2:] would read the end of
    x instead of its tail from an index on: the last two terms of
    01010101 have no period, where every tail of it has period 2."""
    x = np.arange(8) % 2
    with pytest.raises(ValueError, match="preperiod"):
        tail_periods(x, 3, -2)
    assert tail_periods(x, 3, 0) == (2,)


@pytest.mark.parametrize("m,w,e", [(5, "0", 2), (5, "23", 6)])
def test_scan_power_prefixes_peak_memory(m, w, e):
    """At most 12 bytes per term at the 2^22-term `powers` default
    scan."""
    x = generate(PatternSpec(m, w), 1 << 22)
    _, peak = peak_bytes(scan_power_prefixes, x, e)
    assert peak <= 12 * x.size, f"peak {peak / x.size:.2f} bytes per term"


def test_periodic_inputs_take_one_period_extent(monkeypatch):
    """On a periodic word one period extent settles every multiple of
    the period at once, so the number of extents does not grow with the
    word: without that a run of one symbol takes quadratic time."""
    calls = []
    extent = structure._period_extent

    def counted(*args):
        calls.append(args[1:])
        return extent(*args)

    monkeypatch.setattr(structure, "_period_extent", counted)
    n = 1 << 16
    for block in ([0], [0, 1, 2]):
        x = np.resize(np.array(block, dtype=np.uint8), n)
        q = len(block)
        for e in range(2, 6):
            calls.clear()
            assert scan_power_prefixes(x, e) == tuple(range(q, n // e + 1, q))
            assert len(calls) == 1, (block, e, calls)
        calls.clear()
        assert tail_periods(x, max_period=n, preperiod=0) == tuple(range(q, n, q))
        assert len(calls) == 1, (block, calls)


def test_scans_of_a_constant_run():
    n = 1 << 16
    zeros = np.zeros(n, dtype=np.uint8)
    for e in range(2, 6):
        assert scan_power_prefixes(zeros, e) == tuple(range(1, n // e + 1))
    assert tail_periods(zeros, max_period=n, preperiod=0) == tuple(range(1, n))
    assert tail_periods(zeros, max_period=100, preperiod=7) == tuple(range(1, 101))


# ---------------------------------------------------------------------------
# eventual periodicity
# ---------------------------------------------------------------------------

def test_tail_periods_finds_planted_period():
    x = np.concatenate([
        np.array([9, 9, 9, 9, 9], dtype=np.uint8),
        np.tile(np.array([0, 1, 2], dtype=np.uint8), 40),
    ])
    found = tail_periods(x, max_period=12, preperiod=5)
    assert found == (3, 6, 9, 12)
    # an offset preperiod inside the periodic part still works
    assert tail_periods(x, max_period=3, preperiod=8) == (3,)
    # a purely periodic word: preperiod 0
    y = np.tile(np.array([0, 1, 2], dtype=np.uint8), 40)
    assert tail_periods(y, max_period=12, preperiod=0) == (3, 6, 9, 12)


def test_tail_periods_aperiodic_sequence():
    tm = generate(PatternSpec(2, "1"), 1 << 14)
    assert tail_periods(tm, max_period=(1 << 14) // 4, preperiod=(1 << 14) // 4) == ()


# ---------------------------------------------------------------------------
# claim checks
# ---------------------------------------------------------------------------

def test_multiple_property_passes():
    rep = check_power_claims(PatternSpec(2, "11"), 1 << 14)[0]
    assert rep.verdict == "PASS"
    assert rep.claim == "power-length-multiple"
    rep = check_power_claims(PatternSpec(3, "12"), 3 ** 8)[0]
    assert rep.verdict == "PASS"


def test_multiple_property_vacuous_for_single_letters():
    # divisibility by p^0 holds trivially
    rep = check_power_claims(PatternSpec(2, "1"), 1 << 12)[0]
    assert rep.verdict == "PASS"


def test_multiple_property_rejects_composite():
    with pytest.raises(InvalidPatternError, match="prime base"):
        check_power_claims(PatternSpec(4, "11"), 1 << 10)


def test_power_exclusions_zero_pattern_base2_fails_honestly():
    """The claimed bound (no square past block length 4) is violated by
    the genuine length-6 square prefix, so the check must report it."""
    multiple, rep = check_power_claims(PatternSpec(2, "0"), 1 << 16)
    assert multiple.verdict == "PASS"
    assert rep.verdict == "FAIL"
    assert rep.claim == "zero-pattern-square-bound"
    assert "offending block length 6 " in rep.detail
    assert rep.evidence == (2, 6)


def test_power_exclusions_zero_pattern_odd_primes_pass():
    rep = check_power_claims(PatternSpec(3, "0"), 3 ** 10)[1]
    assert rep.verdict == "PASS"
    assert rep.claim == "zero-pattern-square-bound"
    assert all(L < 9 for L in rep.evidence)

    rep = check_power_claims(PatternSpec(5, "0"), 5 ** 7)[1]
    assert rep.verdict == "PASS"
    assert all(L < 25 for L in rep.evidence)
    assert 5 in rep.evidence


def test_power_exclusions_one_zero_patterns():
    rep = check_power_claims(PatternSpec(2, "10"), 1 << 16)[1]
    assert rep.verdict == "PASS"
    assert rep.claim == "one-zero-pattern-square-bound"
    assert rep.evidence == (1,)

    rep = check_power_claims(PatternSpec(3, "10"), 3 ** 9)[1]
    assert rep.verdict == "PASS"
    assert rep.claim == "one-zero-pattern-power-bound"


def test_power_exclusions_general_cap():
    rep = check_power_claims(PatternSpec(2, "11"), 1 << 16)[1]
    assert rep.verdict == "PASS"
    assert rep.claim == "power-prefix-cap"


def test_power_exclusions_single_letter_informational():
    rep = check_power_claims(PatternSpec(3, "1"), 3 ** 8)[1]
    assert rep.verdict == "PASS"
    assert rep.claim == "single-letter-pure"


def test_power_exclusions_rejects_composite():
    with pytest.raises(InvalidPatternError, match="prime base"):
        check_power_claims(PatternSpec(6, "10"), 1 << 10)


def test_claim_report_format():
    rep = check_power_claims(PatternSpec(2, "11"), 1 << 12)[0]
    line = rep.format()
    assert "claim=power-length-multiple" in line
    assert "verdict=PASS" in line
    assert "scan=4096" in line


def type2_indices(classify, spec: PatternSpec, prefix):
    """The type-2 block indices a classifier returns, or the type and
    text of what it raises.  A range must be range(lo, nb, p^(|w|-1))
    over the prefix's nb complete blocks."""
    try:
        result = classify(spec, prefix)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    if isinstance(result, range):
        assert result.stop == len(prefix) // spec.base
        assert result.step == spec.base ** (spec.width - 1)
        return list(result)
    return np.flatnonzero(result).tolist()


def injected_violations(spec: PatternSpec, clean: np.ndarray) -> list:
    """int64 copies of a prefix of at least two blocks, each with one
    violation: a block of neither shape (p >= 3 only: every 2-block
    has one of the two), the last predicted type-2 block made type 1
    and the last predicted type-1 block made type 2, and a deviating
    digit p or -1."""
    p, i0 = spec.base, spec.pattern[-1]
    x = clean.astype(np.int64)
    cases = []
    if p >= 3:
        y = x.copy()
        y[:3] = (0, 1, 2)
        cases.append(y)
    type2 = ref_classify_range(spec, clean)
    for flag in (True, False):
        found = np.flatnonzero(type2 == flag)
        if found.size:
            y = x.copy()
            j = int(found[-1]) * p + i0
            y[j] = (y[j] + (-1 if flag else 1)) % p
            cases.append(y)
    # at i0, never t or (t + 1) % p for an in-range t
    for i, v in (((x.size // p - 1) * p + i0, p), (p + i0, -1)):
        y = x.copy()
        y[i] = v
        cases.append(y)
    return cases


def negative_type2(spec: PatternSpec, clean: np.ndarray) -> list:
    """An int64 copy with the last type-2 block made -1 around a
    deviating 0: digits out of [0, p), yet type 2 to the reference,
    since (-1 + 1) mod p = 0 (none without a type-2 block)."""
    found = np.flatnonzero(ref_classify_range(spec, clean))
    if not found.size:
        return []
    n, p = int(found[-1]), spec.base
    x = clean.astype(np.int64)
    x[n * p:(n + 1) * p] = -1
    x[n * p + spec.pattern[-1]] = 0
    return [x]


# (m, w, N): N not a multiple of p; N < p (nb = 0); q = 0 (step 1);
# lo = s + step, with s = 0 and s > 0; step >= nb with one type-2
# block; p^q past int64 with none, and at p = 257
RANGE_EDGES = [
    (2, "11", 101), (5, "23", 4), (3, "2", 150), (2, "01", 80),
    (3, "021", 122), (3, "120", 24), (2, "1" * 70, 4096),
    (257, "1 1 1 1 1 1 1 1 1", 300 * 257),
]


@pytest.mark.parametrize("m,w,n", RANGE_EDGES)
def test_classify_range_returns_the_reference_type2_indices(m, w, n):
    """classify_range returns a range holding exactly the reference's
    type-2 blocks, or raises the reference's error type and text, at
    the edges of the progression and under injected violations."""
    spec = PatternSpec(m, w)
    clean = generate(spec, n)
    assert isinstance(classify_range(spec, clean), range)
    valid = [clean, clean.astype(np.int64), *negative_type2(spec, clean)]
    bad = injected_violations(spec, clean) if n >= 2 * m else []
    for i, x in enumerate(valid + bad):
        want = type2_indices(ref_classify_range, spec, x)
        assert isinstance(want, tuple) == (i >= len(valid)), i
        assert type2_indices(classify_range, spec, x) == want, i


def test_classify_range_returns_the_reference_type2_indices_on_the_grid():
    """The same over the acceptance grid: a clean prefix of five periods
    p^|w| and p - 1 terms, its negative type-2 block and each injected
    violation."""
    for m, w in GRID:
        spec = PatternSpec(m, w)
        clean = generate(spec, 5 * m ** spec.width + m - 1)
        valid = [clean, *negative_type2(spec, clean)]
        for i, x in enumerate(valid + injected_violations(spec, clean)):
            want = type2_indices(ref_classify_range, spec, x)
            assert isinstance(want, tuple) == (i >= len(valid)), (spec, i)
            assert type2_indices(classify_range, spec, x) == want, (spec, i)


# ---------------------------------------------------------------------------
# the block check over chunks
# ---------------------------------------------------------------------------

def split(x, p, cuts):
    """x in chunks ending at the given block indices (and at its end)."""
    edges = [0, *(c * p for c in cuts if 0 < c * p < len(x)), len(x)]
    return [x[a:b] for a, b in zip(edges, edges[1:])]


@pytest.mark.parametrize("m,w", [(2, "11"), (2, "01"), (3, "021"),
                                 (5, "23"), (257, "5 0")])
def test_classify_chunks_matches_classify_range_on_any_cut(monkeypatch,
                                                           m, w):
    """Cut at random block boundaries, into chunks of any length that
    need not hold whole periods, a prefix classifies as classify_range
    classifies it whole: clean, and with each injected violation and a
    type-1 block made type 2 in the first chunk ahead of a neither block
    in the last, at the module's BLOCK_CHUNK and at a period or less."""
    rng = np.random.default_rng(7 * m)
    spec = PatternSpec(m, w)
    period = m ** spec.width
    clean = generate(spec, 12 * min(period, 5000) + m - 1)
    nb = len(clean) // m
    i0 = spec.pattern[-1]
    both = clean.astype(np.int64)
    # block 1 the other shape, then block nb - 2 neither shape: a digit
    # beside the deviating one stepped, or at p = 2 (where two in-range
    # digits always form one shape) 254 or 255, whose successor mod 2
    # is not the deviating digit
    t = int(both[m + (i0 + 1) % m])
    both[m + i0] = t if both[m + i0] != t else (t + 1) % m
    n = nb - 2
    t, d = int(both[n * m + (i0 + 1) % m]), int(both[n * m + i0])
    both[n * m + (i0 + 1) % m] = 254 + d if m == 2 else (t + 1) % m
    cases = [clean, both, *injected_violations(spec, clean)]
    assert "neither" in outcome(classify_range, spec, both)[1]
    for chunk in (structure.BLOCK_CHUNK, period, period - 1):
        monkeypatch.setattr(structure, "BLOCK_CHUNK", chunk)
        for x in cases:
            want = type2_indices(classify_range, spec, x)
            for _ in range(4):
                cuts = np.sort(rng.integers(1, nb, size=rng.integers(1, 6)))
                got = type2_indices(
                    lambda spec, x: structure.classify_chunks(
                        spec, split(x, m, cuts.tolist()), len(x)), spec, x)
                assert got == want, (chunk, cuts)


def test_classify_chunks_refuses_a_bad_cut_or_count():
    """A chunk that ends inside a block with another after it, or chunks
    that do not hold the count, raise ValueError."""
    spec = PatternSpec(3, "12")
    x = generate(spec, 30)
    with pytest.raises(ValueError, match="block boundary"):
        structure.classify_chunks(spec, [x[:4], x[4:]], 30)
    for count in (29, 31):
        with pytest.raises(ValueError, match="30 terms"):
            structure.classify_chunks(spec, [x[:9], x[9:]], count)
    assert structure.classify_chunks(spec, [x[:9], x[9:29]], 29) \
        == classify_range(spec, x[:29])
