"""Unit tests for the series of the sequence and the functional equation."""

import numpy as np
import pytest

import blockseq.series
from blockseq import (
    ClaimReport,
    PatternSpec,
    VerificationError,
    degree_evidence,
    functional_equation_residual,
    generate,
    origin_correction,
    rhs_series,
    series_from_sequence,
)
from support import GRID, patterns, peak_bytes


def residual_of(monkeypatch, spec, f):
    """functional_equation_residual with the series of the sequence
    replaced by the coefficient array f."""
    monkeypatch.setattr(blockseq.series, "series_from_sequence",
                        lambda spec, order: np.asarray(f))
    return functional_equation_residual(spec, len(f))


def left_side(monkeypatch, p, f):
    """(1 + t + ... + t^(p-1)) f^p for the coefficient array f, read off
    the residual with the right-hand side and the correction zeroed."""
    zeros = lambda spec, order: np.zeros(order, dtype=np.int64)
    monkeypatch.setattr(blockseq.series, "rhs_series", zeros)
    monkeypatch.setattr(blockseq.series, "origin_correction", zeros)
    res = residual_of(monkeypatch, PatternSpec(p, "1"), f)
    return ((res + np.asarray(f)) % p).tolist()


# ---------------------------------------------------------------------------
# the series of the sequence
# ---------------------------------------------------------------------------

def test_series_from_sequence_goldens():
    assert series_from_sequence(PatternSpec(2, "1"), 8).tolist() \
        == [0, 1, 1, 0, 1, 0, 0, 1]
    assert series_from_sequence(PatternSpec(2, "11"), 16).tolist() \
        == [0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]
    assert series_from_sequence(PatternSpec(2, "01"), 8).tolist() \
        == [0, 0, 0, 0, 0, 1, 0, 0]


def test_series_from_sequence_spot_check_catches_corruption(monkeypatch):
    real = blockseq.series.generate

    def corrupted(spec, n):
        return (1 - real(spec, n)) % spec.base  # every coefficient wrong

    monkeypatch.setattr(blockseq.series, "generate", corrupted)
    with pytest.raises(VerificationError):
        series_from_sequence(PatternSpec(2, "1"), 2048)


def test_series_from_sequence_rejects_composite():
    """Both sides of the functional equation need a prime base."""
    from blockseq import InvalidPatternError

    with pytest.raises(InvalidPatternError):
        series_from_sequence(PatternSpec(4, "1"), 64)
    with pytest.raises(InvalidPatternError, match="prime base"):
        rhs_series(PatternSpec(4, "1"), 64)


# ---------------------------------------------------------------------------
# the left side (1 + t + ... + t^(p-1)) f^p
# ---------------------------------------------------------------------------

def test_frobenius_examples(monkeypatch):
    # t -> (1 + t) t^2
    assert left_side(monkeypatch, 2, [0, 1, 0, 0]) == [0, 0, 1, 1]
    # 1 + 2t -> (1 + t + t^2)(1 + 2t^3)
    assert left_side(monkeypatch, 3, [1, 2, 0, 0, 0, 0]) == [1, 1, 1, 2, 2, 2]
    # Thue-Morse: coefficient f[n // 2] at t^n
    f = series_from_sequence(PatternSpec(2, "1"), 8)
    assert left_side(monkeypatch, 2, f) == [0, 0, 1, 1, 1, 1, 0, 0]


def naive_series_product(a, b, p):
    n = min(a.size, b.size)
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        out[i] = np.dot(a[: i + 1].astype(np.int64),
                        b[i::-1].astype(np.int64)) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_matches_schoolbook_power(p, monkeypatch):
    """The residual of a random f equals the schoolbook
    (1 + ... + t^(p-1)) f^p - f - rhs - corr, f^p by repeated products."""
    rng = np.random.default_rng(100 + p)
    for pattern in ("0", "1", "10"):
        spec = PatternSpec(p, pattern)
        order = int(rng.integers(16, 256))
        coeffs = rng.integers(0, p, size=order)
        power = coeffs.copy()
        for _ in range(p - 1):
            power = naive_series_product(power, coeffs, p)
        ones = (np.arange(order) < p).astype(np.int64)  # 1 + ... + t^(p-1)
        lhs = naive_series_product(ones, power, p)
        want = (lhs - coeffs - rhs_series(spec, order)
                - origin_correction(spec, order)) % p
        assert residual_of(monkeypatch, spec, coeffs).tolist() == want.tolist()


def test_series_reduces_mod_p(monkeypatch):
    """The residual lies in [0, p) for every prime, past 256 too."""
    rng = np.random.default_rng(11)
    for p in (3, 257):
        spec = PatternSpec(p, "1")
        f = rng.integers(0, p, size=1200)
        rhs = rhs_series(spec, f.size)
        want = [(int(f[n // p]) - int(f[n]) - int(rhs[n])) % p
                for n in range(f.size)]
        assert residual_of(monkeypatch, spec, f).tolist() == want


def test_residual_matches_the_whole_array_formula(monkeypatch):
    """The residual, subtracted in place, equals (lhs - f - rhs - corr)
    mod p with each term built as an array of its own, on the grid at
    orders 1, 2, p and 4096, for the sequence's series (all zero) and
    for a random one."""
    rng = np.random.default_rng(41)
    for m, w in GRID:
        spec = PatternSpec(m, w)
        for order in (1, 2, m, 4096):
            for f in (generate(spec, order),
                      rng.integers(0, m, size=order).astype(np.uint8)):
                lhs = np.repeat(f[:-(-order // m)].astype(np.int64),
                                min(m, order))[:order]
                want = (lhs - f - rhs_series(spec, order)
                        - origin_correction(spec, order)) % m
                got = residual_of(monkeypatch, spec, f)
                assert got.dtype == np.int64
                assert got.tolist() == want.tolist(), (spec, order)


def test_residual_memory_is_linear_in_order(monkeypatch):
    """The left side repeats only the ceil(n / p) coefficients it reads:
    repeating all n of them p times would take 8*p bytes per term."""
    p, order = 251, 50_000
    f = np.random.default_rng(3).integers(0, p, size=order).astype(np.uint8)
    _, peak = peak_bytes(residual_of, monkeypatch, PatternSpec(p, "1"), f)
    assert peak < 64 * order  # a few int64 arrays of length order


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_series_examples():
    out = rhs_series(PatternSpec(2, "11"), 10)
    assert out.tolist() == [0, 0, 0, 1, 0, 0, 0, 1, 0, 0]

    out = rhs_series(PatternSpec(2, "01"), 10)
    assert out.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 1]

    out = rhs_series(PatternSpec(3, "1"), 10)
    assert out.tolist() == [0, 2, 0, 0, 2, 0, 0, 2, 0, 0]


def test_rhs_series_is_exact_past_uint8():
    # -1 mod 257 is 256, which a uint8 coefficient would read as 0
    assert rhs_series(PatternSpec(257, "1"), 10)[1] == 256


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rhs_series_agrees_with_long_division(p):
    """The closed-form expansion r of t^s / (t^M - 1), M = p^k, is the
    long-division quotient: multiplying back, (t^M - 1) r = t^s, i.e.
    r[n - M] - r[n] = [n = s] for every n below the order."""
    order = 512
    for pat in patterns(p, 2):
        spec = PatternSpec(p, pat)
        M = p ** spec.width
        s = spec.value + (M if spec.is_zero_word else 0)
        r = rhs_series(spec, order)
        shifted = np.zeros(order, dtype=np.int64)
        shifted[M:] = r[:order - M]
        want = np.zeros(order, dtype=np.int64)
        want[s] = 1
        assert ((shifted - r) % p).tolist() == want.tolist(), \
            f"mismatch for {spec}"


def test_rhs_series_sign_sanity():
    for p in (2, 3, 5):
        for pat in patterns(p, 2):
            spec = PatternSpec(p, pat)
            out = rhs_series(spec, 2 * p ** 3 + 4)
            start = spec.value + (p ** spec.width if spec.is_zero_word else 0)
            assert np.flatnonzero(out)[0] == start
            assert int(out[start]) == p - 1


# ---------------------------------------------------------------------------
# origin correction
# ---------------------------------------------------------------------------

def test_origin_correction_support():
    out = origin_correction(PatternSpec(3, "0"), 10)
    assert out.tolist() == [0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    assert origin_correction(PatternSpec(2, "0"), 10).tolist() \
        == [0, 1] + [0] * 8
    # every other pattern needs no correction
    for spec in (PatternSpec(2, "1"), PatternSpec(2, "00"),
                 PatternSpec(3, "01"), PatternSpec(5, "10")):
        assert not origin_correction(spec, 10).any()


def test_uncorrected_residual_is_exactly_the_correction(monkeypatch):
    """For the single-letter pattern "0" the raw identity misses the
    origin column by precisely sum_{j=1}^{p-1} t^j."""
    real = blockseq.series.origin_correction
    monkeypatch.setattr(blockseq.series, "origin_correction",
                        lambda spec, order: np.zeros(order, dtype=np.int64))
    for p in (2, 3, 5):
        spec = PatternSpec(p, "0")
        order = 3000
        raw = functional_equation_residual(spec, order)
        assert raw.tolist() == real(spec, order).tolist()


# ---------------------------------------------------------------------------
# the residual and degree evidence
# ---------------------------------------------------------------------------

def test_functional_equation_residual_zero():
    for m, w in [(2, "1"), (2, "11"), (2, "01"), (2, "0"), (3, "0"),
                 (3, "12"), (5, "23"), (5, "0")]:
        res = functional_equation_residual(PatternSpec(m, w), 2000)
        assert not res.any(), f"nonzero residual for m={m} w={w}"


def test_series_zero_predicates(monkeypatch):
    """degree_evidence reads the residual's first nonzero coefficient."""
    spec = PatternSpec(3, "12")
    real = blockseq.series.rhs_series
    for k in (0, 2, 999):
        def bumped(spec, order, k=k):
            r = real(spec, order)
            r[k] = (r[k] + 1) % spec.base
            return r

        monkeypatch.setattr(blockseq.series, "rhs_series", bumped)
        equation, ev = degree_evidence(spec, 1000)
        assert equation.evidence == (f"first_nonzero={k}",)
        assert equation.verdict == "FAIL"
        assert "residual_zero=False" in ev.evidence
        assert ev.verdict == "FAIL"


def test_degree_evidence_passes_for_known_sequences():
    equation, ev = degree_evidence(PatternSpec(2, "1"), 1 << 14)
    assert isinstance(equation, ClaimReport) and isinstance(ev, ClaimReport)
    assert equation.evidence == ()
    assert equation.verdict == "PASS"
    assert ev.verdict == "PASS"
    assert ev.evidence == ("residual_zero=True", "periods=[]")

    equation, ev = degree_evidence(PatternSpec(3, "0"), 3 ** 8)
    assert equation.verdict == ev.verdict == "PASS"


def test_degree_evidence_zero_word_scan_length_artifact():
    """The base-5 zero word defeats a 2^16-term period scan.

    Over [5^k, 5^(k+1)) the zero-counting sequence is four identical
    copies of one block, so a scan window ending inside [5^6, 5^7)
    sees a tail with period 5^6 = 15625 (preperiod 15625 <= 2^16/4).
    The period is an artifact of the window: it breaks at 5^7 = 78125,
    and a 2^17-term scan, whose candidate band 5^k in [N/5, N/4]
    contains no power of five, finds no period at all.
    """
    equation, ev = degree_evidence(PatternSpec(5, "0"), 1 << 16)
    assert ev.verdict == "FAIL"
    # the functional equation itself is fine
    assert equation.verdict == "PASS"
    assert ev.evidence == ("residual_zero=True", "periods=[15625]")

    equation, ev = degree_evidence(PatternSpec(5, "0"), 1 << 17)
    assert ev.verdict == "PASS"
    assert ev.evidence == ("residual_zero=True", "periods=[]")


def test_degree_evidence_large_base_window_artifact():
    """The tail [order/4, order) of a degree-evidence scan can sit where
    the sequence really is periodic.  At order 10^4, m257 w1 reads
    a(n) = [n mod 257 == 1] on two-digit n, and m7 w0 lies in [7^4,
    7^5).  Orders past that digit length clear both, until the tail
    fits inside the next one (m7 w0 at 10^5 lies in [7^5, 7^6))."""
    for m, w, order, periods in [
            (257, "1", 10_000, list(range(257, 2500, 257))),
            (257, "1", 66_049, list(range(257, 16_513, 257))),
            (257, "1", 66_050, []),
            (257, "1", 1 << 17, []),
            (7, "0", 10_000, [2401]),
            (7, "0", 1 << 15, []),
            (7, "0", 100_000, [16807])]:
        equation, ev = degree_evidence(PatternSpec(m, w), order)
        assert equation.verdict == "PASS"
        assert ev.evidence == ("residual_zero=True", f"periods={periods}")
        assert ev.verdict == ("FAIL" if periods else "PASS")


def test_degree_evidence_format():
    equation, ev = degree_evidence(PatternSpec(2, "11"), 4096)
    assert equation.format() == ("claim=functional-equation params=[m=2 w=11] "
                                 "scan=4096 evidence=[] verdict=PASS")
    line = ev.format()
    assert "claim=degree-evidence" in line
    assert "verdict=PASS" in line
    assert "residual_zero=True" in line


def test_residual_order_matches_request():
    res = functional_equation_residual(PatternSpec(2, "11"), 777)
    assert res.size == 777


def test_series_and_generator_agree():
    # sanity tie between the algebra layer and the generator layer
    spec = PatternSpec(3, "10")
    f = series_from_sequence(spec, 2187)
    assert f.tolist() == generate(spec, 2187).tolist()
