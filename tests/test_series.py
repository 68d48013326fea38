"""Unit tests for F_p series arithmetic and the functional equation."""

import numpy as np
import pytest

from blockseq import (
    DegreeEvidence,
    FpPoly,
    PatternSpec,
    TruncatedSeries,
    VerificationError,
    degree_evidence,
    frobenius_power,
    functional_equation_residual,
    generate,
    origin_correction,
    rhs_series,
    series_from_sequence,
)


def ts(p, coeffs):
    return TruncatedSeries(p, np.array(coeffs))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_fppoly_normalization_and_degree():
    assert FpPoly(2, (1, 0, 1, 0)).coefficients == (1, 0, 1)
    assert FpPoly(2, (1, 0, 1, 0)).degree == 2
    assert FpPoly(3, (0, 0)).coefficients == ()
    assert FpPoly(3, (0, 0)).degree == -1
    # coefficients are reduced mod p
    assert FpPoly(3, (4, 5)).coefficients == (1, 2)


def test_fppoly_constructors():
    assert FpPoly.all_ones(3).coefficients == (1, 1, 1)


def test_fppoly_times_series():
    f = ts(2, [1, 1, 0, 0])
    out = FpPoly(2, (1, 1)).times_series(f)
    assert out.coefficients.tolist() == [1, 0, 1, 0]
    assert out.order == 4


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

def test_series_arithmetic_and_order_rule():
    a = ts(3, [1, 2, 0, 1])
    b = ts(3, [2, 2])
    assert (a + b).coefficients.tolist() == [0, 1]
    assert (a - b).coefficients.tolist() == [2, 0]
    assert (a + b).order == 2  # min of operand orders


def test_series_zero_predicates():
    assert ts(2, [0, 0, 0]).is_zero()
    assert ts(2, [0, 0, 0]).first_nonzero() is None
    s = ts(2, [0, 0, 1, 0])
    assert not s.is_zero()
    assert s.first_nonzero() == 2


def test_series_reduces_mod_p():
    assert ts(3, [4, -1, 6]).coefficients.tolist() == [1, 2, 0]


# ---------------------------------------------------------------------------
# the series of the sequence
# ---------------------------------------------------------------------------

def test_series_from_sequence_goldens():
    assert series_from_sequence(PatternSpec(2, "1"), 8).coefficients.tolist() \
        == [0, 1, 1, 0, 1, 0, 0, 1]
    assert series_from_sequence(PatternSpec(2, "11"), 16).coefficients.tolist() \
        == [0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]
    assert series_from_sequence(PatternSpec(2, "01"), 8).coefficients.tolist() \
        == [0, 0, 0, 0, 0, 1, 0, 0]


def test_series_from_sequence_spot_check_catches_corruption(monkeypatch):
    import blockseq.windows

    real = blockseq.windows.generate

    def corrupted(spec, n):
        return (1 - real(spec, n)) % spec.base  # every coefficient wrong

    monkeypatch.setattr(blockseq.windows, "generate", corrupted)
    with pytest.raises(VerificationError):
        series_from_sequence(PatternSpec(2, "1"), 2048, seed=3)


def test_series_from_sequence_rejects_composite():
    from blockseq import InvalidPatternError

    with pytest.raises(InvalidPatternError):
        series_from_sequence(PatternSpec(4, "1"), 64)


# ---------------------------------------------------------------------------
# Frobenius power
# ---------------------------------------------------------------------------

def test_frobenius_examples():
    out = frobenius_power(ts(2, [0, 1, 0, 0]))
    assert out.coefficients.tolist() == [0, 0, 1, 0]  # t -> t^2

    out = frobenius_power(ts(3, [1, 1, 0, 0, 0, 0]))
    assert out.coefficients.tolist() == [1, 0, 0, 1, 0, 0]  # 1+t -> 1+t^3

    f = series_from_sequence(PatternSpec(2, "1"), 8)
    assert frobenius_power(f).coefficients.tolist() == [0, 0, 1, 0, 1, 0, 0, 0]


def naive_series_product(a, b, p):
    n = min(a.size, b.size)
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        out[i] = np.dot(a[: i + 1].astype(np.int64),
                        b[i::-1].astype(np.int64)) % p
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_matches_schoolbook_power(p):
    rng = np.random.default_rng(100 + p)
    for _ in range(6):
        order = int(rng.integers(16, 256))
        coeffs = rng.integers(0, p, size=order)
        f = ts(p, coeffs)
        power = coeffs.copy()
        for _ in range(p - 1):
            power = naive_series_product(power, coeffs, p)
        assert frobenius_power(f).coefficients.tolist() == power.tolist()


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_series_examples():
    out = rhs_series(PatternSpec(2, "11"), 10)
    assert out.coefficients.tolist() == [0, 0, 0, 1, 0, 0, 0, 1, 0, 0]

    out = rhs_series(PatternSpec(2, "01"), 10)
    assert out.coefficients.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 1]

    out = rhs_series(PatternSpec(3, "1"), 10)
    assert out.coefficients.tolist() == [0, 2, 0, 0, 2, 0, 0, 2, 0, 0]


def all_patterns(p, max_width):
    pats = []
    for width in range(1, max_width + 1):
        for v in range(p ** width):
            digits = []
            x = v
            for _ in range(width):
                digits.append(x % p)
                x //= p
            pats.append(tuple(reversed(digits)))
    return pats


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rhs_series_agrees_with_long_division(p):
    """The closed-form expansion r of t^s / (t^M - 1), M = p^k, is the
    long-division quotient: multiplying back, (t^M - 1) r = t^s, i.e.
    r[n - M] - r[n] = [n = s] for every n below the order."""
    order = 512
    for pat in all_patterns(p, 2):
        spec = PatternSpec(p, pat)
        M = p ** spec.width
        s = spec.value + (M if spec.is_zero_word else 0)
        r = rhs_series(spec, order).coefficients.astype(np.int64)
        shifted = np.zeros(order, dtype=np.int64)
        shifted[M:] = r[:order - M]
        want = np.zeros(order, dtype=np.int64)
        want[s] = 1
        assert ((shifted - r) % p).tolist() == want.tolist(), \
            f"mismatch for {spec}"


def test_rhs_series_sign_sanity():
    for p in (2, 3, 5):
        for pat in all_patterns(p, 2):
            spec = PatternSpec(p, pat)
            out = rhs_series(spec, 2 * p ** 3 + 4)
            start = spec.value + (p ** spec.width if spec.is_zero_word else 0)
            assert out.first_nonzero() == start
            assert int(out.coefficients[start]) == p - 1


# ---------------------------------------------------------------------------
# origin correction
# ---------------------------------------------------------------------------

def test_origin_correction_support():
    out = origin_correction(PatternSpec(3, "0"), 10)
    assert out.coefficients.tolist() == [0, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    assert origin_correction(PatternSpec(2, "0"), 10).coefficients.tolist() \
        == [0, 1] + [0] * 8
    # every other pattern needs no correction
    for spec in (PatternSpec(2, "1"), PatternSpec(2, "00"),
                 PatternSpec(3, "01"), PatternSpec(5, "10")):
        assert origin_correction(spec, 10).is_zero()


def test_uncorrected_residual_is_exactly_the_correction():
    """For the single-letter pattern "0" the raw identity misses the
    origin column by precisely sum_{j=1}^{p-1} t^j."""
    for p in (2, 3, 5):
        spec = PatternSpec(p, "0")
        order = 3000
        f = series_from_sequence(spec, order)
        lhs = FpPoly.all_ones(p).times_series(frobenius_power(f)) - f
        raw = lhs - rhs_series(spec, order)
        assert raw.coefficients.tolist() == \
            origin_correction(spec, order).coefficients.tolist()


# ---------------------------------------------------------------------------
# the residual and degree evidence
# ---------------------------------------------------------------------------

def test_functional_equation_residual_zero():
    for m, w in [(2, "1"), (2, "11"), (2, "01"), (2, "0"), (3, "0"),
                 (3, "12"), (5, "23"), (5, "0")]:
        res = functional_equation_residual(PatternSpec(m, w), 2000, seed=7)
        assert res.is_zero(), f"nonzero residual for m={m} w={w}"


def test_degree_evidence_passes_for_known_sequences():
    ev = degree_evidence(PatternSpec(2, "1"), 1 << 14, seed=1)
    assert isinstance(ev, DegreeEvidence)
    assert ev.verdict == "PASS"
    assert ev.residual_zero
    assert ev.residual_first_nonzero is None
    assert ev.periods_found == ()

    ev = degree_evidence(PatternSpec(3, "0"), 3 ** 8, seed=1)
    assert ev.verdict == "PASS"


def test_degree_evidence_zero_word_scan_length_artifact():
    """The base-5 zero word defeats a 2^16-term period scan.

    Over [5^k, 5^(k+1)) the zero-counting sequence is four identical
    copies of one block, so a scan window ending inside [5^6, 5^7)
    sees a tail with period 5^6 = 15625 (preperiod 15625 <= 2^16/4).
    The period is an artifact of the window: it breaks at 5^7 = 78125,
    and a 2^17-term scan, whose candidate band 5^k in [N/5, N/4]
    contains no power of five, finds no period at all.
    """
    ev = degree_evidence(PatternSpec(5, "0"), 1 << 16, seed=1)
    assert ev.verdict == "FAIL"
    assert ev.residual_zero  # the functional equation itself is fine
    assert ev.periods_found == (15625,)

    ev = degree_evidence(PatternSpec(5, "0"), 1 << 17, seed=1)
    assert ev.verdict == "PASS"
    assert ev.periods_found == ()


def test_degree_evidence_format():
    ev = degree_evidence(PatternSpec(2, "11"), 4096, seed=1)
    line = ev.format()
    assert "claim=degree-evidence" in line
    assert "verdict=PASS" in line
    assert "residual_zero=True" in line


def test_residual_order_matches_request():
    res = functional_equation_residual(PatternSpec(2, "11"), 777)
    assert res.order == 777


def test_series_and_generator_agree():
    # sanity tie between the algebra layer and the generator layer
    spec = PatternSpec(3, "10")
    f = series_from_sequence(spec, 2187)
    assert f.coefficients.tolist() == generate(spec, 2187).tolist()
