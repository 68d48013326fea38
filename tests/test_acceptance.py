"""Acceptance suite: eleven end-to-end criteria, one per test.

Each test prints exactly one line "ACCEPTANCE <n> <name>: PASS|FAIL"
(with a short detail) before asserting, so a full run leaves a readable
scoreboard.  Criteria are checked at their stated sizes and tolerances;
nothing is downscaled.

Criteria that sweep patterns use the 60-pattern grid ``GRID`` of
support.py, where its choice is documented.
"""

import time

import numpy as np

from blockseq import (
    PatternSpec,
    a_prefix,
    build_morphism,
    check_power_claims,
    classify_range,
    degree_evidence,
    expand_fixed_point,
    functional_equation_residual,
    generate,
    scan_power_prefixes,
)
from blockseq.cli import bench_generators, default_scan_length
from support import (GRID, RS_S3, ZW_PREFIX64, ZW_S0, ZW_S1, ZW_S2, ZW_S3,
                     as_str, patterns)


# Lines land here as criteria run; conftest.py replays them in the
# terminal summary so the scoreboard survives output capturing.
SCOREBOARD: list[str] = []


def _echo(line: str) -> None:
    print(line)
    SCOREBOARD.append(line)


def announce(num: int, name: str, ok: bool, detail: str = "") -> str:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    _echo(line)
    return line


# ---------------------------------------------------------------------------
# 1. golden expansion for the nonzero-word doubling, with a time budget
# ---------------------------------------------------------------------------

def test_criterion_1_golden_nonzero_word():
    spec = PatternSpec(2, "11")
    generate(spec, 32)  # warm-up
    best = min(
        (lambda t0: (generate(spec, 32), time.perf_counter() - t0)[1])(
            time.perf_counter())
        for _ in range(5)
    )
    got = as_str(generate(spec, 32))
    ok = got == RS_S3 and best < 1e-3
    announce(1, "golden-nonzero-word", ok,
             f"32 terms in {best * 1e6:.0f} us")
    assert got == RS_S3
    assert best < 1e-3


# ---------------------------------------------------------------------------
# 2. golden expansion chunks for the zero-word construction
# ---------------------------------------------------------------------------

def test_criterion_2_golden_zero_word_chunks():
    spec = PatternSpec(2, "01")
    # the chunk u_k^(m-1) = u_k starts at 2^(k+2)
    out = generate(spec, 64)
    s0, s1, s2, s3 = (out[2 ** (k + 2):2 ** (k + 3)] for k in range(4))
    chunks_ok = (as_str(s0), as_str(s1), as_str(s2), as_str(s3)) == \
        (ZW_S0, ZW_S1, ZW_S2, ZW_S3)
    prefix_ok = as_str(out) == ZW_PREFIX64
    ok = chunks_ok and prefix_ok
    announce(2, "golden-zero-word", ok, "chunks s0..s3 + 64-term prefix")
    assert chunks_ok
    assert prefix_ok


# ---------------------------------------------------------------------------
# 3. three independent generators agree on the whole grid
# ---------------------------------------------------------------------------

def test_criterion_3_tri_generator_equivalence():
    n = 10 ** 5
    t0 = time.perf_counter()
    bad = []
    for base, pat in GRID:
        spec = PatternSpec(base, pat)
        window = generate(spec, n)
        morphic = expand_fixed_point(build_morphism(spec), n)
        oracle = a_prefix(spec, n)
        if not (np.array_equal(window, oracle)
                and np.array_equal(morphic, oracle)):
            bad.append(str(spec))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    announce(3, "tri-generator-equivalence", ok,
             f"{len(GRID)} patterns x {n} terms in {elapsed:.1f} s")
    assert not bad, f"generator disagreement for {bad}"
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 4. neither the window nor the morphism construction needs primality
# ---------------------------------------------------------------------------

def test_criterion_4_composite_base_window():
    n = 10 ** 4
    bad = []
    for m in (4, 6):
        for pat in patterns(m, 2):
            spec = PatternSpec(m, pat)
            oracle = a_prefix(spec, n)
            if not (np.array_equal(generate(spec, n), oracle) and np.array_equal(
                    expand_fixed_point(build_morphism(spec), n), oracle)):
                bad.append(str(spec))
    ok = not bad
    announce(4, "composite-base-window", ok,
             f"bases 4 and 6, all patterns of width <= 2, {n} terms, "
             "window and morphism vs. oracle")
    assert not bad, f"window/morphism/oracle disagreement for {bad}"


# ---------------------------------------------------------------------------
# 5. every p-block is constant or singly-deviant, exactly as predicted
# ---------------------------------------------------------------------------

def test_criterion_5_block_dichotomy():
    blocks = 10 ** 5
    counts = {}
    for base, pat in GRID:
        spec = PatternSpec(base, pat)
        prefix = generate(spec, base * blocks)
        # classify_range raises on any shape or predicate violation
        type2 = classify_range(spec, prefix)
        counts[str(spec)] = len(type2)
    ok = len(counts) == len(GRID)
    announce(5, "block-dichotomy", ok,
             f"{len(GRID)} patterns x {blocks} blocks, zero violations")
    assert ok


# ---------------------------------------------------------------------------
# 6. square-prefix exclusions in base 2
# ---------------------------------------------------------------------------

def test_criterion_6_square_exclusions_base2():
    n = 1 << 20

    zero_prefix = generate(PatternSpec(2, "0"), n)
    t0 = time.perf_counter()
    rep_zero = scan_power_prefixes(zero_prefix, 2)
    dt_zero = time.perf_counter() - t0

    ten_prefix = generate(PatternSpec(2, "10"), n)
    t0 = time.perf_counter()
    rep_ten = scan_power_prefixes(ten_prefix, 2)
    dt_ten = time.perf_counter() - t0

    zero_ok = all(L < 5 for L in rep_zero)
    ten_ok = rep_ten == (1,)
    time_ok = dt_zero < 0.1 and dt_ten < 0.1
    ok = zero_ok and ten_ok and time_ok
    announce(
        6, "square-exclusions-base2", ok,
        f"zero-pattern squares {list(rep_zero)} "
        f"[claimed all < 5], pattern-10 squares {list(rep_ten)}, "
        f"scans {dt_zero * 1e3:.0f}/{dt_ten * 1e3:.0f} ms")
    assert ten_ok
    assert time_ok
    # The claimed bound is genuinely violated: 101001.101001 is a prefix
    # (indices 0..11), a square of block length 6.  The assert records
    # the claim as stated; the scan evidence above shows the violation.
    assert zero_ok, (
        "the zero-counting sequence in base 2 has a square prefix of "
        f"block length {[L for L in rep_zero if L >= 5]}, "
        "contradicting the claimed bound 5")


# ---------------------------------------------------------------------------
# 7. square / p-power exclusions at p = 3 and p = 5
# ---------------------------------------------------------------------------

def test_criterion_7_power_exclusions_odd_primes():
    details = []
    ok = True
    for p in (3, 5):
        n = default_scan_length(p)
        assert n >= p ** 8
        zero_rep = scan_power_prefixes(generate(PatternSpec(p, "0"), n), 2)
        ten_rep = scan_power_prefixes(generate(PatternSpec(p, "10"), n), p)
        zero_ok = all(L < p * p for L in zero_rep)
        ten_ok = all(L <= p * p for L in ten_rep)
        ok = ok and zero_ok and ten_ok
        details.append(
            f"p={p}: squares {list(zero_rep)}, "
            f"{p}-powers {list(ten_rep)} over {n} terms")
        # the dispatching checker must agree
        assert check_power_claims(PatternSpec(p, "0"), n)[1].verdict == "PASS"
        assert check_power_claims(PatternSpec(p, "10"), n)[1].verdict == "PASS"
    announce(7, "power-exclusions-odd-primes", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 8. power-prefix lengths are multiples of p^(|w|-1)
# ---------------------------------------------------------------------------

def test_criterion_8_power_length_divisibility():
    n = 1 << 20
    t0 = time.perf_counter()
    for base, pat in GRID:
        # FAIL on any found length >= 2 p^|w| not divisible by p^(|w|-1)
        rep = check_power_claims(PatternSpec(base, pat), n)[0]
        assert rep.verdict == "PASS", rep.detail
    elapsed = time.perf_counter() - t0
    announce(8, "power-length-divisibility", True,
             f"{len(GRID)} patterns x {n} terms in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 9. the degree-p functional equation holds coefficientwise
# ---------------------------------------------------------------------------

def test_criterion_9_functional_equation():
    order = 10 ** 4
    t0 = time.perf_counter()
    bad = []
    for base, pat in GRID:
        spec = PatternSpec(base, pat)
        res = functional_equation_residual(spec, order)
        if res.any():
            bad.append((str(spec), int(np.flatnonzero(res)[0])))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    announce(9, "functional-equation", ok,
             f"{len(GRID)} patterns to order {order} in {elapsed:.1f} s")
    assert not bad, f"nonzero residuals: {bad}"
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 10. no eventual period: evidence the series degree is exactly p
# ---------------------------------------------------------------------------

def test_criterion_10_degree_evidence():
    order = 1 << 16
    bad = []
    for base, pat in GRID:
        for report in degree_evidence(PatternSpec(base, pat), order):
            if report.verdict != "PASS":
                bad.append(report.format())
    ok = not bad
    announce(10, "degree-evidence", ok,
             f"{len(GRID)} patterns, {order} terms, periods/preperiods "
             f"to {order // 4}")
    assert not bad, f"degree evidence failed: {bad}"


# ---------------------------------------------------------------------------
# 11. throughput: the window generator earns its keep
# ---------------------------------------------------------------------------

def test_criterion_11_throughput_ordering():
    n = 10 ** 7
    records = bench_generators(PatternSpec(2, "11"), n)
    by_name = {r.generator: r for r in records}
    window = by_name["window"].throughput
    morphism = by_name["morphism"].throughput
    oracle = by_name["oracle"].throughput
    speedup = window / oracle
    ok = speedup >= 5.0 and window >= morphism > oracle
    announce(
        11, "throughput-ordering", ok,
        f"N={n}: window {window / 1e6:.0f} M/s, morphism "
        f"{morphism / 1e6:.0f} M/s, oracle {oracle / 1e6:.1f} M/s, "
        f"window/oracle = {speedup:.0f}x")
    for r in records:
        _echo("  " + r.format())
    assert speedup >= 5.0
    assert window >= morphism > oracle
