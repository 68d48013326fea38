"""Unit tests for the uniform-morphism presentation."""

import sys

import numpy as np
import pytest

from blockseq import (
    PatternSpec,
    UniformMorphism,
    a_prefix,
    build_morphism,
    expand_fixed_point,
    generate,
    to_base,
)
from blockseq.morphism import CHECK_CHUNK, TAKE_CHUNK, fixed_point_mismatch
from blockseq.words import recursion_mismatch
from support import GRID, as_str, patterns, peak_bytes


def as_lists(mu: UniformMorphism) -> tuple:
    """Width, start letter, letters and codes of a morphism, as plain
    Python values: two presentations are the same when these are."""
    return (mu.width, mu.start, mu.substitution.tolist(), mu.coding.tolist())


def breadth_first(mu: UniformMorphism) -> UniformMorphism:
    """mu with its letters renamed in breadth-first order from the start
    letter, children in digit order, so the start becomes letter 0.  Two
    morphisms whose letters all reach from the start are the same up to
    renaming exactly when these forms are equal; a letter left unreached
    fails the assertion."""
    rows = mu.substitution.tolist()
    letter = {mu.start: 0}
    order = [mu.start]  # the letter renamed to each index; the loop grows it
    for s in order:
        for t in rows[s]:
            if t not in letter:
                letter[t] = len(order)
                order.append(t)
    assert len(order) == len(rows), "a letter is unreachable from the start"
    renamed = [[letter[t] for t in rows[s]] for s in order]
    return UniformMorphism(mu.width, renamed, mu.coding[order], start=0)


# Presentations pinned from the earlier fingerprint-inference builder,
# which identified states by oracle value trees and numbered them
# breadth-first: the exact construction must reproduce them up to
# renaming, letter for letter in its breadth-first form.
MORPHISM_GOLDENS = {
    (2, "1"): UniformMorphism(2, ((0, 1), (1, 0)), (0, 1), start=0),
    (2, "11"): UniformMorphism(
        2, ((0, 1), (0, 2), (3, 1), (3, 2)), (0, 0, 1, 1), start=0),
    (5, "123"): UniformMorphism(
        5,
        ((0, 1, 0, 0, 0), (0, 1, 2, 0, 0), (0, 1, 0, 3, 0),
         (3, 4, 3, 3, 3), (3, 4, 5, 3, 3), (3, 4, 3, 6, 3),
         (6, 7, 6, 6, 6), (6, 7, 8, 6, 6), (6, 7, 6, 9, 6),
         (9, 10, 9, 9, 9), (9, 10, 11, 9, 9), (9, 10, 9, 12, 9),
         (12, 13, 12, 12, 12), (12, 13, 14, 12, 12), (12, 13, 12, 0, 12)),
        (0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4),
        start=0),
}

ALPHABET_SIZES = {(2, "11"): 4, (3, "12"): 6, (5, "123"): 15, (2, "0"): 3,
                  (3, "01"): 7, (5, "23"): 10}


# ---------------------------------------------------------------------------
# morphism construction
# ---------------------------------------------------------------------------

def test_build_morphism_thue_morse_exact():
    mu = build_morphism(PatternSpec(2, "1"))
    assert mu.width == 2
    assert mu.substitution.tolist() == [[0, 1], [1, 0]]
    assert mu.coding.tolist() == [0, 1]
    assert mu.start == 0


def test_build_morphism_goldens():
    for (m, w), mu in MORPHISM_GOLDENS.items():
        got = breadth_first(build_morphism(PatternSpec(m, w)))
        assert as_lists(got) == as_lists(mu)


def test_build_morphism_rudin_shapiro_shape():
    mu = build_morphism(PatternSpec(2, "11"))
    assert mu.alphabet_size == 4
    assert sorted(set(mu.coding)) == [0, 1]
    assert mu.substitution[mu.start][0] == mu.start


def test_build_morphism_single_letter_is_pure_form():
    mu = build_morphism(PatternSpec(3, "2"))
    assert mu.substitution.tolist() == [[0, 0, 1], [1, 1, 2], [2, 2, 0]]
    assert mu.coding.tolist() == [0, 1, 2]


def test_build_morphism_zero_pattern_alphabet():
    # Base 2 pattern "0" needs one letter more than the output alphabet:
    # the coding is non-identity, matching the impossibility of a pure
    # presentation.  The start state is the last letter, 2, and codes
    # a(0) = 1; breadth-first from it, it is letter 0.
    mu = build_morphism(PatternSpec(2, "0"))
    assert mu.alphabet_size == 3
    assert mu.coding.tolist() == [0, 1, 1] and mu.start == 2
    assert breadth_first(mu).coding.tolist() == [1, 0, 1]


def test_build_morphism_composite_base_matches_oracle():
    # The construction counts matches mod m; it never needs m prime.
    for m in (4, 6, 10):
        for pat in ["0", "1", "11", "10", "01", str(m - 1)]:
            spec = PatternSpec(m, pat)
            n = 5 * m ** 3
            assert np.array_equal(expand_fixed_point(build_morphism(spec), n),
                                  a_prefix(spec, n)), spec


def test_breadth_first_form_needs_every_letter_reached():
    mu = UniformMorphism(2, ((0, 2), (1, 1), (0, 2)), (0, 1, 1), start=0)
    with pytest.raises(AssertionError, match="unreachable"):
        breadth_first(mu)
    renamed = breadth_first(UniformMorphism(2, ((0, 1), (1, 0)), (0, 1), 1))
    assert as_lists(renamed) == (2, 0, [[0, 1], [1, 0]], [1, 0])


@pytest.mark.parametrize("m, w", [*GRID, (257, "1"), (257, "0 1")])
def test_a_letter_is_its_kmp_state_and_count(m, w):
    """Reading [n]_p from the start letter through the substitution
    reaches letter q*p + c, where c = a(n) and q is the length of the
    longest proper prefix of w that is a suffix of [n]_p, found by brute
    force on digit tuples: for every n >= 1 below max(5000, p^2)."""
    spec = PatternSpec(m, w)
    mu = build_morphism(spec)
    n_terms = max(5000, m * m)
    letters = np.empty(n_terms, dtype=np.int64)
    letters[0] = mu.start
    lo = 1
    while lo < n_terms:  # the n with as many digits as lo
        ns = np.arange(lo, min(lo * m, n_terms))
        letters[ns] = mu.substitution[letters[ns // m], ns % m]
        lo *= m
    assert np.array_equal(letters[1:] % m, a_prefix(spec, n_terms)[1:]), spec
    states = []
    for n in range(1, n_terms):
        digits = to_base(n, m)
        top = min(spec.width - 1, len(digits))
        states.append(next(q for q in range(top, -1, -1)
                           if digits[len(digits) - q:] == spec.pattern[:q]))
    assert (letters[1:] // m).tolist() == states, spec


def pure_single_letter(p: int, x: int) -> UniformMorphism:
    """The explicit pure presentation for a single nonzero letter x:
    alphabet [0, p), identity coding, start letter 0, and the image of i
    equal to i everywhere except position x, which holds i + 1 mod p."""
    letters = np.arange(p)
    return UniformMorphism(p, np.add.outer(letters, letters == x) % p,
                           letters, start=0)


def test_pure_single_letter_examples():
    mu = build_morphism(PatternSpec(3, (1,)))
    assert mu.substitution.tolist() == [[0, 1, 0], [1, 2, 1], [2, 0, 2]]
    assert mu.coding.tolist() == [0, 1, 2] and mu.start == 0
    mu = build_morphism(PatternSpec(5, (4,)))
    assert mu.substitution[0].tolist() == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 257])
def test_pure_and_inferred_presentations_agree(p):
    """For a single nonzero letter x the minimal automaton is the explicit
    pure presentation itself, with no renaming: the KMP state is always
    0, so letter c is the count c mod p, with the identity coding and
    start letter 0."""
    for x in range(1, p):
        spec = PatternSpec(p, (x,))
        pure = pure_single_letter(p, x)
        assert as_lists(build_morphism(spec)) == as_lists(pure), x
    # and the last of them expands to the oracle's terms
    assert np.array_equal(expand_fixed_point(pure, 10 ** 4),
                          a_prefix(spec, 10 ** 4))


def reference_morphism(spec: PatternSpec) -> UniformMorphism:
    """The KMP x count product automaton, with its full-match state and a
    start state for every w, minimized by Moore's partition refinement
    (initial partition by code), in its breadth-first form.  Its KMP
    transitions come from the definition, the longest prefix of w that
    is a suffix of w[:q] followed by d, not from the failure function."""
    p, w, k = spec.base, spec.pattern, spec.width

    def kmp(q, d):
        s = w[:q] + (d,)
        return next(n for n in range(min(k, len(s)), -1, -1)
                    if s[len(s) - n:] == w[:n])

    nxt = [[kmp(q, d) for d in range(p)] for q in range(k + 1)]
    start = (k + 1) * p
    trans = [[t * p + (c + (t == k)) % p for t in nxt[q]]
             for q in range(k + 1) for c in range(p)]
    trans.append([start, *trans[0][1:]])
    code = [s % p for s in range(start)] + [int(w == (0,))]

    block, classes = code, len(set(code))
    while True:
        keys = {}
        block = [keys.setdefault((block[s], *(block[t] for t in trans[s])),
                                 len(keys))
                 for s in range(start + 1)]
        if len(keys) == classes:
            break
        classes = len(keys)

    reps = [block.index(b) for b in range(classes)]  # a state of each class
    quotient = UniformMorphism(p, [[block[t] for t in trans[s]] for s in reps],
                               [code[s] for s in reps], start=block[start])
    return breadth_first(quotient)


# Wide bases: nonzero-led, zero-led, 0^k and self-overlapping patterns.
WIDE_BASE_SAMPLE = [
    (16, "15"), (16, "0"), (16, "1 0"), (16, "0 0"), (16, "3 3 3"),
    (16, "0 15 0"), (65, "64"), (65, "0 1"), (65, "7 7"), (65, "1 0 1"),
    (101, "1"), (101, "0 0"), (101, "100 0"), (101, "5 0 5"),
    (251, "250"), (251, "0"), (251, "5 0 7"), (256, "255"), (256, "0 0"),
    (256, "1 0"), (257, "1"), (257, "0"), (257, "1 0"), (257, "0 1"),
]


@pytest.mark.parametrize("cases", [
    [*((2, w) for w in patterns(2, 6)),
     *((m, w) for m in range(3, 8) for w in patterns(m, 3)),
     *((m, w) for m in range(8, 14) for w in patterns(m, 2))],
    [(2, (1,) * 70), *WIDE_BASE_SAMPLE],
], ids=["grid", "wide"])
def test_closed_form_equals_the_moore_reference(cases):
    """The closed form is the minimal automaton: up to renaming, the same
    letters, coding and start letter as Moore's refinement of the whole
    product, and |w|*p letters plus the start state for a zero-led w."""
    for m, w in cases:
        spec = PatternSpec(m, w)
        mu = build_morphism(spec)
        want = reference_morphism(spec)
        assert as_lists(breadth_first(mu)) == as_lists(want), spec
        assert mu.alphabet_size == spec.width * m + (spec.pattern[0] == 0), spec


# ---------------------------------------------------------------------------
# fixed-point expansion
# ---------------------------------------------------------------------------

def test_expand_fixed_point_goldens():
    tm = UniformMorphism(2, ((0, 1), (1, 0)), (0, 1), 0)
    assert as_str(expand_fixed_point(tm, 8)) == "01101001"

    mu = build_morphism(PatternSpec(2, "11"))
    assert as_str(expand_fixed_point(mu, 16)) == "0001001000011101"

    mu = build_morphism(PatternSpec(2, "01"))
    assert as_str(expand_fixed_point(mu, 8)) == "00000100"


def test_expand_fixed_point_truncates_to_any_length():
    mu = build_morphism(PatternSpec(3, "10"))
    full = expand_fixed_point(mu, 1000)
    for n in (1, 2, 80, 729, 999):
        assert np.array_equal(expand_fixed_point(mu, n), full[:n])


@pytest.mark.parametrize("p, w", [(2, "11"), (2, "0"), (3, "12"), (3, "01"),
                                  (5, "123"), (5, "0")])
def test_expand_fixed_point_at_level_boundaries(p, w):
    """Each level is built only as far as the next one reads, so the
    lengths just around a power of p are where a short level would show."""
    spec = PatternSpec(p, w)
    mu = build_morphism(spec)
    oracle = a_prefix(spec, p ** 6 + 1)
    sizes = {1, 2}
    for d in range(1, 7):
        sizes |= {p ** d - 1, p ** d, p ** d + 1}
    for n in sorted(sizes):
        got = expand_fixed_point(mu, n)
        assert got.dtype == np.uint8 and got.size == n
        assert np.array_equal(got, oracle[:n]), (spec, n)


def test_expand_fixed_point_peak_memory():
    """No level is expanded past what the next one reads: at N = 2^20 + 1
    the full last level would hold 2^21 letters.  The gathers copy their
    indices to int64 a chunk at a time, and p = 257, whose alphabet
    needs int64 letters and uint16 codes, narrows its codes a chunk at
    a time."""
    for (p, w), n in [((2, "11"), 2 ** 20 + 1), ((3, "12"), 3 ** 12 + 1),
                      ((257, "1"), 4 * 257 ** 2)]:
        mu = build_morphism(PatternSpec(p, w))
        letter_bytes = 1 if mu.alphabet_size <= 256 else 8
        code_bytes = 1 if p <= 256 else 2
        # letters and their codes
        table_bytes = (letter_bytes + code_bytes) * mu.alphabet_size * p
        out, peak = peak_bytes(expand_fixed_point, mu, n)
        assert out.size == n
        assert peak <= 2 * n + table_bytes, \
            f"p={p}: peak {peak / n:.2f} bytes per term"


def test_expand_fixed_point_narrows_wide_codes_a_chunk_at_a_time():
    """p = 257 codes in uint16, and the expansion narrows them into its
    uint8 output one chunk at a time: at N = 10^6 the peak is the output,
    the level before it and one chunk, about 1.1 bytes per term, plus
    the tables.  Narrowing the whole array at once would hold its 2N
    bytes of wide codes beside the output, about 3 bytes per term."""
    p, n = 257, 10 ** 6
    mu = build_morphism(PatternSpec(p, "1 0"))
    # int64 letters and uint16 codes
    table_bytes = (8 + 2) * mu.alphabet_size * p
    out, peak = peak_bytes(expand_fixed_point, mu, n)
    assert out.dtype == np.uint8 and out.size == n
    assert peak <= 1.5 * n + table_bytes, f"peak {peak / n:.2f} bytes per term"


@pytest.mark.parametrize("p, w", [(2, "11"), (3, "01"), (5, "123"),
                                  (257, "1 0")])
def test_fixed_point_mismatch_checks_the_expansion_chunk_by_chunk(p, w):
    """The check `verify` runs passes the expansion, and names the least
    index where a copy of it is wrong, with the expansion's term there:
    at the first and last index and on either side of each edge of the
    check's chunks, which hold CHECK_CHUNK bytes of codes, rows of its
    table of P letters each (2^16 terms at p = 2, 809 * 81 = 65,529 at
    p = 3, 524 * 125 = 65,500 at p = 5, and 127 * 257 two-byte codes at
    p = 257), and of TAKE_CHUNK // P rows, at lengths around one row and
    one chunk, both of the check's table and of the expansion's
    narrower one.  It holds the levels before the last gather,
    n / (P - 1) letters, and one chunk's scratch, never a second n
    terms."""
    mu = build_morphism(PatternSpec(p, w))
    width = mu._check_tables[0].shape[1]
    code_bytes = mu._check_tables[1].itemsize
    sizes, cuts = {1}, set()
    # around a row and a chunk of the expansion's rows and of the check's
    check = max(1, CHECK_CHUNK // code_bytes // width) * width
    for rows, cut in {(rows, max(1, TAKE_CHUNK // rows) * rows)
                      for rows in {mu._tables[0].shape[1], width}} | {
                          (width, check)}:
        sizes |= {rows - 1, rows, rows + 1, cut - 1, cut, cut + 1, 3 * cut + 7}
        cuts.add(cut)
    for n in sorted(sizes):
        want = expand_fixed_point(mu, n)
        assert fixed_point_mismatch(mu, want.copy()) is None, (p, n)
        edges = {i for cut in cuts for edge in range(cut, n, cut)
                 for i in (edge - 1, edge)}
        for i in sorted({0, n - 1} | edges):
            x = want.copy()
            x[i] = (int(x[i]) + 1) % p
            assert fixed_point_mismatch(mu, x) == (i, want[i]), (p, n, i)
    n = 2 ** 20 + 1
    letter_bytes = mu._check_tables[0].itemsize
    x = expand_fixed_point(mu, n)  # allocated before the meter starts
    found, peak = peak_bytes(fixed_point_mismatch, mu, x)
    assert found is None
    assert peak <= letter_bytes * n / (width - 1) + 5 * TAKE_CHUNK, (p, peak)


@pytest.mark.parametrize("p, w", [*GRID, (257, (1,))],
                         ids=[f"{p}-{''.join(map(str, w))}"
                              for p, w in [*GRID, (257, (1,))]])
def test_fixed_point_mismatch_over_the_grid(p, w):
    """On the grid and p = 257, at lengths around one letter's image
    (p - 1, p), one row of the expansion's mu^d and of the check's
    wider table (P, P + 1 for each), one gather chunk and past three
    chunks: `a_prefix`'s output passes, and a copy wrong at the first
    index, the last one, or either side of the end of the first chunk
    of either table's rows (a gather's, and the check's of CHECK_CHUNK
    bytes of codes), by one or by 255, is named at its least wrong
    index, with a there."""
    spec = PatternSpec(p, w)
    mu = build_morphism(spec)
    width = mu._check_tables[0].shape[1]
    widths = {mu._tables[0].shape[1], width}
    sizes = {1, p - 1, p, TAKE_CHUNK - 1, TAKE_CHUNK + 1, 3 * 2 ** 16 + 11}
    sizes |= {n for rows in widths for n in (rows, rows + 1)}
    # the first chunk's end, for the check's rows and the expansion's
    cuts = {max(1, TAKE_CHUNK // rows) * rows for rows in widths}
    cuts.add(max(1, CHECK_CHUNK // mu._check_tables[1].itemsize // width)
             * width)
    edges = {i for cut in cuts for i in (cut - 1, cut)}
    prefix = a_prefix(spec, max(sizes))
    for n in sorted(sizes):
        want = prefix[:n]
        assert fixed_point_mismatch(mu, want) is None, n
        for i in ({0, n - 1} | edges) & set(range(n)):
            for bad in ((int(want[i]) + 1) % p, 255):
                x = want.copy()
                x[i] = bad
                assert fixed_point_mismatch(mu, x) == (i, want[i]), (n, i, bad)


@pytest.mark.parametrize("p, w", [(2, "11"), (2, "0"), (3, "01"),
                                  (257, "1 0")])
def test_both_check_legs_pass_an_empty_prefix(p, w):
    """`verify`'s two check legs agree on an empty prefix: no index
    fails, so each returns None."""
    spec = PatternSpec(p, w)
    empty = np.zeros(0, np.uint8)
    assert fixed_point_mismatch(build_morphism(spec), empty) is None
    assert recursion_mismatch(spec, empty) is None


def test_fixed_point_mismatch_takes_only_a_uint8_array():
    """As for `recursion_mismatch`, a list or a wider array raises one
    TypeError at entry; a list used to fail on a missing attribute, and
    an int64 array was compared as ints."""
    spec = PatternSpec(2, "11")
    mu = build_morphism(spec)
    want = a_prefix(spec, 1000)
    assert fixed_point_mismatch(mu, want) is None
    for x in (want.tolist(), want.astype(np.int64), want.astype(np.uint16)):
        with pytest.raises(TypeError, match="uint8"):
            fixed_point_mismatch(mu, x)


def test_expand_fixed_point_builds_its_tables_once():
    """`_tables` holds mu^d for the least d with p^d >= 4 (mu^2 for p = 2
    and 3): each row is mu applied to the row of mu^(d-1), each code the
    coding of its letter.  The tables are built on the first expansion
    and reused, read-only, and so are the substitution and coding; the
    expansion leaves them as they were built."""
    for p, w in [(2, "11"), (3, "01"), (5, "123"), (257, "1")]:
        spec = PatternSpec(p, w)
        mu = build_morphism(spec)
        first = expand_fixed_point(mu, 1000)
        table, coded = mu._tables
        letters, codes = mu.substitution.tolist(), mu.coding.tolist()
        rows = letters
        if p < 4:  # mu^2: the images under mu of a row's letters
            rows = [[t for s in row for t in letters[s]] for row in rows]
        assert table.tolist() == rows, p
        assert coded.tolist() == [[codes[s] for s in row] for row in rows], p
        for array in (table, coded, mu.substitution, mu.coding):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert np.array_equal(expand_fixed_point(mu, 1000), first)
        assert mu._tables[0] is table and mu._tables[1] is coded
        assert as_lists(mu) == as_lists(build_morphism(spec))


def power_rows(mu: UniformMorphism, width: int) -> list:
    """The rows of mu^e, e the least power with p^e >= width, built in
    plain Python: mu applied to each letter of a row of mu^(e-1)."""
    letters = mu.substitution.tolist()
    rows = letters
    while len(rows[0]) < width:
        rows = [[t for s in row for t in letters[s]] for row in rows]
    return rows


@pytest.mark.parametrize("p, w, width", [
    (2, "11", 64), (3, "01", 81), (5, "123", 125), (7, "123456", 343),
    (257, "1", 257),
    # 300 int64 letters: mu^5 would be 32 letters wide, 75 KiB
    (2, "1" * 150, 16),
    # 330 int64 letters: mu^2 would be 121 letters wide, 312 KiB
    (11, "1 " * 30, 11),
], ids=["2", "3", "5", "7", "257", "2-capped", "11-capped"])
def test_check_tables_are_the_widest_power_under_the_cap(p, w, width):
    """`_check_tables`, which `fixed_point_mismatch` runs on, holds the
    rows of mu^e for the least e with p^e >= 64 (p = 257 keeps mu), or
    the last power before the next letter table would pass 64 KiB, and
    never fewer letters per row than `_tables`: each row is mu applied
    to the row of mu^(e-1), each code the coding of its letter.  Where
    nothing is widened it is `_tables` itself.  It is built once and
    read-only, and `expand_fixed_point` neither builds nor reads it: the
    expansion keeps its rows of p^d >= 4 letters."""
    spec = PatternSpec(p, w)
    mu = build_morphism(spec)
    expand_fixed_point(mu, 5000)
    assert "_check_tables" not in vars(mu)
    narrow = mu._tables[0].shape[1]
    assert narrow == min(q for q in (p, p * p) if q >= 4)

    table, coded = mu._check_tables
    rows = power_rows(mu, width)
    assert table.shape == (mu.alphabet_size, width) and width >= narrow
    assert table.tolist() == rows
    codes = mu.coding.tolist()
    assert coded.tolist() == [[codes[s] for s in row] for row in rows]
    assert width >= 64 or table.nbytes * p > 1 << 16
    assert (mu._check_tables is mu._tables) == (width == narrow)
    for array in (table, coded):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert fixed_point_mismatch(mu, expand_fixed_point(mu, 5000)) is None
    assert mu._check_tables[0] is table and mu._check_tables[1] is coded
    assert mu._tables[0].shape[1] == narrow


@pytest.mark.parametrize("p", [2, 3])
def test_square_of_the_morphism_expands_to_the_window_sequence(p):
    """For p = 2 and 3 the expansion gathers rows of mu^2, p^2 letters
    each.  Lengths 1, p, p^2 and p^2 + 1 cut inside or just past one row
    of mu^2, and TAKE_CHUNK +- 1 just around one chunk of the gather;
    every width-1 to width-3 pattern of the 60-pattern grid's base."""
    sizes = (1, p, p * p, p * p + 1, TAKE_CHUNK - 1, TAKE_CHUNK + 1)
    for w in patterns(p, 3):
        spec = PatternSpec(p, w)
        mu = build_morphism(spec)
        want = generate(spec, max(sizes))
        for n in sizes:
            assert np.array_equal(expand_fixed_point(mu, n), want[:n]), (spec, n)


@pytest.mark.parametrize("w", ["1", "0", "1 0"])
def test_expand_fixed_point_wide_alphabet_matches_oracle(w):
    """p = 257 takes the int64 letter table and the uint16 codes; the
    lengths around p and p^2 cut the last gather inside a row."""
    p = 257
    spec = PatternSpec(p, w)
    mu = build_morphism(spec)
    assert mu.alphabet_size > 256
    n = 4 * p ** 2
    oracle = a_prefix(spec, n)
    for size in (1, 2, p - 1, p, p + 1, p ** 2 - 1, p ** 2, p ** 2 + 1, n):
        got = expand_fixed_point(mu, size)
        assert got.dtype == np.uint8
        assert np.array_equal(got, oracle[:size]), (spec, size)


def test_expand_fixed_point_rejects_bad_count():
    tm = UniformMorphism(2, ((0, 1), (1, 0)), (0, 1), 0)
    with pytest.raises(ValueError):
        expand_fixed_point(tm, 0)


def test_expand_fixed_point_refuses_digits_past_uint8():
    """A width-300 morphism whose reachable letter codes 299 raises
    rather than wrapping to 299 mod 256, and `fixed_point_mismatch`
    names that 299 against a zero window; an unreachable one does not
    raise."""
    width = 300
    rows = ((0, 1) + (0,) * (width - 2), (1,) * width, (2,) * width)
    wide = UniformMorphism(width, rows, (0, 299, 0), 0)
    for n in (2, width, width + 1, 2 * width + 1):  # one and two levels
        with pytest.raises(ValueError, match="above 255"):
            expand_fixed_point(wide, n)
        # the check compares in the codes' dtype, so 299 is reported as it is
        assert fixed_point_mismatch(wide, np.zeros(n, np.uint8)) == (1, 299)
    assert expand_fixed_point(wide, 1).tolist() == [0]
    unreachable = UniformMorphism(width, rows, (0, 255, 299), 0)
    out = expand_fixed_point(unreachable, 2 * width)
    assert out.dtype == np.uint8
    assert out[:3].tolist() == [0, 255, 0]


def test_coded_fixed_point_matches_oracle():
    cases = [*((m, w) for m, k in [(2, 4), (3, 3), (5, 2)]
               for w in patterns(m, k)),
             (5, "123"), *((7, w) for w in patterns(7, 2))]
    for m, w in cases:
        spec = PatternSpec(m, w)
        mu = build_morphism(spec)
        got = expand_fixed_point(mu, 10 ** 4)
        assert np.array_equal(got, a_prefix(spec, 10 ** 4)), f"mismatch for {spec}"


def test_morphism_rows_are_uniform():
    for (m, w), size in ALPHABET_SIZES.items():
        mu = build_morphism(PatternSpec(m, w))
        assert all(len(row) == m for row in mu.substitution)
        assert len(mu.coding) == mu.alphabet_size == size


def test_build_morphism_does_not_consult_the_oracle(monkeypatch):
    def oracle_called(*args, **kwargs):
        raise AssertionError("build_morphism consulted the oracle")

    for name, module in list(sys.modules.items()):
        if name == "blockseq" or name.startswith("blockseq."):
            for attr in ("a_batch", "a_prefix"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, oracle_called)
    for (m, w), mu in MORPHISM_GOLDENS.items():
        got = breadth_first(build_morphism(PatternSpec(m, w)))
        assert as_lists(got) == as_lists(mu)


# ---------------------------------------------------------------------------
# morphism validation
# ---------------------------------------------------------------------------

def test_uniform_morphism_validation():
    with pytest.raises(ValueError):
        UniformMorphism(2, ((0, 1), (1,)), (0, 1), 0)  # ragged row
    with pytest.raises(ValueError, match="not uniform"):
        UniformMorphism(2, (0, 1), (0, 1), 0)  # one row, not a table
    with pytest.raises(ValueError, match="not uniform"):
        UniformMorphism(2, ((0, 1, 1), (1, 0, 0)), (0, 1), 0)  # width 3
    with pytest.raises(ValueError):
        UniformMorphism(2, ((0, 1), (1, 0)), (0,), 0)  # short coding
    with pytest.raises(ValueError):
        UniformMorphism(2, ((0, 2), (1, 0)), (0, 1), 0)  # letter out of range
    with pytest.raises(ValueError):
        UniformMorphism(2, ((0, 1), (1, 0)), (0, 2), 0)  # coding digit too big
    with pytest.raises(ValueError):
        UniformMorphism(2, ((1, 0), (1, 0)), (0, 1), 0)  # not prolongable
    with pytest.raises(ValueError):
        UniformMorphism(2, ((0, 1.7), (1, 0)), (0, 1), 0)  # fractional letter
    with pytest.raises(ValueError):
        UniformMorphism(2, ((0, 1), (1, 0)), (0, 0.9), 0)  # fractional digit
    with pytest.raises(ValueError):
        UniformMorphism(2, ((0, 1), (1, 0)), (0, -1), 0)  # negative digit
    # letters are checked before they are stored as uint8, so 300 and -1
    # raise instead of wrapping to 44 and 255, which are letters here
    for bad in (300, -1):
        rows = [[s, s] for s in range(256)]
        rows[1][1] = bad
        with pytest.raises(ValueError):
            UniformMorphism(2, rows, [0] * 256, 0)
