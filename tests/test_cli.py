"""Tests for the command-line surface and the bench harness."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockseq import (
    ClaimViolationError,
    PatternSpec,
    classify_range,
    generate,
)
from blockseq.cli import (
    CHUNK_TERMS,
    RunConfig,
    bench_generators,
    default_scan_length,
    format_sequence,
    main,
    run,
)
from blockseq.morphism import CHECK_CHUNK, TAKE_CHUNK
from blockseq.words import (PREFIX_CHUNK, TEMPLATE_DIGITS, a_prefix,
                            indexed_rows)
from support import RS_S3, line_path_chunks, peak_bytes, row_layout

# Rows of a `bfile`/`table` chunk: one block of the index template.
BLOCK = 10 ** TEMPLATE_DIGITS


# ---------------------------------------------------------------------------
# generate + output formats
# ---------------------------------------------------------------------------

def test_generate_plain_golden(capsys):
    assert main(["generate", "-m", "2", "-w", "11", "-N", "32"]) == 0
    assert capsys.readouterr().out == RS_S3 + "\n"


def test_generate_bfile_byte_exact(capsys):
    assert main(["generate", "-m", "2", "-w", "1", "-N", "4",
                 "--format", "bfile"]) == 0
    assert capsys.readouterr().out == "0 0\n1 1\n2 1\n3 0\n"


def test_generate_report_format(capsys):
    assert main(["generate", "-m", "2", "-w", "11", "-N", "8",
                 "--format", "report"]) == 0
    assert capsys.readouterr().out == "p=2 w=11 N=8\n00010010\n"


def test_generate_table_format(capsys):
    assert main(["generate", "-m", "2", "-w", "1", "-N", "3",
                 "--format", "table"]) == 0
    assert capsys.readouterr().out == "n  a(n)\n0  0\n1  1\n2  1\n"
    # at N = 11 the index column widens to 2 and right-aligns
    assert main(["generate", "-m", "2", "-w", "1", "-N", "11",
                 "--format", "table"]) == 0
    assert capsys.readouterr().out == (
        " n  a(n)\n 0  0\n 1  1\n 2  1\n 3  0\n 4  1\n 5  0\n 6  0\n"
        " 7  1\n 8  1\n 9  0\n10  0\n")


def test_generate_out_file(tmp_path, capsys):
    target = tmp_path / "seq.txt"
    assert main(["generate", "-m", "2", "-w", "11", "-N", "32",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == RS_S3 + "\n"


def test_format_sequence_rejects_unknown():
    from blockseq import InvalidPatternError

    with pytest.raises(InvalidPatternError):
        format_sequence(np.zeros(4, dtype=np.uint8), PatternSpec(2, "1"), "json")


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize("fmt", ["bfile", "table"])
def test_indexed_formats_refuse_negative_values(fmt, dtype):
    """A negative value is refused, as `plain` refuses it, never written
    as the byte the uint8 cast makes of it (-1 read as "/"), whether it
    sits in a one-digit chunk or one that holds a wider value; signed
    input that is all non-negative renders as before."""
    spec = PatternSpec(11, "1")
    for values in ([3, -1, 2], [3, 12, -5], [0] * (BLOCK + 1) + [-1]):
        with pytest.raises(ValueError, match="non-negative"):
            format_sequence(np.array(values, dtype=dtype), spec, fmt)
    values = np.array([3, 12, 2], dtype=dtype)
    assert format_sequence(values, spec, fmt) == \
        reference_format(values, spec, fmt)


FORMATS = ("plain", "bfile", "table", "report")


def reference_digits(digits, base):
    return ("" if base <= 10 else " ").join(map(str, digits))


def reference_format(values, spec, fmt):
    """The layouts written one f-string per term, as a reference for the
    numpy renderer.  The terms are read as Python ints with one `tolist`,
    about 30% faster than an int() of each numpy scalar."""
    terms = np.asarray(values).tolist()
    if fmt == "plain":
        return reference_digits(terms, spec.base) + "\n"
    if fmt == "bfile":
        return "".join(f"{n} {v}\n" for n, v in enumerate(terms))
    if fmt == "table":
        width = len(str(len(terms) - 1))
        lines = [f"{'n':>{width}}  a(n)"]
        lines += [f"{n:>{width}}  {v}" for n, v in enumerate(terms)]
        return "\n".join(lines) + "\n"
    if fmt == "report":
        header = (f"p={spec.base} w={reference_digits(spec.pattern, spec.base)} "
                  f"N={len(values)}")
        return header + "\n" + reference_digits(terms, spec.base) + "\n"
    raise AssertionError(fmt)


def assert_same_text(got, text, *context):
    """got == text.  A failure names `context`, then the first line that
    differs with both versions, or both lengths if one text is a prefix
    of the other: pytest's own diff of two texts of 10^5 lines or more
    would take minutes."""
    if got == text:
        return
    for i, (a, b) in enumerate(zip(got.splitlines(), text.splitlines())):
        if a != b:
            raise AssertionError((*context, i, a, b))
    raise AssertionError((*context, len(got), len(text)))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("base", [2, 3, 5, 10, 11, 13, 101])
def test_format_sequence_matches_reference(base, fmt):
    rng = np.random.default_rng(base)
    spec = PatternSpec(base, [base - 1, 0, 1 % base])
    for n in (1, 9, 10, 11, 99, 100, 101, 1000,
              CHUNK_TERMS - 1, CHUNK_TERMS, CHUNK_TERMS + 1):
        # values up to m - 1, so base > 10 prints multi-digit values
        values = rng.integers(0, base, n).astype(np.uint8)
        values[-1] = base - 1
        assert_same_text(format_sequence(values, spec, fmt),
                         reference_format(values, spec, fmt), n)
    empty = np.zeros(0, dtype=np.uint8)
    assert_same_text(format_sequence(empty, spec, fmt),
                     reference_format(empty, spec, fmt))


@pytest.mark.parametrize("fmt", FORMATS)
def test_formats_refuse_values_that_are_not_integers(fmt):
    """A value that is not an integer raises TypeError in every format,
    never truncated to a digit (0.5 and 1.9 read as 0 and 1).  Integer
    and bool values render as the reference writes them, from a list
    too, and an empty list, which numpy reads as float64, renders as
    no values do."""
    spec = PatternSpec(2, "11")
    for values in (np.array([0.5, 1.9, 0.0]), [0.5, 1.0], np.array([1.0])):
        with pytest.raises(TypeError, match="integers"):
            format_sequence(values, spec, fmt)
    want = reference_format(np.array([0, 1, 1]), spec, fmt)
    for values in ([0, 1, 1], np.array([0, 1, 1]), [False, True, True]):
        assert format_sequence(values, spec, fmt) == want
    assert format_sequence([], spec, fmt) == \
        reference_format(np.zeros(0, dtype=np.uint8), spec, fmt)


def test_sequence_values_are_one_digit_below_base_to_the_ninth():
    """The renderers write one-digit values in numpy and wider ones line
    by line, since a(n) is at most the number of digits of n: every
    value is one digit below p^9 terms, and the first wider one of
    a_{11;1} is a((1111111111)_11) = 10, which renders as the reference
    writes it when spliced into a generated prefix."""
    from blockseq import a_value, to_base

    for p in (11, 13, 101, 257):
        for w in [(0,), (p - 1,), (0, p - 1), (p - 1, 0)]:
            assert generate(PatternSpec(p, w), 10 ** 6).max() < 10, (p, w)
    spec = PatternSpec(11, "1")
    assert a_value(spec, 2_593_742_460) == 10
    assert a_value(spec, 2_593_742_459) < 10
    rng = np.random.default_rng(11)
    for p in (11, 13, 101, 257):
        for w in [(0,), (1,), (0, 0), (1, 1)]:
            for n in rng.integers(0, 2 ** 62, 50).tolist():
                assert a_value(PatternSpec(p, w), n) <= len(to_base(n, p))
    values = generate(spec, 2 * CHUNK_TERMS + 3)
    values[10 ** 5 + 1] = 10
    for fmt in FORMATS:
        assert_same_text(format_sequence(values, spec, fmt),
                         reference_format(values, spec, fmt), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_chunked_output_is_identical_on_stdout_and_file(fmt, tmp_path,
                                                        capsys):
    n = 2 * CHUNK_TERMS + 3
    argv = ["generate", "-m", "3", "-w", "12", "-N", str(n), "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    target = tmp_path / "seq.txt"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert_same_text(target.read_bytes().decode("ascii"), out)
    spec = PatternSpec(3, "12")
    assert_same_text(out, format_sequence(generate(spec, n), spec, fmt))


@pytest.mark.parametrize("n", [2 * CHUNK_TERMS + 3, 100_001])
@pytest.mark.parametrize("base", [3, 13, 101])
@pytest.mark.parametrize("fmt", ["bfile", "table"])
def test_chunks_across_an_index_digit_change_match_reference(fmt, base, n,
                                                             capsys):
    """Both layouts cut a chunk at 10^5, so the index column changes
    width between two chunks; at 2 * CHUNK_TERMS + 3 the last chunk,
    from 120,000, is shorter than the one before it and ends inside a
    10^4 block.  Random values below the base give base 101 values of 1
    to 3 digits, and random values below 10 one digit at every base."""
    spec = PatternSpec(base, "1")
    assert main(["generate", "-m", str(base), "-w", "1", "-N", str(n),
                 "--format", fmt]) == 0
    assert_same_text(capsys.readouterr().out,
                     reference_format(generate(spec, n), spec, fmt))
    rng = np.random.default_rng(n + base)
    for high in sorted({min(base, 10), base}):
        values = rng.integers(0, high, n).astype(np.uint8)
        assert_same_text(format_sequence(values, spec, fmt),
                         reference_format(values, spec, fmt), high)


@pytest.mark.parametrize("base", [2, 10])
def test_bfile_chunks_of_small_bases_never_pad(base):
    """A `bfile` chunk is cut at each power of ten, so its indices share
    one digit count, and a base <= 10 has one-digit values: every chunk
    is written in numpy, none line by line.  The cuts at 10 to 10^4 and
    every 10^4 rows after them leave the text as the reference writes
    it."""
    from blockseq.cli import _format_chunks

    spec = PatternSpec(base, "1")
    n = 2 * CHUNK_TERMS + 3
    values = generate(spec, n)
    chunks, by_line = line_path_chunks(
        lambda v: _format_chunks(v, spec, "bfile"), values)
    assert_same_text("".join(chunks), reference_format(values, spec, "bfile"))
    # 0, 10, 100 and 1000; 10^4 * (1..9); 10^5 + 10^4 * (0..3)
    assert len(by_line) == 4 + 9 + 4 and not any(by_line)


def reference_prefixes(values, spec, fmt, ns, render=None):
    """render(values[:n], spec, fmt) for each n in ns, render being
    reference_format unless given.  Past n = 100 the text is cut from
    one rendered text per index-column width: a longer text with the
    same width (always, for `bfile`) starts with the same lines.  Only
    the widest text is rendered: a narrower `table` text is its header
    and lines with the padding that the wider index column adds cut from
    the front of each."""
    render = render or reference_format
    texts, expected = {}, {}
    lines = None  # the widest text's, split when a narrower one is cut
    for n in sorted(ns, reverse=True):
        if n <= 100:
            expected[n] = render(values[:n], spec, fmt)
            continue
        key = len(str(n - 1)) if fmt == "table" else None
        if key not in texts:
            if texts:  # a narrower `table` index column
                if lines is None:
                    lines = texts[widest][0].splitlines(keepends=True)
                text = "".join([line[widest - key:] for line in lines[:n + 1]])
            else:
                text, widest = render(values[:n], spec, fmt), key
            ends = np.flatnonzero(np.frombuffer(text.encode("ascii"),
                                                dtype=np.uint8) == ord("\n"))
            texts[key] = text, ends
        text, ends = texts[key]
        header = fmt == "table"
        expected[n] = text[:ends[n - 1 + header] + 1]
    return expected


# Every index digit count, each side of each power of ten, and a last
# chunk that ends inside a 10^4 block (130,000 to 131,072).
TEMPLATE_SIZES = sorted({0, 1, 2 * CHUNK_TERMS + 1}
                        | {10 ** k + d for k in range(1, 6) for d in (-1, 0, 1)})
# Past 10^6 an index has 7 digits: three high digits per 10^4 block
# (one base only, as the reference takes about a second per 10^6 lines).
WIDE_TEMPLATE_SIZES = [10 ** 6 - 1, 10 ** 6, 10 ** 6 + 1, 1_234_567]


@pytest.mark.parametrize("fmt", ["bfile", "table"])
@pytest.mark.parametrize("base", [3, 10, 13, 101, 257])
def test_index_template_rows_match_reference(fmt, base):
    """Each chunk's rows, a slice of its digit count's index template
    with the high digits written over them, read as the reference
    writes them on both sides of every power of ten, across a last
    chunk that ends inside a 10^4 block, and for 0 and 1 terms.  Random
    values below the base are written line by line from base 13 on (1 to
    3 digits at base 101 and 257), and random values below 10 in the row
    matrix at every base."""
    sizes = TEMPLATE_SIZES + (WIDE_TEMPLATE_SIZES if base == 257 else [])
    spec = PatternSpec(base, "1")
    rng = np.random.default_rng(base)
    for high in sorted({min(base, 10), base}):
        values = rng.integers(0, high, max(sizes)).astype(np.uint16)
        for n, text in reference_prefixes(values, spec, fmt, sizes).items():
            assert_same_text(format_sequence(values[:n], spec, fmt), text,
                             high, n)


def chunk_starts(n, fmt):
    """The first index of each chunk `indexed_rows` yields for n terms
    in the layout of `fmt`, from the chunks' cumulative line counts."""
    width, sep = (None, b" ") if fmt == "bfile" else (len(str(n - 1)), b"  ")
    starts, lo = [], 0
    for chunk in indexed_rows([np.zeros(n, dtype=np.uint8)], width, sep):
        size = chunk.count("\n")
        assert 0 < size <= BLOCK
        assert len(str(lo)) == len(str(lo + size - 1))
        starts.append(lo)
        lo += size
    assert lo == n
    return starts


@pytest.mark.parametrize("fmt", ["bfile", "table"])
def test_chunks_past_ten_thousand_start_on_template_blocks(fmt):
    """Each chunk is one block of the index template: one per index
    digit count below 10^4, and from 10^4 on one per 10^4 indices, so
    every chunk at or past index 10^4 starts at a multiple of 10^4 and
    only a digit count's last is shorter; chunks tile [0, n) with at
    most 10^4 rows of one index digit count each."""
    for n in (1, 10, 11, 10 ** 4, 10 ** 4 + 1, 29_999, 30_001, 10 ** 5 + 1,
              131_075, 10 ** 6 + 1, 1_234_567):
        starts = chunk_starts(n, fmt)
        assert starts[0] == 0 and starts == sorted(set(starts)), n
        assert all(lo % 10 ** 4 == 0 for lo in starts if lo >= 10 ** 4), n
        assert {10 ** k for k in range(1, 7) if 10 ** k < n} <= set(starts)
        assert [lo for lo in starts if lo < BLOCK] == \
            [0] + [10 ** k for k in range(1, 4) if 10 ** k < n], n
        for lo, hi in zip(starts, starts[1:] + [n]):
            if lo >= BLOCK and hi - lo < BLOCK:  # a digit count's last
                assert hi in (n, 10 ** len(str(lo))), (n, lo)


@pytest.mark.parametrize("fmt", ["bfile", "table"])
@pytest.mark.parametrize("base", [101, 257])
def test_reused_rows_alternate_padded_and_unpadded_chunks(fmt, base):
    """Chunks alternate between values of 1 to 3 digits, one-digit
    values and three-digit values, so the chunks of one-digit values
    fill the row matrix, leave it to chunks written line by line and
    take it up again, with the high index digits of 10^5 to 2 * 10^5
    written over it."""
    from blockseq.cli import _format_chunks

    n = 200_003
    starts = chunk_starts(n, fmt)
    rng = np.random.default_rng(base)
    values = np.empty(n, dtype=np.uint16)
    for j, (lo, hi) in enumerate(zip(starts, starts[1:] + [n])):
        low, high = [(0, base), (0, 10), (100, base)][j % 3]
        values[lo:hi] = rng.integers(low, high, hi - lo)
        if j % 3 == 0:  # one-digit and three-digit values
            values[lo], values[hi - 1] = 0, base - 1
    spec = PatternSpec(base, "1")
    chunks, by_line = line_path_chunks(
        lambda v: _format_chunks(v, spec, fmt), values)
    assert_same_text("".join(chunks), reference_format(values, spec, fmt))
    header = fmt == "table"
    assert by_line[header:] == [j % 3 != 1 for j in range(len(starts))]


@pytest.mark.parametrize("fmt", ["bfile", "table"])
def test_reused_rows_across_high_digit_carries(fmt):
    """A chunk writes over the reused rows only the high index digits
    that differ from the ones its rows hold.  Around a carry in one
    high digit (109999 -> 110000), in two (199999 -> 200000, 1099999 ->
    1100000) and a new index digit (999999 -> 1000000), the lines two
    chunks either side read as the reference writes them, for values
    below 10 (the row matrix) and below 13 (line by line)."""
    n = 1_100_003
    spec = PatternSpec(13, "1")
    rng = np.random.default_rng(13)
    header = fmt == "table"
    width = len(str(n - 1)) if fmt == "table" else 0
    sep = "  " if fmt == "table" else " "
    for high in (10, 13):
        values = rng.integers(0, high, n).astype(np.uint8)
        lines = format_sequence(values, spec, fmt).splitlines()
        assert len(lines) == n + header
        for carry in (110_000, 200_000, 10 ** 6, 1_100_000):
            for i in range(carry - 2 * BLOCK, min(n, carry + 2 * BLOCK)):
                assert lines[i + header] == \
                    f"{i:>{width}}{sep}{values[i]}", (high, i)


@pytest.mark.parametrize("fmt", ["bfile", "table"])
def test_format_sequence_calls_share_no_rows(fmt):
    """Each call keeps its own row matrices: a call of one-digit values,
    one of another length and the first again all read as the reference
    writes them, and so do calls of 1- to 3-digit values between them."""
    spec = PatternSpec(101, "1")
    rng = np.random.default_rng(101)
    padded = rng.integers(0, 101, 150_001).astype(np.uint8)
    one_digit = rng.integers(0, 10, 130_007).astype(np.uint8)
    longer = rng.integers(0, 10, 150_001).astype(np.uint8)
    for values in (padded, one_digit, padded, longer, one_digit, longer):
        assert_same_text(format_sequence(values, spec, fmt),
                         reference_format(values, spec, fmt), len(values))


def test_kept_chunks_peak_memory_beyond_their_text():
    """A consumer that keeps every chunk, as the benchmark's sink does,
    holds the text; the renderer's own memory on top of it stays below
    one layout's row matrix, its template and a few columns, since the
    chunks of a digit count reuse one matrix."""
    from blockseq.cli import _format_chunks

    spec = PatternSpec(3, "12")
    values = generate(spec, 8 * CHUNK_TERMS)
    chunks, peak = peak_bytes(
        lambda: list(_format_chunks(values, spec, "table")))
    text = sum(len(chunk) for chunk in chunks)
    assert peak - text <= 14 * CHUNK_TERMS, (peak - text) / CHUNK_TERMS


@pytest.mark.parametrize("fmt", ["bfile", "table"])
def test_chunked_output_peak_memory_does_not_grow_with_n(fmt):
    """One chunk of text and its scratch at a time, never the whole
    output: the same bound holds at 2 and at 8 chunks, where the whole
    text alone takes over 70 * CHUNK_TERMS bytes."""
    import collections

    from blockseq.cli import _format_chunks

    spec = PatternSpec(3, "12")
    for n in (2 * CHUNK_TERMS, 8 * CHUNK_TERMS):
        values = generate(spec, n)
        # consume the chunks, dropping each as soon as it is made
        _, peak = peak_bytes(lambda: collections.deque(
            _format_chunks(values, spec, fmt), maxlen=0))
        assert peak <= 40 * CHUNK_TERMS, (n, peak / CHUNK_TERMS)


# `generate` streams rows of L = m^K terms, `rows` rows per chunk
# (`windows._row_chunks`): a pattern of each row layout, a zero-led one
# with a head of 2L, m = 257 with rows one digit long, and K < |w| last.
SEAM_PATTERNS = [(2, "11"), (3, "01"), (5, "123"), (11, "10"), (257, "1 0"),
                 (2, "1101101101101")]


def seam_sizes(m, w):
    """Counts either side of each edge of the streamed terms: the head,
    the first two row-chunk edges, each power of ten below the second
    and a multiple of 10^4 inside the second row chunk."""
    layout = row_layout(m, w)
    chunk = layout.rows * layout.L
    edges = {layout.head, chunk, 2 * chunk, 10 ** 4 * (chunk // 10 ** 4 + 1)}
    edges |= {10 ** d for d in range(1, len(str(2 * chunk)))}
    return sorted({e + d for e in edges for d in (-1, 0, 1)})


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("m, w", SEAM_PATTERNS,
                         ids=[f"{m}-{w}" for m, w in SEAM_PATTERNS])
def test_streamed_generate_matches_the_whole_window(m, w, fmt, capsys):
    """`generate` renders its terms a row chunk at a time, re-cut into
    template blocks for `bfile` and `table`; either side of every seam
    its text is the text of the whole window `windows.generate` builds."""
    spec = PatternSpec(m, w)
    sizes = seam_sizes(m, w)
    window = generate(spec, sizes[-1])
    if fmt in ("bfile", "table"):
        want = reference_prefixes(window, spec, fmt, sizes,
                                  render=format_sequence)
    else:
        want = {n: format_sequence(window[:n], spec, fmt) for n in sizes}
    for n in sizes:
        # `run`, not `main`: argument parsing would take most of the time
        assert run(RunConfig("generate", m, w, n, output_format=fmt)) == 0
        assert_same_text(capsys.readouterr().out, want[n], n)


@pytest.mark.parametrize("fmt", FORMATS)
def test_generate_memory_error_writes_nothing(fmt, tmp_path, capsys):
    """The parents of 2^63 - 1 terms, 2^51 bytes, are allocated before
    any text is written or --out is opened: the memory error prints no
    header line and creates no file."""
    argv = ["generate", "-m", "2", "-w", "1", "-N", str(sys.maxsize),
            "--format", fmt]
    target = tmp_path / "seq.txt"
    for out in ([], ["--out", str(target)]):
        assert main(argv + out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: not enough memory for this request: ")
        assert "(2251799813685248,)" in captured.err
        assert not target.exists()


@pytest.mark.parametrize("fmt", FORMATS)
def test_generate_peak_does_not_grow_with_the_count(fmt, tmp_path):
    """`generate` holds the parents, one row chunk and one template
    block, not the terms: at 2^23 terms to --out its peak is within
    8 KiB of its peak at 2^21 (the parents grow by 1.5 KiB).  A first
    run imports the ascii codec, which the first --out of a process
    does."""
    peaks = []
    for n in (10, 1 << 21, 1 << 23):
        code, peak = peak_bytes(run, RunConfig(
            "generate", 2, "11", n, output_format=fmt,
            output_path=str(tmp_path / "o")))
        assert code == 0
        peaks.append(peak)
    assert abs(peaks[2] - peaks[1]) <= 8 << 10, peaks


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_pass_prime(capsys):
    assert main(["verify", "-m", "2", "-w", "01", "-N", "20000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "window" in out and "morphism" in out and "oracle" in out


def test_verify_composite_drops_morphism_leg(capsys):
    assert main(["verify", "-m", "4", "-w", "11", "-N", "5000"]) == 0
    out = capsys.readouterr().out
    assert "composite" in out
    assert "PASS" in out
    assert "morphism" not in out.split("PASS")[1]


def corrupt_window(monkeypatch, at, change):
    """Make the window that `verify` checks wrong at each index in `at`:
    `cli.generate` returns the true terms, each value v at those indices
    replaced by change(v)."""
    import blockseq.cli

    real = blockseq.cli.generate

    def wrong_window(spec, n):
        values = real(spec, n)
        for i in at:
            values[i] = change(int(values[i]))
        return values

    monkeypatch.setattr(blockseq.cli, "generate", wrong_window)


@pytest.mark.parametrize("m, w", [("2", "11"), ("4", "11")])
def test_verify_out_writes_every_line_to_the_file(m, w, tmp_path,
                                                  monkeypatch, capsys):
    """With --out, the composite-base note and the PASS or FAIL line go
    to the file, stdout stays empty, and the exit code is unchanged."""
    import blockseq.cli

    def wrong_oracle(spec, x):  # disagrees with the window at n = 0
        return 0, 1

    argv = ["verify", "-m", m, "-w", w, "-N", "1000"]
    out = tmp_path / "verify.txt"
    for code, last in [(0, "agree"), (1, "(0 vs 1)")]:
        if code:
            monkeypatch.setattr(blockseq.cli, "recursion_mismatch",
                                wrong_oracle)
        assert main(argv) == code
        expected = capsys.readouterr().out
        assert expected.startswith("note:") == (m == "4")
        assert expected.endswith(last + "\n")
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_text() == expected


def test_verify_fail_line_names_the_first_disagreement(monkeypatch, capsys):
    """A window that differs from the morphism at several indices is
    reported once, at the least of them, with both values, and the legs
    after it do not run."""
    import blockseq.cli

    def no_oracle(spec, x):
        raise AssertionError("the oracle runs after a failed leg")

    corrupt_window(monkeypatch, [7, 500], lambda v: v ^ 1)
    monkeypatch.setattr(blockseq.cli, "recursion_mismatch", no_oracle)
    window = generate(PatternSpec(2, "11"), 1000)
    assert main(["verify", "-m", "2", "-w", "11", "-N", "1000"]) == 1
    assert capsys.readouterr().out == (
        "FAIL m=2 w=11 N=1000: window and morphism disagree at n=7 "
        f"({window[7] ^ 1} vs {window[7]})\n")


# Four TAKE_CHUNKs of terms and 5 terms of a fifth: for m = 2 the
# morphism check's rows of mu^6 are 64 letters wide, so its chunks of
# CHECK_CHUNK one-byte codes end at multiples of M2_CHUNK = 2^16, two of
# them, and the chunks of TAKE_CHUNK terms it had before at four.
VERIFY_N = 4 * TAKE_CHUNK + 5
M2_CHUNK = CHECK_CHUNK // 64 * 64


@pytest.mark.parametrize("first", sorted({
    0, TAKE_CHUNK - 1, TAKE_CHUNK, 2 * TAKE_CHUNK - 1, 2 * TAKE_CHUNK,
    M2_CHUNK - 1, M2_CHUNK, 2 * M2_CHUNK - 1, 2 * M2_CHUNK, VERIFY_N - 1}))
def test_verify_fail_line_names_the_least_index_across_chunks(first,
                                                               monkeypatch,
                                                               capsys):
    """The morphism leg checks the window a chunk at a time, and the
    FAIL line still names the least wrong index: at either end of the
    output, and on either side of a chunk boundary, with a later wrong
    index in the same chunk and in the last one."""
    later = [i for i in {first + 1, first + TAKE_CHUNK, first + M2_CHUNK,
                         VERIFY_N - 1}
             if first < i < VERIFY_N]
    corrupt_window(monkeypatch, [first, *later], lambda v: v ^ 1)
    window = generate(PatternSpec(2, "11"), VERIFY_N)
    assert main(["verify", "-m", "2", "-w", "11", "-N", str(VERIFY_N)]) == 1
    assert capsys.readouterr().out == (
        f"FAIL m=2 w=11 N={VERIFY_N}: window and morphism disagree at "
        f"n={first} ({window[first] ^ 1} vs {window[first]})\n")


# For m = 3 the check's rows of mu^4 are 81 letters wide, so a chunk of
# CHECK_CHUNK codes holds 809 rows, 65,529 terms (M3_CHECK); its chunks
# of TAKE_CHUNK // 81 = 404 rows, 32,724 terms (M3_CHUNK), end at the
# other edges.
M3_CHUNK = TAKE_CHUNK // 81 * 81
M3_CHECK = CHECK_CHUNK // 81 * 81
M3_N = 3 * M3_CHUNK + 7


@pytest.mark.parametrize("first", [0, M3_CHUNK - 1, M3_CHUNK,
                                   2 * M3_CHUNK - 1, 2 * M3_CHUNK,
                                   M3_CHECK - 1, M3_CHECK, M3_N - 1])
def test_verify_fail_line_names_the_least_index_across_m3_chunks(
        first, monkeypatch, capsys):
    """At m = 3 the morphism leg's chunks end at multiples of 65,529 (and
    ended at multiples of 32,724): the FAIL line names the least wrong
    index on either side of each and at the last index, with later
    wrong indices just after it, at the chunk edges and at the last
    index."""
    later = [i for i in {first + 1, M3_CHUNK, 2 * M3_CHUNK - 1, M3_CHECK,
                         M3_N - 1}
             if first < i < M3_N]
    corrupt_window(monkeypatch, [first, *later], lambda v: (v + 1) % 3)
    window = generate(PatternSpec(3, "12"), M3_N)
    assert main(["verify", "-m", "3", "-w", "12", "-N", str(M3_N)]) == 1
    assert capsys.readouterr().out == (
        f"FAIL m=3 w=12 N={M3_N}: window and morphism disagree at "
        f"n={first} ({(window[first] + 1) % 3} vs {window[first]})\n")


# For p = 257 the codes are uint16, and the check's rows are mu's own,
# 257 letters: a chunk of CHECK_CHUNK bytes holds 127 rows, 32,639 terms.
M257_CHUNK = CHECK_CHUNK // 2 // 257 * 257


@pytest.mark.parametrize("first", [0, M257_CHUNK - 1, M257_CHUNK,
                                   2 * M257_CHUNK + 5])
def test_verify_fail_line_names_the_coded_term_at_p_257(first, monkeypatch,
                                                        capsys):
    """With uint16 codes the compare writes its flags over the chunk's
    first bytes, and the FAIL line still names the least wrong index and
    the coded term there, either side of a chunk edge, with a later
    wrong index in the same chunk and in the next."""
    n = 3 * M257_CHUNK
    corrupt_window(monkeypatch, [i for i in (first, first + 1,
                                             first + M257_CHUNK) if i < n],
                   lambda v: 200 + v)
    window = generate(PatternSpec(257, "1 0"), n)
    assert main(["verify", "-m", "257", "-w", "1 0", "-N", str(n)]) == 1
    assert capsys.readouterr().out == (
        f"FAIL m=257 w=1 0 N={n}: window and morphism disagree at "
        f"n={first} ({200 + window[first]} vs {window[first]})\n")


@pytest.mark.parametrize("m, w, note", [
    ("2", "11", ""),
    ("6", "05", "note: base 6 is composite; checking window vs. oracle only\n"),
])
def test_verify_reports_an_oracle_only_disagreement(m, w, note, monkeypatch,
                                                    capsys):
    """When the window and morphism legs agree and only the oracle
    differs, the FAIL line names the oracle, the index and the value it
    reports, after the composite-base note where there is one."""
    import blockseq.cli

    window = generate(PatternSpec(int(m), w), VERIFY_N)
    for bad in [0, CHUNK_TERMS + 17, VERIFY_N - 1]:
        monkeypatch.setattr(blockseq.cli, "recursion_mismatch",
                            lambda spec, x: (bad, 9))
        assert main(["verify", "-m", m, "-w", w, "-N", str(VERIFY_N)]) == 1
        assert capsys.readouterr().out == note + (
            f"FAIL m={m} w={w} N={VERIFY_N}: window and oracle disagree at "
            f"n={bad} ({window[bad]} vs 9)\n"), bad


M6_ROW, _, _, M6_STARTS = row_layout(6, "05", VERIFY_N)

# Where a corrupted m6 w05 window is checked: the first index, the last
# one below m and the first one with a parent, PREFIX_CHUNK - 1 and
# PREFIX_CHUNK, either side of 6^6 and of 6^6 + PREFIX_CHUNK (where the
# recursion's blocks in `a_prefix` are cut), either side of each start
# of the oracle check's rows of m, rows of M6_ROW = 6^4 and chunks of
# rows, of 67,392 (where its second chunk began when a chunk held 50
# rows of M6_ROW), of the rows of M6_ROW at 6^4, 3 * 6^4 and the last,
# and of 65,538 and 131,070 (6 * 10,923 and 6 * 21,845, where the
# children of 10,922 parents at a time end) and of the last index,
# VERIFY_N - 1 = 6 * 21,846.
CORRUPT_AT = sorted({
    0, 5, 6, PREFIX_CHUNK - 1, PREFIX_CHUNK, 6 ** 6 - 1, 6 ** 6,
    6 ** 6 + PREFIX_CHUNK - 1, 6 ** 6 + PREFIX_CHUNK, VERIFY_N - 1,
    *(i for start in [*M6_STARTS, 67392, M6_ROW, 3 * M6_ROW,
                      VERIFY_N // M6_ROW * M6_ROW, 65538, 131070, 131076]
      for i in (start - 1, start))})


@pytest.mark.parametrize("i", CORRUPT_AT)
def test_verify_checks_the_window_against_the_recursion(i, monkeypatch,
                                                        capsys):
    """For a composite base the window is checked by the oracle's
    recursion taken K digits at a time, each parent a(i // 6^K) read from
    the window, in rows of 6^K terms and chunks of rows: CORRUPT_AT holds
    either side of each start of rows and chunks.  A window wrong at i,
    by a value inside or outside [0, m), fails at i with a(i); so does
    one also wrong at i * m + 1 and at i * M6_ROW + 1, in the rows of
    the wrong i, since the check names the least index that fails."""
    import blockseq.cli

    real = blockseq.cli.generate
    spec = PatternSpec(6, "05")
    want = a_prefix(spec, VERIFY_N)
    note = "note: base 6 is composite; checking window vs. oracle only\n"
    for bad in [(int(want[i]) + 1) % 6, 9, 255]:
        for at in ([i], [i, i * 6 + 1, i * M6_ROW + 1]):
            def wrong_window(spec, n):
                values = real(spec, n)
                values[[j for j in at if j < n]] = bad
                return values

            monkeypatch.setattr(blockseq.cli, "generate", wrong_window)
            assert main(["verify", "-m", "6", "-w", "05",
                         "-N", str(VERIFY_N)]) == 1
            assert capsys.readouterr().out == note + (
                f"FAIL m=6 w=05 N={VERIFY_N}: window and oracle disagree "
                f"at n={i} ({bad} vs {want[i]})\n"), (at, bad)


@pytest.mark.parametrize("m, w", [("2", "11"), ("257", "1 0"), ("6", "05")])
def test_verify_builds_no_second_output(m, w, monkeypatch, capsys):
    """`verify` checks the window against the morphism's coded images and
    the oracle's recursion chunk by chunk: it never calls the functions
    that build a whole second output."""
    import blockseq.cli

    def whole_output(*args):
        raise AssertionError("verify built a second whole output")

    monkeypatch.setattr(blockseq.cli, "a_prefix", whole_output)
    monkeypatch.setattr(blockseq.cli, "expand_fixed_point", whole_output)
    assert main(["verify", "-m", m, "-w", w, "-N", str(VERIFY_N)]) == 0
    assert capsys.readouterr().out.endswith(f"N={VERIFY_N}: " + (
        "window, oracle agree\n" if m == "6"
        else "window, morphism, oracle agree\n"))


@pytest.mark.parametrize("m, w", [(2, "11"), (6, "05")])
def test_verify_holds_the_window_and_one_other_leg(m, w, capsys):
    """No leg builds a second N-term output: the morphism leg holds the
    window, the next-to-last level (N / 64 letters for m = 2) and one
    gather chunk, and the oracle leg the window, one chunk of expected
    rows and its table of border classes (under 0.2 MiB together), so
    the peak is about 1 byte per term plus the morphism's level.  The
    ceiling is the peak measured at this code plus 25%."""
    n = 1 << 20
    code, peak = peak_bytes(lambda: run(RunConfig("verify", m, w, n)))
    assert code == 0 and "PASS" in capsys.readouterr().out
    assert peak <= 1.25 * 1_220_567, f"peak {peak / n:.2f} bytes per term"


def test_verify_prime_base_above_256(capsys):
    # coding digits up to 256 need more than uint8
    assert main(["verify", "-m", "257", "-w", "1", "-N", "2000"]) == 0
    assert capsys.readouterr().out == (
        "PASS m=257 w=1 N=2000: window, morphism, oracle agree\n")


# ---------------------------------------------------------------------------
# prime-only guard and usage errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sub", ["blocks", "powers", "series"])
def test_prime_only_subcommands_reject_composite(sub, capsys):
    assert main([sub, "-m", "4", "-w", "11", "-N", "100"]) == 2
    assert capsys.readouterr().err == \
        f"error: subcommand {sub!r} requires a prime base, got 4\n"


def test_blocks_at_a_61_bit_prime_base(capsys):
    """The prime test decides 2^61 - 1 at once, where trial division
    would take about 1.5 * 10^9 steps."""
    import time

    t0 = time.perf_counter()
    assert main(["blocks", "-m", str(2 ** 61 - 1), "-w", "1", "-N", "10"]) == 0
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr().out == (
        "claim=block-dichotomy params=[m=2305843009213693951 w=1] scan=10 "
        "evidence=[type1=0,type2=0] verdict=PASS\n")


def test_blocks_refuses_a_composite_that_fools_twelve_witnesses(capsys):
    """318,665,857,834,031,151,167,461 = 399,165,290,221 * 798,330,580,441
    passes Miller-Rabin to the first 12 primes, and is a usage error."""
    assert main(["blocks", "-m", "318665857834031151167461", "-w", "1",
                 "-N", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: subcommand 'blocks' requires a prime "
                            "base, got 318665857834031151167461\n")


@pytest.mark.parametrize("sub", ["verify", "bench", "blocks", "powers",
                                 "series"])
def test_a_base_past_the_witness_bound_is_refused_at_once(sub, capsys):
    """Every subcommand that asks whether the base is prime refuses
    2^89 - 1, past the bound where the prime test is exact, at once;
    `generate`, which does not ask, runs at that base."""
    import time

    base = str(2 ** 89 - 1)
    t0 = time.perf_counter()
    assert main([sub, "-m", base, "-w", "1", "-N", "10"]) == 2
    assert time.perf_counter() - t0 < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: base {base}: primality is decided only "
                            "below 3317044064679887385961981\n")
    assert main(["generate", "-m", base, "-w", "1", "-N", "3"]) == 0
    assert capsys.readouterr().out == "0 1 0\n"


@pytest.mark.parametrize("m", ["4294967311", "2305843009213693951"])
def test_series_at_bases_past_uint32(m, capsys):
    """Bases past 2^32 end in their two records: the quotient of an
    index below 2^32 holds no such base, and the left side of the
    functional equation repeats f(0) at most `order` times, not p.  Ten
    terms at such a base are 0 1 0 0 ..., so the short scan finds a
    period and the degree evidence fails."""
    assert main(["series", "-m", m, "-w", "1", "--order", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        f"seed=0\n"
        f"claim=functional-equation params=[m={m} w=1] scan=10 evidence=[] "
        f"verdict=PASS\n"
        f"claim=degree-evidence params=[m={m} w=1] scan=10 "
        f"evidence=[residual_zero=True,periods=[1, 2]] verdict=FAIL\n")


def test_invalid_pattern_digit_is_usage_error(capsys):
    assert main(["generate", "-m", "2", "-w", "21", "-N", "10"]) == 2
    assert "error" in capsys.readouterr().err


def test_nonnumeric_pattern_is_usage_error():
    assert main(["generate", "-m", "2", "-w", "1x", "-N", "10"]) == 2


def test_underscored_pattern_is_usage_error(capsys):
    assert main(["generate", "-m", "16", "-w", "1_0", "-N", "12"]) == 2
    assert capsys.readouterr() == (
        "", "error: pattern '1_0' is not a digit sequence\n")


def test_control_character_separated_pattern_is_usage_error(capsys):
    """0x1c-0x1f are not separators, though str.split() cuts at them."""
    assert main(["generate", "-m", "16", "-w", "1\x1c2", "-N", "12"]) == 2
    assert capsys.readouterr() == (
        "", "error: pattern '1\\x1c2' is not a digit sequence\n")
    assert main(["generate", "-m", "16", "-w", "1\t2", "-N", "3"]) == 0
    assert capsys.readouterr().out == "0 0 0\n"


def test_bad_count_is_usage_error():
    assert main(["generate", "-m", "2", "-w", "1", "-N", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["series", "-m", "2", "-w", "11", "--order", "0"],
    ["series", "-m", "2", "-w", "11", "--order", "-3"],
    ["powers", "-m", "2", "-w", "11", "--scan-length", "-5"],
    ["powers", "-m", "2", "-w", "11", "--scan-length", "0"],
    ["series", "-m", "2", "-w", "11", "--seed", "-1"],
])
def test_bad_sizes_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    def no_memory(spec, n_terms):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr("blockseq.windows.generate", no_memory)
    assert main(["generate", "-m", "2", "-w", "11", "-N", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "memory" in captured.err
    assert "Traceback" not in captured.err


def test_out_of_memory_without_a_reason_ends_the_line(capsys):
    """A MemoryError with no text prints no empty reason: 2^61 - 1 is
    prime, and the morphism's [0] * p list fails at once, allocating
    nothing."""
    assert main(["verify", "-m", str(2 ** 61 - 1), "-w", "1", "-N", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not enough memory for this request\n"


PAST_MAXSIZE = str(10 ** 20)
PRIME_PAST_MAXSIZE = "9223372036854775837"  # the least prime past 2^63 - 1


@pytest.mark.parametrize("argv, code", [
    (["generate", "-m", "2", "-w", "1", "-N", PAST_MAXSIZE], 2),
    (["verify", "-m", "2", "-w", "1", "-N", PAST_MAXSIZE], 2),
    (["blocks", "-m", "2", "-w", "1", "-N", PAST_MAXSIZE], 2),
    (["bench", "-m", "2", "-w", "1", "-N", PAST_MAXSIZE], 2),
    (["powers", "-m", "2", "-w", "1", "--scan-length", PAST_MAXSIZE], 2),
    (["series", "-m", "2", "-w", "1", "--order", PAST_MAXSIZE], 2),
    (["verify", "-m", PRIME_PAST_MAXSIZE, "-w", "1", "-N", "10"], 2),
    (["bench", "-m", PRIME_PAST_MAXSIZE, "-w", "1", "-N", "10"], 2),
    (["series", "-m", PRIME_PAST_MAXSIZE, "-w", "1"], 2),
    (["verify", "-m", str(2 ** 64), "-w", "1 0", "-N", "10"], 0),
], ids=["generate-N", "verify-N", "blocks-N", "bench-N", "powers-scan",
        "series-order", "verify-prime", "bench-prime", "series-prime",
        "verify-composite"])
def test_sizes_and_bases_past_maxsize_end_in_an_exit_code(argv, code,
                                                          capsys):
    """A size past sys.maxsize, which numpy cannot give an array, and a
    prime base past it, which the morphism's transition lists and the
    int64 series residual cannot hold, are usage errors that name the
    bound.  A composite base past it takes only the oracle leg, whose
    scratch no parent of 10 terms needs, and passes."""
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if code == 0:
        assert captured.out == (
            f"note: base {2 ** 64} is composite; checking window vs. "
            "oracle only\n"
            f"PASS m={2 ** 64} w=1 0 N=10: window, oracle agree\n")
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert str(sys.maxsize) in captured.err


def test_sizes_and_bases_at_maxsize_keep_their_exit_codes(capsys):
    """At the bound itself, N = 2^63 - 1 is still refused as memory it
    cannot have, and the largest prime below it still has a series."""
    assert main(["generate", "-m", "2", "-w", "1", "-N",
                 str(sys.maxsize)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not enough memory for this "
                                   "request")
    m = "9223372036854775783"  # the largest prime below 2^63
    assert main(["series", "-m", m, "-w", "1", "--order", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1] == (
        f"claim=functional-equation params=[m={m} w=1] scan=10 evidence=[] "
        "verdict=PASS")


def test_unwritable_output_path_is_io_error(capsys):
    code = main(["generate", "-m", "2", "-w", "1", "-N", "4",
                 "--out", "/nonexistent-dir-blockseq/x.txt"])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# blocks / powers / series subcommands
# ---------------------------------------------------------------------------

def test_blocks_summary(capsys):
    assert main(["blocks", "-m", "2", "-w", "11", "-N", "4096"]) == 0
    # half of all blocks have expansions ending in the deviant digit
    assert capsys.readouterr().out == (
        "claim=block-dichotomy params=[m=2 w=11] scan=4096 "
        "evidence=[type1=1024,type2=1024] verdict=PASS\n")


def test_blocks_summary_base_past_uint8(capsys):
    # type 2 at n = 5, 262, 519, 776: a deviating digit 0 would step
    # back to 256, which uint8 cannot hold
    assert main(["blocks", "-m", "257", "-w", "5 0", "-N", "200000"]) == 0
    assert capsys.readouterr().out == (
        "claim=block-dichotomy params=[m=257 w=5 0] scan=200000 "
        "evidence=[type1=774,type2=4] verdict=PASS\n")


def blocks_expected(spec, x):
    """(exit code, stdout, stderr) that `blocks` must give over the terms
    x: those of `classify_range` on the array."""
    try:
        type2 = classify_range(spec, x)
    except ClaimViolationError as exc:
        return 1, "", f"verification failure: {exc}\n"
    n2 = len(type2)
    return 0, (f"claim=block-dichotomy params=[{spec}] scan={len(x)} "
               f"evidence=[type1={len(x) // spec.base - n2},type2={n2}] "
               "verdict=PASS\n"), ""


def block_fault(spec, x, n, kind):
    """[(index, value)] making block n of x the other shape ("flip", so
    type 1 <-> type 2 against the predicate) or neither shape
    ("neither": a digit beside the deviating one stepped, or at p = 2,
    where two in-range digits always form one of the shapes, set to 254
    or 255, whichever plus one is not the deviating digit mod 2)."""
    p, i0 = spec.base, spec.pattern[-1]
    t, d = int(x[n * p + (1 if i0 == 0 else 0)]), int(x[n * p + i0])
    if kind == "flip":
        return [(n * p + i0, t if d != t else (t + 1) % p)]
    return [(n * p + (i0 + 1) % p, 254 + d if p == 2 else (t + 1) % p)]


@pytest.mark.parametrize("m, w", [(2, "0"), (2, "11"), (3, "12"), (3, "021"),
                                  (5, "13"), (257, "5 0"),
                                  (2, "1101101101101")])
def test_blocks_over_faulty_chunks_reports_as_classify_range(
        monkeypatch, capsys, m, w):
    """Faults written into the generated chunks (of three chunks and a
    row, and a partial block) give the exit code, line and message that
    classify_range gives on the same array: a predicate mismatch in the
    first chunk, at the block of the first deviating digit mod p^|w|
    (for a zero-led w the block that digit steps but the predicate
    skips), beaten by a later neither block; two mismatches; a neither
    block either side of a chunk edge, and in the last complete block;
    and a fault in the partial block, which is not checked."""
    import blockseq.cli

    spec = PatternSpec(m, w)
    L, rows, _, _ = row_layout(m, w)
    edge = rows * L  # the first chunk edge
    n = 3 * edge + L + 1
    clean = generate(spec, n)
    nb = n // m
    flat = spec.first_end % m ** spec.width // m
    last_of_0, first_of_1 = edge // m - 1, edge // m
    in_2 = 2 * edge // m + 3
    cases = {
        "mismatch": block_fault(spec, clean, flat, "flip"),
        "mismatch, later neither": (block_fault(spec, clean, flat, "flip")
                                    + block_fault(spec, clean, in_2,
                                                  "neither")),
        "two mismatches": (block_fault(spec, clean, in_2, "flip")
                           + block_fault(spec, clean, first_of_1, "flip")),
        "neither before the edge": block_fault(spec, clean, last_of_0,
                                               "neither"),
        "neither after the edge": block_fault(spec, clean, first_of_1,
                                              "neither"),
        "neither in the last block": block_fault(spec, clean, nb - 1,
                                                 "neither"),
        "partial block": [(n - 1, 255)],
    }
    real = blockseq.cli._row_chunks
    for name, faults in cases.items():
        x = clean.copy()
        for i, v in faults:
            x[i] = v
        want = blocks_expected(spec, x)
        assert ("neither" in want[2]) == ("neither" in name), name
        assert (want[0] == 0) == (name == "partial block"), name

        def faulty(spec, n_terms, faults=faults):
            at = 0
            for chunk in real(spec, n_terms):
                for i, v in faults:
                    if at <= i < at + len(chunk):
                        chunk[i - at] = v
                at += len(chunk)
                yield chunk

        monkeypatch.setattr(blockseq.cli, "_row_chunks", faulty)
        code = main(["blocks", "-m", str(m), "-w", w, "-N", str(n)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == want, name


def test_blocks_peak_does_not_grow_with_the_count(tmp_path):
    """`blocks` holds the parents, not the terms: at 2^23 terms its peak
    is within 8 KiB of its peak at 2^21 (the parents grow by 1.5 KiB)."""
    peaks = []
    for n in (1 << 21, 1 << 23):
        code, peak = peak_bytes(run, RunConfig(
            "blocks", 2, "0", n, output_path=str(tmp_path / "o")))
        assert code == 0
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 8 << 10, peaks


def test_series_names_the_least_wrong_coefficient(monkeypatch, capsys):
    """The series' window is checked whole against the oracle's
    recursion: a window wrong at n = 1000 and 1999, neither of them in
    the 1% sample that seed 0 used to draw at order 2000, fails with
    the least of them named, and prints nothing."""
    import blockseq.series

    real = blockseq.series.generate

    def wrong(spec, n):
        x = real(spec, n)
        x[[1000, 1999]] ^= 1
        return x

    monkeypatch.setattr(blockseq.series, "generate", wrong)
    assert main(["series", "-m", "2", "-w", "11", "--order", "2000",
                 "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("verification failure: window generator "
                            "disagrees with the oracle at n=1000 "
                            "(m=2 w=11)\n")


def test_powers_one_zero_pattern(capsys):
    assert main(["powers", "-m", "2", "-w", "10",
                 "--scan-length", "65536"]) == 0
    out = capsys.readouterr().out
    assert "claim=power-length-multiple" in out
    assert "claim=one-zero-pattern-square-bound" in out
    assert "evidence=[1]" in out
    assert out.count("verdict=PASS") == 2


def test_powers_zero_pattern_base2_reports_violation(capsys):
    # the genuine square prefix of block length 6 breaks the claimed bound
    for n in ("32768", "65536"):
        assert main(["powers", "-m", "2", "-w", "0", "--scan-length", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "verification failure: zero-pattern-square-bound violated for "
            f"m=2 w=0: offending block length 6 within {n} terms\n")


@pytest.mark.parametrize("m, w, scans", [
    ("5", "23", 1), ("3", "1", 1),   # both claims scan v^(p+1)
    ("2", "0", 2), ("3", "10", 2),   # the exclusion scans another exponent
])
def test_powers_generates_once_and_scans_each_exponent_once(
        m, w, scans, monkeypatch, capsys):
    import blockseq.structure

    calls = {"generate": [], "scan": []}
    real_generate = blockseq.structure.generate
    real_scan = blockseq.structure.scan_power_prefixes

    def counted_generate(spec, n_terms):
        calls["generate"].append(n_terms)
        return real_generate(spec, n_terms)

    def counted_scan(prefix, exponent):
        calls["scan"].append(exponent)
        return real_scan(prefix, exponent)

    monkeypatch.setattr(blockseq.structure, "generate", counted_generate)
    monkeypatch.setattr(blockseq.structure, "scan_power_prefixes",
                        counted_scan)
    main(["powers", "-m", m, "-w", w, "--scan-length", "4096"])
    capsys.readouterr()
    assert calls["generate"] == [4096]
    assert len(calls["scan"]) == len(set(calls["scan"])) == scans


def test_powers_reports_a_broken_multiple_claim(monkeypatch, capsys):
    """A v^3 prefix of block length 9 >= 2 * 2^2 that 2 does not divide
    breaks the divisibility claim for m=2 w=11: its record reads FAIL,
    and `powers` turns it into exit 1 with the record's detail."""
    import blockseq.structure
    from blockseq import check_power_claims

    real = blockseq.structure.scan_power_prefixes

    def with_nine(prefix, exponent):
        return tuple(sorted(set(real(prefix, exponent)) | {9}))

    monkeypatch.setattr(blockseq.structure, "scan_power_prefixes", with_nine)
    detail = ("power-prefix length 9 (>= 8) is not a multiple of 2 "
              "for m=2 w=11")
    multiple, cap = check_power_claims(PatternSpec(2, "11"), 4096)
    assert (multiple.verdict, multiple.detail) == ("FAIL", detail)
    assert cap.verdict == "PASS"  # 9 is no multiple of 2, so no cap applies
    assert main(["powers", "-m", "2", "-w", "11",
                 "--scan-length", "4096"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verification failure: {detail}\n"


def test_series_reports_first_nonzero_residual(monkeypatch, capsys):
    import blockseq.series

    real = blockseq.series.rhs_series

    def shifted(spec, order):  # one wrong coefficient, at t^100
        r = real(spec, order)
        r[100] = (r[100] + 1) % spec.base
        return r

    monkeypatch.setattr(blockseq.series, "rhs_series", shifted)
    # for p = 257 the residual there is p - 1 = 256, which uint8 reads as 0
    for m, w, seed in [("2", "11", "5"), ("257", "1", "0")]:
        assert main(["series", "-m", m, "-w", w, "--order", "2000",
                     "--seed", seed]) == 1
        assert capsys.readouterr().out == (
            f"seed={seed}\n"
            f"claim=functional-equation params=[m={m} w={w}] scan=2000 "
            "evidence=[first_nonzero=100] verdict=FAIL\n"
            f"claim=degree-evidence params=[m={m} w={w}] scan=2000 "
            "evidence=[residual_zero=False,periods=[]] verdict=FAIL\n")


def test_series_out_file_holds_the_seed_line(tmp_path, capsys):
    target = tmp_path / "series.txt"
    assert main(["series", "-m", "2", "-w", "11", "--order", "2000",
                 "--seed", "5", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == (
        "seed=5\n"
        "claim=functional-equation params=[m=2 w=11] scan=2000 evidence=[] "
        "verdict=PASS\n"
        "claim=degree-evidence params=[m=2 w=11] scan=2000 "
        "evidence=[residual_zero=True,periods=[]] verdict=PASS\n")


def test_series_subcommand(capsys):
    assert main(["series", "-m", "2", "-w", "11", "-N", "10",
                 "--order", "2000", "--seed", "5"]) == 0
    assert capsys.readouterr().out == (
        "seed=5\n"
        "claim=functional-equation params=[m=2 w=11] scan=2000 evidence=[] "
        "verdict=PASS\n"
        "claim=degree-evidence params=[m=2 w=11] scan=2000 "
        "evidence=[residual_zero=True,periods=[]] verdict=PASS\n")


# ---------------------------------------------------------------------------
# bench harness
# ---------------------------------------------------------------------------

def test_bench_generators_smoke():
    records = bench_generators(PatternSpec(2, "11"), 200_000)
    assert [r.generator for r in records] == ["window", "morphism", "oracle"]
    assert len({r.checksum for r in records}) == 1
    for r in records:
        assert r.wall_time > 0
        assert r.throughput > 0
        line = r.format()
        assert "sha256=" in line and "terms_per_s=" in line


def test_bench_disagreeing_checksums_are_a_verification_failure(
        monkeypatch, capsys):
    """A leg whose terms hash differently makes `bench` exit 1 with the
    three checksums on stderr and print no bench line."""
    import re

    import blockseq.cli

    real = blockseq.cli.expand_fixed_point

    def wrong_morphism(mu, n):
        values = real(mu, n)
        values[3] ^= 1
        return values

    monkeypatch.setattr(blockseq.cli, "expand_fixed_point", wrong_morphism)
    assert main(["bench", "-m", "2", "-w", "11", "-N", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"verification failure: generator outputs disagree for m=2 w=11: "
        r"window=([0-9a-f]{12}), morphism=(?!\1)[0-9a-f]{12}, oracle=\1\n",
        captured.err), captured.err


def test_bench_prime_base_above_256():
    records = bench_generators(PatternSpec(257, "1"), 2000)
    assert [r.generator for r in records] == ["window", "morphism", "oracle"]
    assert len({r.checksum for r in records}) == 1


def test_bench_composite_base_has_two_legs():
    records = bench_generators(PatternSpec(4, "10"), 100_000)
    assert [r.generator for r in records] == ["window", "oracle"]
    assert len({r.checksum for r in records}) == 1


def test_bench_holds_one_output_at_a_time():
    """Each output is freed before the next timed call allocates its
    own, and the last one is hashed in place, so the peak is one output
    plus the oracle's block scratch."""
    n = 1 << 20
    _, peak = peak_bytes(bench_generators, PatternSpec(2, "11"), n)
    assert peak < 2.1 * n, f"peak {peak / n:.2f} bytes per term"


@pytest.mark.parametrize("m, w, n", [(2, "11", 200_000), (257, "1", 2000),
                                     (4, "10", 100_000)])
def test_bench_lines_hash_the_generated_terms(m, w, n, capsys):
    """With the timing fields and the timing-dependent verdict masked,
    `bench` prints one fixed line per leg: the sha256 of the terms."""
    import hashlib
    import re

    spec = PatternSpec(m, w)
    digest = hashlib.sha256(generate(spec, n).tobytes()).hexdigest()[:16]
    legs = ["window", "morphism", "oracle"] if m != 4 else ["window",
                                                            "oracle"]
    main(["bench", "-m", str(m), "-w", w, "-N", str(n)])
    out = re.sub(r"median_s=\S+ terms_per_s=\S+", "TIMING",
                 capsys.readouterr().out)
    out = re.sub(r": (PASS|FAIL)$", ": VERDICT", out, flags=re.M)
    assert out == "".join(
        f"bench generator={leg} m={m} w={w} N={n} TIMING sha256={digest}\n"
        for leg in legs) + "ordering window>=morphism>oracle: VERDICT\n"


# (config, ceiling in bytes) at N = 2^21 terms, written to a file: the
# peaks measured at this code plus 25% (`generate` and `blocks` hold
# no prefix, so their ceilings do not grow with N)
PEAK_N = 1 << 21
SUBCOMMAND_PEAKS = [
    (RunConfig("generate", 2, "11", PEAK_N), 1.25 * 290_594),
    (RunConfig("verify", 2, "11", PEAK_N), 1.25 * 2_266_407),
    (RunConfig("blocks", 2, "0", PEAK_N), 1.25 * 419_959),
    (RunConfig("powers", 2, "11", PEAK_N, scan_length=PEAK_N),
     1.25 * 8_408_206),
    (RunConfig("series", 2, "11", PEAK_N, order=1 << 14), 1.25 * 1_249_331),
]


@pytest.mark.parametrize("cfg, ceiling", SUBCOMMAND_PEAKS,
                         ids=[cfg.subcommand for cfg, _ in SUBCOMMAND_PEAKS])
def test_subcommand_peak_memory_budget(cfg, ceiling, tmp_path):
    import dataclasses

    code, peak = peak_bytes(lambda: run(
        dataclasses.replace(cfg, output_path=str(tmp_path / "o"))))
    assert code == 0
    assert peak <= ceiling, (f"peak {peak} > {ceiling:.0f} bytes "
                             f"({peak / PEAK_N:.3f} bytes per term)")


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------

def test_default_scan_lengths():
    assert default_scan_length(2) == 1 << 20
    assert default_scan_length(3) == 3 ** 12
    assert default_scan_length(5) == 1 << 22


def test_run_config_spec_roundtrip():
    cfg = RunConfig(subcommand="generate", base=3, pattern="12", count=10)
    assert cfg.spec() == PatternSpec(3, "12")


def test_python_dash_m_matches_in_process_run(capsys):
    argv = ["generate", "-m", "2", "-w", "11", "-N", "8"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "blockseq", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    code = run(RunConfig(subcommand="generate", base=2, pattern="11", count=8))
    assert proc.returncode == code == 0
    assert proc.stdout == capsys.readouterr().out == RS_S3[:8] + "\n"


def test_console_script_entry_point():
    exe = shutil.which("blockseq")
    assert exe is not None, "console script should be installed"
    proc = subprocess.run(
        [exe, "generate", "-m", "2", "-w", "11", "-N", "32"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == RS_S3 + "\n"
