"""Command-line interface and benchmark harness.

Subcommands:

* generate -- emit the first N terms via the window generator;
* verify   -- cross-check window vs. morphism vs. brute-force oracle;
* blocks   -- classify p-blocks and summarize the type-1/type-2 split;
* powers   -- run the power-prefix divisibility and exclusion checks;
* series   -- functional-equation residual and degree evidence;
* bench    -- time all three generators on identical parameters.

Exit codes: 0 success, 1 verification failure (a claim that fails, a
FAIL ordering from `bench`, or generators that disagree; `powers` then
prints only its first FAIL record's detail, on stderr), 2 usage error
(a bad base, pattern, size or seed, a count, order or scan length past
sys.maxsize = 2^63 - 1, a prime base past sys.maxsize for `verify`,
`bench` or `series`, or a size whose output does not fit in memory;
for `generate` and `blocks`, whose N/L bytes of parents do not),
3 I/O error.  `blocks`, `powers` and `series` require a prime base,
the paper's setting.  `verify` and `bench` accept composite bases
and compare only the window generator with the oracle there.

`bench`'s ordering verdict compares the median of five timed passes of
each leg, so it reports timing, not correctness (the checksums are that
check).  Where two legs take about the same time it is noise: at small
N the window and morphism legs can tie, and `bench -m 3 -w 011 -N 20000`
(0.03 to 0.05 ms per leg) prints `ordering ...: FAIL` and exits 1 on
working code in some runs.

`verify` holds the window output and never a second N-term output: each
other leg is one plain check of the window, which returns the least
index where it fails, and a leg runs only if the ones before it passed.
The morphism leg is `morphism.fixed_point_mismatch` and the oracle leg
`words.recursion_mismatch`; their docstrings say how each reads the
window.  A FAIL line names that least index, the window's term there
and the leg's.  So `verify` holds about 1 byte per term, plus the
morphism's level and one 64 KiB chunk of codes, or the oracle check's
table of (border class, a(s)) rows and one chunk of expected rows, at
most 64 KiB + m * L bytes together (under 0.2 MiB).
`blocks` never holds its N terms: `windows._row_chunks` writes them a
chunk of rows at a time into one buffer, and `structure.classify_chunks`
checks each chunk as it comes, in fixed scratch.  So it holds about N/L
bytes of parents (L = m^K, up to 4096 terms per row), one chunk, the
row table and the check's scratch, and nothing per block: the verified
type-2 blocks come back as one range, and it prints their count.  So an
N whose N bytes would not fit in memory runs, as long as its N/L do.
`bench` frees each output before the next timed call allocates its own.

`generate` never holds its N terms either: it renders the chunks of
`windows._row_chunks` as they come.  So it holds about N/L bytes of
parents (at least the head's L or 2L), one row chunk, the row table,
and one chunk of text with its scratch: for `bfile` and `table` one
block of the index template.  Its parents are allocated
before any text is written or `--out` is opened, so a request they do
not fit ends in the memory error with no output.  It renders its
terms in numpy, never one Python string per term, for every N up to
p^9: each of those terms is one digit, and a chunk that holds a wider
one is written line by line.  stdout and `--out` get the same bytes.
`plain` and `report` text comes one row chunk at a time, at most
CHUNK_TERMS terms (a chunk of rows is one row of m terms past
m = 2^16), written by `words.digit_string`; `bfile` and `table` text is
cut and written by `words.indexed_rows`, one chunk per block of 10^4
indices (one per index digit count below 10^4), or per part of a block
that lies in one row chunk.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import (BlockseqError, ClaimViolationError, InvalidBaseError,
                     InvalidPatternError, VerificationError)
from .morphism import (build_morphism, expand_fixed_point,
                       fixed_point_mismatch)
from .series import degree_evidence
from .structure import ClaimReport, check_power_claims, classify_chunks
from .windows import _row_chunks, generate
from .words import (PatternSpec, a_prefix, digit_string, indexed_rows,
                    recursion_mismatch)

__all__ = [
    "RunConfig",
    "BenchRecord",
    "bench_generators",
    "default_scan_length",
    "run",
    "main",
]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3


@dataclass
class RunConfig:
    """Everything one invocation needs, and every flag's default; built
    from the flags given."""

    subcommand: str
    base: int
    pattern: str
    count: int = 10 ** 5
    output_format: str = "plain"
    output_path: str | None = None
    seed: int = 0
    scan_length: int | None = None
    order: int = 10_000

    def spec(self) -> PatternSpec:
        return PatternSpec(self.base, self.pattern)


@dataclass
class BenchRecord:
    generator: str
    spec: PatternSpec
    n_terms: int
    wall_time: float
    checksum: str

    @property
    def throughput(self) -> float:
        return self.n_terms / self.wall_time

    def format(self) -> str:
        return (f"bench generator={self.generator} {self.spec} "
                f"N={self.n_terms} median_s={self.wall_time:.6f} "
                f"terms_per_s={self.throughput:.0f} sha256={self.checksum[:16]}")


def default_scan_length(p: int) -> int:
    """Power-prefix scan length: 2^20 terms for base 2, otherwise p^12
    capped at 2^22 terms."""
    if p == 2:
        return 1 << 20
    return min(p ** 12, 1 << 22)


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

# Terms per chunk of `plain` and `report` text.  A chunk of
# `windows._row_chunks`, which `generate` renders, holds about as many
# below m = 2^16, and one row of m terms past it.
CHUNK_TERMS = 1 << 16


def _render(chunks, n: int, spec: PatternSpec, fmt: str):
    """The text of `fmt` for the n values that the arrays in `chunks`
    hold in turn, in text chunks (after a header line for `table` and
    `report`): `words.digit_string` of at most CHUNK_TERMS values at a
    time for `plain` and `report`, and the chunks of `indexed_rows` for
    `bfile` and `table`.  Each value chunk is read before the next is
    asked for, so it may be a buffer its source reuses."""
    if fmt == "table":
        width, sep = len(str(n - 1)), b"  "
        yield f"{'n':>{width}}  a(n)\n"
    elif fmt == "bfile":
        width, sep = None, b" "
    elif fmt == "report":
        yield (f"p={spec.base} w={digit_string(spec.pattern, spec.base)} "
               f"N={n}\n")
    elif fmt != "plain":
        raise InvalidPatternError(f"unknown output format {fmt!r}")
    if fmt in ("bfile", "table"):
        yield from indexed_rows(chunks, width, sep)
        return
    between = " " if spec.base > 10 else ""
    done = 0
    for chunk in chunks:
        for lo in range(0, len(chunk), CHUNK_TERMS):
            part = chunk[lo:lo + CHUNK_TERMS]
            done += len(part)
            yield digit_string(part, spec.base) + ("\n" if done == n
                                                   else between)
    if n == 0:
        yield "\n"


def _format_chunks(values, spec: PatternSpec, fmt: str):
    """`_render` of values held in memory, as one chunk of values."""
    return _render([values], len(values), spec, fmt)


def format_sequence(values: np.ndarray, spec: PatternSpec, fmt: str) -> str:
    """The whole text of `fmt` for `values`: the text `generate` writes,
    rendered by the same path.  It holds every chunk and the joined text
    at once (about twice the text), where `generate` streams them."""
    return "".join(_format_chunks(values, spec, fmt))


def _emit(chunks, out_path: str | None) -> None:
    """Write each text chunk to stdout, or to out_path opened once."""
    with (contextlib.nullcontext(sys.stdout) if out_path is None
          else open(out_path, "w", encoding="ascii")) as fh:
        for chunk in chunks:
            fh.write(chunk)


# ---------------------------------------------------------------------------
# subcommand bodies: return (text chunks, exit code) for run() to write,
# or raise for run() to map to an exit code
# ---------------------------------------------------------------------------

def _cmd_generate(cfg: RunConfig, spec: PatternSpec) -> tuple:
    chunks = _row_chunks(spec, cfg.count)
    # the first chunk allocates the parents, so a request they do not
    # fit ends here, before `_emit` opens --out or writes a byte
    first = next(chunks)
    return (_render(itertools.chain([first], chunks), cfg.count, spec,
                    cfg.output_format), EXIT_OK)


def _cmd_verify(cfg: RunConfig, spec: PatternSpec) -> tuple:
    n = cfg.count
    # (name, check of the window returning its first difference) per leg
    checks = []
    lines = []
    if spec.modulus_is_prime:
        mu = build_morphism(spec)
        checks.append(("morphism", lambda x: fixed_point_mismatch(mu, x)))
    else:
        lines.append(f"note: base {spec.base} is composite; "
                     "checking window vs. oracle only\n")
    window = generate(spec, n)
    # the oracle's recursion, reading each parent a(n // m) from the window
    checks.append(("oracle", lambda x: recursion_mismatch(spec, x)))
    for other, check in checks:
        diff = check(window)
        if diff is not None:
            i, value = diff
            lines.append(f"FAIL {spec} N={n}: window and {other} disagree "
                         f"at n={i} ({int(window[i])} vs {value})\n")
            return lines, EXIT_VERIFY
    names = ["window"] + [name for name, _ in checks]
    lines.append(f"PASS {spec} N={n}: {', '.join(names)} agree\n")
    return lines, EXIT_OK


def _cmd_blocks(cfg: RunConfig, spec: PatternSpec) -> tuple:
    # generated and checked a chunk of rows at a time; raises on any
    # violation
    type2 = classify_chunks(spec, _row_chunks(spec, cfg.count), cfg.count)
    n2 = len(type2)
    n1 = cfg.count // spec.base - n2
    report = ClaimReport(claim="block-dichotomy", params=str(spec),
                         scan_length=cfg.count,
                         evidence=(f"type1={n1}", f"type2={n2}"),
                         verdict="PASS")
    return [report.format() + "\n"], EXIT_OK


def _cmd_powers(cfg: RunConfig, spec: PatternSpec) -> tuple:
    n = (default_scan_length(spec.base) if cfg.scan_length is None
         else cfg.scan_length)
    reports = check_power_claims(spec, n)
    for r in reports:
        if r.verdict == "FAIL":
            raise ClaimViolationError(r.detail)
    return [r.format() + "\n" for r in reports], EXIT_OK


def _cmd_series(cfg: RunConfig, spec: PatternSpec) -> tuple:
    reports = degree_evidence(spec, cfg.order)
    return ([f"seed={cfg.seed}\n"] + [r.format() + "\n" for r in reports],
            EXIT_OK if all(r.verdict == "PASS" for r in reports)
            else EXIT_VERIFY)


def bench_generators(spec: PatternSpec, n_terms: int) -> list:
    """Warm up then time each generator (median of 5 passes): the window,
    then the morphism for a prime base (built here, so a timed thunk only
    expands it), then the oracle.  Checksums must agree across
    generators."""
    legs = [("window", lambda: generate(spec, n_terms))]
    if spec.modulus_is_prime:
        mu = build_morphism(spec)
        legs.append(("morphism", lambda: expand_fixed_point(mu, n_terms)))
    legs.append(("oracle", lambda: a_prefix(spec, n_terms)))
    records = []
    for name, fn in legs:
        out = None  # the previous leg's output, freed before the warm-up
        fn()  # warm-up (page faults, allocator)
        times = []
        for _ in range(5):
            out = None  # freed before the next call allocates its own
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        wall = statistics.median(times)
        digest = hashlib.sha256(np.ascontiguousarray(out)).hexdigest()
        records.append(BenchRecord(name, spec, n_terms, wall, digest))
    checksums = {r.checksum for r in records}
    if len(checksums) != 1:
        raise VerificationError(
            f"generator outputs disagree for {spec}: "
            + ", ".join(f"{r.generator}={r.checksum[:12]}" for r in records))
    return records


def _cmd_bench(cfg: RunConfig, spec: PatternSpec) -> tuple:
    records = bench_generators(spec, cfg.count)
    text = "\n".join(r.format() for r in records) + "\n"
    # legs in order window[, morphism], oracle: with two, tp[0] is tp[-2]
    tp = [r.throughput for r in records]
    ordered = tp[0] >= tp[-2] > tp[-1]
    text += f"ordering window>=morphism>oracle: {'PASS' if ordered else 'FAIL'}\n"
    return [text], EXIT_OK if ordered else EXIT_VERIFY


# name -> (body, help text, whether it needs a prime base)
_SUBCOMMANDS = {
    "generate": (_cmd_generate, "emit the first N terms (window generator)",
                 False),
    "verify": (_cmd_verify, "cross-check window / morphism / oracle outputs",
               False),
    "blocks": (_cmd_blocks, "classify p-blocks (prime base only)", True),
    "powers": (_cmd_powers, "power-prefix divisibility and exclusion checks",
               True),
    "series": (_cmd_series,
               "functional-equation residual and degree evidence", True),
    "bench": (_cmd_bench, "time all generators on identical parameters",
              False),
}


def run(cfg: RunConfig) -> int:
    """Execute one configuration and return the process exit code."""
    try:
        for name, size in [("count", cfg.count), ("order", cfg.order),
                           ("scan length", cfg.scan_length)]:
            if size is not None and size < 1:
                raise InvalidPatternError(f"{name} must be >= 1")
            if size is not None and size > sys.maxsize:  # numpy's array bound
                raise InvalidPatternError(f"{name} must be <= {sys.maxsize}")
        if cfg.seed < 0:
            raise InvalidPatternError("seed must be >= 0")
        spec = cfg.spec()  # validates base and digits
        body, _, prime_only = _SUBCOMMANDS[cfg.subcommand]
        if prime_only and not spec.modulus_is_prime:
            raise InvalidPatternError(f"subcommand {cfg.subcommand!r} "
                                      f"requires a prime base, got {spec.base}")
        chunks, code = body(cfg, spec)
        _emit(chunks, cfg.output_path)
        return code
    except (InvalidBaseError, InvalidPatternError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ClaimViolationError, VerificationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        reason = f": {exc}" if str(exc) else ""
        print(f"error: not enough memory for this request{reason}",
              file=sys.stderr)
        return EXIT_USAGE
    except BlockseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockseq",
        description="Generate and verify block-counting sequences a_{m;w}(n).")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, _) in _SUBCOMMANDS.items():
        # an unset flag stays out of the namespace, so RunConfig's
        # default applies
        sp = sub.add_parser(name, help=help_text,
                            argument_default=argparse.SUPPRESS)
        sp.add_argument("--base", "-m", type=int, required=True,
                        help="expansion base m >= 2")
        sp.add_argument("--pattern", "-w", type=str, required=True,
                        help="pattern digits, e.g. 11 or 201")
        sp.add_argument("--count", "-N", type=int,
                        help="number of sequence terms")
        sp.add_argument("--format", dest="output_format",
                        choices=["plain", "table", "bfile", "report"],
                        help="output layout for generated terms")
        sp.add_argument("--out", dest="output_path",
                        help="write output to this file instead of stdout")
        sp.add_argument("--seed", type=int,
                        help="seed, echoed by `series` (its checks are exact)")
        sp.add_argument("--scan-length", type=int,
                        help="terms to scan for power prefixes")
        sp.add_argument("--order", type=int,
                        help="series truncation order")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return run(RunConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
