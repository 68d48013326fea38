"""The byte-identity corpus: CLI invocations and digests of what each
one writes, so a change that moves one byte of any output, report line
or exit code shows up in tier-1.

A case is an argv for `blockseq.cli.main`, run in-process, and for
`verify` a list of window faults: (index, bad value) pairs written into
the window `cli.generate` returns, a bad value of "next" standing for
(v + 1) mod m.  Its record in corpus.jsonl is the argv, the faults, the
exit code and the first 16 hex digits of the sha256 of stdout, of
stderr and of the `--out` file ("-" where none is written).  An argv
entry "{out}" is replaced by a file in a fresh directory.  `bench`
reports timings, and its exit code is its timing-based ordering
verdict, so only its checksums are pinned: its stdout digest is taken
over the "generator=... sha256=..." fields of its lines, and an exit
code of 0 or 1 is recorded as null.

The cases:

* every grid pattern: `generate` in all four formats at 3,000 terms,
  `verify` and `blocks` at 10^5, `powers` at 2^16 and `series` at
  order 4096;
* every pattern of width 1 and 2 over bases 4, 6 and 10: `verify` at
  2*10^4 and `generate` at 500 terms;
* five patterns at p = 257: `verify` and `blocks` at 10^5 and a
  `table` past 10^4 rows;
* the documented usage, I/O and memory errors, `--out` for each
  subcommand, and `bench`'s checksums;
* `verify` with faults either side of m, 2m, L and 2L for the rows of
  the oracle check, of every chunk start of the morphism check at the
  prime bases and of the oracle check at the composite ones, and at the
  last index: one wrong term, and 255 there and at its children
  i*m + 1 and i*L + 1.  The chunk starts are taken for both chunkings
  each check has had: for the morphism chunks of 2^15 and of 2^16 bytes
  of codes (its chunks held 2^15 codes, and now 2^16 bytes), and for
  the oracle 2^16 bytes of expected rows beside an m * L table, or the
  border-class table with its bytes past m * L taken out of the rows
  (see `words.recursion_mismatch`).

Regenerate the table with `PYTHONPATH=src python tests/corpus.py`,
which prints the argv and changed fields of every record that differs
from the committed table before it rewrites it.  A change that has to
do so changes an output, and must say which and why.
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

import blockseq.cli
from support import GRID, patterns

TABLE = Path(__file__).with_name("corpus.jsonl")
NONE = "-"


def _word(m, w):
    """The pattern argument for the digits w of base m."""
    return ("" if m <= 10 else " ").join(map(str, w))


def _grid_cases():
    cases = []
    for m, w in GRID:
        pat = _word(m, w)
        for fmt in ("plain", "table", "bfile", "report"):
            cases.append(["generate", "-m", str(m), "-w", pat, "-N", "3000",
                          "--format", fmt])
        cases += [["verify", "-m", str(m), "-w", pat, "-N", "100000"],
                  ["blocks", "-m", str(m), "-w", pat, "-N", "100000"],
                  ["powers", "-m", str(m), "-w", pat, "--scan-length",
                   "65536"],
                  ["series", "-m", str(m), "-w", pat, "--order", "4096"]]
    return cases


def _composite_cases():
    cases = []
    for m in (4, 6, 10):
        for w in patterns(m, 2):
            pat = _word(m, w)
            cases += [["verify", "-m", str(m), "-w", pat, "-N", "20000"],
                      ["generate", "-m", str(m), "-w", pat, "-N", "500"]]
    return cases


def _wide_cases():
    cases = []
    for pat in ("1", "0", "1 0", "5 0", "0 256"):
        cases += [["verify", "-m", "257", "-w", pat, "-N", "100000"],
                  ["blocks", "-m", "257", "-w", pat, "-N", "100000"],
                  ["generate", "-m", "257", "-w", pat, "-N", "10007",
                   "--format", "table"]]
    return cases


PAST_MAXSIZE = str(10 ** 20)
PRIME_PAST_MAXSIZE = "9223372036854775837"  # the least prime past 2^63 - 1


def _edge_cases():
    """Usage, I/O and memory errors, `--out` and `bench`."""
    usage = [
        ["generate", "-m", "1", "-w", "1"],
        ["generate", "-m", "2", "-w", "2"],
        ["generate", "-m", "2", "-w", ""],
        ["generate", "-m", "2", "-w", "1a"],
        ["generate", "-m", "12", "-w", "1_0"],
        ["generate", "-m", "2", "-w", "11", "-N", "0"],
        ["verify", "-m", "2", "-w", "11", "-N", "-3"],
        ["series", "-m", "2", "-w", "11", "--order", "0"],
        ["powers", "-m", "2", "-w", "11", "--scan-length", "0"],
        ["series", "-m", "2", "-w", "11", "--seed", "-1"],
        ["blocks", "-m", "4", "-w", "1"],
        ["powers", "-m", "6", "-w", "1"],
        ["series", "-m", "10", "-w", "1"],
        ["generate", "-m", "2", "-w", "1", "-N", PAST_MAXSIZE],
        ["verify", "-m", "2", "-w", "1", "-N", PAST_MAXSIZE],
        ["blocks", "-m", "2", "-w", "1", "-N", PAST_MAXSIZE],
        ["bench", "-m", "2", "-w", "1", "-N", PAST_MAXSIZE],
        ["powers", "-m", "2", "-w", "1", "--scan-length", PAST_MAXSIZE],
        ["series", "-m", "2", "-w", "1", "--order", PAST_MAXSIZE],
        ["verify", "-m", PRIME_PAST_MAXSIZE, "-w", "1", "-N", "10"],
        ["bench", "-m", PRIME_PAST_MAXSIZE, "-w", "1", "-N", "10"],
        ["series", "-m", PRIME_PAST_MAXSIZE, "-w", "1"],
        ["verify", "-m", str(2 ** 64), "-w", "1 0", "-N", "10"],
        ["blocks", "-m", str(2 ** 61 - 1), "-w", "1", "-N", "10"],
        # argparse's own usage errors
        ["generate", "-m", "2"],
        ["generate", "-m", "2", "-w", "1", "-N", "ten"],
        ["generate", "-m", "2", "-w", "1", "--format", "csv"],
        ["frobnicate", "-m", "2", "-w", "1"],
    ]
    memory = [
        ["generate", "-m", "2", "-w", "1", "-N", str(sys.maxsize)],
        ["verify", "-m", str(2 ** 61 - 1), "-w", "1", "-N", "10"],
    ]
    io_error = [["generate", "-m", "2", "-w", "1", "-N", "4", "--out",
                 "/nonexistent-dir-blockseq/x.txt"]]
    out = [["generate", "-m", "3", "-w", "12", "-N", "20000", "--format",
            fmt, "--out", "{out}"]
           for fmt in ("plain", "table", "bfile", "report")]
    out += [[cmd, "-m", m, "-w", w, *size, "--out", "{out}"]
            for cmd, m, w, size in [
                ("verify", "2", "11", ["-N", "5000"]),
                ("verify", "6", "05", ["-N", "5000"]),
                ("blocks", "2", "11", ["-N", "5000"]),
                ("powers", "2", "11", ["--scan-length", "4096"]),
                # the deliberate FAIL of m2 w0, exit 1
                ("powers", "2", "0", ["--scan-length", "4096"]),
                ("series", "2", "11", ["--order", "256"])]]
    bench = [["bench", "-m", str(m), "-w", pat, "-N", "3000"]
             for m, pat in [(2, "11"), (3, "011"), (5, "10"), (6, "05"),
                            (257, "1 0")]]
    return usage + memory + io_error + out + bench


# The fault sweep: the morphism leg at the prime bases (its rows P
# letters wide, its codes `size` bytes each) and the oracle leg at the
# composite ones.  N passes the third chunk of either check's new size.
FAULT_N = 3 * (1 << 16) + 5
MORPHISM_FAULTS = [(2, "11", 64, 1), (2, "1101101101101", 64, 1),
                   (3, "12", 81, 1), (5, "123", 125, 1),
                   (257, "1 0", 257, 2)]
ORACLE_FAULTS = [(4, "12"), (4, "1230123"), (6, "05"), (6, "0"),
                 (10, "01234567"), (12, "11 0 11"), (62, "0 61"),
                 (63, "5"), (64, "1 0"), (65, "7")]


def _rows(m, table_rows):
    """The oracle's K: the largest with m^K <= 4096 whose table of
    table_rows(K) rows of m^K bytes fits 2^16 bytes (no table from
    m = 64 on), at least 1."""
    K = 1
    while m ** (K + 1) <= 1 << 12 and (
            m >= 64 or table_rows(K + 1) * m ** (K + 1) <= 1 << 16):
        K += 1
    return K


def _oracle_starts(m, w, n):
    """(L, starts): the oracle check's row length, and where its rows
    and chunks begin, for both of its chunkings: the rotation table of
    m rows and 2^16 bytes of expected rows, and the border-class table
    of min(|w|, K + 1) * m rows whose bytes past m * L come out of those
    2^16.  L is the second's."""
    k = len(w)
    zero = w[0] == "0"
    starts = set()
    for classes in (lambda K: 1, lambda K: min(k, K + 1)):
        top = _rows(m, lambda K: classes(K) * m)
        for K in sorted({1, top}):
            size = m ** K
            head = size * (2 if zero and K >= k else 1)
            end = n if K == top else min(n, m ** top * (
                2 if zero and top >= k else 1))
            extra = (classes(K) - 1) * m * size if m < 64 else 0
            per = max(1, ((1 << 16) - extra) // size)
            starts.update([size, 2 * size, head])
            starts.update(range(head, end, per * size))
    return m ** top, starts


def _fault_cases():
    cases = []
    for m, w, width, size in MORPHISM_FAULTS:
        edges = {m, 2 * m}
        for budget in (1 << 15, 1 << 16):
            step = max(1, budget // size // width) * width
            edges.update(range(step, FAULT_N, step))
        cases += _faulted(m, w, edges, width)
    for m, w in ORACLE_FAULTS:
        digits = w.split() if m > 10 else list(w)
        row, starts = _oracle_starts(m, digits, FAULT_N)
        cases += _faulted(m, w, {m, 2 * m} | starts, row)
    return cases


def _faulted(m, w, edges, row):
    """verify at FAULT_N with a wrong term either side of each edge, and
    with 255 there and at its children i*m + 1 and i*row + 1."""
    argv = ["verify", "-m", str(m), "-w", w, "-N", str(FAULT_N)]
    cases = []
    at = {0, FAULT_N - 1, *(i for e in edges for i in (e - 1, e))}
    for i in sorted(j for j in at if 0 <= j < FAULT_N):
        cases.append((argv, [[i, "next"]]))
        kids = [j for j in (i * m + 1, i * row + 1) if i < j < FAULT_N]
        cases.append((argv, [[i, 255]] + [[j, 255] for j in kids]))
    return cases


def cases():
    """Every case, as (argv, faults)."""
    plain = (_grid_cases() + _composite_cases() + _wide_cases()
             + _edge_cases())
    return [(argv, []) for argv in plain] + _fault_cases()


BENCH_FIELDS = re.compile(r"generator=\S+|sha256=\S+")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_case(argv, faults, workdir):
    """The record of one case: its exit code and output digests."""
    out = Path(workdir) / "out.txt"
    out.unlink(missing_ok=True)
    args = [str(out) if a == "{out}" else a for a in argv]
    real = blockseq.cli.generate

    def wrong_window(spec, n):
        values = real(spec, n)
        for i, bad in faults:
            values[i] = (int(values[i]) + 1) % spec.base if bad == "next" \
                else bad
        return values

    stdout, stderr = io.StringIO(), io.StringIO()
    if faults:
        blockseq.cli.generate = wrong_window
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = blockseq.cli.main(args)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        blockseq.cli.generate = real
    text = stdout.getvalue()
    if argv[0] == "bench":
        if code in (0, 1):  # the ordering verdict
            code = None
        text = "\n".join(" ".join(BENCH_FIELDS.findall(line))
                         for line in text.splitlines())
    return {"argv": argv, "faults": faults, "code": code,
            "stdout": _digest(text.encode()),
            "stderr": _digest(stderr.getvalue().encode()),
            "out": _digest(out.read_bytes()) if out.exists() else NONE}


def run_all(items):
    """The records of the given (argv, faults) cases, in order."""
    with tempfile.TemporaryDirectory() as workdir:
        return [run_case(argv, faults, workdir) for argv, faults in items]


def load():
    """The committed records, in order."""
    return [json.loads(line) for line in TABLE.read_text().splitlines()]


FIELDS = ("code", "stdout", "stderr", "out")


def _label(record):
    """The record's argv as a shell line, and its faults if any."""
    faults = f" faults={record['faults']}" if record["faults"] else ""
    return shlex.join(record["argv"]) + faults


def changes(old, new):
    """One line for each record of `new` that differs from the record of
    `old` with its argv and faults: the argv and each changed field, old
    and new.  A record in only one of them is named as new or dropped."""
    def key(record):
        return json.dumps([record["argv"], record["faults"]])

    before = {key(r): r for r in old}
    lines = []
    for r in new:
        was = before.pop(key(r), None)
        if was is None:
            lines.append(f"{_label(r)}: new")
        elif was != r:
            lines.append(f"{_label(r)}: " + ", ".join(
                f"{f} {was[f]} -> {r[f]}" for f in FIELDS if was[f] != r[f]))
    return lines + [f"{_label(r)}: dropped" for r in before.values()]


if __name__ == "__main__":
    records = run_all(cases())
    for line in changes(load() if TABLE.exists() else [], records):
        print(line)
    TABLE.write_text("".join(json.dumps(r) + "\n" for r in records))
    print(f"wrote {len(records)} records to {TABLE}")
