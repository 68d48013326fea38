"""Output checks that share nothing with the timed path.

Expectations are computed once, before any timed pass:

* generate -- the oracle prefix (`a_prefix`), rendered by this module's
  own code rather than `cli.format_sequence`;
* verify   -- exit 0 and the PASS line (after the composite-base note);
* blocks   -- the record, with the type-1/type-2 split counted in closed
  form from the suffix predicate;
* powers   -- the record pinned in expected_powers.json (written by
  pin_powers.py), and every power length it reports re-checked by
  comparing slices of the oracle prefix;
* series   -- the seed line and two PASS records.

m=2 w=0 `powers` exits 1 on purpose (its square-prefix bound is false),
so its pinned exit code is 1.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blockseq.words import PatternSpec, a_prefix

PINS = Path(__file__).with_name("expected_powers.json")

_RECORD_POWERS = re.compile(r"exponent=(\d+) .*evidence=\[([\d,]*)\]")
_SQUARE_OFFENDER = re.compile(
    r"-square-bound violated .*offending block length (\d+)")


def pin_key(base: int, pattern: str, scan_length: int) -> str:
    return f"m={base} w={pattern} scan={scan_length}"


def load_pins() -> dict:
    return json.loads(PINS.read_text())


@dataclass
class Expected:
    code: int
    out: str
    err: str = ""
    prefix: np.ndarray | None = None  # oracle prefix for power re-checks


def render(values: np.ndarray, fmt: str) -> str:
    """The CLI's text layouts for bases <= 10, written independently."""
    if fmt == "plain":
        return (values + ord("0")).astype(np.uint8).tobytes().decode() + "\n"
    if fmt == "bfile":
        return "".join(map("{} {}\n".format, range(values.size),
                           values.tolist()))
    if fmt == "table":
        width = len(str(values.size - 1))
        rows = ["n".rjust(width) + "  a(n)"]
        rows += [str(n).rjust(width) + "  " + str(v)
                 for n, v in enumerate(values.tolist())]
        return "\n".join(rows) + "\n"
    raise ValueError(f"no reference rendering for format {fmt!r}")


def block_counts(base: int, pattern: str, n_terms: int) -> tuple:
    """(type1, type2) over the n_terms // base complete blocks.  Block n
    is type 2 iff w minus its last letter, read as s with q digits, is a
    suffix of [n]_p: n >= p^(q-1) and n = s mod p^q (always when q = 0)."""
    blocks = n_terms // base
    q = len(pattern) - 1
    if q == 0:
        return 0, blocks
    s = int(pattern[:-1], base)
    period = base ** q

    def below(x):  # #{0 <= n < x : n = s mod period}
        return max(0, -(-(x - s) // period))

    lo = base ** (q - 1)
    type2 = below(blocks) - below(lo) if blocks > lo else 0
    return blocks - type2, type2


def expected(task, pins: dict) -> Expected:
    spec = f"m={task.base} w={task.pattern}"
    if task.subcommand == "generate":
        values = a_prefix(PatternSpec(task.base, task.pattern), task.count)
        return Expected(0, render(values, task.output_format))
    if task.subcommand == "verify":
        if all(task.base % d for d in range(2, task.base)):  # prime
            note, legs = "", "window, morphism, oracle"
        else:
            note = (f"note: base {task.base} is composite; "
                    "checking window vs. oracle only\n")
            legs = "window, oracle"
        return Expected(0, f"{note}PASS {spec} N={task.count}: {legs} agree\n")
    if task.subcommand == "blocks":
        n1, n2 = block_counts(task.base, task.pattern, task.count)
        return Expected(0, f"claim=block-dichotomy params=[{spec}] "
                           f"scan={task.count} evidence=[type1={n1},type2={n2}] "
                           "verdict=PASS\n")
    if task.subcommand == "powers":
        pin = pins[pin_key(task.base, task.pattern, task.scan_length)]
        prefix = a_prefix(PatternSpec(task.base, task.pattern),
                          task.scan_length)
        return Expected(pin["code"], pin["out"], pin["err"], prefix)
    if task.subcommand == "series":
        return Expected(0, f"seed=0\n"
                           f"claim=functional-equation params=[{spec}] "
                           f"scan={task.order} evidence=[] verdict=PASS\n"
                           f"claim=degree-evidence params=[{spec}] "
                           f"scan={task.order} evidence=[residual_zero=True,"
                           "periods=[]] verdict=PASS\n")
    raise ValueError(f"no expectation for subcommand {task.subcommand!r}")


def claimed_powers(out: str, err: str) -> list:
    """(exponent, block length) for every power prefix a powers run
    reports: record evidence, and the offender of a failed square bound."""
    found = []
    for m in _RECORD_POWERS.finditer(out):
        exponent = int(m.group(1))
        found += [(exponent, int(x)) for x in m.group(2).split(",") if x]
    found += [(2, int(m.group(1))) for m in _SQUARE_OFFENDER.finditer(err)]
    return found


def _first_difference(got: str, want: str) -> str:
    i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
             min(len(got), len(want)))
    return (f"differs at char {i}: got {got[i:i + 20]!r}, "
            f"expected {want[i:i + 20]!r}")


def check(expect: Expected, code, out: str, err: str) -> str | None:
    """None if the run matches the expectation, else what went wrong."""
    if code != expect.code:
        return f"exit code {code}, expected {expect.code}; stderr {err[-200:]!r}"
    if out != expect.out:
        return "stdout " + _first_difference(out, expect.out)
    if err != expect.err:
        return "stderr " + _first_difference(err, expect.err)
    if expect.prefix is not None:
        x = expect.prefix
        for e, length in claimed_powers(out, err):
            if (e * length > x.size
                    or not np.array_equal(x[length:e * length],
                                          x[:(e - 1) * length])):
                return f"reported power prefix ({length})^{e} is not one"
    return None
