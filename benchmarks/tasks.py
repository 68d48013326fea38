"""Workloads: seeded draws of CLI tasks, one pattern per stratum.

A stratum fixes everything that sets the amount of work -- subcommand,
base, pattern width (or widths of equal cost), whether the pattern
starts with 0, and the sizes -- and leaves the pattern digits to the
seed.  So every seed runs the
same kind and amount of work on different sequences.

The leading digit is part of the stratum because it selects code paths
with different costs: zero-led patterns take the window generator's
second doubling construction, give the inferred morphism one extra
state, and make the pure-Python z-array scan about 25% slower in base 2.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from blockseq.cli import RunConfig

WORKLOADS = ("stream", "crosscheck", "claims")


@dataclass(frozen=True)
class Stratum:
    """A set of patterns of equal cost: base, width choices and lead
    ("zero" or "nonzero" first digit), or one `fixed` pattern."""

    base: int
    widths: tuple = ()
    lead: str = "nonzero"
    fixed: str | None = None

    def first_digits(self) -> range:
        return range(0, 1) if self.lead == "zero" else range(1, self.base)

    def draw(self, rng: random.Random) -> str:
        if self.fixed:
            return self.fixed
        width = rng.choice(self.widths)
        digits = [rng.choice(self.first_digits())]
        digits += [rng.randrange(self.base) for _ in range(width - 1)]
        return "".join(map(str, digits))

    def candidates(self) -> list:
        """Every pattern of the stratum (only for small strata)."""
        if self.fixed:
            return [self.fixed]
        out = []
        for width in self.widths:
            for first in self.first_digits():
                for rest in itertools.product(range(self.base),
                                              repeat=width - 1):
                    out.append("".join(map(str, (first, *rest))))
        return out


@dataclass(frozen=True)
class Task:
    """One CLI invocation: `blockseq <subcommand> -m base -w pattern ...`."""

    subcommand: str
    base: int
    pattern: str
    count: int = 10 ** 5          # -N (the CLI default where unused)
    output_format: str = "plain"  # --format
    scan_length: int | None = None
    order: int = 10_000

    @property
    def terms(self) -> int:
        """Terms the task emits, verifies or scans."""
        if self.subcommand == "powers":
            return self.scan_length
        if self.subcommand == "series":
            return self.order
        return self.count

    def config(self) -> RunConfig:
        return RunConfig(subcommand=self.subcommand, base=self.base,
                         pattern=self.pattern, count=self.count,
                         output_format=self.output_format,
                         scan_length=self.scan_length, order=self.order)

    def label(self) -> str:
        size = {"powers": f"--scan-length {self.scan_length}",
                "series": f"--order {self.order}"}.get(
                    self.subcommand, f"-N {self.count}")
        fmt = (f" --format {self.output_format}"
               if self.subcommand == "generate" else "")
        return f"{self.subcommand} -m {self.base} -w {self.pattern} {size}{fmt}"


# Sizes are held down by the memory pass: under tracemalloc every Python
# object allocation is traced, so per-term Python work (output
# formatting, the pure-Python z-array scan) runs 10-20 times slower.

# (stratum, N, format); sizes are divided by `shrink` in tasks().
STREAM = [
    (Stratum(2, (3,), "nonzero"), 1_000_000, "plain"),
    (Stratum(3, (2,), "zero"), 500_000, "bfile"),
    (Stratum(5, (2,), "nonzero"), 500_000, "table"),
    # zero-led width 8: the m^|w| = 10^8-byte seed plus an equally long
    # all-zero lead chunk, to emit 1000 terms.
    (Stratum(10, (8,), "zero"), 1_000, "plain"),
]

CROSSCHECK_N = 1_000_000
CROSSCHECK = [
    Stratum(2, (1,), "nonzero"), Stratum(2, (2,), "zero"),
    Stratum(2, (3,), "nonzero"),
    Stratum(3, (1,), "nonzero"), Stratum(3, (2,), "zero"),
    Stratum(3, (3,), "nonzero"),
    Stratum(5, (1,), "nonzero"), Stratum(5, (2,), "zero"),
    # One pattern: over the 100 nonzero-led m=5 width-3 patterns the
    # morphism build takes 1.6-2.7 s depending on the digits, half the
    # pass, which would swamp the comparison between seeds.
    Stratum(5, fixed="123"),
    Stratum(4, (2,), "nonzero"), Stratum(6, (2,), "zero"),
]

# Size divisor the benchmark's own tests run at (test_benchmark.py).
TEST_SHRINK = 16

CLAIMS_SCAN = 1 << 15
CLAIMS_BLOCKS_N = 2_000_000
CLAIMS_ORDER = 1 << 14
CLAIMS = [
    # m=2 w=0 always: its powers task exits 1 on the false square bound.
    Stratum(2, fixed="0"),
    Stratum(2, (2, 3), "nonzero"),
    Stratum(3, (1, 2), "nonzero"),
    Stratum(5, (2,), "nonzero"),
]


def tasks(workload: str, seed: int, shrink: int = 1) -> list:
    """The tasks `seed` draws for `workload`, sizes divided by `shrink`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "stream":
        return [Task("generate", s.base, s.draw(rng),
                     count=max(1, n // shrink), output_format=fmt)
                for s, n, fmt in STREAM]
    if workload == "crosscheck":
        return [Task("verify", s.base, s.draw(rng),
                     count=CROSSCHECK_N // shrink) for s in CROSSCHECK]
    if workload == "claims":
        out = []
        for s in CLAIMS:
            pattern = s.draw(rng)
            out += [Task("powers", s.base, pattern,
                         scan_length=CLAIMS_SCAN // shrink),
                    Task("blocks", s.base, pattern,
                         count=CLAIMS_BLOCKS_N // shrink),
                    Task("series", s.base, pattern,
                         order=CLAIMS_ORDER // shrink)]
        return out
    raise ValueError(f"unknown workload {workload!r}")
