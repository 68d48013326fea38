"""Benchmark of the blockseq command line, driven in-process.

    python3 benchmarks/run.py --workload {stream,crosscheck,claims} \\
        --seed N --seconds S --trace {0,1}

Each workload is a list of CLI tasks drawn from `--seed` (tasks.py).  A
pass runs every task once through `blockseq.cli.run(RunConfig(...))`
with stdout and stderr captured in memory; one process, one thread.
Every output of every pass is checked by checker.py, outside the timed
region.  A run is:

1. with --trace 0, `setup_s`: in each of several fresh interpreters,
   the time of `import blockseq` plus one minimal call into each module,
   divided by the time of the pure-Python reference loop run just before
   it in the same interpreter, times REF_NOMINAL_S: seconds at the host
   speed where the reference takes 40 ms, so host drift cancels as in
   `pass_rel`.  The median is reported; so is the unscaled median,
   `setup_raw_s`;
2. one untimed pass under tracemalloc, for each task's peak memory (it
   also warms caches); tracemalloc is never on in a timed pass;
3. timed passes until --seconds have elapsed, each untraced pass right
   after three runs of the workload's fixed reference work, which uses no
   blockseq code.  `pass_rel` is the median over passes of the pass time
   divided by the median of its three reference times: on a shared host,
   pass times drift by up to 1.6x within minutes, and reference work of
   the same kind drifts with them.  With --trace 1 the passes alternate
   between untraced and traced (tracing.py), and the metrics are the
   per-layer ones: medians over traced passes, plus the traced minus
   untraced pass time as `trace.overhead_s`.

Lines starting with "#" are the human report; the last line is the JSON
result.  Spans and a full record (environment, tasks, per-task peaks,
every metric) go to .bench_out/.  The exit code is 1 if any output was
wrong, and 2 if there is no blockseq package under src/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))
try:
    import blockseq
    from blockseq import cli
except ImportError as exc:
    print(f"error: cannot import blockseq from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)
if SRC not in Path(blockseq.__file__).resolve().parents:
    print(f"error: blockseq imported from {blockseq.__file__}, not {SRC}",
          file=sys.stderr)
    sys.exit(2)

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tasks as workloads  # noqa: E402
import tracing  # noqa: E402

SUBCOMMANDS = ("generate", "verify", "powers", "blocks", "series")

# Layers the workload is expected to spend most self time in.
PREDICTED = {
    "stream": ("cli.format_sequence",),
    "crosscheck": ("words.a_prefix", "morphism.build_morphism"),
    "claims": ("structure.z_array",),
}

# The reference loop's time on this 2-core host when it is quiet.
REF_NOMINAL_S = 0.040

SETUP_SNIPPET = """\
import time
def python_loop():
    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    return time.perf_counter() - start
ref = sorted(python_loop() for _ in range(3))[1]
t0 = time.perf_counter()
from blockseq import cli, morphism, series, structure, windows, words
spec = words.PatternSpec(2, "1")
x = windows.generate(spec, 16)
words.a_prefix(spec, 16)
morphism.expand_fixed_point(morphism.build_morphism(spec), 16)
structure.scan_power_prefixes(x, 2)
series.functional_equation_residual(spec, 16)
cli.format_sequence(x, spec, "plain")
print(time.perf_counter() - t0, ref)
"""


def _python_loop() -> None:
    total = 0
    for i in range(600_000):
        total += i * i


def _string_building() -> None:
    "".join([str(i * i) for i in range(200_000)])


def _array_arithmetic() -> None:
    a = np.arange(1_000_000, dtype=np.int64) * 7919
    for j in range(4):
        ((a // 5 ** j) % 125 == 17).sum()


# Reference work per workload, of the same kind as its dominant layer
# (each takes about 50 ms on a 2 GHz core): string building like
# format_sequence, int64 array arithmetic like the oracle, and a
# pure-Python loop like the z-array scan.
REFERENCES = {
    "stream": _string_building,
    "crosscheck": _array_arithmetic,
    "claims": _python_loop,
}


def reference_time(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class Sink:
    """A stdout/stderr stand-in that keeps what is written, uncopied."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.parts)


def run_task(task):
    """(exit code, stdout sink, stderr sink); an uncaught exception gives
    exit code None and its traceback on stderr."""
    out, err = Sink(), Sink()
    config = task.config()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(config)
        except Exception:  # the task failed; the benchmark carries on
            code = None
            traceback.print_exc()
    return code, out, err


def setup_times(runs: int) -> list:
    """(seconds from `import blockseq` to the end of one minimal call into
    each module, reference loop seconds), in each of `runs` fresh
    interpreters."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once():
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        setup, ref = done.stdout.split()
        return float(setup), float(ref)

    once()  # writes any missing bytecode
    return [once() for _ in range(runs)]


def environment(seed: int, todo: list) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba,
        "z_scan": "numba-jit" if numba else "pure-python",
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "tasks": [t.label() for t in todo],
    }


class Bench:
    """One workload's tasks, their expected outputs and the tally of
    checked runs."""

    def __init__(self, workload: str, seed: int, shrink: int = 1):
        self.tasks = workloads.tasks(workload, seed, shrink)
        pins = checker.load_pins()
        self.expects = [checker.expected(t, pins) for t in self.tasks]
        self.attempted = 0
        self.failures = []

    def record(self, results) -> None:
        for task, expect, (code, out, err) in zip(self.tasks, self.expects,
                                                  results):
            self.attempted += 1
            problem = checker.check(expect, code, out.text(), err.text())
            if problem:
                self.failures.append(f"{task.label()}: {problem}")

    def timed_pass(self, tracer=None) -> tuple:
        """(pass wall time, per-task times); outputs checked afterwards."""
        results, times = [], []
        start = time.perf_counter()
        for task in self.tasks:
            if tracer is not None:
                tracer.begin_task(task.subcommand)
            t0 = time.perf_counter()
            results.append(run_task(task))
            times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        self.record(results)
        return wall, times

    def memory_pass(self, meter=None) -> list:
        """Peak traced bytes of each task, tracemalloc on only here."""
        peaks, results = [], []
        for task in self.tasks:
            tracemalloc.start()
            try:
                with (meter.installed() if meter
                      else contextlib.nullcontext()):
                    results.append(run_task(task))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if meter:
                peak = max(peak, meter.task_peak)
                meter.task_peak = 0
            peaks.append(peak)
        self.record(results)
        return peaks


def end_to_end(bench: Bench, passes: list, refs: list) -> dict:
    """Medians over timed passes: pass time in units of the reference
    time taken just before it, throughput and time per subcommand."""
    terms = sum(t.terms for t in bench.tasks)
    out = {"pass_rel": statistics.median(w / r for (w, _), r
                                         in zip(passes, refs)),
           "ref_s": statistics.median(refs),
           "terms_per_s": statistics.median(terms / w for w, _ in passes)}
    for sub in SUBCOMMANDS:
        if any(t.subcommand == sub for t in bench.tasks):
            out[f"{sub}_s"] = statistics.median(
                sum(d for t, d in zip(bench.tasks, times)
                    if t.subcommand == sub) for _, times in passes)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        shrink: int = 1, setup_runs: int = 7) -> tuple:
    """(result for the JSON line, report lines, full record, the tracer
    with --trace 1 or None)."""
    clock = [time.perf_counter()]

    def lap():
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    bench = Bench(workload, seed, shrink)
    phases = {"expectations": lap()}
    setup = setup_times(setup_runs) if not trace else []
    phases["setup"] = lap()
    meter = tracing.PeakMeter() if trace else None
    peaks = bench.memory_pass(meter)
    phases["memory pass"] = lap()

    tracer = tracing.Tracer()
    plain, traced, bounds, refs = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        refs.append(statistics.median(reference_time(REFERENCES[workload])
                                      for _ in range(3)))
        plain.append(bench.timed_pass())
        if trace:
            lo = len(tracer.spans)
            with tracer.installed():
                traced.append(bench.timed_pass(tracer))
            bounds.append((lo, len(tracer.spans)))
        if time.perf_counter() >= deadline:
            break
    phases["timed passes"] = lap()

    MiB = 2.0 ** 20
    e2e = end_to_end(bench, plain, refs)
    e2e["peak_mem_mib"] = max(peaks) / MiB
    e2e["fail_frac"] = len(bench.failures) / bench.attempted
    units = {"pass_rel": "ratio", "terms_per_s": "terms/s",
             "peak_mem_mib": "MiB", "fail_frac": "ratio"}
    if trace:
        metrics = layer_metrics(tracer, bounds, plain, traced)
        metrics["windows.generate.peak_mib"] = meter.generate_peak / MiB
        units.update(tracing.METRICS)
    else:
        e2e["setup_s"] = statistics.median(s / r * REF_NOMINAL_S
                                           for s, r in setup)
        e2e["setup_raw_s"] = statistics.median(s for s, _ in setup)
        metrics = {"setup_s": e2e["setup_s"],
                   "pass_rel": e2e["pass_rel"],
                   "peak_mem_mib": e2e["peak_mem_mib"]}

    env = environment(seed, bench.tasks)
    lines = [f"blockseq benchmark: workload={workload} seed={seed} "
             f"trace={int(trace)} seconds={seconds}",
             "env " + json.dumps({k: v for k, v in env.items()
                                  if k != "tasks"})]
    lines += [f"task {i + 1:2d}: {t.label():<44} peak {p / MiB:8.2f} MiB"
              for i, (t, p) in enumerate(zip(bench.tasks, peaks))]
    lines.append("run phases: " + ", ".join(f"{k} {v:.1f} s"
                                            for k, v in phases.items()))
    lines.append(f"timed passes: {len(plain)} untraced"
                 + (f", {len(traced)} traced" if trace else "")
                 + f"; {bench.attempted} task runs checked, "
                 f"{len(bench.failures)} wrong")
    lines += [f"end-to-end {k} = {v:.6g} {units.get(k, 's')}"
              for k, v in e2e.items()]
    if trace:
        lines += dominant_layers(workload, metrics.pop("_self_by_function"),
                                 metrics["trace.pass_s"])
        lines += [f"per-layer {k} = {metrics[k]:.6g} {u}"
                  for k, u in tracing.METRICS]
    lines += [f"FAILED {f}" for f in bench.failures[:20]]

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units.get(k, "s")}
                    for k, v in metrics.items()},
    }
    record = {"workload": workload, "env": env, "end_to_end": e2e,
              "pass_s": [w for w, _ in plain],
              "task_median_s": [statistics.median(times[i] for _, times
                                                  in plain)
                                for i in range(len(bench.tasks))],
              "task_peak_mib": [p / MiB for p in peaks],
              "result": result, "failures": bench.failures}
    return result, lines, record, (tracer if trace else None)


def layer_metrics(tracer, bounds, plain, traced) -> dict:
    per_pass = [tracing.pass_metrics(tracer, lo, hi, wall)
                for (lo, hi), (wall, _) in zip(bounds, traced)]
    out = {k: statistics.median(m[k] for m in per_pass)
           for k, _ in tracing.METRICS
           if k not in ("trace.overhead_s", "windows.generate.peak_mib")}
    out["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                               - statistics.median(w for w, _ in plain))
    # function self times of the median traced pass, for the report
    mid = sorted(range(len(traced)), key=lambda i: traced[i][0])
    out["_self_by_function"] = per_pass[mid[len(mid) // 2]]["_self_by_function"]
    return out


def dominant_layers(workload: str, self_by_function: dict,
                    pass_s: float) -> list:
    ranked = sorted(self_by_function.items(), key=lambda kv: -kv[1])
    predicted = PREDICTED[workload]
    top = {name for name, _ in ranked[:len(predicted)]}
    verdict = "confirmed" if top == set(predicted) else "refuted"
    lines = [f"prediction: {' + '.join(predicted)} dominate -> {verdict}"]
    lines += [f"  self {name:<42} {s:9.4f} s  {100 * s / pass_s:5.1f}%"
              for name, s in ranked[:6]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, lines, record, tracer = run(args.workload, args.seed,
                                        args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
