"""Tests of the benchmark itself, at TEST_SHRINK-times smaller sizes."""

import pytest

import run  # first: puts src/ on sys.path
import checker  # noqa: E402
import tasks  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_workload_runs_clean_at_tiny_size(workload):
    result, lines, record, tracer = run.run(
        workload, seed=3, seconds=0, trace=True, shrink=tasks.TEST_SHRINK)
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == 3 * len(record["env"]["tasks"])
    assert set(result["metrics"]) == {name for name, _ in tracing.METRICS}
    assert any(line.startswith("prediction:") for line in lines)
    # each task of the one traced pass is one cli.run root span
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.run"] * len(record["env"]["tasks"])


def test_untraced_run_reports_end_to_end_metrics():
    result, lines, record, tracer = run.run(
        "claims", seed=5, seconds=0, trace=False, shrink=tasks.TEST_SHRINK,
        setup_runs=1)
    assert result["correct"] and tracer is None
    assert set(result["metrics"]) == {"setup_s", "pass_rel", "peak_mem_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("terms_per_s", "powers_s", "blocks_s", "series_s",
                 "fail_frac"):
        assert name in record["end_to_end"]


def strata(todo):
    return [(t.subcommand, t.base, len(t.pattern), t.pattern[0] == "0",
             t.count, t.output_format, t.scan_length, t.order) for t in todo]


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_seed_fixes_tasks_and_varies_patterns(workload):
    first = tasks.tasks(workload, 1)
    assert tasks.tasks(workload, 1) == first
    other = tasks.tasks(workload, 2)
    # width may vary inside a stratum; base, lead and sizes may not
    assert [s[:2] + s[3:] for s in strata(other)] == \
        [s[:2] + s[3:] for s in strata(first)]
    assert [t.pattern for t in other] != [t.pattern for t in first]


def test_claims_patterns_are_all_pinned():
    pins = checker.load_pins()
    for shrink in (1, tasks.TEST_SHRINK):
        for stratum in tasks.CLAIMS:
            for pattern in stratum.candidates():
                key = checker.pin_key(stratum.base, pattern,
                                      tasks.CLAIMS_SCAN // shrink)
                assert key in pins


def checked(task):
    expect = checker.expected(task, checker.load_pins())
    code, out, err = run.run_task(task)
    return expect, code, out.text(), err.text()


def test_checker_rejects_one_flipped_digit():
    task = tasks.Task("generate", 2, "11", count=1000)
    expect, code, out, err = checked(task)
    assert checker.check(expect, code, out, err) is None
    i = 517
    flipped = out[:i] + ("1" if out[i] == "0" else "0") + out[i + 1:]
    assert "char 517" in checker.check(expect, code, flipped, err)


def test_checker_rejects_wrong_exit_code():
    task = tasks.Task("verify", 3, "12", count=2000)
    expect, code, out, err = checked(task)
    assert checker.check(expect, code, out, err) is None
    assert "exit code 1" in checker.check(expect, 1, out, err)
    # m=2 w=0 powers must exit 1; exit 0 is wrong
    task = tasks.Task("powers", 2, "0",
                      scan_length=tasks.CLAIMS_SCAN // tasks.TEST_SHRINK)
    expect, code, out, err = checked(task)
    assert code == 1 and checker.check(expect, code, out, err) is None
    assert "exit code 0" in checker.check(expect, 0, out, err)


def test_checker_rejects_a_false_power_length():
    task = tasks.Task("powers", 2, "11",
                      scan_length=tasks.CLAIMS_SCAN // tasks.TEST_SHRINK)
    expect, code, out, err = checked(task)
    assert checker.check(expect, code, out, err) is None
    expect.out = out = out.replace("evidence=[", "evidence=[7,", 1)
    assert "(7)^3 is not one" in checker.check(expect, code, out, err)


def test_block_counts_match_brute_force():
    for base, pattern in [(2, "0"), (2, "11"), (3, "102"), (5, "40")]:
        n_terms = 5000
        q = len(pattern) - 1
        s = int(pattern[:-1], base) if q else 0
        want2 = sum(1 for n in range(n_terms // base)
                    if q == 0 or (n >= base ** (q - 1) and n % base ** q == s))
        assert checker.block_counts(base, pattern, n_terms) == \
            (n_terms // base - want2, want2)

