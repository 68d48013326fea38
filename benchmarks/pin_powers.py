"""Write expected_powers.json: the `powers` output of every pattern the
claims workload can draw, at the benchmark's scan length and at the
scan length its tests use.

    python3 benchmarks/pin_powers.py

Run it only on a commit whose `powers` output is known to be right; the
checker then holds later commits to these records.
"""

import json

import run  # first: puts src/ on sys.path
import checker  # noqa: E402
import tasks  # noqa: E402


def main() -> None:
    pins = {}
    for shrink in (1, tasks.TEST_SHRINK):
        scan = tasks.CLAIMS_SCAN // shrink
        for stratum in tasks.CLAIMS:
            for pattern in stratum.candidates():
                task = tasks.Task("powers", stratum.base, pattern,
                                  scan_length=scan)
                code, out, err = run.run_task(task)
                pins[checker.pin_key(stratum.base, pattern, scan)] = {
                    "code": code, "out": out.text(), "err": err.text()}
                print(checker.pin_key(stratum.base, pattern, scan), code,
                      flush=True)
    checker.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
