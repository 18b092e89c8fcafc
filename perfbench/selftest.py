"""Self-test of the benchmark on tiny cell sets (under a minute).

Checks, through the real ``run.py`` command line:

1. every metric named in ``BENCHMARK.json`` is emitted with its unit, for
   a direct and a service workload, untraced (end-to-end metrics) and
   traced (per-layer metrics);
2. a planted wrong output (one reference value altered) is counted as a
   failure, raises ``error_rate`` above 0 and makes the run exit nonzero;
3. a planted failure (a cell the program rejects) is counted and makes
   the run exit nonzero.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def invoke(workload, trace=0, reference=None):
    command = [sys.executable, str(run.BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "0",
               "--trace", str(trace)]
    if reference is not None:
        command += ["--reference", str(reference)]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True,
                          text=True, timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout + done.stderr


def error_rate(output):
    for line in output.splitlines():
        fields = line.split()
        if fields and fields[0] == "error_rate":
            return float(fields[1])
    return None


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(condition, message, output=""):
        print(("ok    " if condition else "FAIL  ") + message)
        if not condition:
            failures.append(message)
            if output:
                print(output[-3000:])

    for workload in ("selftest-direct", "selftest-service"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = invoke(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} trace={trace} runs correct", output)
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{workload} trace={trace} result keys")
            emitted = {name: entry["unit"]
                       for name, entry in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            check(emitted == wanted,
                  f"{workload} trace={trace} emits every {key} metric "
                  f"with its unit", json.dumps(
                      {"missing": sorted(set(wanted) - set(emitted)),
                       "extra": sorted(set(emitted) - set(wanted)),
                       "unit": sorted(n for n in wanted if n in emitted
                                      and emitted[n] != wanted[n])}))

    # 2. A planted wrong output: alter one reference value.
    run.RUN_DIR.mkdir(exist_ok=True)
    tampered = run.RUN_DIR / "selftest-reference.jsonl"
    lines = run.REFERENCE.read_text().splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record["label"].startswith("gemm|wasm|cheerp|O2|XS|"):
            record["value"]["time_ms"] += 1.0
            lines[index] = json.dumps(record, sort_keys=True)
            break
    tampered.write_text("\n".join(lines) + "\n")
    try:
        code, result, output = invoke("selftest-direct",
                                      reference=tampered)
    finally:
        tampered.unlink()
    check(code != 0, "a wrong output exits nonzero", output)
    check(result is not None and not result["correct"]
          and result["failed"] == 1,
          "a wrong output is counted as one failure", output)
    check((error_rate(output) or 0.0) > 0.0,
          "a wrong output raises error_rate", output)

    # 3. A planted failure: a cell the program rejects.
    code, result, output = invoke("selftest-fail")
    check(code != 0, "a failed cell exits nonzero", output)
    check(result is not None and not result["correct"]
          and result["failed"] == 1 and result["attempted"] == 2,
          "a failed cell is counted as one failure of two", output)

    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
