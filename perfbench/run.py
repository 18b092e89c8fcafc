"""The repository benchmark: one workload, end-to-end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 40 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with the program imported
unpatched.  ``--trace 1`` runs one untraced and one traced sample and
reports the per-layer metrics of the traced one, plus the signed
traced-minus-untraced difference of every end-to-end timing
(``overhead.*``).  Every sample runs in a fresh process with an empty
cache directory of its own under ``.perfbench_runs/``, and every output
is checked against ``perfbench/reference.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit and sample count, and the
provenance of the run.  The exit code is 0 only when every output was
correct.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.jsonl"
SPEC = ROOT / "BENCHMARK.json"
RUN_DIR = ROOT / ".perfbench_runs"

#: Wall budget of one invocation; samples are killed past it.
BUDGET_S = 170.0

#: An untraced run makes one timed sample (a fresh process running one
#: pass of the workload) per this many seconds of ``--seconds``.  A pass
#: takes about this long on the 2-vCPU host the benchmark was built on;
#: the count does not depend on host speed, so every run takes the median
#: of the same number of timings.
SECONDS_PER_PASS = 10.0

#: Set-up-only samples are added between the timed ones until
#: ``setup_s`` has this many values.
MIN_SETUPS = 9

#: service-mixed: an untraced timed sample sends the memo-warm part of its
#: request sequence this many more times, so that each warm request has
#: more timings to take the median of.  Traced runs send it once.
WARM_ROUNDS = 5

#: Settings that would measure another execution tier.
TIER_GUARD = {"REPRO_FAST_INTERP": "0", "REPRO_CODEGEN": "0",
              "REPRO_TRACE": "1"}


def metric_units():
    """``({end-to-end name: unit}, {per-layer name: unit})`` as
    BENCHMARK.json lists them."""
    spec = json.loads(SPEC.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def pinned_env(cache_dir, nproc, reference_tier=False):
    """The sample's environment: the caller's, minus every ``REPRO_*``
    knob, plus the pinned ones the workloads depend on."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({
        "REPRO_CACHE_DIR": str(cache_dir),
        "REPRO_CACHE": "1",
        "REPRO_CACHE_MEM": "0",
        "REPRO_RESULT_CACHE": "1",
        "REPRO_JOBS": str(nproc),
        "REPRO_QUICK": "0",
        "REPRO_FAST_INTERP": "0" if reference_tier else "1",
        "REPRO_CODEGEN": "0" if reference_tier else "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])),
    })
    return env


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_head():
    """HEAD's commit id read from ``.git``, or ``None`` outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class SampleError(RuntimeError):
    pass


def run_sample(workload, seed, mode, deadline, reference, tag, spans=None,
               warm_rounds=0):
    """Launch one sample process; returns its summary with ``setup_s``."""
    RUN_DIR.mkdir(exist_ok=True)
    cache_dir = RUN_DIR / f"cache-{os.getpid()}-{tag}"
    out = RUN_DIR / f"sample-{os.getpid()}-{tag}.json"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir()
    cores = nproc()
    command = [sys.executable, str(BENCH_DIR / "sample.py"),
               "--workload", workload, "--seed", str(seed),
               "--mode", mode,
               "--nproc", str(cores), "--reference", str(reference),
               "--warm-rounds", str(warm_rounds), "--out", str(out)]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = pinned_env(cache_dir, cores)
    launched = time.time()
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE,
                               start_new_session=True)
    try:
        _stdout, stderr = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SampleError(f"{mode} sample of {workload} ran past the "
                          f"{BUDGET_S:.0f} s budget") from None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        if process.returncode != 0:
            raise SampleError(f"{mode} sample of {workload} exited with "
                              f"{process.returncode}:\n"
                              + stderr.decode("utf-8", "replace")[-4000:])
        summary = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    summary["setup_s"] = summary["ready_ts"] - launched
    return summary


def percentile(values, q):
    """The ``q``-th percentile (1..99) of ``values``, interpolated
    between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(samples, scaled=True):
    """``{name: (value, sample count)}`` over ``samples``.

    Every timed sample runs the same operations in the same order, so
    operation ``i`` has one or more timings per sample.  Its time is the
    median of all of them: the host's speed moves by tens of percent from
    one stretch of seconds to the next, and the median follows the speed
    the host ran at for most of the run, where the least timing follows
    its one fastest stretch.  With ``scaled``, a cold-sweep timing is first
    multiplied by its cell's scale (see ``sample._run_cells``).
    Throughput is operations over the median sample's window; on a serial
    workload, whose window is the sum of its operations' times, that
    window is the sum of their median times."""
    passes = [s["timed"] for s in samples if "timed" in s]
    timings = []
    for each in passes:
        scales = each.get("scale") if scaled else None
        scales = scales or [1.0] * len(each["req_ms"])
        timings.append([None if ms is None else [t * scale for t in ms]
                        for ms, scale in zip(each["req_ms"], scales)])
    median = [None if None in per_pass else
              statistics.median([ms for each in per_pass for ms in each])
              for per_pass in zip(*timings)]
    done = [(ms, cells) for ms, cells in zip(median, passes[0]["req_cells"])
            if ms is not None]
    req_ms = [ms for ms, _cells in done]
    cell_ms = [ms / cells for ms, cells in done]
    if passes[0]["serial"]:
        window = sum(req_ms) / 1e3
    else:
        window = statistics.median(p["window_s"] for p in passes)
    setups = [s["setup_s"] for s in samples]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "cells_per_s": (sum(cells for _ms, cells in done) / window,
                        len(cell_ms)),
        "cell_ms_p50": (statistics.median(cell_ms), len(cell_ms)),
        "cell_ms_p90": (percentile(cell_ms, 90), len(cell_ms)),
        "req_per_s": (len(req_ms) / window, len(req_ms)),
        "req_ms_p50": (statistics.median(req_ms), len(req_ms)),
        "req_ms_p95": (percentile(req_ms, 95), len(req_ms)),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples
                                          if "timed" in s), len(passes)),
    }


def untraced_run(args, deadline):
    """One timed sample per :data:`SECONDS_PER_PASS` of ``--seconds``
    (at least one), and set-up-only samples up to :data:`MIN_SETUPS`
    set-ups, spread between the timed ones so that ``setup_s`` samples
    the host over the whole run."""
    passes = max(1, round(args.seconds / SECONDS_PER_PASS))
    extra = max(0, MIN_SETUPS - passes)
    samples = []
    for index in range(passes):
        samples.append(run_sample(args.workload, args.seed, "untraced",
                                  deadline, args.reference, len(samples),
                                  warm_rounds=WARM_ROUNDS))
        for _ in range(extra * (index + 1) // passes
                       - extra * index // passes):
            samples.append(run_sample(args.workload, args.seed, "setup",
                                      deadline, args.reference,
                                      len(samples)))
    return samples


def traced_run(args, deadline):
    """One untraced and one traced sample."""
    plain = run_sample(args.workload, args.seed, "untraced", deadline,
                       args.reference, "plain")
    spans = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    traced = run_sample(args.workload, args.seed, "traced", deadline,
                        args.reference, "traced", spans=spans)
    return [plain, traced]


def refuse_other_tier():
    """The knobs that would make this run measure another tier."""
    return [f"{key}={value}" for key, value in TIER_GUARD.items()
            if os.environ.get(key) == value]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="expected results (default: the committed "
                             "capture)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if not args.reference.is_file():
        print(f"perfbench: no reference capture at {args.reference}",
              file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"perfbench: no metric list at {SPEC}", file=sys.stderr)
        return 2
    end_units, layer_units = metric_units()
    other_tier = refuse_other_tier()
    if other_tier:
        print("perfbench: refusing to run with " + ", ".join(other_tier)
              + " set: that measures another execution tier",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.ALL:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        samples = (traced_run if args.trace else untraced_run)(
            args, deadline)
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    reasons = [r for s in samples for r in s["reasons"]]
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "code_fingerprint": samples[0]["code_fingerprint"],
        "git_head": git_head(),
        "python": sys.version.split()[0], "nproc": nproc(),
        "pinned_env": {key: value for key, value in pinned_env(
            "<per-sample temporary>", nproc()).items()
            if key.startswith("REPRO_") or key == "PYTHONHASHSEED"},
        "samples": len(samples),
    }
    units = layer_units if args.trace else end_units
    raw = {}
    try:
        if args.trace:
            plain, traced = (end_to_end([s], scaled=False)
                             for s in samples)
            computed = {name: (value, 1) for name, value in
                        samples[1]["layers"].items()}
            for name in end_units:
                computed[f"overhead.{name}"] = (
                    traced[name][0] - plain[name][0], 1)
        else:
            computed = end_to_end(samples)
            raw = end_to_end(samples, scaled=False)
        metrics = {name: computed[name] for name in units
                   if name in computed}
    except (ValueError, ZeroDivisionError):
        metrics = {}                # nothing completed: reported as failed
        failed = max(failed, 1)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} samples={len(samples)} "
          f"timed={sum('timed' in s for s in samples)}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, count) in metrics.items():
        unscaled = raw.get(name, (value,))[0]
        print(f"  {name:40s} {value:14.4f} {units[name]:9s} n={count}"
              + (f"  unscaled {unscaled:.4f}" if unscaled != value else ""))
    error_rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':40s} {error_rate:14.4f} {'fraction':9s} "
          f"n={attempted}")
    for reason in list(dict.fromkeys(reasons))[:10]:
        print(f"  failure: {reason}")

    correct = failed == 0 and attempted > 0
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, (value, _count) in metrics.items()}}
    record = dict(result, provenance=provenance, error_rate=error_rate,
                  reasons=reasons, unscaled={
                      name: value for name, (value, _n) in raw.items()})
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
