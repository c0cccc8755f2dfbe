"""Benchmark entry point for the fragnet pipeline.

    python3 bench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and builds nothing: the program is the
checkout's `src/fragnet`. One run

1. sets the workload's inputs up SETUP_REPEATS times, each in a fresh
   interpreter (`inputs.py`), and checks that every set-up wrote the same
   bytes;
2. runs the workload in one process (`worker.py`) with the BLAS thread
   count pinned to one: timed passes of the pipeline for `--seconds`;
3. checks the first pass's outputs against independent computations in
   another process (`checks.py`);
4. prints one JSON line: `correct`, `attempted`, `failed` and the metrics,
   end to end with `--trace 0`, per layer with `--trace 1`.

It writes only under `.bench_work/` in the checkout and removes its own
directory there before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# every run, set-up and check process included, must end within this
BUDGET_S = 170.0
# one BLAS thread: two-thread OpenBLAS stalls now and then on this size of
# matrix, and results are identical at one and two threads
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fragnet" / "cli.py").is_file():
        print(f"error: no fragnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    from worker import file_digests
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    py = sys.executable
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def call(script: str, *extra: str) -> None:
        subprocess.run([py, str(BENCH / script), *common, *extra], check=True,
                       stdout=sys.stderr, timeout=max(deadline - time.monotonic(), 1.0))

    try:
        setup_s = []
        for k in range(SETUP_REPEATS if not args.trace else 1):
            start = time.perf_counter()
            call("inputs.py", "--out", str(work / f"inputs{k}"))
            setup_s.append(time.perf_counter() - start)
        inputs = work / "inputs0"
        same_inputs = all(file_digests(work / f"inputs{k}") == file_digests(inputs) for k in range(len(setup_s)))

        call("worker.py", "--inputs", str(inputs), "--work", str(work), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", str(work / "worker.json"))
        run = json.loads((work / "worker.json").read_text(encoding="utf-8"))
        call("checks.py", "--inputs", str(inputs), "--out", str(work / "pass0"),
             "--result", str(work / "checks.json"))
        checks = json.loads((work / "checks.json").read_text(encoding="utf-8"))
    except subprocess.CalledProcessError as exc:
        print(f"error: {Path(exc.cmd[1]).name} exited with {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {Path(exc.cmd[1]).name} ran past the {BUDGET_S:g} s budget", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    for name in run["mismatched"]:
        print(f"check failed: a pass wrote {name} differently from the first pass", file=sys.stderr)
    if not same_inputs:
        print("check failed: set-ups with one seed wrote different inputs", file=sys.stderr)
    for failure in checks["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = same_inputs and not run["mismatched"] and not checks["failures"]

    if args.trace:
        values = run["layers"]
    else:
        values = {"setup_s": statistics.median(setup_s), "peak_rss_mb": run["peak_rss_mb"]}
        for key in run["passes"][0]:
            values[f"{key}_s"] = statistics.median(p[key] for p in run["passes"])
    # names and units come from BENCHMARK.json; a listed metric the run did
    # not produce is an error
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
