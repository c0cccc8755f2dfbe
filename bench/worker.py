"""One workload in one process: timed passes of the pipeline.

    python3 bench/worker.py --workload paper --seed 42 --inputs DIR --work DIR \
        --seconds 25 --trace 0 --result FILE

`run.py` starts it with the BLAS thread count pinned in the environment.
An operation is one `fragnet.cli.main(argv)` call or one
`greedy_deleverage` call (it has no command). A pass runs, in order,
`build`, `analyze --spectra`, `did --bootstrap-b B --seed 7 --placebo 2016`,
`stress` on the pass's own 2014 edge list, then the greedy calls on the
pass's own edge lists. Passes repeat for `--seconds`. The first writes
WORK/pass0, which the checks read; every later pass writes WORK/pass and
must match pass0 byte for byte.

With `--trace 0` each operation is timed from outside with nothing else
installed. With `--trace 1` the passes run under `tracing.Tracer` and the
result holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

from inputs import import_fragnet
from tracing import Tracer, wrapper_costs
from workloads import (
    CASCADE_YEAR,
    DID_SEED,
    PLACEBO_YEAR,
    POST_YEARS,
    PRE_YEARS,
    STALLED_SEED,
    STALLED_SHARE,
    STALLED_SPEC,
    WORKLOADS,
    greedy_targets,
    scaled_calibration,
)

COMMANDS = ("build", "analyze", "did", "stress")


def file_digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def mismatches(reference: dict[str, str], digests: dict[str, str]) -> set[str]:
    """Files missing from either side or with different contents."""
    return {k for k in reference.keys() | digests.keys() if reference.get(k) != digests.get(k)}


def reference_kernel_s(np) -> list[float]:
    """Seven timings of a fixed LAPACK-plus-interpreter kernel, for host drift."""
    a = np.random.default_rng(0).standard_normal((120, 120))
    m = a @ a.T
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(5):
            np.linalg.eigvalsh(m)
        acc = 0
        for i in range(50000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return times


class Pipeline:
    """The operations of one pass, bound to a workload, a seed and its inputs.

    Set `tracer` to record the operations as spans.
    """

    def __init__(self, workload, seed: int, inputs: Path):
        # imported here, after main() has put the checkout's src on the path
        # and, when tracing, wrapped the eigensolvers
        import numpy as np

        import fragnet.cli as cli
        from fragnet.diffusion import greedy_deleverage
        from fragnet.errors import DomainError
        from fragnet.network import allocate, graph_from_edge_csv, symmetrize
        from fragnet.panel import synthesize_panel

        self.np = np
        self.cli = cli
        self.greedy_deleverage = greedy_deleverage
        self.graph_from_edge_csv = graph_from_edge_csv
        self.DomainError = DomainError
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.tracer: Tracer | None = None
        self.stalled = None
        if workload.stalled_greedy:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                panel = synthesize_panel(STALLED_SPEC, seed=STALLED_SEED)
                year = panel.years[0]
                graph = symmetrize(allocate(panel.records[year], "equal"), year)
            degrees = graph.degrees()
            self.stalled = (graph, {b: STALLED_SHARE * float(degrees[i]) for i, b in enumerate(graph.banks)})

    def argv(self, command: str, out: Path) -> list[str]:
        panel = str(self.inputs / "panel.csv")
        dest = str(out / command)
        if command == "build":
            return ["build", "--input", panel, "--out", dest]
        if command == "analyze":
            return ["analyze", "--input", panel, "--out", dest, "--spectra"]
        if command == "did":
            return ["did", "--input", panel, "--out", dest, "--bootstrap-b",
                    str(self.workload.bootstrap_b), "--seed", str(DID_SEED),
                    "--placebo", str(PLACEBO_YEAR)]
        return ["stress", "--input", str(out / "build" / f"edges_{CASCADE_YEAR}.csv"),
                "--scenario", str(self.inputs / "scenario.json"), "--out", dest]

    def _span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def _save_greedy(self, dest: Path, graph, targets: dict, step: float, after) -> None:
        dest.mkdir(parents=True, exist_ok=True)
        self.np.save(dest / "before.npy", graph.weights)
        self.np.save(dest / "after.npy", after.weights)
        meta = {"banks": list(graph.banks), "targets": targets, "step": step}
        (dest / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")

    def _greedy(self, dest: Path, graph, targets: dict, step: float | None) -> tuple[float, bool, int]:
        """Time one greedy call; returns (seconds, ok, eigensolver calls)."""
        eig_before = self.tracer.eig_calls if self.tracer else 0
        ok = True
        with self._span("diffusion.greedy"):
            start = time.perf_counter()
            try:
                after = self.greedy_deleverage(graph, targets, step)
            except self.DomainError:
                ok = False
            elapsed = time.perf_counter() - start
        eig = (self.tracer.eig_calls - eig_before) if self.tracer else 0
        if ok:
            self._save_greedy(dest, graph, targets, step, after)
        return elapsed, ok, eig

    def run(self, out: Path) -> dict:
        """One pass into `out`; returns per-operation seconds and counts."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        times: dict[str, float] = {}
        attempted = failed = greedy_eig = 0
        for command in COMMANDS:
            argv = self.argv(command, out)
            with self._span(f"cli.{command}"):
                start = time.perf_counter()
                code = self.cli.main(argv)
                times[command] = time.perf_counter() - start
            attempted += 1
            failed += code != 0
        times["greedy"] = 0.0
        for k, call in enumerate(self.workload.greedy):
            graph = self.graph_from_edge_csv(out / "build" / f"edges_{call.year}.csv")
            targets, step = greedy_targets(graph.banks, graph.degrees(), call, self.seed, k)
            elapsed, ok, eig = self._greedy(out / "greedy" / f"call{k}", graph, targets, step)
            times["greedy"] += elapsed
            greedy_eig += eig
            attempted += 1
            failed += not ok
        if self.stalled is not None:
            graph, targets = self.stalled
            elapsed, ok, eig = self._greedy(out / "greedy" / "stalled", graph, targets, None)
            times["greedy"] += elapsed
            greedy_eig += eig
            attempted += 1
            failed += not ok
        times["pipeline"] = sum(times[c] for c in COMMANDS) + times["greedy"]
        return {"times": times, "attempted": attempted, "failed": failed, "greedy_eig_calls": greedy_eig}


def layer_metrics(tracer: Tracer, result: dict, workload, out: Path, span_cost: float, eig_cost: float) -> dict:
    """Per-layer metrics of one traced pass (the traced synth included)."""
    tot = tracer.totals()
    own = tracer.self_times()
    pass_s = result["times"]["pipeline"]
    with (out / "stress" / "cascade_summary.csv").open(encoding="utf-8") as fh:
        summary = dict(zip(*[line.rstrip("\n").split(",") for line in fh]))
    with (out / "stress" / "trajectory.csv").open(encoding="utf-8") as fh:
        next(fh)
        windows = len({line.split(",", 1)[0] for line in fh}) - 1
    edges = 0
    for path in sorted((out / "build").glob("edges_*.csv")):
        with path.open(encoding="utf-8") as fh:
            edges += sum(1 for _ in fh) - 1
    output_bytes = sum(p.stat().st_size for c in COMMANDS for p in (out / c).rglob("*") if p.is_file())
    m = {
        "panel.synth_s": tot.get("panel.synth", 0.0),
        "panel.write_s": tot.get("panel.write", 0.0),
        "panel.load_s": tot.get("panel.load", 0.0),
        "network.allocate_s": tot.get("network.allocate", 0.0),
        "network.conservation_s": tot.get("network.conservation", 0.0),
        "network.stats_s": tot.get("network.stats", 0.0),
        "network.edges_write_s": tot.get("network.edges_write", 0.0),
        "network.edges_read_s": tot.get("network.edges_read", 0.0),
        "network.edges": edges,
        "spectral.spectrum_s": tot.get("spectral.spectrum", 0.0),
        "spectral.fragility_s": tot.get("spectral.fragility", 0.0),
        "spectral.centrality_s": tot.get("spectral.centrality", 0.0),
        "spectral.eig_calls": tracer.eig_calls,
        "spectral.eig_s": tracer.eig_s,
        "spectral.eig_share": tracer.eig_s / pass_s,
        "inference.bootstrap_s": tot.get("inference.bootstrap", 0.0),
        "inference.replicate_s": tot.get("inference.bootstrap", 0.0) / workload.bootstrap_b,
        "inference.resamples": workload.bootstrap_b * len(PRE_YEARS + POST_YEARS),
        "inference.estimators_s": tot.get("inference.estimators", 0.0),
        "diffusion.cascade_s": tot.get("diffusion.cascade", 0.0),
        "diffusion.windows": windows,
        "diffusion.rounds": int(summary["rounds"]),
        "diffusion.failures": int(summary["total_failures"]),
        "diffusion.window_s": tot.get("diffusion.cascade", 0.0) / max(windows, 1),
        "diffusion.greedy_s": tot.get("diffusion.greedy", 0.0),
        "diffusion.greedy_eig_calls": result["greedy_eig_calls"],
        "cli.output_bytes": output_bytes,
        "trace.pass_s": pass_s,
        "trace.overhead_s": tracer.wrapped_calls * span_cost + tracer.eig_calls * eig_cost,
    }
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = own.get(f"cli.{command}", 0.0)
    return m


def resample_alloc_s(np, inputs: Path, seed: int) -> float:
    """Median time of `allocate_arrays` on one bootstrap-style 2014 resample."""
    from fragnet.network import allocate_arrays, year_arrays
    from fragnet.panel import load_panel

    arrays = year_arrays(load_panel(inputs / "panel.csv").records[CASCADE_YEAR], warn=False)
    n = len(arrays.leis)
    rng = np.random.default_rng([seed, 4])
    times = []
    for _ in range(200):
        idx = rng.integers(0, n, size=n)
        start = time.perf_counter()
        allocate_arrays(arrays, "equal", idx)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install_eig_wrappers()
    import_fragnet()
    import numpy as np

    workload = WORKLOADS[args.workload]
    inputs, work = Path(args.inputs), Path(args.work)
    pipeline = Pipeline(workload, args.seed, inputs)

    host_ref = []
    layers = []
    extra = {}
    if tracer is not None:
        from fragnet.panel import synthesize_panel, write_panel

        host_ref += reference_kernel_s(np)
        extra["network.resample_alloc_s"] = resample_alloc_s(np, inputs, args.seed)
        span_cost, eig_cost = wrapper_costs()
        tracer.install_cli_wrappers(pipeline.cli)
        pipeline.tracer = tracer
        calibration = pipeline.cli.DEFAULT_CALIBRATION
        if workload.scaled:
            calibration = scaled_calibration(calibration)

    # The first pass is timed like the others: each command-line call is a
    # new process, so its users pay first-call costs on every call.
    attempted = failed = 0
    reference = None
    mismatched: set[str] = set()
    passes = []
    walls = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        out = work / ("pass0" if reference is None else "pass")
        if tracer is not None:
            tracer.reset()
        result = pipeline.run(out)
        attempted += result["attempted"]
        failed += result["failed"]
        digests = file_digests(out)
        if reference is None:
            reference = digests
        mismatched |= mismatches(reference, digests)
        if tracer is not None:
            synth_dir = work / "synth"
            synth_dir.mkdir(exist_ok=True)
            with tracer.span("panel.synth"):
                panel = synthesize_panel(calibration, seed=args.seed)
            with tracer.span("panel.write"):
                write_panel(panel, synth_dir / "panel.csv")
            m = layer_metrics(tracer, result, workload, out, span_cost, eig_cost)
            m["panel.rows"] = sum(len(r.exposures) for y in panel.years for r in panel.records[y])
            layers.append(m)
        passes.append(result["times"])
        walls.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break

    doc = {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "mismatched": sorted(mismatched),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        host_ref += reference_kernel_s(np)
        doc["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        doc["layers"].update(extra)
        doc["layers"]["host.ref_s"] = statistics.median(host_ref)
    Path(args.result).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
