"""Self-test of the output checks: each must reject a corrupted output.

    python3 bench/selftest.py [--workload stress] [--seed 1]

Runs one pass of the workload, confirms that every check passes on its
outputs, then corrupts one output at a time in a fresh copy (a perturbed
lambda2, a dropped failure row, a shifted interval bound, ...) and confirms
that the check responsible rejects it. A check that can never fail shows
up here. Prints one line per case and exits 1 if any case is not caught.
Writes only under `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from checks import Context, run_checks
from run import PINNED, ROOT
from worker import file_digests, mismatches


def edit_csv(path: Path, edit) -> None:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    body = edit(header, body)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *body])


def scale_cell(path: Path, column: str, factor: float, row: int = 0) -> None:
    def edit(header, body):
        k = header.index(column)
        body[row][k] = repr(float(body[row][k]) * factor)
        return body

    edit_csv(path, edit)


def set_cells(path: Path, row: int, **cells: str) -> None:
    def edit(header, body):
        for column, value in cells.items():
            body[row][header.index(column)] = value
        return body

    edit_csv(path, edit)


def edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def shift_ci_lower(out: Path) -> None:
    path = out / "did" / "bootstrap.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    width = float(row["ci_upper"]) - float(row["ci_lower"])
    set_cells(path, 0, ci_lower=repr(float(row["ci_lower"]) + 1e-6 * width))


def break_duality(out: Path) -> None:
    path = out / "did" / "bootstrap.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    top = abs(float(row["ci_upper"])) + abs(float(row["ci_lower"]))
    set_cells(path, 0, ci_lower=repr(0.5 * top), ci_upper=repr(top), p_value="1")


def bump_p_value(out: Path) -> None:
    path = out / "did" / "bootstrap.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    B = int(row["B"])
    p = 0.0 if row["p_value"].startswith("<") else float(row["p_value"])
    set_cells(path, 0, p_value=repr(p + 2.0 / B))


def drop_failure(out: Path) -> None:
    edit_json(out / "stress" / "cascade.json", lambda doc: doc["failed"].pop())


def perturb_loss(out: Path) -> None:
    def edit(doc):
        bank = sorted(doc["losses"])[0]
        doc["losses"][bank] *= 1 + 1e-6

    edit_json(out / "stress" / "cascade.json", edit)


def perturb_trajectory(out: Path) -> None:
    path = out / "stress" / "trajectory.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        n = sum(1 for _ in fh) - 1
    scale_cell(path, "distress", 1 + 1e-6, row=n // 2)


def drop_edge(out: Path) -> None:
    edit_csv(out / "build" / "edges_2018.csv", lambda header, body: body[:-1])


def perturb_eigenvalue(out: Path) -> None:
    edit_json(out / "analyze" / "spectrum_2016.json",
              lambda doc: doc["eigenvalues"].__setitem__(3, doc["eigenvalues"][3] * (1 + 1e-7)))


def perturb_centralities(out: Path) -> None:
    def edit(header, body):
        k = header.index("spectral_centrality")
        top = max(abs(float(r[k])) for r in body)
        for r in body:
            r[k] = repr(float(r[k]) + 1e-6 * top)
        return body

    edit_csv(out / "analyze" / "centrality.csv", edit)


def undo_greedy(out: Path) -> None:
    call = out / "greedy" / "call0"
    np.save(call / "after.npy", np.load(call / "before.npy"))


def raise_greedy(out: Path) -> None:
    call = out / "greedy" / "call0"
    after = np.load(call / "after.npy")
    after[0, 1] = after[1, 0] = after[0, 1] * (1 + 1e-6)
    np.save(call / "after.npy", after)


# (case, corruption, checks that must reject it)
CASES = [
    ("edge weight +1e-8", lambda o: scale_cell(o / "build" / "edges_2014.csv", "weight", 1 + 1e-8, row=5), ["edges"]),
    ("edge row dropped", drop_edge, ["edges"]),
    ("network_stats total_weight +1e-6", lambda o: scale_cell(o / "build" / "network_stats.csv", "total_weight", 1 + 1e-6, row=2), ["conservation"]),
    ("lambda2 +1e-7", lambda o: scale_cell(o / "analyze" / "fragility.csv", "lambda2", 1 + 1e-7, row=1), ["fragility"]),
    ("avg_resistance_distance +1e-7", lambda o: scale_cell(o / "analyze" / "fragility.csv", "avg_resistance_distance", 1 + 1e-7, row=3), ["fragility"]),
    ("mixing_time +1e-7", lambda o: scale_cell(o / "analyze" / "fragility.csv", "mixing_time", 1 + 1e-7, row=4), ["fragility"]),
    ("eigenvalue +1e-7", perturb_eigenvalue, ["spectra"]),
    ("centralities shifted", perturb_centralities, ["centrality"]),
    ("level effect +1e-7", lambda o: scale_cell(o / "did" / "did_level.csv", "effect", 1 + 1e-7, row=1), ["did"]),
    ("detrended pct_change +1e-7", lambda o: scale_cell(o / "did" / "did_detrended.csv", "pct_change", 1 + 1e-7, row=2), ["did"]),
    ("placebo effect +1e-7", lambda o: scale_cell(o / "did" / "placebo_2016.csv", "effect", 1 + 1e-7, row=1), ["did"]),
    ("ci_lower shifted", shift_ci_lower, ["bootstrap"]),
    ("p-value off by 2/B", bump_p_value, ["bootstrap"]),
    ("interval excludes 0 at p = 1", break_duality, ["duality"]),
    ("failure row dropped", drop_failure, ["cascade"]),
    ("loss +1e-6", perturb_loss, ["cascade", "distress_balance"]),
    ("trajectory distress +1e-6", perturb_trajectory, ["cascade", "distress_balance"]),
    ("rounds +1", lambda o: set_cells(o / "stress" / "cascade_summary.csv", 0, rounds="999"), ["cascade"]),
    ("greedy cut undone", undo_greedy, ["greedy"]),
    ("greedy edge grown", raise_greedy, ["greedy"]),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="stress")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    env = {**os.environ, **PINNED}
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Path(__file__).resolve().parent
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    missed = 0
    try:
        subprocess.run([sys.executable, str(bench / "inputs.py"), *common, "--out", str(work / "inputs")],
                       check=True, env=env, stdout=sys.stderr, timeout=120)
        subprocess.run([sys.executable, str(bench / "worker.py"), *common, "--inputs", str(work / "inputs"),
                        "--work", str(work), "--seconds", "0", "--result", str(work / "worker.json")],
                       check=True, env=env, stdout=sys.stderr, timeout=170)
        pristine = work / "pass0"
        failures = run_checks(Context(args.workload, args.seed, work / "inputs", pristine))
        print(f"{'pass' if not failures else 'FAIL'}: every check accepts the program's own outputs")
        for failure in failures:
            print(f"  {failure}")
        missed += bool(failures)
        for case, corrupt, names in CASES:
            copy = work / "case"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(pristine, copy)
            corrupt(copy)
            changed = mismatches(file_digests(pristine), file_digests(copy))
            ctx = Context(args.workload, args.seed, work / "inputs", copy)
            caught = [name for name in names if run_checks(ctx, [name])]
            ok = changed and caught == names
            missed += not ok
            print(f"{'pass' if ok else 'FAIL'}: {case}: rejected by {', '.join(caught) or 'nothing'}"
                  f"; byte comparison flags {', '.join(sorted(changed)) or 'nothing'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    print(f"{len(CASES) + 1 - missed} of {len(CASES) + 1} cases pass")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
