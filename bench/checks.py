"""Output checks of one pass, made apart from the program.

    python3 bench/checks.py --workload paper --seed 42 --inputs DIR --out DIR \
        --result FILE

This module never imports fragnet. It rebuilds every expected value from
the panel CSV, the scenario JSON and the written edge lists with its own
parser, its own equal-method allocation and `numpy.linalg.eigvalsh`/`eigh`,
or checks a property the method must have. Nothing is compared against a
stored copy of earlier output. `selftest.py` corrupts outputs one at a time
to show that each check can fail.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import (
    CASCADE_YEAR,
    DID_SEED,
    PLACEBO_YEAR,
    POST_YEARS,
    PRE_YEARS,
    WORKLOADS,
    centrality_sample,
)

DISCONNECT_TOL = 1e-8  # README: disconnected when lambda2 < 1e-8 * lambda_n
RTOL = 1e-9
EPSILON = math.exp(-1.0)  # the CLI's default mixing-time threshold


class CheckFailure(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def close(actual: float, expected: float, scale: float | None = None, rtol: float = RTOL) -> bool:
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return abs(actual - expected) <= rtol * (abs(expected) if scale is None else scale)


def number(text: str) -> float:
    return math.nan if text == "" else float(text)


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def lambda2(eigenvalues: np.ndarray) -> float:
    lam = eigenvalues
    if lam[-1] <= 0 or lam[1] < DISCONNECT_TOL * lam[-1]:
        return 0.0
    return float(lam[1])


def laplacian(w: np.ndarray) -> np.ndarray:
    return np.diag(w.sum(axis=1)) - w


@dataclass
class Year:
    """One panel year: banks sorted by identifier, home countries, exposures."""

    banks: list[str]
    home: np.ndarray  # index into countries
    countries: list[str]
    E: np.ndarray  # exposure to each home country
    external: np.ndarray  # exposure to countries without a sample bank
    total: float


def read_panel(path: Path) -> dict[int, Year]:
    raw: dict[int, dict[str, tuple[str, dict[str, float]]]] = {}
    for row in read_rows(path):
        year = raw.setdefault(int(row["year"]), {})
        home, exposures = year.setdefault(row["lei"], (row["country"], {}))
        exposures[row["exposure_country"]] = float(row["exposure_amount"])
    out = {}
    for y, banks in raw.items():
        names = sorted(banks)
        countries = sorted({banks[b][0] for b in names})
        col = {c: k for k, c in enumerate(countries)}
        E = np.zeros((len(names), len(countries)))
        external = np.zeros(len(names))
        total = 0.0
        for i, b in enumerate(names):
            for c, amount in banks[b][1].items():
                total += amount
                if c in col:
                    E[i, col[c]] = amount
                else:
                    external[i] += amount
        home = np.array([col[banks[b][0]] for b in names])
        out[y] = Year(names, home, countries, E, external, total)
    return out


def allocate_equal(year: Year, idx: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetrized equal-method network on the nodes idx (repeats allowed).

    Node i splits its exposure to country c equally over the other nodes
    whose home is c; exposure with no such node is dropped. Returns the
    weights and the dropped amount.
    """
    E = year.E[idx]
    home = year.home[idx]
    n, m = len(idx), len(year.countries)
    others = np.bincount(home, minlength=m)[None, :] - (home[:, None] == np.arange(m)[None, :])
    share = np.divide(E, others, out=np.zeros_like(E), where=others > 0)
    directed = share[:, home]
    np.fill_diagonal(directed, 0.0)
    dropped = float(np.where(others > 0, 0.0, E).sum() + year.external[idx].sum())
    return (directed + directed.T) / 2.0, dropped


def read_edges(path: Path, banks: list[str], year: int) -> np.ndarray:
    index = {b: k for k, b in enumerate(banks)}
    w = np.zeros((len(banks), len(banks)))
    seen = set()
    for row in read_rows(path):
        expect(int(row["year"]) == year, f"{path.name}: row of year {row['year']}")
        i, j = index[row["bank_i"]], index[row["bank_j"]]
        expect(i != j and (i, j) not in seen and (j, i) not in seen, f"{path.name}: repeated pair {i},{j}")
        seen.add((i, j))
        w[i, j] = w[j, i] = float(row["weight"])
    return w


class Context:
    def __init__(self, workload: str, seed: int, inputs: Path, out: Path):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.inputs = inputs
        self.out = out
        self.panel = read_panel(inputs / "panel.csv")
        self._edges: dict[int, np.ndarray] = {}
        self._eig: dict[int, np.ndarray] = {}

    def expected(self, year: int) -> tuple[np.ndarray, float]:
        y = self.panel[year]
        return allocate_equal(y, np.arange(len(y.banks)))

    def edges(self, year: int) -> np.ndarray:
        if year not in self._edges:
            self._edges[year] = read_edges(self.out / "build" / f"edges_{year}.csv", self.panel[year].banks, year)
        return self._edges[year]

    def eigenvalues(self, year: int) -> np.ndarray:
        if year not in self._eig:
            self._eig[year] = np.linalg.eigvalsh(laplacian(self.edges(year)))
        return self._eig[year]

    def lambda2(self, year: int) -> float:
        return lambda2(self.eigenvalues(year))


CHECKS = {}


def check(fn):
    CHECKS[fn.__name__] = fn
    return fn


@check
def edges(ctx: Context) -> None:
    """Edge weights equal an independent equal-method allocation."""
    for year in sorted(ctx.panel):
        want, _ = ctx.expected(year)
        got = ctx.edges(year)
        iu = np.triu_indices(len(want), k=1)
        expect(np.array_equal(got[iu] > 0, want[iu] > 0), f"edges_{year}: edge set differs from the allocation")
        bad = ~np.isclose(got[iu], want[iu], rtol=1e-12, atol=0.0)
        expect(not bad.any(), f"edges_{year}: {int(bad.sum())} weights differ from the allocation")


@check
def conservation(ctx: Context) -> None:
    """Each year's edge total is the panel total less dropped exposure."""
    stats = {int(r["year"]): r for r in read_rows(ctx.out / "build" / "network_stats.csv")}
    expect(sorted(stats) == sorted(ctx.panel), "network_stats.csv: years differ from the panel")
    for year, y in sorted(ctx.panel.items()):
        _, dropped = ctx.expected(year)
        w = ctx.edges(year)
        upper = w[np.triu_indices(len(w), k=1)]
        expect(close(2.0 * upper.sum(), y.total - dropped), f"year {year}: edge total does not conserve exposure")
        s = stats[year]
        expect(int(s["n_nodes"]) == len(w) and int(s["n_edges"]) == int((upper > 0).sum()),
               f"network_stats {year}: node or edge count wrong")
        expect(close(float(s["total_weight"]), (y.total - dropped) / 2.0), f"network_stats {year}: total_weight wrong")
        expect(close(float(s["mean_degree"]), (y.total - dropped) / len(w)), f"network_stats {year}: mean_degree wrong")


@check
def fragility(ctx: Context) -> None:
    """fragility.csv against eigvalsh of Laplacians rebuilt from the edges;
    avg_resistance_distance through the Kirchhoff identity
    sum_{i<j} r_ij = n * sum_{k>=2} 1/lambda_k."""
    rows = {int(r["year"]): r for r in read_rows(ctx.out / "analyze" / "fragility.csv")}
    expect(sorted(rows) == sorted(ctx.panel), "fragility.csv: years differ from the panel")
    for year in sorted(ctx.panel):
        lam, w = ctx.eigenvalues(year), ctx.edges(year)
        n, l2, ln = len(lam), ctx.lambda2(year), float(lam[-1])
        eff = float(np.sum(1.0 / lam[1:])) if l2 > 0 else math.inf
        d = w.sum(axis=1)
        s = 1.0 / np.sqrt(d)
        norm = lambda2(np.linalg.eigvalsh(np.eye(n) - w * s[:, None] * s[None, :]))
        want = {
            "n_nodes": n, "lambda2": l2, "spectral_gap": l2, "lambda3": float(lam[2]),
            "spectral_radius": ln, "radius_ratio": ln / l2 if l2 > 0 else math.inf,
            "inv_lambda2_x1e3": 1000.0 / l2 if l2 > 0 else math.inf,
            "effective_resistance": eff,
            "avg_resistance_distance": 2.0 * eff / (n - 1),
            "normalized_lambda2": norm,
            "mixing_time": -math.log(EPSILON) / l2 if l2 > 0 else math.inf,
            "connected": float(l2 > 0),
        }
        for key, value in want.items():
            got = number(rows[year][key])
            scale = 2.0 if key == "normalized_lambda2" else (ln if key in ("lambda2", "spectral_gap", "lambda3") else None)
            expect(close(got, value, scale=scale), f"fragility {year} {key}: {got!r} vs {value!r}")


@check
def spectra(ctx: Context) -> None:
    """spectrum_<year>.json holds the Laplacian's eigenvalues."""
    for year in sorted(ctx.panel):
        doc = json.loads((ctx.out / "analyze" / f"spectrum_{year}.json").read_text(encoding="utf-8"))
        lam = ctx.eigenvalues(year)
        expect(sorted(doc["bank_order"]) == ctx.panel[year].banks, f"spectrum_{year}: bank order lists other banks")
        got = np.array(doc["eigenvalues"])
        expect(got.shape == lam.shape and np.allclose(got, lam, rtol=0, atol=RTOL * lam[-1]),
               f"spectrum_{year}: eigenvalues differ from eigvalsh")


@check
def centrality(ctx: Context) -> None:
    """Every bank has a centrality; a seeded sample matches leave-one-out eigvalsh."""
    rows = read_rows(ctx.out / "analyze" / "centrality.csv")
    table = {(int(r["year"]), r["bank"]): float(r["spectral_centrality"]) for r in rows}
    expect(len(table) == len(rows) == sum(len(y.banks) for y in ctx.panel.values()),
           "centrality.csv: not one row per bank-year")
    for year, y in sorted(ctx.panel.items()):
        w = ctx.edges(year)
        for bank in centrality_sample(y.banks, ctx.seed, year):
            keep = [k for k, b in enumerate(y.banks) if b != bank]
            sub = lambda2(np.linalg.eigvalsh(laplacian(w[np.ix_(keep, keep)])))
            want = ctx.lambda2(year) - sub
            got = table[(year, bank)]
            expect(close(got, want, scale=ctx.eigenvalues(year)[-1]), f"centrality {year} {bank}: {got!r} vs {want!r}")


def did_rows(path: Path) -> dict[str, dict[str, str]]:
    return {r["period"]: r for r in read_rows(path)}


def effects_table(path: Path, values: dict[int, float], alpha: float, counterfactual: dict[int, float]) -> None:
    """A did table: the baseline row holds alpha, each treated year's effect
    is its lambda2 minus its counterfactual."""
    rows = did_rows(path)
    expect(sorted(rows) == sorted(["baseline", *map(str, counterfactual)]), f"{path.name}: periods differ")
    expect(close(float(rows["baseline"]["lambda2"]), alpha), f"{path.name}: baseline {rows['baseline']['lambda2']} vs {alpha!r}")
    for year, reference in counterfactual.items():
        row = rows[str(year)]
        beta = values[year] - reference
        expect(close(float(row["lambda2"]), values[year]), f"{path.name} {year}: lambda2 wrong")
        expect(close(float(row["effect"]), beta, scale=values[year]), f"{path.name} {year}: effect {row['effect']} vs {beta!r}")
        expect(close(float(row["pct_change"]), 100.0 * beta / reference, scale=100.0 * values[year] / reference),
               f"{path.name} {year}: pct_change wrong")


@check
def did(ctx: Context) -> None:
    """Level, detrended and placebo effects from the independent lambda2 series."""
    values = {y: ctx.lambda2(y) for y in PRE_YEARS + POST_YEARS}
    alpha = sum(values[y] for y in PRE_YEARS) / len(PRE_YEARS)
    effects_table(ctx.out / "did" / "did_level.csv", values, alpha, {y: alpha for y in POST_YEARS})
    x = np.array(PRE_YEARS, dtype=float)
    v = np.array([values[y] for y in PRE_YEARS])
    slope = float(np.sum((x - x.mean()) * (v - v.mean())) / np.sum((x - x.mean()) ** 2))
    trend = {y: float(v.mean() + slope * (y - x.mean())) for y in POST_YEARS}
    effects_table(ctx.out / "did" / "did_detrended.csv", values, alpha, trend)
    base = [y for y in PRE_YEARS if y < PLACEBO_YEAR]
    placebo_alpha = sum(values[y] for y in base) / len(base)
    effects_table(ctx.out / "did" / f"placebo_{PLACEBO_YEAR}.csv", values, placebo_alpha,
                  {y: placebo_alpha for y in PRE_YEARS if y >= PLACEBO_YEAR})
    doc = json.loads((ctx.out / "did" / "did.json").read_text(encoding="utf-8"))
    for y in POST_YEARS:
        expect(close(doc["level"]["effects"][str(y)]["beta"], values[y] - alpha, scale=values[y]), f"did.json level {y} wrong")


def p_value(text: str, B: int) -> float:
    if text.startswith("<"):
        expect(close(float(text[1:]), 2.0 / B), f"p-value floor {text} is not 2/B")
        return 0.0
    return float(text)


def replicate_effects(ctx: Context) -> dict[int, np.ndarray]:
    """Level-DiD bootstrap draws: replicate b resamples each year's banks with
    replacement from its own stream seeded by (seed, b), years in pre then
    post order; a disconnected resample counts as lambda2 = 0."""
    B = ctx.workload.bootstrap_b
    years = PRE_YEARS + POST_YEARS
    draws = {y: [] for y in years}
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(DID_SEED % (1 << 64), b)))
        for y in years:
            n = len(ctx.panel[y].banks)
            draws[y].append(rng.integers(0, n, size=n))
    lam2 = {}
    for y in years:
        stack = np.stack([laplacian(allocate_equal(ctx.panel[y], idx)[0]) for idx in draws[y]])
        lam2[y] = np.array([lambda2(lam) for lam in np.linalg.eigvalsh(stack)])
    alpha = sum(lam2[y] for y in PRE_YEARS) / len(PRE_YEARS)
    return {y: lam2[y] - alpha for y in POST_YEARS}


@check
def bootstrap(ctx: Context) -> None:
    """Intervals and p-values equal an independent recomputation of the draws."""
    B = ctx.workload.bootstrap_b
    rows = did_rows(ctx.out / "did" / "bootstrap.csv")
    level = did_rows(ctx.out / "did" / "did_level.csv")
    expect(sorted(rows) == sorted(map(str, POST_YEARS)), "bootstrap.csv: periods differ")
    for y, d in replicate_effects(ctx).items():
        row = rows[str(y)]
        expect(int(row["B"]) == B and int(row["seed"]) == DID_SEED, f"bootstrap.csv {y}: B or seed wrong")
        scale = float(np.abs(d).max())
        lo, hi = np.percentile(d, [2.5, 97.5])
        p = 2.0 * min(float(np.mean(d <= 0.0)), float(np.mean(d > 0.0)))
        for table in (row, level[str(y)]):
            expect(close(float(table["ci_lower"]), lo, scale=scale), f"bootstrap {y}: ci_lower {table['ci_lower']} vs {lo!r}")
            expect(close(float(table["ci_upper"]), hi, scale=scale), f"bootstrap {y}: ci_upper {table['ci_upper']} vs {hi!r}")
            expect(p_value(table["p_value"], B) == p, f"bootstrap {y}: p-value {table['p_value']} vs {p!r}")


@check
def duality(ctx: Context) -> None:
    """The 95 % interval excludes 0 exactly when p < 0.05, up to the
    resolution of B draws."""
    B = ctx.workload.bootstrap_b
    for row in read_rows(ctx.out / "did" / "bootstrap.csv"):
        lo, hi, p = float(row["ci_lower"]), float(row["ci_upper"]), p_value(row["p_value"], B)
        excludes = lo > 0 or hi < 0
        expect(lo <= hi, f"bootstrap {row['period']}: ci_lower above ci_upper")
        expect(not (p < 0.05 - 4.0 / B) or excludes, f"bootstrap {row['period']}: p={p} but 0 in [{lo}, {hi}]")
        expect(not excludes or p <= 0.05 + 4.0 / B, f"bootstrap {row['period']}: 0 outside [{lo}, {hi}] but p={p}")


def read_scenario(ctx: Context, banks: list[str]):
    doc = json.loads((ctx.inputs / "scenario.json").read_text(encoding="utf-8"))
    f = np.array([float(doc["shock"].get(b, 0.0)) for b in banks])
    cap = np.array([float(doc["capitals"][b]) for b in banks])
    return f, cap, float(doc.get("onset", 0.0)), float(doc["horizon"]), float(doc["dt"])


def cascade_model(w: np.ndarray, f: np.ndarray, cap: np.ndarray, onset: float, horizon: float, dt: float):
    """Windows of length dt: in each, the live network's dx/dt = -L x + f
    (f switched on at onset) is solved exactly per eigenmode; at the window
    end every live bank with distress >= capital fails and leaves.
    Returns the window-end times, the live banks' distress at each (before
    removal), the failures as (window, node), the losses and the survivors."""
    live = np.arange(len(w))
    x = np.zeros(len(w))
    times, snaps, failures, losses = [0.0], [dict(zip(live.tolist(), x))], [], {}
    lam, vec = np.linalg.eigh(laplacian(w))
    windows = int(round(horizon / dt))
    t_prev = 0.0
    for k in range(1, windows + 1):
        t_end = min(k * dt, horizon)
        for a, b, forced in ((t_prev, min(max(onset, t_prev), t_end), False), (max(onset, t_prev), t_end, True)):
            tau = b - a
            if tau <= 0:
                continue
            y = vec.T @ x
            y = y * np.exp(-lam * tau)
            if forced:
                gain = np.where(np.abs(lam) * tau < 1e-12, tau, -np.expm1(-lam * tau) / np.where(lam == 0, 1.0, lam))
                y = y + (vec.T @ f[live]) * gain
            x = vec @ y
        t_prev = t_end
        times.append(t_end)
        snaps.append(dict(zip(live.tolist(), x.tolist())))
        hit = x >= cap[live]
        if hit.any():
            for node in live[hit]:
                failures.append((k, int(node)))
                losses[int(node)] = float(x[live == node][0])
            x, live = x[~hit], live[~hit]
            if live.size == 0:
                break
            lam, vec = np.linalg.eigh(laplacian(w[np.ix_(live, live)]))
    return times, snaps, failures, losses, live


def read_trajectory(path: Path) -> tuple[list[float], list[dict[str, float]]]:
    times, snaps = [], []
    for row in read_rows(path):
        t = float(row["time"])
        if not times or times[-1] != t:
            times.append(t)
            snaps.append({})
        snaps[-1][row["bank"]] = float(row["distress"])
    return times, snaps


@check
def cascade(ctx: Context) -> None:
    """Failure timeline, losses, trajectory and summary equal an independent
    closed-form recomputation."""
    banks = ctx.panel[CASCADE_YEAR].banks
    w = ctx.edges(CASCADE_YEAR)
    f, cap, onset, horizon, dt = read_scenario(ctx, banks)
    times, snaps, failures, losses, live = cascade_model(w, f, cap, onset, horizon, dt)
    doc = json.loads((ctx.out / "stress" / "cascade.json").read_text(encoding="utf-8"))
    got = sorted((e["round"], e["bank"]) for e in doc["failed"])
    want = sorted((k, banks[i]) for k, i in failures)
    expect(got == want, f"cascade.json: {len(got)} failures differ from the {len(want)} recomputed")
    expect(sorted(doc["losses"]) == sorted(banks[i] for i in losses), "cascade.json: losses name other banks")
    for i, loss in losses.items():
        expect(close(doc["losses"][banks[i]], loss, rtol=1e-8), f"cascade.json: loss of {banks[i]} wrong")
    rounds = len({k for k, _ in failures})
    full = np.linalg.eigvalsh(laplacian(w))
    pre, scale = lambda2(full), float(full[-1])
    post = lambda2(np.linalg.eigvalsh(laplacian(w[np.ix_(live, live)]))) if live.size >= 2 else 0.0
    summary = read_rows(ctx.out / "stress" / "cascade_summary.csv")[0]
    expect(int(summary["total_failures"]) == doc["total_failures"] == len(failures), "cascade: total_failures wrong")
    expect(int(summary["rounds"]) == doc["rounds"] == rounds, "cascade: rounds wrong")
    for key, value in (("pre_lambda2", pre), ("post_lambda2", post), ("fragility_change", post - pre)):
        expect(close(float(summary[key]), value, scale=scale) and close(doc[key], value, scale=scale), f"cascade: {key} wrong")
    last = max((times[k] for k, _ in failures), default=0.0)
    expect(close(float(summary["stabilization_time"]), last), "cascade: stabilization_time wrong")
    t_times, t_snaps = read_trajectory(ctx.out / "stress" / "trajectory.csv")
    expect(len(t_times) == len(times) and np.allclose(t_times, times, rtol=1e-12, atol=0), "trajectory.csv: window times wrong")
    for snap, mine in zip(t_snaps, snaps):
        expect(sorted(snap) == sorted(banks[i] for i in mine), "trajectory.csv: live banks differ")
        size = max(max(abs(v) for v in mine.values()), 1e-300)
        expect(all(close(snap[banks[i]], v, scale=size, rtol=1e-8) for i, v in mine.items()),
               "trajectory.csv: distress differs from the recomputation")


@check
def distress_balance(ctx: Context) -> None:
    """At every window end the live banks' total distress equals the forcing
    paid in so far minus the losses already written off, and cascade.json's
    history repeats trajectory.csv."""
    banks = ctx.panel[CASCADE_YEAR].banks
    f, _, onset, _, _ = read_scenario(ctx, banks)
    rate = dict(zip(banks, f))
    doc = json.loads((ctx.out / "stress" / "cascade.json").read_text(encoding="utf-8"))
    times, snaps = read_trajectory(ctx.out / "stress" / "trajectory.csv")
    history = doc["history"]
    expect(len(history) == len(times), "cascade.json: history and trajectory lengths differ")
    for h, t, snap in zip(history, times, snaps):
        expect(h["time"] == t and h["distress"] == snap, f"cascade.json: history at t={t} differs from trajectory.csv")
    failed_at: dict[int, list[str]] = {}
    for e in doc["failed"]:
        failed_at.setdefault(e["round"], []).append(e["bank"])
    paid = written_off = 0.0
    for k in range(1, len(times)):
        forced = max(times[k] - max(onset, times[k - 1]), 0.0)
        paid += forced * sum(rate[b] for b in snaps[k])
        total = sum(snaps[k].values())
        expect(close(total, paid - written_off, scale=max(paid, 1e-300)),
               f"distress at t={times[k]}: {total!r} vs forcing minus losses {paid - written_off!r}")
        written_off += sum(doc["losses"][b] for b in failed_at.get(k, []))


@check
def greedy(ctx: Context) -> None:
    """Greedy meets every target within one step, overshoots no bank by more
    than one step, only cuts, and does not raise lambda2."""
    root = ctx.out / "greedy"
    calls = [root / f"call{k}" for k in range(len(ctx.workload.greedy))]
    expect(all(c.is_dir() for c in calls), "greedy: a call left no result")
    if (root / "stalled").is_dir():
        calls.append(root / "stalled")
    for k, call in enumerate(calls):
        meta = json.loads((call / "meta.json").read_text(encoding="utf-8"))
        before, after = np.load(call / "before.npy"), np.load(call / "after.npy")
        banks, step = meta["banks"], meta["step"]
        if call.name != "stalled":
            year = ctx.workload.greedy[k].year
            index = {b: i for i, b in enumerate(ctx.panel[year].banks)}
            order = [index[b] for b in banks]
            expect(np.array_equal(before, ctx.edges(year)[np.ix_(order, order)]), f"greedy {call.name}: input is not the {year} network")
        target = np.array([meta["targets"].get(b, 0.0) for b in banks])
        if step is None:
            step = 0.01 * target.max()
        expect(np.array_equal(after, after.T) and not np.diag(after).any() and (after >= 0).all(),
               f"greedy {call.name}: result is not a symmetric non-negative graph")
        # the greedy tries each cut in place and adds it back, which can
        # leave an untouched edge a few ulps above its input weight
        expect((after <= before * (1 + 1e-14)).all(), f"greedy {call.name}: an edge grew")
        cut = before.sum(axis=1) - after.sum(axis=1)
        slack = 1e-9 * step + 1e-12 * before.sum(axis=1)
        owing = target > 0
        expect((cut[owing] >= target[owing] - step - slack[owing]).all(), f"greedy {call.name}: a target is missed by more than one step")
        expect((cut <= target + step + slack).all(), f"greedy {call.name}: a bank is cut more than one step past its target")
        l_before = lambda2(np.linalg.eigvalsh(laplacian(before)))
        l_after = lambda2(np.linalg.eigvalsh(laplacian(after)))
        expect(l_after <= l_before * (1 + 1e-12), f"greedy {call.name}: lambda2 rose from {l_before!r} to {l_after!r}")


def run_checks(ctx: Context, names=None) -> list[str]:
    failures = []
    for name, fn in CHECKS.items():
        if names is not None and name not in names:
            continue
        try:
            fn(ctx)
        except CheckFailure as exc:
            failures.append(f"{name}: {exc}")
        except (OSError, KeyError, ValueError, IndexError, TypeError, json.JSONDecodeError) as exc:
            failures.append(f"{name}: unreadable output: {type(exc).__name__}: {exc}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    ctx = Context(args.workload, args.seed, Path(args.inputs), Path(args.out))
    failures = run_checks(ctx)
    Path(args.result).write_text(json.dumps({"checks": sorted(CHECKS), "failures": failures}, indent=1) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
