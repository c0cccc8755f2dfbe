"""Distress diffusion on a network, with and without forcing, plus the
cascade stress test and a greedy deleveraging heuristic.

Propagation is exact spectral evaluation of the closed-form solution of
dx/dt = -L x (+ f), never numerical integration; a time-stepping solver
exists only in the test suite as an independent oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, GreedyStalled, InputError
from .network import WeightedGraph
from .panel import json_number, read_json_object
from .spectral import (
    DISCONNECT_TOL,
    _lambda2_of,
    eigenbasis,
    lambda2,
    lambda2_batch,
    lambda2_cut_bounds,
    stack_members,
)

# cap on a cascade's ceil(horizon / dt) windows, each of which is solved
# and recorded; the record is allocated up front
MAX_WINDOWS = 100_000


@dataclass
class DistressState:
    """Per-bank distress levels at an absolute time."""

    values: np.ndarray
    time: float = 0.0


@dataclass
class ForcingSpec:
    """Constant forcing vector switched on at an absolute onset time."""

    vector: np.ndarray
    onset: float = 0.0

    def validate(self, n: int) -> None:
        v = np.asarray(self.vector, dtype=float)
        if v.shape != (n,):
            raise DomainError(f"forcing length {v.shape} does not match {n} banks")
        if not np.all(np.isfinite(v)):
            raise DomainError("forcing vector has non-finite entries")


@dataclass
class CascadeResult:
    failed: list[tuple[int, str]]
    total_failures: int
    pre_lambda2: float
    post_lambda2: float
    fragility_change: float
    rounds: int
    stabilization_time: float
    losses: dict[str, float]
    # window end times from 0, shape (windows + 1,), and distress per window
    # and bank in network order, shape (windows + 1, n), NaN once failed
    times: np.ndarray
    distress: np.ndarray

    def live_runs(self) -> list[tuple[int, int, np.ndarray]]:
        """(start, stop, banks) for each run of windows with one live set:
        the banks, in network order, recorded in windows start to stop - 1.
        The live set changes only at failure rounds."""
        live = ~np.isnan(self.distress)
        cuts = np.flatnonzero((live[1:] != live[:-1]).any(axis=1)) + 1
        bounds = [0, *cuts.tolist(), len(live)]
        return [(a, b, np.flatnonzero(live[a])) for a, b in zip(bounds, bounds[1:])]


class _Stepper:
    """Closed-form steps of dx/dt = -L x (+ f) in one eigenbasis (lam, v).

    Zero modes keep their state and accumulate their forcing component
    linearly; every other mode decays at its own rate. The forcing's modal
    components are taken once, and the decay and gain factors once per
    distinct step length, so a step costs two matrix-vector products.
    """

    def __init__(self, lam: np.ndarray, v: np.ndarray, f: np.ndarray | None = None):
        self.lam = lam
        self.v = v
        self.vt = v.T
        self.fhat = None if f is None else self.vt @ f
        self.tol = DISCONNECT_TOL * max(lam[-1], 1.0)
        # exact step length -> (decay, gain); a cascade's window ends are
        # rounded multiples of dt, so only a few lengths recur
        self.factors: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, x: np.ndarray, dt: float, forced: bool) -> np.ndarray:
        """State after dt from x, forced by f if asked."""
        factors = self.factors.get(dt)
        if factors is None:
            lam, tol = self.lam, self.tol
            decay = np.exp(-lam * dt)
            gain = np.where(lam > tol, -np.expm1(-lam * dt) / np.where(lam > tol, lam, 1.0), dt)
            factors = self.factors[dt] = (decay, gain)
        out = (self.vt @ x) * factors[0]
        if forced:
            out = out + self.fhat * factors[1]
        return self.v @ out

    def advance(self, x: np.ndarray, onset: float, t0: float, t1: float) -> np.ndarray:
        """State at t1 from x at t0: homogeneous until the onset, forced by f
        from the onset on."""
        free_until = min(max(onset, t0), t1)
        if free_until > t0:
            x = self.step(x, free_until - t0, False)
        if t1 > free_until:
            x = self.step(x, t1 - free_until, True)
        return x


def evolve(graph: WeightedGraph, x0: DistressState, t: float) -> DistressState:
    """Homogeneous diffusion for a duration t from the given state.

    Total distress is conserved; each eigenmode decays independently at
    its eigenvalue's rate, so the result is exact up to the decomposition.
    """
    if t < 0:
        raise DomainError(f"duration must be non-negative, got {t}")
    graph.validate()
    x = np.asarray(x0.values, dtype=float)
    if x.shape != (graph.n,):
        raise DomainError(f"state length {x.shape} does not match {graph.n} banks")
    values = _Stepper(*eigenbasis(graph.weights)).step(x, t, False)
    return DistressState(values, x0.time + t)


def evolve_forced(
    graph: WeightedGraph, x0: DistressState, forcing: ForcingSpec, t: float
) -> DistressState:
    """State at absolute time t under forcing that switches on at its onset.

    Before the onset the dynamics are homogeneous. From the onset onward the
    solution adds the forced response; the component of f along the constant
    vector cannot diffuse away and grows linearly in elapsed time.
    """
    graph.validate()
    x = np.asarray(x0.values, dtype=float)
    if x.shape != (graph.n,):
        raise DomainError(f"state length {x.shape} does not match {graph.n} banks")
    if t < x0.time:
        raise DomainError(f"target time {t} precedes state time {x0.time}")
    forcing.validate(graph.n)
    f = np.asarray(forcing.vector, dtype=float)
    stepper = _Stepper(*eigenbasis(graph.weights), f)
    return DistressState(stepper.advance(x, forcing.onset, x0.time, t), t)


def amplification_bound(lambda2_pre: float, lambda2_post: float, alpha: float) -> float:
    """Lower bound 1 + alpha (lambda2_post / lambda2_pre - 1) for the
    persistent-to-immediate effect ratio after a structural change."""
    if lambda2_pre <= 0 or lambda2_post <= 0:
        raise DomainError("both lambda2 values must be positive")
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return 1.0 + alpha * (lambda2_post / lambda2_pre - 1.0)


def cascade_stress_test(
    graph: WeightedGraph,
    capitals: dict[str, float],
    shock: ForcingSpec,
    horizon: float,
    dt: float,
) -> CascadeResult:
    """Forced diffusion with endogenous simultaneous failures.

    The live subnetwork evolves in windows of length dt; at each window end
    every live bank whose distress has reached its capital fails, its
    remaining distress is logged as a loss and removed, and the operator is
    rebuilt on the survivors. Failure checks happen only at window ends. A
    window whose distress is no longer finite raises a DomainError; each
    run of windows is checked when a failure round or the horizon ends it.
    """
    graph.validate()
    if dt <= 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if horizon < dt:
        raise DomainError(f"horizon {horizon} is shorter than one window {dt}")
    missing = [b for b in graph.banks if b not in capitals]
    if missing:
        raise DomainError(f"capitals missing for banks: {', '.join(missing)}")
    cap = np.array([float(capitals[b]) for b in graph.banks])
    if np.any(cap <= 0):
        raise DomainError("all capitals must be positive")
    shock.validate(graph.n)

    live = np.arange(graph.n)
    lam, vec = eigenbasis(graph.weights)
    pre_lambda2 = float(_lambda2_of(lam))
    x = np.zeros(graph.n)
    f_full = np.asarray(shock.vector, dtype=float)

    failed: list[tuple[int, str]] = []
    losses: dict[str, float] = {}
    rounds = 0
    last_failure_time = 0.0

    n_windows = math.ceil(horizon / dt - 1e-12)
    if n_windows > MAX_WINDOWS:
        raise DomainError(f"horizon {horizon} and dt {dt} make {n_windows} windows, more than {MAX_WINDOWS}")
    times = np.zeros(n_windows + 1)
    distress = np.full((n_windows + 1, graph.n), np.nan)
    distress[0] = 0.0
    live_cap = cap
    start = 1  # the first window of the live set's run not yet checked
    # an overflowing window is caught by the finiteness check below, so
    # NumPy's own warnings stay silent
    with np.errstate(over="ignore", invalid="ignore"):
        stepper = _Stepper(lam, vec, f_full)
        for k in range(1, n_windows + 1):
            times[k] = min(k * dt, horizon)
            x = stepper.advance(x, shock.onset, times[k - 1], times[k])
            distress[k, live] = x
            hit = x >= live_cap
            failing = hit.any()
            if failing or k == n_windows:
                # windows start to k of the run; every earlier one is finite,
                # so the first one here that is not is the first of all
                finite = np.isfinite(distress[start:k + 1, live]).all(axis=1)
                if not finite.all():
                    bad = start + int(np.argmin(finite))
                    raise DomainError(f"window {bad}: distress is no longer finite (float overflow)")
                start = k + 1
            if failing:
                rounds += 1
                last_failure_time = float(times[k])
                for i in np.flatnonzero(hit):
                    bank = graph.banks[live[i]]
                    failed.append((k, bank))
                    losses[bank] = float(x[i])
                live, x = live[~hit], x[~hit]
                if not live.size:
                    times, distress = times[: k + 1], distress[: k + 1]
                    break
                live_cap = cap[live]
                lam, vec = eigenbasis(graph.weights[np.ix_(live, live)])
                stepper = _Stepper(lam, vec, f_full[live])

    # lam holds the survivors' eigenvalues whenever any bank survives
    post_lambda2 = float(_lambda2_of(lam)) if len(live) >= 2 else 0.0

    return CascadeResult(
        failed=failed,
        total_failures=len(failed),
        pre_lambda2=pre_lambda2,
        post_lambda2=post_lambda2,
        fragility_change=post_lambda2 - pre_lambda2,
        rounds=rounds,
        stabilization_time=last_failure_time,
        losses=losses,
        times=times,
        distress=distress,
    )


def greedy_deleverage(
    graph: WeightedGraph, targets: dict[str, float], step: float | None = None
) -> WeightedGraph:
    """Cut exposures to meet per-bank deleveraging targets while keeping
    the algebraic connectivity as low as the greedy search can.

    One move reduces a single edge by up to ``step``, chosen as the move
    with the lowest resulting lambda2 among banks still owing more than a
    step; ties (within a relative 1e-12) go to the lexicographically first
    (bank, counterparty) pair. A cut hits both endpoints' row sums, so a
    bank can be overshot by at most one step. The result is compared
    against a proportional-cut baseline and a warning is emitted if greedy
    ends up more fragile.

    Each move screens its candidates by bounds from one decomposition (see
    `_confirm_set`) and solves only those that can still win, which picks
    the same move as solving every candidate. GreedyStalled is raised when
    no admissible cut is left although the proportional baseline meets
    every target; DomainError("infeasible target ...") when it does not.
    """
    graph.validate()
    n = graph.n
    d = graph.degrees()
    target = np.zeros(n)
    for bank, amount in targets.items():
        if not math.isfinite(amount):
            raise DomainError(f"non-finite target for {bank}: {amount!r}")
        if amount < 0:
            raise DomainError(f"negative target for {bank}")
        target[graph.index(bank)] = float(amount)
    slack = 1e-9 * np.maximum(d, 1.0)
    if np.any(target > d + slack):
        bad = graph.banks[int(np.argmax(target - d))]
        raise DomainError(f"infeasible target: {bad} must cut more than it holds")
    positive = target[target > 0]
    if positive.size == 0:
        return WeightedGraph(list(graph.banks), graph.weights.copy(), graph.year)

    if step is None:
        step = 0.01 * float(positive.max())
    else:
        if not (math.isfinite(step) and step > 0):
            raise DomainError(f"step must be a positive finite number, got {step!r}")
        if step > positive.min() * (1 + 1e-12):
            raise DomainError(
                f"step {step} exceeds the smallest positive target {positive.min()}"
            )

    w = graph.weights.copy()
    remaining = target.copy()
    guard = step * (1 - 1e-9)
    moves = 0

    while True:
        active = np.nonzero(remaining >= guard)[0]
        if active.size == 0:
            break
        # admissible cuts in (bank, counterparty) order: a positive edge of
        # an owing bank, never pushing the counterparty's overshoot beyond
        # one step
        ii, cols = np.nonzero(w[active] > 0)
        rows = active[ii]
        cuts = np.minimum(step, w[rows, cols])
        ok = ~(remaining[cols] - cuts < -step * (1 + 1e-9))
        rows, cols, cuts = rows[ok], cols[ok], cuts[ok]
        if rows.size == 0:
            owing = graph.banks[int(active[0])]
            cut_base = d - _proportional_cut(graph, target).degrees()
            if np.all(cut_base >= target - slack):
                raise GreedyStalled(
                    f"greedy stalled after {moves} moves: no admissible cut left for "
                    f"{owing}, although the proportional baseline meets every target",
                    moves,
                )
            raise DomainError(f"infeasible target: no admissible cut left for {owing}")
        confirm = _confirm_set(w, rows, cols, cuts)
        lam2 = _trial_lambda2(w, rows[confirm], cols[confirm], cuts[confirm])
        best = None
        best_lambda = math.inf
        for k, value in zip(confirm, lam2):
            if value < best_lambda * (1 - 1e-12):
                best_lambda = value
                best = k
        i, j, cut = rows[best], cols[best], cuts[best]
        w[i, j] -= cut
        w[j, i] -= cut
        remaining[i] -= cut
        remaining[j] -= cut
        moves += 1

    result = WeightedGraph(list(graph.banks), w, graph.year)
    baseline = _proportional_cut(graph, target)
    lam_out = lambda2(w)
    lam_base = lambda2(baseline.weights)
    if lam_out > lam_base * (1 + 1e-9):
        warnings.warn(
            f"greedy deleveraging ended above the proportional baseline "
            f"({lam_out:.6g} > {lam_base:.6g})",
            stacklevel=2,
        )
    return result


def _confirm_set(w: np.ndarray, rows: np.ndarray, cols: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Indices of the candidate cuts whose lambda2 the move must solve.

    A stack that fits one solve is solved whole. Otherwise the closed set
    is: the candidate with the least upper bound, then every candidate
    whose lower bound lies within the tie tolerance of the largest upper
    bound taken so far, until none is added. Every candidate left out then
    lies above every confirmed value by more than the tie tolerance, so it
    can neither take the lead nor keep it, and the move is the one that
    solving every candidate would pick. When a bound reaches 0 (the graph
    or a trial may count as disconnected), every candidate is solved.
    """
    everything = np.arange(rows.size)
    if rows.size <= stack_members(len(w)):
        return everything
    lo, hi = lambda2_cut_bounds(w, rows, cols, cuts)
    if lo.min() <= 0.0:
        return everything
    top = hi.min()
    while True:
        confirm = np.nonzero(lo <= top / (1 - 1e-12))[0]
        reach = hi[confirm].max()
        if reach <= top:
            return confirm
        top = reach


def _trial_lambda2(w: np.ndarray, rows: np.ndarray, cols: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """lambda2 of w with each cut made alone, in stacks of stack_members(n)."""
    size = stack_members(len(w))
    out = np.empty(rows.size)
    for start in range(0, rows.size, size):
        part = slice(start, start + size)
        r, c = rows[part], cols[part]
        stack = np.repeat(w[None], r.size, axis=0)
        member = np.arange(r.size)
        stack[member, r, c] = stack[member, c, r] = w[r, c] - cuts[part]
        out[part] = lambda2_batch(stack)
    return out


def _proportional_cut(graph: WeightedGraph, target: np.ndarray) -> WeightedGraph:
    """Benchmark: each bank trims its edges pro rata; shared edges take the
    average of both endpoints' trim rates."""
    d = graph.degrees()
    rate = np.where(d > 0, target / np.maximum(d, 1e-300), 0.0)
    trim = (rate[:, None] + rate[None, :]) / 2.0
    w = graph.weights * np.clip(1.0 - trim, 0.0, 1.0)
    np.fill_diagonal(w, 0.0)
    w = (w + w.T) / 2.0
    return WeightedGraph(list(graph.banks), w, graph.year)


def load_scenario(path: str | Path, graph: WeightedGraph) -> tuple[ForcingSpec, dict[str, float], float, float]:
    """Parse a scenario JSON: shock map, onset, horizon, dt, capitals map.

    Every value must be a finite JSON number; strings, booleans, NaN and
    infinities are rejected with the file and the field named, and so are
    a dt that is not positive, a horizon shorter than one dt or of more
    than MAX_WINDOWS windows of length dt, and a capital that is not
    positive.
    """
    path = Path(path)
    doc = read_json_object(path, "scenario")
    for key in ("shock", "horizon", "dt", "capitals"):
        if key not in doc:
            raise InputError(f"{path}: missing scenario field {key!r}")
    known = set(graph.banks)
    for section in ("shock", "capitals"):
        if not isinstance(doc[section], dict):
            raise InputError(f"{path}: scenario field {section!r} must map banks to numbers")
        unknown = set(doc[section]) - known
        if unknown:
            raise InputError(
                f"{path}: {section} names banks not in the network: {', '.join(sorted(unknown))}"
            )
    uncovered = known - set(doc["capitals"])
    if uncovered:
        raise InputError(
            f"{path}: capitals missing for banks: {', '.join(sorted(uncovered))}"
        )
    shock = {b: json_number(path, f"field shock[{b!r}]", v) for b, v in doc["shock"].items()}
    capitals = {b: json_number(path, f"field capitals[{b!r}]", v) for b, v in doc["capitals"].items()}
    for b, v in capitals.items():
        if v <= 0:
            raise InputError(f"{path}: field capitals[{b!r}] must be positive, got {v!r}")
    onset, horizon, dt = (
        json_number(path, f"field {key!r}", doc.get(key, 0.0)) for key in ("onset", "horizon", "dt")
    )
    if dt <= 0:
        raise InputError(f"{path}: field 'dt' must be positive, got {dt!r}")
    if horizon < dt:
        raise InputError(f"{path}: scenario field 'horizon' {horizon!r} is shorter than one window of 'dt' {dt!r}")
    if horizon / dt > MAX_WINDOWS:
        raise InputError(
            f"{path}: scenario fields 'horizon' {horizon!r} and 'dt' {dt!r} make "
            f"{horizon / dt:.6g} windows, more than the {MAX_WINDOWS} allowed"
        )
    vector = np.array([shock.get(b, 0.0) for b in graph.banks])
    return ForcingSpec(vector, onset=onset), capitals, horizon, dt

