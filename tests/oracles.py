"""Independent reference implementations used to pin expected test values.

Everything here is deliberately slow and simple: cofactor determinants,
bisection on inertia counts, fixed-step integrators, exhaustive search.
Nothing imports from the package under test, so a bug there cannot leak
into its own expectations.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# eigenvalues by bisection on leading-principal-minor sign changes


def _det(m: list[list[float]]) -> float:
    """Cofactor-expansion determinant; fine for the n <= 5 oracle sizes."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0.0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _det(sub)
        total += term if j % 2 == 0 else -term
    return total


def _count_below(matrix: np.ndarray, x: float) -> int | None:
    """Number of eigenvalues of a symmetric matrix strictly below x.

    Sylvester's law on the LDL pivots: the count equals the sign changes in
    the sequence of leading principal minors of M - xI. The minors are plain
    LU determinants (the oracle's independence is the inertia/bisection
    logic, not determinant arithmetic; _det cross-checks them on tiny cases).
    Returns None when a minor vanishes exactly; the caller nudges the shift.
    """
    n = len(matrix)
    shifted = matrix - x * np.eye(n)
    count = 0
    prev = 1.0
    for k in range(1, n + 1):
        d = float(np.linalg.det(shifted[:k, :k]))
        if d == 0.0:
            return None
        if (d < 0.0) != (prev < 0.0):
            count += 1
        prev = d
    return count


def bisect_eigenvalues(matrix, max_iter: int = 100) -> list[float]:
    """All eigenvalues of a small symmetric matrix, ascending, via bisection.

    Gershgorin discs bound the spectrum; each eigenvalue is located as the
    infimum of shifts x with at least k+1 eigenvalues below x. Repeated
    eigenvalues come out repeated.
    """
    m = np.asarray(matrix, dtype=float)
    n = len(m)
    radii = np.abs(m).sum(axis=1) - np.abs(np.diag(m))
    lo0 = float(np.min(np.diag(m) - radii)) - 1.0
    hi0 = float(np.max(np.diag(m) + radii)) + 1.0
    scale = max(abs(lo0), abs(hi0), 1.0)

    def count(x: float) -> int:
        c = _count_below(m, x)
        nudge = 1e-13 * scale
        while c is None:
            x += nudge
            nudge *= 2.0
            c = _count_below(m, x)
        return c

    out = []
    for k in range(n):
        lo, hi = lo0, hi0
        for _ in range(max_iter):
            if hi - lo <= 1e-12 * scale:
                break
            mid = 0.5 * (lo + hi)
            if count(mid) >= k + 1:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return out


# ---------------------------------------------------------------------------
# the Laplacian, its pseudo-inverse and resistance distances


def laplacian(weights) -> np.ndarray:
    """L = D - W, with D the diagonal of row sums."""
    w = np.asarray(weights, dtype=float)
    return np.diag(w.sum(axis=1)) - w


def pseudo_inverse(weights) -> np.ndarray:
    """Moore-Penrose inverse of the Laplacian of a connected graph, through
    the identity L+ = (L + J/n)^-1 - J/n with J the all-ones matrix: one
    dense inverse, no eigendecomposition."""
    lap = laplacian(weights)
    n = len(lap)
    mean = np.full((n, n), 1.0 / n)
    return np.linalg.inv(lap + mean) - mean


def resistance_distances(weights) -> np.ndarray:
    """Pairwise resistance distances r_ij = P_ii + P_jj - 2 P_ij of a
    connected graph, P the Laplacian pseudo-inverse."""
    p = pseudo_inverse(weights)
    d = np.diag(p)
    return d[:, None] + d[None, :] - 2.0 * p


def centrality_reference(weights) -> np.ndarray:
    """Spectral centrality of each bank in order: lambda2 of the graph less
    lambda2 of the graph without that bank, each from its own dense
    eigvalsh. A lambda2 below 1e-8 lambda_n (the README's disconnect rule)
    counts as 0."""
    w = np.asarray(weights, dtype=float)

    def connectivity(m):
        lam = np.linalg.eigvalsh(laplacian(m))
        return lam[1] if lam[-1] > 0 and lam[1] >= 1e-8 * lam[-1] else 0.0

    base = connectivity(w)
    return np.array(
        [base - connectivity(np.delete(np.delete(w, i, axis=0), i, axis=1)) for i in range(len(w))]
    )


# ---------------------------------------------------------------------------
# bootstrap resamples, node by node


def resample_weights(E, home, basis, external, idx) -> np.ndarray:
    """Symmetric weights of the full resample network of the banks idx,
    one node per entry, so a bank drawn twice is two nodes.

    Node a, a copy of bank idx[a], splits its exposure E[idx[a], h] to each
    country h over the other nodes whose bank is at home in h, in proportion
    to their basis; exposure with no such node, and the external exposure,
    stay unallocated. Each node's allocated and unallocated exposure is
    checked to add up to the bank's whole exposure.
    """
    E, basis, external = (np.asarray(x, dtype=float) for x in (E, basis, external))
    node_home = np.asarray(home)[idx]
    node_basis = basis[idx]
    n, countries = len(idx), E.shape[1]
    directed = np.zeros((n, n))
    for a in range(n):
        others = node_home[None, :] == np.arange(countries)[:, None]
        others[:, a] = False
        mass = (others * node_basis).sum(axis=1)
        placed = mass > 0
        share = np.zeros((countries, n))
        share[placed] = others[placed] * node_basis / mass[placed, None]
        directed[a] = E[idx[a]] @ share
        unallocated = external[idx[a]] + E[idx[a], ~placed].sum()
        whole = E[idx[a]].sum() + external[idx[a]]
        assert math.isclose(directed[a].sum() + unallocated, whole, rel_tol=1e-12, abs_tol=1e-12)
    return (directed + directed.T) / 2.0


def resample_lambda2(E, home, basis, external, idx) -> float:
    """lambda2 of the full resample network of the banks idx (see
    `resample_weights`) by one n x n eigvalsh, 0 when disconnected."""
    return _connectivity(resample_weights(E, home, basis, external, idx))


# ---------------------------------------------------------------------------
# time-stepping integrators for dx/dt = -L x + f


def rk4_diffusion(weights, x0, duration: float, n_steps: int, forcing=None) -> np.ndarray:
    """Classic fixed-step RK4 for constant forcing (or none)."""
    lap = laplacian(weights)
    x = np.asarray(x0, dtype=float).copy()
    f = np.zeros(len(x)) if forcing is None else np.asarray(forcing, dtype=float)
    h = duration / n_steps

    def rhs(v):
        return f - lap @ v

    for _ in range(n_steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def euler_forced(weights, x0, duration: float, n_steps: int, forcing=None) -> np.ndarray:
    """Explicit Euler; first order, used where RK4 would feel too clever."""
    lap = laplacian(weights)
    x = np.asarray(x0, dtype=float).copy()
    f = np.zeros(len(x)) if forcing is None else np.asarray(forcing, dtype=float)
    h = duration / n_steps
    for _ in range(n_steps):
        x = x + h * (f - lap @ x)
    return x


# ---------------------------------------------------------------------------
# cascade by explicit Euler


def euler_cascade(
    banks: list[str],
    weights,
    capitals: dict[str, float],
    shock,
    onset: float,
    horizon: float,
    dt: float,
    substeps: int = 10_000,
):
    """Windowed cascade with Euler integration inside each window.

    Mirrors the product's bookkeeping (failure checks only at window ends,
    simultaneous removal, operator rebuilt on survivors) but integrates with
    an explicit first-order stepper at `substeps` steps per window instead
    of a spectral closed form. Returns (failed, losses, survivors) where
    failed is a list of (window_index, bank).
    """
    w_full = np.asarray(weights, dtype=float)
    cap = np.array([float(capitals[b]) for b in banks])
    f_full = np.asarray(shock, dtype=float)
    live = list(range(len(banks)))
    x = np.zeros(len(live))
    failed: list[tuple[int, str]] = []
    losses: dict[str, float] = {}

    n_windows = math.ceil(horizon / dt - 1e-12)
    t_prev = 0.0
    for k in range(1, n_windows + 1):
        t_end = min(k * dt, horizon)
        lap = laplacian(w_full[np.ix_(live, live)])
        f = f_full[live]
        h = (t_end - t_prev) / substeps
        for s in range(substeps):
            t = t_prev + s * h
            drive = f if t >= onset else np.zeros_like(f)
            x = x + h * (drive - lap @ x)
        t_prev = t_end

        hit = [i for i in range(len(live)) if x[i] >= cap[live[i]]]
        if hit:
            for i in hit:
                bank = banks[live[i]]
                failed.append((k, bank))
                losses[bank] = float(x[i])
            keep = [i for i in range(len(live)) if i not in set(hit)]
            live = [live[i] for i in keep]
            x = x[keep]
            if not live:
                break
    return failed, losses, [banks[i] for i in live]


# ---------------------------------------------------------------------------
# exhaustive deleveraging search


def _lambda2(weights: np.ndarray) -> float:
    eig = np.linalg.eigvalsh(weights.sum(axis=1) * np.eye(len(weights)) - weights)
    return float(eig[1]) if len(eig) > 1 else 0.0


def enumerate_deleverage(weights, targets, step: float) -> float:
    """Minimum final lambda2 over every per-step cut sequence.

    Same move rules as the greedy optimizer: a move picks a bank still owing
    at least ~one step and an incident positive edge, cuts min(step, w_ij)
    from it, and may overshoot the counterparty by at most one step. Depth-
    first over all orderings; exponential, so keep fixtures tiny.
    """
    w0 = np.asarray(weights, dtype=float).copy()
    remaining0 = np.asarray(targets, dtype=float).copy()
    n = len(w0)
    guard = step * (1 - 1e-9)
    best = [math.inf]
    seen: set[tuple] = set()

    def rec(w: np.ndarray, remaining: np.ndarray) -> None:
        key = tuple(np.round(w[np.triu_indices(n, 1)], 12)) + tuple(
            np.round(remaining, 12)
        )
        if key in seen:
            return
        seen.add(key)
        active = np.nonzero(remaining >= guard)[0]
        if active.size == 0:
            lam = _lambda2(w)
            if lam < best[0]:
                best[0] = lam
            return
        for i in active:
            for j in range(n):
                if j == i or w[i, j] <= 0:
                    continue
                cut = min(step, w[i, j])
                if remaining[j] - cut < -step * (1 + 1e-9):
                    continue
                w2 = w.copy()
                w2[i, j] -= cut
                w2[j, i] -= cut
                r2 = remaining.copy()
                r2[i] -= cut
                r2[j] -= cut
                rec(w2, r2)

    rec(w0, remaining0)
    return best[0]


def _connectivity(weights: np.ndarray) -> float:
    """lambda2 of D - W by its own eigvalsh, 0 when lambda2 < 1e-8 lambda_n."""
    eig = np.linalg.eigvalsh(np.diag(weights.sum(axis=1)) - weights)
    if eig[-1] > 0 and eig[1] >= 1e-8 * eig[-1]:
        return float(eig[1])
    return 0.0


def greedy_reference(weights, targets, step: float):
    """Greedy deleveraging by brute force: one solve per candidate cut.

    Same rules as the optimizer: a move cuts min(step, w_ij) from a positive
    edge of a bank still owing at least ~one step, never pushing the
    counterparty's overshoot beyond one step, and takes the lowest lambda2;
    a later candidate takes the lead only when lower by a relative 1e-12.
    Returns (weights, moves, stalled), with stalled the first owing bank's
    index when no admissible cut is left, else None.
    """
    w = np.asarray(weights, dtype=float).copy()
    remaining = np.asarray(targets, dtype=float).copy()
    n = len(w)
    guard = step * (1 - 1e-9)
    moves = 0
    while True:
        active = [i for i in range(n) if remaining[i] >= guard]
        if not active:
            return w, moves, None
        best = None
        best_lambda = math.inf
        for i in active:
            for j in range(n):
                if j == i or w[i, j] <= 0:
                    continue
                cut = min(step, w[i, j])
                if remaining[j] - cut < -step * (1 + 1e-9):
                    continue
                trial = w.copy()
                trial[i, j] = trial[j, i] = w[i, j] - cut
                lam = _connectivity(trial)
                if lam < best_lambda * (1 - 1e-12):
                    best_lambda = lam
                    best = (i, j, cut)
        if best is None:
            return w, moves, active[0]
        i, j, cut = best
        w[i, j] -= cut
        w[j, i] -= cut
        remaining[i] -= cut
        remaining[j] -= cut
        moves += 1


# ---------------------------------------------------------------------------
# brute-force conductance for Cheeger checks


def min_conductance(weights) -> float:
    """min over cuts S of w(boundary) / min(vol S, vol S-complement)."""
    w = np.asarray(weights, dtype=float)
    n = len(w)
    deg = w.sum(axis=1)
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):
        side = [(mask >> i) & 1 for i in range(n)]
        vol_s = sum(deg[i] for i in range(n) if side[i])
        vol_c = deg.sum() - vol_s
        if vol_s == 0 or vol_c == 0:
            continue
        boundary = sum(
            w[i, j] for i in range(n) for j in range(n) if side[i] and not side[j]
        )
        best = min(best, boundary / min(vol_s, vol_c))
    return best
