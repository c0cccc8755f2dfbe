"""Graph Laplacians, dense symmetric eigensolves, fragility metrics.

The networks here are small and complete, so every solve is a dense LAPACK
call through NumPy (`numpy.linalg.eigvalsh`/`eigh`), and this is the only
module that makes one. Most callers need only lambda2 or the eigenvalues:
`lambda2_quotient` solves a stack of networks given by their twin quotients
(bootstrap resamples draw banks more than once) in one call,
`lambda2_batch(stack)` is its case of same-sized networks with every bank
once, `lambda2(weights)` is the one-network case, and `fragility_metrics`
asks for eigenvalues alone. Eigenvectors are computed only by `eigenbasis`,
for the diffusion dynamics, and by `lambda2_cut_bounds`, which screens
candidate edge cuts from one decomposition.
A graph counts as disconnected when lambda2 < DISCONNECT_TOL * lambda_n;
floating-point zero eigenvalues are never exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .network import WeightedGraph

DISCONNECT_TOL = 1e-8

# matrix entries per stacked solve; see stack_members
_CHUNK_ENTRIES = 2**15

# backward-error margin of lambda2_cut_bounds, relative to lambda_n: some
# 1e4 times n * eps at the sizes here
_CUT_MARGIN = 1e-10
# a cap on bracketing rounds; brackets close in a handful
_CUT_ITERATIONS = 30


@dataclass
class FragilityMetrics:
    lambda2: float
    spectral_gap: float
    lambda3: float
    spectral_radius: float
    radius_ratio: float
    effective_resistance: float
    normalized_lambda2: float
    avg_resistance_distance: float
    connected: bool
    # ascending eigenvalues of the standard Laplacian the fields come from
    eigenvalues: np.ndarray = field(repr=False)


def _rule(second: np.ndarray, largest: np.ndarray) -> np.ndarray:
    """The disconnect rule on the second-smallest and the largest eigenvalue."""
    return (largest > 0) & (second >= DISCONNECT_TOL * largest)


def _connected(lam: np.ndarray) -> np.ndarray:
    """The disconnect rule on ascending eigenvalues, along the last axis."""
    return _rule(lam[..., 1], lam[..., -1])


def _lambda2_of(lam: np.ndarray) -> np.ndarray:
    return np.where(_connected(lam), lam[..., 1], 0.0)


def _laplacian_entries(weights: np.ndarray) -> np.ndarray:
    """L = D - W for one (n, n) matrix or a (k, n, n) stack."""
    entries = -weights
    diag = np.arange(weights.shape[-1])
    entries[..., diag, diag] = weights.sum(axis=-1)
    return entries


def _normalized_entries(weights: np.ndarray, d: np.ndarray) -> np.ndarray:
    s = 1.0 / np.sqrt(d)
    scaled = weights * s[:, None] * s[None, :]
    scaled = (scaled + scaled.T) / 2.0
    return np.eye(len(d)) - scaled


def _eigh(entries: np.ndarray, eigvals_only: bool):
    """Ascending eigenvalues (and eigenvector columns unless eigvals_only) of
    a symmetric matrix or a stack of them."""
    try:
        if eigvals_only:
            return np.linalg.eigvalsh(entries)
        return np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        raise DomainError(
            f"eigensolver failed to converge within its iteration budget: {exc}"
        ) from exc


def lambda2_quotient(
    laplacians: np.ndarray, twins: np.ndarray | None = None, counts: np.ndarray | None = None
) -> np.ndarray:
    """Algebraic connectivity of each network in a stack given by its twin
    quotient; 0 for a disconnected member.

    A network whose bank j appears as counts[..., j] twin copies has the
    eigenvalues of its m x m quotient Laplacian S (laplacians is a stack of
    them) together with each twin value twins[..., j] repeated
    counts[..., j] - 1 times: a vector
    that sums to zero over the copies of one bank and vanishes elsewhere is
    an eigenvector (equitable partitions; Godsil & Royle, Algebraic Graph
    Theory, 2001, ch. 9). lambda2 is the second-smallest of that union and
    the disconnect rule takes lambda_n as its largest. Without counts every
    bank is there once and S is the Laplacian itself. One eigenvalue-only
    solve covers the stack, member for member.
    """
    lam = _eigh(laplacians, eigvals_only=True)
    if counts is None:
        return _lambda2_of(lam)
    twice = counts > 1
    # lambda1 = 0 is the quotient's (the constant vector), so a twin value
    # repeated can rank second only through its first copy
    low = np.concatenate((lam[..., :2], np.where(twice, twins, np.inf)), axis=-1)
    second = np.partition(low, 1, axis=-1)[..., 1]
    largest = np.maximum(lam[..., -1], np.where(twice, twins, -np.inf).max(axis=-1))
    return np.where(_rule(second, largest), second, 0.0)


def lambda2_batch(weights: np.ndarray) -> np.ndarray:
    """Algebraic connectivity of each network in a (k, n, n) stack of weight
    matrices, from one eigenvalue-only solve; 0 for a disconnected member.

    The case of `lambda2_quotient` with every bank once. The weights are
    taken as given (square, symmetric, non-negative): public entry points
    validate their graphs once, not once per solve.
    """
    return lambda2_quotient(_laplacian_entries(weights))


def stack_members(n: int) -> int:
    """Networks of n banks per stacked solve: _CHUNK_ENTRIES // n**2, at least 1."""
    return max(1, _CHUNK_ENTRIES // n**2)


def lambda2(weights: np.ndarray) -> float:
    """Algebraic connectivity of L = D - W; 0 for a disconnected graph.

    The one-network case of `lambda2_batch`, with the same assumptions.
    """
    return float(lambda2_batch(weights[None])[0])


def eigenbasis(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of L = D - W with orthonormal eigenvector
    columns, for the diffusion dynamics.

    The weights are taken as given, as in `lambda2_batch`. Eigenvector signs
    are whatever the solver returns.
    """
    return _eigh(_laplacian_entries(weights), eigvals_only=False)


def lambda2_cut_bounds(
    weights: np.ndarray, rows: np.ndarray, cols: np.ndarray, cuts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= lambda2 <= hi for each trial network that lowering the
    entries (i, j) and (j, i) of `weights` by c would give, for the
    candidate cuts i = rows[k], j = cols[k], c = cuts[k], from one
    eigendecomposition of the current Laplacian.

    A cut is the rank-one downdate L - c u u^T with u = e_i - e_j. With
    L = V diag(lam) V^T and z = V^T u, a point mu between lambda1 and lambda2
    lies below the trial's lambda2 exactly when the secular function
    1 - c sum_k z_k^2 / (lam_k - mu) is positive (Golub 1973; Bunch, Nielsen
    & Sorensen 1978), which costs O(n) per point. The sum keeps the zero
    mode, whose z_1 is only rounding, so that the sign is exact for the
    computed decomposition. Each end of a bracket is certified by that sign;
    Newton steps from above and chords from below, both taken on the concave
    1 / sum_k z_k^2 / (lam_k - mu) - c, close the brackets to 1e-12 lambda_n
    in a few rounds. The ends are then widened by a backward-error margin,
    so that they bound the value `lambda2_batch` computes for the trial.

    lo is 0 wherever the trial's lambda2 may lie below 2 * DISCONNECT_TOL *
    lambda_n, so may count as disconnected, and for every candidate when the
    current network already does.
    """
    lam, vec = eigenbasis(weights)
    margin = _CUT_MARGIN * lam[-1]
    lo = np.zeros(len(rows))
    # a downdate never raises an eigenvalue
    hi = np.full(len(rows), lam[1])
    if not _connected(lam):
        return lo, hi + margin
    floor = 2.0 * DISCONNECT_TOL * lam[-1]
    # the pole at lambda2 is never evaluated
    cap = np.nextafter(lam[1], 0.0)
    z2 = (vec[rows] - vec[cols]) ** 2
    both = np.vstack((z2, z2))
    twice = np.concatenate((cuts, cuts))
    # sum_k z_k^2 / (lam_k - mu) and its derivative at the two ends; at the
    # pole the sum is infinite and the derivative unknown
    s_lo = np.full(len(rows), np.nan)
    s_hi = np.full(len(rows), np.inf)
    ds_hi = np.full(len(rows), np.nan)

    # first points: the disconnect floor from below, and from above the
    # least lam_k - c z_k^2, where the term k alone makes the sum reach 1/c
    p_lo = np.full(len(rows), floor)
    p_hi = np.min(lam[1:] - cuts[:, None] * z2[:, 1:], axis=1)
    resolution = 1e-2 * margin
    for _ in range(_CUT_ITERATIONS):
        start = np.maximum(lo, floor)
        stop = np.minimum(hi, cap)
        points = np.clip(np.concatenate((p_lo, p_hi)), np.tile(start, 2), np.tile(stop, 2))
        r = 1.0 / (lam - points[:, None])
        t = both * r
        s = t.sum(axis=1)
        ds = (t * r).sum(axis=1)
        below = twice * s < 1.0
        moved = False
        for half in (slice(0, len(rows)), slice(len(rows), None)):
            p, b = points[half], below[half]
            up = ~b & (p < hi)
            hi[up], s_hi[up], ds_hi[up] = p[up], s[half][up], ds[half][up]
            down = b & (p > lo)
            lo[down], s_lo[down] = p[down], s[half][down]
            moved = moved or up.any() or down.any()
        if not moved or np.all((hi - lo <= resolution) | (hi <= floor)):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_hi = 1.0 / s_hi - cuts
            phi_lo = 1.0 / s_lo - cuts
            p_hi = hi + phi_hi * s_hi**2 / ds_hi
            p_lo = lo + phi_lo * (hi - lo) / (phi_lo - phi_hi)
        # a step that lands within rounding of the root cannot be
        # certified from its side; once a step comes that close to the
        # other end, try just inside that end instead
        p_hi = np.maximum(np.where(np.isfinite(p_hi), p_hi, hi), lo + 0.5 * resolution)
        p_lo = np.minimum(np.where(np.isfinite(p_lo), p_lo, lo), hi - 0.5 * resolution)
    return np.where(lo > 0, lo - margin, 0.0), hi + margin


def fragility_metrics(graph: WeightedGraph) -> FragilityMetrics:
    """Every per-network fragility measure from the eigenvalues of the
    standard and the normalized Laplacian.

    The mean resistance distance comes from the Kirchhoff index identity
    sum_{i<j} r_ij = n * sum_{k>=2} 1/lambda_k (Gutman & Mohar 1996), so no
    pseudo-inverse is formed. Disconnection is a reported state, not an
    error: lambda2 comes back 0 with connected=False and the
    resistance-based fields are infinite.
    """
    graph.validate()
    lam = _eigh(_laplacian_entries(graph.weights), eigvals_only=True)
    n = graph.n
    connected = bool(_connected(lam))
    lam2 = float(_lambda2_of(lam))
    lambda_n = float(lam[-1])

    if connected:
        eff = float(np.sum(1.0 / lam[1:]))
        avg_r = 2.0 * eff / (n - 1)
        ratio = lambda_n / lam2
    else:
        eff = math.inf
        avg_r = math.inf
        ratio = math.inf

    d = graph.degrees()
    if np.all(d > 0):
        norm_l2 = float(_lambda2_of(_eigh(_normalized_entries(graph.weights, d), eigvals_only=True)))
    else:
        norm_l2 = math.nan

    return FragilityMetrics(
        lambda2=lam2,
        spectral_gap=lam2,
        lambda3=float(lam[2]) if n >= 3 else math.nan,
        spectral_radius=lambda_n,
        radius_ratio=ratio,
        effective_resistance=eff,
        normalized_lambda2=norm_l2,
        avg_resistance_distance=avg_r,
        connected=connected,
        eigenvalues=lam,
    )


def mixing_time(lambda2: float, epsilon: float) -> float:
    """Time for diffusion to come within factor epsilon of uniform: ln(1/eps)/lambda2."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    if lambda2 <= 0:
        raise DomainError(f"mixing time needs lambda2 > 0, got {lambda2}")
    return -math.log(epsilon) / lambda2


def spectral_centralities(graph: WeightedGraph) -> dict[str, float]:
    """Drop in algebraic connectivity when each bank and its edges are
    removed; needs n >= 3.

    If a remainder is disconnected its lambda2 counts as 0, so that bank's
    centrality equals the full graph's lambda2.
    """
    if graph.n < 3:
        raise DomainError("spectral centrality needs at least 3 banks")
    graph.validate()
    w = graph.weights
    base = lambda2(w)
    out: dict[str, float] = {}
    for i, bank in enumerate(graph.banks):
        keep = [k for k in range(graph.n) if k != i]
        out[bank] = base - lambda2(w[np.ix_(keep, keep)])
    return out


def complete_graph_lambda2(n: int, total_exposure: float) -> float:
    """Closed form for a uniform complete graph: 2 E / (n - 1).

    Decreasing n at constant total exposure raises the value, which is the
    consolidation effect the rest of the package measures empirically.
    """
    if n < 2:
        raise DomainError(f"need at least 2 banks, got {n}")
    if total_exposure < 0:
        raise DomainError(f"total exposure must be non-negative, got {total_exposure}")
    return 2.0 * total_exposure / (n - 1)


def quadratic_form(graph: WeightedGraph, x: np.ndarray) -> float:
    """Half the weighted sum of squared endpoint differences, equal to x'Lx."""
    x = np.asarray(x, dtype=float)
    if x.shape != (graph.n,):
        raise DomainError(f"vector length {x.shape} does not match {graph.n} banks")
    diff = x[:, None] - x[None, :]
    return float(0.5 * np.sum(graph.weights * diff * diff))
