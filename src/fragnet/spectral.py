"""Graph Laplacians, dense symmetric eigensolves, fragility metrics.

The networks here are small and complete, so every solve is a dense LAPACK
call through NumPy (`numpy.linalg.eigvalsh`/`eigh`), and this is the only
module that makes one. Most callers need only lambda2 or the eigenvalues:
`lambda2_quotient` solves a stack of networks given by their twin quotients
(bootstrap resamples draw banks more than once) in one call,
`lambda2_batch(stack)` is its case of same-sized networks with every bank
once, `lambda2(weights)` is the one-network case, and `fragility_metrics`
asks for eigenvalues alone. Eigenvectors are computed only by `eigenbasis`,
for the diffusion dynamics, by `lambda2_cut_bounds`, which screens
candidate edge cuts from one decomposition, and by the low-rank
leave-one-out solve of `spectral_centralities`, which needs the full
graph's Fiedler vector and one eigenvector of each small secular matrix.
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

# leave-one-out lambda2 from the allocation's factors: years with fewer
# banks than this take the dense loop, which measured as fast or faster
# there (a tie at 61 banks, the paper's largest year; README)
_LOW_RANK_MIN_BANKS = 78
# certified bracket width, relative to lambda_n
_LOO_TOL = 1e-13
# a cap on Newton rounds per bank
_LOO_ROUNDS = 12
# explicit banks beyond which a remainder is solved densely
_LOO_MAX_EXPLICIT = 8
# matrix entries per chunk of banks
_LOO_CHUNK_ENTRIES = 2**16
# the largest root shift from rounding in the secular matrix, relative to
# the certified width, at which a count still certifies
_LOO_BLUR = 1.0 / 16.0

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


def spectral_centralities(
    graph: WeightedGraph,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
    base: float | None = None,
) -> dict[str, float]:
    """Drop in algebraic connectivity when each bank and its edges are
    removed; needs n >= 3.

    If a remainder is disconnected its lambda2 counts as 0, so that bank's
    centrality equals the full graph's lambda2. Each remainder is solved
    densely, unless `factors` gives the allocation's (A, G) (see
    `network.allocate`) and the year has at least _LOW_RANK_MIN_BANKS banks:
    then every remainder that `_leave_one_out_lambda2` certifies is solved on
    the low-rank form, and only the others densely. `base` is the full
    graph's lambda2 where the caller already holds it, as `fragility_metrics`
    gives it; else it is solved here.
    """
    if graph.n < 3:
        raise DomainError("spectral centrality needs at least 3 banks")
    graph.validate()
    w = graph.weights
    if base is None:
        base = lambda2(w)
    loo = np.full(graph.n, np.nan)
    if factors is not None and graph.n >= _LOW_RANK_MIN_BANKS:
        loo = _leave_one_out_lambda2(w, *factors)
    out: dict[str, float] = {}
    for i, bank in enumerate(graph.banks):
        if np.isnan(loo[i]):
            keep = [k for k in range(graph.n) if k != i]
            loo[i] = lambda2(w[np.ix_(keep, keep)])
        out[bank] = base - float(loo[i])
    return out


def _leave_one_out_lambda2(weights: np.ndarray, A: np.ndarray, G: np.ndarray) -> np.ndarray:
    """lambda2 of the network left when each bank is removed, from the
    allocation's factors; NaN for every bank this does not certify.

    The weights are W = U S U^T - diag(r), with U = [A, G] (n x 2C),
    S = [[0, I], [I, 0]] / 2 and r_i = (A G^T)_ii, so the Laplacian is
    L = diag(d + r) - U S U^T. Removing bank i leaves the same form on the
    other banks, with diagonal Delta_j = d_j + r_j - W_ji. The banks P whose
    Delta_j lies within the bracket stay explicit; the others, Q, are folded
    into the secular matrix of the bordered
    K(mu) = [[Delta_P - mu, U_P], [U_P^T, S^-1 - U_Q^T (Delta_Q - mu)^-1 U_Q]].
    By Haynsworth's inertia additivity the remainder has #neg K(mu) - C
    eigenvalues below mu, and K decreases in mu (Golub 1973; Arbenz & Golub
    1988). Every row of G has one entry, so K's G-block is a negative
    diagonal -g whenever each country keeps a bank in Q; its Schur
    complement H(mu), of order |P| + C, then has exactly as many negative
    eigenvalues as the remainder has below mu (the count), also decreases
    in mu, and lambda2 is the root of H's second-smallest eigenvalue.

    The bracket starts at the Rayleigh quotient of the full graph's Fiedler
    vector on the remaining banks (capped by lambda3, by interlacing) and at
    max(lambda2 - max_j W_ij, 2 * DISCONNECT_TOL * lambda_n). Safeguarded
    Newton steps close it to _LOO_TOL * lambda_n, and the count certifies
    each end. A bank stays NaN when an end fails its count, when it does not
    close within _LOO_ROUNDS, when its P has more than _LOO_MAX_EXPLICIT
    banks or leaves a country no bank in Q; every bank does when the full
    graph counts as disconnected, when a row of G has more than one entry,
    or when the factors do not reproduce the weights to _LOO_TOL * lambda_n
    in Frobenius norm. A certified lambda2
    lies above the disconnect floor, and lambda_n of a remainder never
    exceeds lambda_n, so the disconnect rule needs no solve there.
    """
    n, c = A.shape
    out = np.full(n, np.nan)
    lam, vec = eigenbasis(weights)
    v = vec[:, 1].copy()
    del vec
    lam_n = lam[-1]
    r = np.einsum("ic,ic->i", A, G)
    error = A @ G.T
    error += error.T
    error *= 0.5
    error -= weights
    error[np.arange(n), np.arange(n)] -= r
    tol = _LOO_TOL * lam_n
    # the factors' Laplacian lies within |error|_F of L in every eigenvalue
    single = np.all(np.count_nonzero(G, axis=1) == 1)
    if not (single and _connected(lam) and np.linalg.norm(error) <= tol):
        return out
    del error
    # scale the columns of one country to equal norms; U S U^T is unchanged
    norm_a, norm_g = np.linalg.norm(A, axis=0), np.linalg.norm(G, axis=0)
    alpha = np.sqrt(np.divide(norm_g, norm_a, out=np.ones(c), where=(norm_a > 0) & (norm_g > 0)))
    A, G = A * alpha, G / alpha
    # per bank j: a_j a_j^T and a_j g_j^T, so that one product with the
    # weights 1 / (Delta_j - mu) sums the secular blocks X and Y
    terms = np.empty((n, 2, c, c))
    np.einsum("ja,jb->jab", A, A, out=terms[:, 0])
    np.einsum("ja,jb->jab", A, G, out=terms[:, 1])
    terms = terms.reshape(n, -1)

    d = weights.sum(axis=1)
    delta = d + r
    # sum_j W_ij (v_i - v_j)^2, the Fiedler energy on bank i's edges
    t = v * v * d - 2.0 * v * (weights @ v) + weights @ (v * v)
    rest = (v @ v - v * v) - (v.sum() - v) ** 2 / (n - 1)
    quotient = np.divide(0.5 * t.sum() - t, rest, out=np.full(n, np.inf), where=rest > 0)
    hi = np.minimum(quotient, lam[2]) + tol
    lo = np.maximum(lam[1] - weights.max(axis=1), 2.0 * DISCONNECT_TOL * lam_n)

    member = (G != 0).astype(float)
    chunk = max(1, _LOO_CHUNK_ENTRIES // (4 * n + 4 * c * c))
    for start in range(0, n, chunk):
        part = np.arange(start, min(start + chunk, n))
        # row k: the diagonal Delta of bank part[k]'s remainder
        rows = delta - weights[part]
        rows[np.arange(len(part)), part] = np.inf
        explicit = rows <= hi[part, None]
        sizes = explicit.sum(axis=1)
        # each country must keep a bank in Q
        folded = (np.isfinite(rows) & ~explicit) @ member
        ok = (sizes <= _LOO_MAX_EXPLICIT) & (lo[part] < hi[part]) & (folded > 0).all(axis=1)
        for p in np.unique(sizes[ok]).tolist():
            at = np.nonzero(ok & (sizes == p))[0]
            kept = np.nonzero(explicit[at])[1].reshape(len(at), p)
            banks = part[at]
            out[banks] = _secular_roots(rows[at], kept, A, G, terms, lo[banks], hi[banks], tol)
    return out


def _secular_roots(rows, kept, A, G, terms, lo, hi, tol):
    """The leave-one-out lambda2 of `_leave_one_out_lambda2` for a chunk of
    banks with p explicit banks each; NaN where it does not certify.

    rows[k] holds the diagonal Delta of bank k's remainder (inf at the bank
    itself), kept[k] its explicit banks and [lo, hi] its starting bracket;
    all three are overwritten.
    """
    k, p = kept.shape
    c = A.shape[1]
    at = np.arange(k)[:, None]
    shifted = rows[at, kept]
    rows[at, kept] = np.inf
    # B = [G_P; 2I - Y] borders the G-block; H = [[Delta_P - mu, A_P],
    # [A_P^T, -X]] + B diag(1 / g) B^T
    head = np.zeros((k, p + c, p + c))
    head[:, :p, p:] = A[kept]
    head[:, p:, :p] = A[kept].transpose(0, 2, 1)
    border = np.zeros((k, p + c, c))
    border[:, :p] = G[kept]
    ip, ic = np.arange(p), np.arange(c)
    out = np.full(k, np.nan)
    lo_ok = np.zeros(k, dtype=bool)
    mu = hi.copy()
    act = np.arange(k)
    for _ in range(_LOO_ROUNDS):
        m = mu[act]
        rho = 1.0 / (rows[act] - m[:, None])
        sums = rho @ terms
        H = head[act]
        H[:, ip, ip] = shifted[act] - m[:, None]
        H[:, p:, p:] = -sums[:, : c * c].reshape(-1, c, c)
        B = border[act]
        B[:, p:] = -sums[:, c * c :].reshape(-1, c, c)
        B[:, p + ic, ic] += 2.0
        g = rho @ (G * G)
        H += (B / g[:, None, :]) @ B.transpose(0, 2, 1)
        ev, vecs = _eigh(H, eigvals_only=False)
        kappa = ev[:, 1]
        y = vecs[:, :, 1]
        # the slope y^T H' y, through the eliminated G-part B^T y / g
        z = np.einsum("kic,ki->kc", B, y) / g
        proj = y[:, p:] @ A.T + z @ G.T
        proj *= rho
        slope = -np.einsum("ki,ki->k", y[:, :p], y[:, :p]) - np.einsum("kj,kj->k", proj, proj)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = m - kappa / slope
            # the rounding in H moves the root by about eps |H| / |slope|
            blur = np.finfo(float).eps * np.linalg.norm(H, axis=(1, 2)) / -slope
        # kappa >= 0: at most one eigenvalue of the remainder lies below m
        below = kappa >= 0
        # an end that fails its count, or a count that cannot resolve the
        # bracket, certifies nothing
        fail = np.where(below, m >= hi[act], m <= lo[act]) | ~(blur <= _LOO_BLUR * tol)
        lo[act] = np.where(below, m, lo[act])
        hi[act] = np.where(below, hi[act], m)
        lo_ok[act] |= below
        done = lo_ok[act] & (hi[act] - lo[act] <= tol) & ~fail
        out[act[done]] = np.clip(newton[done], lo[act[done]], hi[act[done]])
        # step just past the Newton point, so that the next count lands on
        # the far side of the root once Newton is that close
        step = newton + np.where(below, 0.25 * tol, -0.25 * tol)
        inside = (step > lo[act]) & (step < hi[act])
        fallback = np.where(lo_ok[act], 0.5 * (lo[act] + hi[act]), lo[act])
        mu[act] = np.where(inside, step, fallback)
        act = act[~(done | fail)]
        if not len(act):
            break
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
