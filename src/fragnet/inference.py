"""Treatment-effect estimation on a fragility series.

Implements the level and detrended difference estimators, the
bank-resampling percentile bootstrap, placebo repartitions, balanced-panel
and subgroup restrictions, the consolidation elasticity, and the policy
calculators built on spectral centrality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InputError
from .network import WeightedGraph, YearArrays, allocate_arrays, year_arrays
from .panel import ExposurePanel, parse_nonnegative, parse_year, read_csv
from .spectral import lambda2, lambda2_quotient, stack_members

# fewest bootstrap replications whose percentile interval is reported
MIN_BOOTSTRAP_B = 100


@dataclass
class FragilitySeries:
    """Per-year lambda2 observations split into pre and post periods."""

    points: list[tuple[int, float]]
    pre_years: tuple[int, ...]
    post_years: tuple[int, ...]

    def validate(self) -> None:
        years = [y for y, _ in self.points]
        if sorted(years) != years or len(set(years)) != len(years):
            raise DomainError("series years must be strictly increasing")
        pre, post = set(self.pre_years), set(self.post_years)
        if not pre or not post:
            raise DomainError("both pre and post periods must be non-empty")
        if pre & post:
            raise DomainError(f"pre and post overlap: {sorted(pre & post)}")
        if pre | post != set(years):
            raise DomainError("pre and post years must cover the series exactly")

    def value(self, year: int) -> float:
        for y, v in self.points:
            if y == year:
                return v
        raise DomainError(f"series has no year {year}")


def make_series(values: dict[int, float], pre_years, post_years) -> FragilitySeries:
    series = FragilitySeries(
        points=sorted((int(y), float(v)) for y, v in values.items()),
        pre_years=tuple(sorted(pre_years)),
        post_years=tuple(sorted(post_years)),
    )
    series.validate()
    return series


@dataclass
class EffectRow:
    beta: float
    # None where the baseline is 0 and a percent change is undefined
    pct_change: float | None


@dataclass
class DidEstimate:
    variant: str  # "level" or "detrended"
    baseline_alpha: float
    effects: dict[int, EffectRow]
    trend: dict | None = None
    counterfactuals: dict[int, float] | None = None


@dataclass
class BootstrapResult:
    B: int
    master_seed: int
    variant: str
    method: str
    pre_years: tuple[int, ...]
    post_years: tuple[int, ...]
    replicates: dict[int, np.ndarray]
    ci: dict[int, tuple[float, float]]
    p_values: dict[int, float]
    # per year, the resamples that count as disconnected (lambda2 = 0)
    disconnected: dict[int, int]


def _pre_mean(series: FragilitySeries) -> float:
    with np.errstate(over="ignore"):
        return float(np.mean([series.value(y) for y in series.pre_years]))


def _finite(est: DidEstimate) -> DidEstimate:
    """The estimate, or a DomainError naming its estimator when a number in
    it has left the float range."""
    numbers = [est.baseline_alpha, *(est.trend or {}).values(), *(est.counterfactuals or {}).values()]
    numbers += [v for row in est.effects.values() for v in (row.beta, row.pct_change) if v is not None]
    if not all(math.isfinite(v) for v in numbers):
        raise DomainError(f"{est.variant} estimator: a result is beyond the float range")
    return est


def _pct(beta: float, base: float) -> float | None:
    """100 beta / base, None at a zero base. The product is taken first;
    only where it leaves the float range is the ratio taken first."""
    if base == 0:
        return None
    pct = 100.0 * beta / base
    return pct if math.isfinite(pct) else 100.0 * (beta / base)


def did_level(series: FragilitySeries) -> DidEstimate:
    """Effects relative to the pre-period mean.

    beta(y) = lambda2(y) - alpha with alpha the average pre value; percent
    changes are relative to alpha, and undefined (None) when alpha is 0.
    An estimate beyond the float range is a DomainError.
    """
    series.validate()
    alpha = _pre_mean(series)
    effects = {}
    for y in series.post_years:
        beta = series.value(y) - alpha
        effects[y] = EffectRow(beta, _pct(beta, alpha))
    return _finite(DidEstimate("level", alpha, effects))


def ols_trend(points: list[tuple[float, float]]) -> dict[str, float]:
    """Least squares of value on year via the closed-form normal equations.

    R squared is 0 by convention when the values are constant.
    """
    if len(points) < 2:
        raise DomainError("trend fit needs at least 2 points")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0:
        raise DomainError("trend fit needs at least 2 distinct years")
    # values near the float range overflow here; callers check the result
    with np.errstate(over="ignore", invalid="ignore"):
        gamma1 = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
        gamma0 = float(y.mean() - gamma1 * x.mean())
        residuals = y - (gamma0 + gamma1 * x)
        sst = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(np.sum(residuals**2)) / sst if sst > 0 else 0.0
    return {"gamma0": gamma0, "gamma1": gamma1, "r_squared": r2}


def did_detrended(series: FragilitySeries) -> DidEstimate:
    """Effects relative to the linear trend fitted on pre-years only.

    The counterfactual for a post year is the trend's extrapolation; the
    effect is the observed value minus it, and percent changes are relative
    to the counterfactual, undefined (None) where it is 0. An estimate
    beyond the float range is a DomainError.
    """
    series.validate()
    if len(series.pre_years) < 2:
        raise DomainError("detrended estimation needs at least 2 pre-years")
    pre_points = [(float(y), series.value(y)) for y in series.pre_years]
    trend = ols_trend(pre_points)
    alpha = _pre_mean(series)
    effects = {}
    counterfactuals = {}
    for y in series.post_years:
        cf = trend["gamma0"] + trend["gamma1"] * y
        beta = series.value(y) - cf
        effects[y] = EffectRow(beta, _pct(beta, cf))
        counterfactuals[y] = cf
    return _finite(DidEstimate("detrended", alpha, effects, trend=trend, counterfactuals=counterfactuals))


def placebo_test(series: FragilitySeries, false_treatment_year: int) -> DidEstimate:
    """Re-run the level estimator pretending treatment hit inside the pre-period.

    Pre-years strictly before the false year form the baseline; pre-years at
    or after it play the post period. True post-years are excluded entirely.
    """
    series.validate()
    pre = sorted(series.pre_years)
    baseline = [y for y in pre if y < false_treatment_year]
    pseudo_post = [y for y in pre if y >= false_treatment_year]
    if not baseline or not pseudo_post:
        raise DomainError(
            f"false treatment year {false_treatment_year} must fall strictly "
            f"inside the pre-period {pre}"
        )
    sub = make_series(
        {y: series.value(y) for y in pre}, pre_years=baseline, post_years=pseudo_post
    )
    return did_level(sub)


def balanced_panel(panel: ExposurePanel) -> ExposurePanel:
    """Restrict the panel to banks present in every year."""
    common: set[str] | None = None
    for year in panel.years:
        leis = {r.lei for r in panel.records[year]}
        common = leis if common is None else common & leis
    if not common or len(common) < 2:
        raise DomainError("fewer than 2 banks are present in every year")
    records = {
        year: [r for r in panel.records[year] if r.lei in common]
        for year in panel.years
    }
    return ExposurePanel(years=list(panel.years), records=records)


def subgroup_lambda2(graph: WeightedGraph, members: set[str]) -> float:
    """Algebraic connectivity of the node-induced subgraph."""
    members = set(members)
    if len(members) < 2:
        raise DomainError("a subgroup needs at least 2 banks")
    keep = sorted(graph.index(b) for b in members)
    graph.validate()
    return lambda2(graph.weights[np.ix_(keep, keep)])


def consolidation_elasticity(stats_a: dict, stats_b: dict) -> dict[str, float]:
    """Observed and predicted elasticity of lambda2 with respect to bank count.

    Observed uses simple percent changes between the two snapshots; predicted
    is -1 + log(E_b/E_a) / log(n_b/n_a), the complete-graph closed form's
    response to simultaneous changes in n and total exposure.
    """
    for label, s in (("first", stats_a), ("second", stats_b)):
        for key in ("n", "lambda2", "total_exposure"):
            if key not in s:
                raise InputError(f"{label} snapshot is missing {key!r}")
    n_a, n_b = int(stats_a["n"]), int(stats_b["n"])
    l_a, l_b = float(stats_a["lambda2"]), float(stats_b["lambda2"])
    e_a, e_b = float(stats_a["total_exposure"]), float(stats_b["total_exposure"])
    if n_a == n_b:
        raise DomainError("snapshots have the same bank count, elasticity undefined")
    if min(n_a, n_b) < 2 or l_a <= 0 or min(e_a, e_b) <= 0:
        raise DomainError("snapshots need n >= 2, lambda2_a > 0 and positive exposure")
    observed = ((l_b - l_a) / l_a) / ((n_b - n_a) / n_a)
    predicted = -1.0 + math.log(e_b / e_a) / math.log(n_b / n_a)
    return {"elasticity": observed, "predicted_elasticity": predicted}


def policy_calculators(
    lambda2: float,
    centralities: dict[str, float],
    params: dict,
    graph: WeightedGraph | None = None,
    capitals: dict[str, float] | None = None,
) -> dict:
    """Capital buffers, the dynamic coupling limit, and limit violations.

    buffer_i = kappa * centrality_i * rwa_i; the coupling fraction is
    alpha0 * (lambda2_target / lambda2) ** beta. When a graph and capitals
    are supplied, every edge above alpha_t * min(capital_i, capital_j) is
    flagged.
    """
    if lambda2 <= 0:
        raise DomainError(f"policy calculators need lambda2 > 0, got {lambda2}")
    kappa = float(params.get("kappa", 0.0))
    alpha0 = float(params.get("alpha0", 0.0))
    beta = float(params.get("beta", 1.0))
    target = float(params.get("lambda2_target", lambda2))
    if kappa < 0 or alpha0 < 0 or beta < 0:
        raise DomainError("kappa, alpha0 and beta must be non-negative")
    rwa = params.get("rwa", {})
    buffers = {
        bank: kappa * sc * float(rwa.get(bank, 0.0)) for bank, sc in centralities.items()
    }
    alpha_t = alpha0 * (target / lambda2) ** beta

    flagged = []
    if graph is not None and capitals is not None:
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                w = graph.weights[i, j]
                if w <= 0:
                    continue
                limit = alpha_t * min(
                    float(capitals[graph.banks[i]]), float(capitals[graph.banks[j]])
                )
                if w > limit:
                    flagged.append((graph.banks[i], graph.banks[j], float(w), limit))
    return {"buffers": buffers, "alpha_t": alpha_t, "flagged_edges": flagged}


def _quotients(entries: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient Laplacians and twin values of a (k, m, m) stack of directed
    allocations whose banks have counts[d, k] copies each.

    With W the symmetrized weights, S = diag(sum_{l != k} c_l W_kl) -
    C^(1/2) W_off C^(1/2) and the twin value of bank k is
    sum_{l != k} c_l W_kl + c_k W_kk, W_kk being the weight between two
    copies of k.
    """
    # twice the symmetrized weights; halving is exact, so it is folded
    # into the products below
    doubled = entries + entries.transpose(0, 2, 1)
    diag = np.arange(doubled.shape[-1])
    between_copies = entries[:, diag, diag]
    doubled[:, diag, diag] = 0.0
    degree = 0.5 * np.einsum("dkl,dl->dk", doubled, counts)
    root = np.sqrt(counts)
    laplacians = doubled * (-0.5 * root[:, :, None] * root[:, None, :])
    laplacians[:, diag, diag] = degree
    return laplacians, degree + counts * between_copies


def lambda2_of_resamples(arrays: YearArrays, method: str, draws: np.ndarray) -> np.ndarray:
    """Algebraic connectivity of the resample network of each row of a
    (B, n) array of drawn bank indices; 0 for a disconnected resample.

    A bank drawn c times enters as c twin nodes, so each row is solved on
    its m x m quotient over its m distinct banks (`lambda2_quotient`), never
    as the n x n network. Rows are grouped by m and each group is solved in
    chunks of `stack_members(m)`, one stacked call per chunk; every member
    is solved on its own, so a row's value does not depend on its group.
    """
    B, n = draws.shape
    ordered = np.sort(draws, axis=1)
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    distinct = first.sum(axis=1)
    out = np.empty(B)
    for m in np.unique(distinct).tolist():
        members = np.nonzero(distinct == m)[0]
        starts = np.nonzero(first[members])[1].reshape(-1, m)
        banks = np.take_along_axis(ordered[members], starts, axis=1)
        counts = np.diff(starts, axis=1, append=n).astype(float)
        chunk = stack_members(m)
        for lo in range(0, len(members), chunk):
            part = slice(lo, lo + chunk)
            entries, _ = allocate_arrays(arrays, method, banks[part], counts[part])
            laplacians, twins = _quotients(entries, counts[part])
            out[members[part]] = lambda2_quotient(laplacians, twins, counts[part])
    return out


def bootstrap_did(
    panel: ExposurePanel,
    B: int,
    seed: int,
    method: str = "equal",
    variant: str = "level",
    pre_years=(2014, 2016, 2018),
    post_years=(2021, 2023),
) -> BootstrapResult:
    """Percentile bootstrap of the treatment effects by resampling banks.

    Per replicate and per year, n_t banks are drawn with replacement from
    that year's n_t banks; a bank drawn k times enters the rebuilt network
    as k distinct nodes and counterparty denominators count multiplicity.
    A disconnected resample contributes lambda2 = 0 as a valid draw.

    Replicate b draws from its own stream derived from (seed, b), so results
    are identical regardless of evaluation order, and two runs with the same
    arguments are byte-identical when serialized. The resamples of a year are
    then solved on their twin quotients by `lambda2_of_resamples`, and the
    result counts, per year, the resamples that came out disconnected.

    Two-sided p-values are 2 * min(share of draws <= 0, share > 0); the 95%
    interval takes the 2.5th and 97.5th percentiles with linear interpolation.
    """
    if B < MIN_BOOTSTRAP_B:
        raise DomainError(f"bootstrap needs B >= {MIN_BOOTSTRAP_B}, got {B}")
    if variant not in ("level", "detrended"):
        raise InputError(f"unknown estimator variant {variant!r}")
    pre_years = tuple(sorted(int(y) for y in pre_years))
    post_years = tuple(sorted(int(y) for y in post_years))
    if set(pre_years) & set(post_years):
        raise DomainError("pre and post years overlap")
    if variant == "detrended" and len(pre_years) < 2:
        raise DomainError("detrended bootstrap needs at least 2 pre-years")
    all_years = pre_years + post_years
    missing = [y for y in all_years if y not in panel.records]
    if missing:
        raise InputError(f"panel lacks configured years: {missing}")

    arrays = {y: year_arrays(panel.records[y], warn=False, year=y) for y in all_years}
    sizes = {y: len(arrays[y].leis) for y in all_years}
    master = int(seed) % (1 << 64)

    # year_arrays guarantees n_t >= 2, so every draw is a network
    draws = {y: np.empty((B, sizes[y]), dtype=np.intp) for y in all_years}
    for b in range(B):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(master, b)))
        for y in all_years:
            draws[y][b] = rng.integers(0, sizes[y], size=sizes[y])

    lam2 = {y: lambda2_of_resamples(arrays[y], method, draws[y]) for y in all_years}

    if variant == "level":
        alpha = sum(lam2[y] for y in pre_years) / len(pre_years)
        betas = {y: lam2[y] - alpha for y in post_years}
    else:
        betas = {y: np.empty(B) for y in post_years}
        for b in range(B):
            trend = ols_trend([(float(y), float(lam2[y][b])) for y in pre_years])
            for y in post_years:
                betas[y][b] = lam2[y][b] - (trend["gamma0"] + trend["gamma1"] * y)

    ci = {}
    p_values = {}
    for y in post_years:
        draws = betas[y]
        lo, hi = np.percentile(draws, [2.5, 97.5])
        ci[y] = (float(lo), float(hi))
        frac_le = float(np.mean(draws <= 0.0))
        frac_gt = float(np.mean(draws > 0.0))
        p_values[y] = 2.0 * min(frac_le, frac_gt)

    return BootstrapResult(
        B=B,
        master_seed=master,
        variant=variant,
        method=method,
        pre_years=pre_years,
        post_years=post_years,
        replicates=betas,
        ci=ci,
        p_values=p_values,
        disconnected={y: int(np.count_nonzero(lam2[y] == 0.0)) for y in all_years},
    )


def load_series_csv(path: str | Path) -> dict[int, float]:
    """Read a (year, lambda2) override series.

    Every lambda2 must be a finite non-negative number (0 stands for a
    disconnected year); errors name the file and the line.
    """
    path = Path(path)
    values: dict[int, float] = {}
    for line, (year_s, value_s) in read_csv(path, ["year", "lambda2"], "series"):
        year = parse_year(year_s, path, line)
        value = parse_nonnegative(value_s, path, line, "lambda2")
        if year in values:
            raise InputError(f"{path}: line {line}: duplicate year {year}")
        values[year] = value
    if len(values) < 2:
        raise InputError(f"{path}: a series needs at least 2 years")
    return values


def did_to_dict(est: DidEstimate) -> dict:
    doc: dict = {
        "variant": est.variant,
        "baseline_alpha": est.baseline_alpha,
        "effects": {
            str(y): {"beta": row.beta, "pct_change": row.pct_change}
            for y, row in est.effects.items()
        },
    }
    if est.trend is not None:
        doc["trend"] = est.trend
    if est.counterfactuals is not None:
        doc["counterfactuals"] = {str(y): v for y, v in est.counterfactuals.items()}
    return doc


def bootstrap_to_dict(result: BootstrapResult) -> dict:
    return {
        "B": result.B,
        "master_seed": result.master_seed,
        "variant": result.variant,
        "method": result.method,
        "pre_years": list(result.pre_years),
        "post_years": list(result.post_years),
        "ci": {str(y): [lo, hi] for y, (lo, hi) in result.ci.items()},
        "p_values": {str(y): p for y, p in result.p_values.items()},
        "disconnected": {str(y): count for y, count in result.disconnected.items()},
    }
