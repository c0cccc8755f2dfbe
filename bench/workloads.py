"""Workload definitions shared by the set-up step, the worker and the checks.

Nothing here imports fragnet, so the checks that read these definitions
stay independent of the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRE_YEARS = (2014, 2016, 2018)
POST_YEARS = (2021, 2023)
PLACEBO_YEAR = 2016
DID_SEED = 7
CASCADE_YEAR = 2014
# capitals of the unshocked banks run along this geometric ladder; the
# shocked banks hold a capital no cascade in the benchmark reaches
CAPITAL_LADDER = (0.01, 5.0)
SHOCKED_BANKS = 3
SHOCKED_CAPITAL = 1e3
# bank counts of the scaled workload: the paper's consolidation shape at
# about four times the size
SCALED_BANKS = {2014: 240, 2016: 180, 2018: 120, 2021: 90, 2023: 60}


@dataclass(frozen=True)
class Greedy:
    """One greedy_deleverage call on the network of `year`.

    `banks` banks, drawn with the run's seed, each owe `share` of the
    smallest degree among them; the step is that target over `moves`.
    """

    year: int
    banks: int
    share: float
    moves: int


@dataclass(frozen=True)
class Workload:
    scaled: bool
    bootstrap_b: int
    horizon: float
    windows: int
    greedy: tuple[Greedy, ...]
    # the all-bank greedy call that stalls (see README); counted as failed
    stalled_greedy: bool = False


WORKLOADS = {
    "paper": Workload(
        scaled=False, bootstrap_b=500, horizon=0.02, windows=20,
        greedy=(Greedy(2014, banks=1, share=0.01, moves=3),),
    ),
    "scaled": Workload(
        scaled=True, bootstrap_b=100, horizon=0.02, windows=20,
        greedy=(Greedy(2023, banks=1, share=0.01, moves=3),),
    ),
    "stress": Workload(
        scaled=False, bootstrap_b=100, horizon=1.0, windows=2000,
        greedy=(Greedy(2014, banks=2, share=0.02, moves=10),),
        stalled_greedy=True,
    ),
}

# the stalled call's inputs do not depend on the run's seed
STALLED_SPEC = {
    2014: {"n_banks": 5, "total_exposure": 1e4, "country_list": ["DE", "FR", "IT", "ES", "NL"]}
}
STALLED_SEED = 0
STALLED_SHARE = 0.05


def scaled_calibration(paper: dict) -> dict:
    """SCALED_BANKS bank counts, exposure scaled in proportion to n."""
    out = {}
    for year, cfg in paper.items():
        n = SCALED_BANKS[year]
        out[year] = {
            "n_banks": n,
            "total_exposure": cfg["total_exposure"] * n / cfg["n_banks"],
            "country_list": list(cfg["country_list"]),
        }
    return out


def scenario(banks: list[str], workload: Workload, seed: int) -> dict:
    """Cascade scenario on the given banks.

    A few shocked banks push distress in at a combined rate of n per unit
    time, so the mean distress rises about one unit per unit time whatever
    the bank count. The other banks take a seeded permutation of a fixed
    capital ladder, so the failure timeline keeps its shape across seeds
    while which bank fails when changes.
    """
    n = len(banks)
    order = np.random.default_rng([seed, 1]).permutation(n)
    shocked = [banks[i] for i in order[:SHOCKED_BANKS]]
    ladder = np.geomspace(*CAPITAL_LADDER, n - SHOCKED_BANKS)
    capitals = {banks[i]: float(c) for i, c in zip(order[SHOCKED_BANKS:], ladder)}
    capitals.update({b: SHOCKED_CAPITAL for b in shocked})
    return {
        "shock": {b: n / SHOCKED_BANKS for b in shocked},
        "onset": 0.05 * workload.horizon,
        "horizon": workload.horizon,
        "dt": workload.horizon / workload.windows,
        "capitals": {b: capitals[b] for b in banks},
    }


def greedy_targets(banks: list[str], degrees: np.ndarray, call: Greedy, seed: int, k: int):
    """(targets, step) for the k-th greedy call of a workload."""
    rng = np.random.default_rng([seed, 2, k])
    pick = sorted(rng.choice(len(banks), size=call.banks, replace=False).tolist())
    target = call.share * float(min(degrees[i] for i in pick))
    return {banks[i]: target for i in pick}, target / call.moves


def centrality_sample(banks: list[str], seed: int, year: int, size: int = 4) -> list[str]:
    """Banks whose spectral centrality the checks recompute."""
    rng = np.random.default_rng([seed, 3, year])
    return [banks[i] for i in sorted(rng.choice(len(banks), size=min(size, len(banks)), replace=False))]
