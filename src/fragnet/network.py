"""Reconstruct symmetric exposure networks from one panel year.

A bank's exposure to country c is split among the sample banks of that
country, equally or in proportion to bank size or portfolio, then the
directed estimate is symmetrized by pairwise averaging. A bank's exposure
to its own country is split among the *other* banks there; if it is the
only bank of its country that exposure cannot be placed and is dropped
with a warning. Self-loops never occur.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InputError
from .panel import (
    BankRecord,
    ExposurePanel,
    csv_quote,
    parse_nonnegative,
    parse_year,
    read_csv,
    write_csv_text,
)

METHODS = ("equal", "size_weighted", "exposure_weighted")

EDGE_HEADER = ["year", "bank_i", "bank_j", "weight"]

# a denominator mass - basis below this share of the mass has lost over
# half its bits to cancellation
_CANCELLATION = 2.0**-26


@dataclass
class YearArrays:
    """Dense array view of one panel year, the fast path for resampling.

    E has one column per home country present in the year; exposure to
    countries with no sample bank is accumulated in external_dropped.
    """

    leis: list[str]
    countries: list[str]
    home: np.ndarray
    E: np.ndarray
    assets: np.ndarray
    portfolios: np.ndarray
    external_dropped: np.ndarray
    # panel year, named in allocation errors when known
    year: int | None = None


@dataclass
class DirectedExposureMatrix:
    banks: list[str]
    entries: np.ndarray
    # exposure that had no eligible counterparty, per allocating bank
    unallocated: np.ndarray
    # (A, G), one column per country: entries[i, j] = (A @ G.T)[i, j] off
    # the diagonal, with A[i, c] bank i's exposure to country c per unit of
    # its counterparties' weight there and G[j, home_j] bank j's weight
    factors: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class WeightedGraph:
    """Symmetric non-negative weight matrix over an ordered bank list."""

    banks: list[str]
    weights: np.ndarray
    year: int = 0

    @property
    def n(self) -> int:
        return len(self.banks)

    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def index(self, bank: str) -> int:
        try:
            return self.banks.index(bank)
        except ValueError as exc:
            raise DomainError(f"unknown bank {bank!r}") from exc

    def validate(self) -> None:
        w = self.weights
        if w.shape != (self.n, self.n):
            raise DomainError("weight matrix shape does not match bank list")
        if not np.array_equal(w, w.T):
            raise DomainError("weight matrix is not exactly symmetric")
        if np.any(np.diag(w) != 0.0):
            raise DomainError("weight matrix has non-zero diagonal")
        if np.any(w < 0.0):
            raise DomainError("negative edge weight")


@dataclass
class NetworkStats:
    n_nodes: int
    n_edges: int
    density: float
    total_weight: float
    mean_weight: float
    sd_weight: float
    min_weight: float
    max_weight: float
    degrees: np.ndarray
    mean_degree: float
    sd_degree: float


@dataclass
class ValidationReport:
    ok: bool
    total_directed: float
    total_graph: float
    failures: list[str]


def year_arrays(records: list[BankRecord], warn: bool = True, year: int | None = None) -> YearArrays:
    """Flatten one year's records into aligned numpy arrays."""
    if len(records) < 2:
        raise DomainError("a network needs at least 2 banks")
    leis = [r.lei for r in records]
    countries = sorted({r.country for r in records})
    cindex = {c: k for k, c in enumerate(countries)}
    n, m = len(records), len(countries)
    home = np.array([cindex[r.country] for r in records], dtype=np.intp)
    E = np.zeros((n, m))
    external = np.zeros(n)
    external_codes = set()
    for i, rec in enumerate(records):
        for code, amount in rec.exposures.items():
            k = cindex.get(code)
            if k is None:
                external[i] += amount
                if amount > 0:
                    external_codes.add(code)
            else:
                E[i, k] = amount
    if warn and external_codes:
        warnings.warn(
            "exposure to countries with no sample bank dropped: "
            + ", ".join(sorted(external_codes)),
            stacklevel=3,
        )
    assets = np.array([r.total_assets for r in records], dtype=float)
    portfolios = E.sum(axis=1) + external
    return YearArrays(leis, countries, home, E, assets, portfolios, external, year)


def _allocation_basis(arrays: YearArrays, method: str, idx: np.ndarray) -> np.ndarray:
    if method == "equal":
        return np.ones(idx.shape)
    if method == "size_weighted":
        basis = arrays.assets[idx]
        if np.any(basis <= 0):
            bad = arrays.leis[int(idx.flat[int(np.argmin(basis))])]
            raise DomainError(
                f"size_weighted allocation needs positive total_assets, bank {bad} has none"
            )
        return basis
    if method == "exposure_weighted":
        basis = arrays.portfolios[idx]
        if np.any(basis <= 0):
            bad = arrays.leis[int(idx.flat[int(np.argmin(basis))])]
            raise DomainError(
                f"exposure_weighted allocation needs a positive portfolio, bank {bad} has none"
            )
        return basis
    raise InputError(f"unknown allocation method {method!r}, expected one of {METHODS}")


def allocate_arrays(
    arrays: YearArrays,
    method: str = "equal",
    idx: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Directed allocation on the array view, for one draw or a stack of them.

    A draw holds each of its banks once, with the number of copies of it
    in the network. Copies of one bank are twin nodes: they allocate and
    receive alike, so one row and one column per bank describe them all.

    Parameters
    ----------
    arrays : YearArrays
    method : str
        One of ``equal``, ``size_weighted``, ``exposure_weighted``.
    idx : ndarray, optional
        Row indices of the banks drawn, shape ``(n,)`` or ``(k, n)`` for k
        draws; all banks of the year when omitted. A bank listed twice is
        two nodes, the network of one entry with a count of 2.
    counts : ndarray, optional
        Copies of each bank in idx, same shape; 1 when omitted. Counterparty
        denominators count every copy but the allocating one.

    Returns
    -------
    (entries, unallocated)
        entries[..., i, j] is the directed estimate from one copy of bank
        idx[i] to one copy of bank idx[j]; the diagonal entry runs between
        two copies of a bank and is 0 for a bank drawn once. unallocated[..., i]
        is exposure of one copy of idx[i] that had no eligible counterparty
        (external countries, or own country with no other bank). A ``(k, n)``
        idx gives ``(k, n, n)`` and ``(k, n)`` results whose slice k equals
        the result for ``idx[k]`` bit for bit.
    """
    entries, unallocated, _, _ = _allocate(arrays, method, idx, counts)
    return entries, unallocated


def _allocate(arrays, method, idx, counts):
    """`allocate_arrays`, also returning the draws' allocation weights and
    counterparty denominators (inf where nothing is placed)."""
    if idx is None:
        idx = np.arange(len(arrays.leis))
    idx = np.asarray(idx, dtype=np.intp)
    single = idx.ndim == 1
    idx = np.atleast_2d(idx)
    counts = np.ones(idx.shape) if counts is None else np.atleast_2d(np.asarray(counts, dtype=float))
    if np.any(counts.sum(axis=1) < 2):
        raise DomainError("a network needs at least 2 banks")
    k, n = idx.shape
    m = len(arrays.countries)
    home = arrays.home[idx]
    E = arrays.E[idx]
    basis = _allocation_basis(arrays, method, idx)

    # per-draw country counts and masses through one bincount over
    # draw-offset country codes; each bin sums its draw's banks in order
    draw = np.arange(k)[:, None]
    cell = (home + m * draw).ravel()
    count = np.bincount(cell, weights=counts.ravel(), minlength=k * m).reshape(k, m)
    with np.errstate(over="ignore"):
        mass = np.bincount(cell, weights=(counts * basis).ravel(), minlength=k * m).reshape(k, m)
    # a denominator is a country's mass less at most one bank's weight, so
    # it leaves the float range exactly where the mass does
    if not np.isfinite(mass).all():
        country = arrays.countries[int(np.nonzero(~np.isfinite(mass))[1][0])]
        year = "" if arrays.year is None else f"year {arrays.year}: "
        raise DomainError(
            f"{year}{method} allocation: the weights of country {country}'s banks sum beyond the float range"
        )
    rows = np.arange(n)[None, :]
    eligible = np.repeat(count[:, None, :], n, axis=1)
    eligible[draw, rows, home] -= 1.0
    denom = np.repeat(mass[:, None, :], n, axis=1)
    own = mass[draw, home]
    own_denom = own - basis
    # a bank holding all but a _CANCELLATION share of its country's mass
    # keeps under half the bits in mass - basis; its own-country
    # denominator is summed from the other banks' weights instead (at most
    # one bank per country can hold more than half)
    lossy = own_denom < _CANCELLATION * own
    if lossy.any():
        rest = np.where(lossy, (counts - 1.0) * basis, counts * basis)
        others = np.bincount(cell, weights=rest.ravel(), minlength=k * m).reshape(k, m)
        own_denom = np.where(lossy, others[draw, home], own_denom)
    denom[draw, rows, home] = own_denom

    placed = eligible > 0
    if np.any(placed & (denom <= 0)):
        raise DomainError("zero-weight denominator in weighted allocation")

    safe = np.where(placed, denom, np.inf)
    # flat positions of [d, i, home[d, j]] in the (k, n, m) arrays; they are
    # in range by construction, and "clip" skips take's bounds check
    at_home = (m * np.arange(k * n)).reshape(k, n, 1) + home[:, None, :]
    entries = E.take(at_home, mode="clip") * (
        basis[:, None, :] / safe.take(at_home, mode="clip")
    )
    diag = rows[0]
    entries[:, diag, diag] = np.where(counts > 1, entries[:, diag, diag], 0.0)
    unallocated = arrays.external_dropped[idx] + np.where(placed, 0.0, E).sum(axis=2)
    if single:
        return entries[0], unallocated[0], basis[0], safe[0]
    return entries, unallocated, basis, safe


def allocate(
    records: list[BankRecord], method: str = "equal", year: int | None = None
) -> DirectedExposureMatrix:
    """Build the directed exposure estimate for one panel year.

    Each bank's exposure to a country is split across that country's sample
    banks: equally, by asset share, or by portfolio share. The allocating
    bank is never its own counterparty. The year, when given, is named in
    errors. The result carries the allocation's rank-C factors (C
    countries), which `spectral.spectral_centralities` solves on.
    """
    arrays = year_arrays(records, year=year)
    entries, unallocated, basis, denom = _allocate(arrays, method, None, None)
    n = len(arrays.leis)
    weight = np.zeros((n, len(arrays.countries)))
    weight[np.arange(n), arrays.home] = basis
    own = unallocated - arrays.external_dropped
    if np.any(own > 0):
        lone = [arrays.leis[i] for i in np.nonzero(own > 0)[0]]
        warnings.warn(
            "own-country exposure dropped for sole banks of their country: "
            + ", ".join(lone),
            stacklevel=2,
        )
    # a positive exposure whose share of a counterparty rounds to zero is
    # dropped with it, and so is the edge when the other share is zero too
    lost = (arrays.E[:, arrays.home] > 0) & (entries == 0)
    np.fill_diagonal(lost, False)
    if lost.any():
        rows, cols = np.nonzero(lost)
        pairs = sorted({(arrays.leis[i], arrays.countries[arrays.home[j]]) for i, j in zip(rows, cols)})
        warnings.warn(
            "exposure shares that round to zero dropped: "
            + ", ".join(f"{lei} to {country}" for lei, country in pairs),
            stacklevel=2,
        )
    return DirectedExposureMatrix(
        list(arrays.leis), entries, unallocated, (arrays.E / denom, weight)
    )


def symmetrize(directed: DirectedExposureMatrix, year: int = 0) -> WeightedGraph:
    """Average the two directed estimates of each pair; total is conserved."""
    m = directed.entries
    graph = WeightedGraph(list(directed.banks), (m + m.T) / 2.0, year)
    graph.validate()
    return graph


def build_graph(panel: ExposurePanel, year: int, method: str = "equal") -> WeightedGraph:
    if year not in panel.records:
        raise InputError(f"panel has no year {year}")
    return symmetrize(allocate(panel.records[year], method, year), year)


def validate_conservation(
    graph: WeightedGraph,
    directed: DirectedExposureMatrix,
    records: list[BankRecord],
    rel_tol: float = 1e-9,
) -> ValidationReport:
    """Check total and per-bank exposure conservation of a built network.

    (a) element sum of the symmetric matrix equals that of the directed one;
    (b) each directed row sum equals the bank's exposure to countries with
    an eligible counterparty: a sample bank other than itself.
    """
    if graph.banks != directed.banks or [r.lei for r in records] != list(directed.banks):
        raise InputError("bank lists of graph, directed matrix and records differ")
    failures: list[str] = []
    total_directed = float(directed.entries.sum())
    total_graph = float(graph.weights.sum())
    scale = max(abs(total_directed), 1.0)
    if abs(total_graph - total_directed) > rel_tol * scale:
        failures.append(
            f"total-weight discrepancy of {total_graph - total_directed:g} "
            f"(graph {total_graph:g} vs directed {total_directed:g})"
        )
    banks_in = Counter(rec.country for rec in records)
    row_sums = directed.entries.sum(axis=1)
    for i, rec in enumerate(records):
        # countries with a sample bank other than this one
        eligible = banks_in.keys() if banks_in[rec.country] > 1 else banks_in.keys() - {rec.country}
        placed = rec.exposures
        if not placed.keys() <= eligible:
            placed = {code: a for code, a in placed.items() if code in eligible}
        expected = float(sum(placed.values()))
        if abs(row_sums[i] - expected) > rel_tol * max(abs(expected), 1.0):
            failures.append(
                f"bank {rec.lei}: allocated {float(row_sums[i]):g}, expected {expected:g}"
            )
    return ValidationReport(not failures, float(total_directed), float(total_graph), failures)


def _sd(x: np.ndarray) -> float:
    """Population standard deviation of finite values; values whose squares
    would leave the float range are scaled by their largest magnitude first."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(x.std())
    if not math.isfinite(sd):
        top = float(np.abs(x).max())
        sd = top * float((x / top).std())
    return sd


def network_stats(graph: WeightedGraph) -> NetworkStats:
    """Descriptive statistics; an edge exists where the weight is strictly positive."""
    graph.validate()
    n = graph.n
    iu = np.triu_indices(n, k=1)
    upper = graph.weights[iu]
    positive = upper[upper > 0]
    n_edges = int(positive.size)
    possible = n * (n - 1) // 2
    degrees = graph.degrees()
    total = float(upper.sum())
    return NetworkStats(
        n_nodes=n,
        n_edges=n_edges,
        density=n_edges / possible if possible else 0.0,
        total_weight=total,
        mean_weight=float(positive.mean()) if n_edges else 0.0,
        sd_weight=_sd(positive) if n_edges else 0.0,
        min_weight=float(positive.min()) if n_edges else 0.0,
        max_weight=float(positive.max()) if n_edges else 0.0,
        degrees=degrees,
        mean_degree=2.0 * total / n,
        sd_degree=_sd(degrees),
    )


def graph_to_edge_csv(graph: WeightedGraph, path: str | Path) -> None:
    """Write the strictly positive upper-triangle edges, one row per pair."""
    quoted = [csv_quote(bank) for bank in graph.banks]
    weights = graph.weights

    def chunks():
        # one chunk of text per upper-triangle row
        for i in range(graph.n - 1):
            upper = weights[i, i + 1:]
            cols = np.flatnonzero(upper > 0)
            head = f"{graph.year},{quoted[i]},"
            yield "".join([f"{head}{quoted[j]},{x:.17g}\n"
                           for j, x in zip((cols + (i + 1)).tolist(), upper[cols].tolist())])

    write_csv_text(Path(path), EDGE_HEADER, chunks())


def graph_from_edge_csv(path: str | Path) -> WeightedGraph:
    """Rebuild a graph from an edge list; bank order follows first appearance.

    The list must hold one year and name each pair once, in either order;
    anything else is ambiguous and rejected with the file and line named.
    So is a bank whose weights sum beyond the float range, whose degree
    would be infinite.
    """
    path = Path(path)
    # bank -> its index, in order of first appearance
    seen: dict[str, int] = {}
    pair_line: dict[tuple[int, int], int] = {}
    rows: list[int] = []
    cols: list[int] = []
    weights: list[float] = []
    year = year_line = None
    for line, (year_s, bank_i, bank_j, weight_s) in read_csv(path, EDGE_HEADER, "edge-list"):
        row_year = parse_year(year_s, path, line)
        w = parse_nonnegative(weight_s, path, line, "weight")
        if year is None:
            year, year_line = row_year, line
        elif row_year != year:
            raise InputError(
                f"{path}: line {line}: year {row_year} differs from year {year} "
                f"on line {year_line}; an edge list holds one year"
            )
        i = seen.setdefault(bank_i, len(seen))
        j = seen.setdefault(bank_j, len(seen))
        if i == j:
            raise InputError(f"{path}: line {line}: self-loop on {bank_i}")
        pair = (i, j) if i < j else (j, i)
        if pair in pair_line:
            raise InputError(
                f"{path}: line {line}: pair {bank_i},{bank_j} already given on "
                f"line {pair_line[pair]}"
            )
        pair_line[pair] = line
        rows.append(i)
        cols.append(j)
        weights.append(w)
    banks = list(seen)
    if len(banks) < 2:
        raise InputError(f"{path}: fewer than 2 banks")
    matrix = np.zeros((len(banks), len(banks)))
    matrix[rows, cols] = weights
    matrix[cols, rows] = weights
    graph = WeightedGraph(banks, matrix, year)
    graph.validate()
    with np.errstate(over="ignore"):
        finite = np.isfinite(graph.degrees())
    if not finite.all():
        k = int(np.argmin(finite))
        line = min(at for pair, at in pair_line.items() if k in pair)
        raise InputError(
            f"{path}: line {line}: the edge weights of bank {banks[k]} sum beyond "
            f"the float range"
        )
    return graph

