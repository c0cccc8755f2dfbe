"""Reconstruct symmetric exposure networks from one panel year.

A bank's exposure to country c is split among the sample banks of that
country, equally or in proportion to bank size or portfolio, then the
directed estimate is symmetrized by pairwise averaging. A bank's exposure
to its own country is split among the *other* banks there; if it is the
only bank of its country that exposure cannot be placed and is dropped
with a warning. Self-loops never occur.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InputError
from .panel import BankRecord, ExposurePanel, _fmt, open_input, write_csv

METHODS = ("equal", "size_weighted", "exposure_weighted")


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


@dataclass
class DirectedExposureMatrix:
    banks: list[str]
    entries: np.ndarray
    # exposure that had no eligible counterparty, per allocating bank
    unallocated: np.ndarray


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


def year_arrays(records: list[BankRecord], warn: bool = True) -> YearArrays:
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
    return YearArrays(leis, countries, home, E, assets, portfolios, external)


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
    arrays: YearArrays, method: str = "equal", idx: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Directed allocation on the array view, for one draw or a stack of them.

    Parameters
    ----------
    arrays : YearArrays
    method : str
        One of ``equal``, ``size_weighted``, ``exposure_weighted``.
    idx : ndarray, optional
        Row indices selecting (possibly repeated) banks, shape ``(n,)`` or
        ``(k, n)`` for k draws; repeats become distinct nodes and
        counterparty denominators count multiplicity.

    Returns
    -------
    (entries, unallocated)
        entries[..., i, j] is the directed estimate from node i to node j;
        unallocated[..., i] is exposure of node i that had no eligible
        counterparty (external countries, or own country with no other bank).
        A ``(k, n)`` idx gives ``(k, n, n)`` and ``(k, n)`` results whose
        slice k equals the result for ``idx[k]`` bit for bit.
    """
    if idx is None:
        idx = np.arange(len(arrays.leis))
    idx = np.asarray(idx, dtype=np.intp)
    single = idx.ndim == 1
    idx = np.atleast_2d(idx)
    k, n = idx.shape
    if n < 2:
        raise DomainError("a network needs at least 2 banks")
    m = len(arrays.countries)
    home = arrays.home[idx]
    E = arrays.E[idx]
    basis = _allocation_basis(arrays, method, idx)

    # per-draw country counts and masses through one bincount over
    # draw-offset country codes; each bin sums its draw's banks in order
    draw = np.arange(k)[:, None]
    cell = (home + m * draw).ravel()
    count = np.bincount(cell, minlength=k * m).astype(float).reshape(k, m)
    mass = np.bincount(cell, weights=basis.ravel(), minlength=k * m).reshape(k, m)
    rows = np.arange(n)[None, :]
    eligible = np.repeat(count[:, None, :], n, axis=1)
    eligible[draw, rows, home] -= 1.0
    denom = np.repeat(mass[:, None, :], n, axis=1)
    denom[draw, rows, home] -= basis

    if np.any((eligible > 0) & (denom <= 0)):
        raise DomainError("zero-weight denominator in weighted allocation")

    safe = np.where(eligible > 0, denom, np.inf)
    # flat positions of [d, i, home[d, j]] in the (k, n, m) arrays; they are
    # in range by construction, and "clip" skips take's bounds check
    at_home = (m * np.arange(k * n)).reshape(k, n, 1) + home[:, None, :]
    entries = E.take(at_home, mode="clip") * (
        basis[:, None, :] / safe.take(at_home, mode="clip")
    )
    entries[:, rows[0], rows[0]] = 0.0
    unallocated = arrays.external_dropped[idx] + np.where(eligible > 0, 0.0, E).sum(axis=2)
    if single:
        return entries[0], unallocated[0]
    return entries, unallocated


def allocate(records: list[BankRecord], method: str = "equal") -> DirectedExposureMatrix:
    """Build the directed exposure estimate for one panel year.

    Each bank's exposure to a country is split across that country's sample
    banks: equally, by asset share, or by portfolio share. The allocating
    bank is never its own counterparty.
    """
    arrays = year_arrays(records)
    entries, unallocated = allocate_arrays(arrays, method)
    own = unallocated - arrays.external_dropped
    if np.any(own > 0):
        lone = [arrays.leis[i] for i in np.nonzero(own > 0)[0]]
        warnings.warn(
            "own-country exposure dropped for sole banks of their country: "
            + ", ".join(lone),
            stacklevel=2,
        )
    return DirectedExposureMatrix(list(arrays.leis), entries, unallocated)


def symmetrize(directed: DirectedExposureMatrix, year: int = 0) -> WeightedGraph:
    """Average the two directed estimates of each pair; total is conserved."""
    m = directed.entries
    graph = WeightedGraph(list(directed.banks), (m + m.T) / 2.0, year)
    graph.validate()
    return graph


def build_graph(panel: ExposurePanel, year: int, method: str = "equal") -> WeightedGraph:
    if year not in panel.records:
        raise InputError(f"panel has no year {year}")
    return symmetrize(allocate(panel.records[year], method), year)


def validate_conservation(
    graph: WeightedGraph,
    directed: DirectedExposureMatrix,
    records: list[BankRecord],
    rel_tol: float = 1e-9,
) -> ValidationReport:
    """Check total and per-bank exposure conservation of a built network.

    (a) element sum of the symmetric matrix equals that of the directed one;
    (b) each directed row sum equals the bank's reported exposure total minus
    what was dropped for lack of an eligible counterparty.
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
    row_sums = directed.entries.sum(axis=1)
    for i, rec in enumerate(records):
        expected = rec.total_exposure() - directed.unallocated[i]
        if abs(row_sums[i] - expected) > rel_tol * max(abs(expected), 1.0):
            failures.append(
                f"bank {rec.lei}: allocated {float(row_sums[i]):g}, expected {expected:g}"
            )
    return ValidationReport(not failures, float(total_directed), float(total_graph), failures)


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
        sd_weight=float(positive.std()) if n_edges else 0.0,
        min_weight=float(positive.min()) if n_edges else 0.0,
        max_weight=float(positive.max()) if n_edges else 0.0,
        degrees=degrees,
        mean_degree=2.0 * total / n,
        sd_degree=float(degrees.std()),
    )


def graph_to_edge_csv(graph: WeightedGraph, path: str | Path) -> None:
    """Write the strictly positive upper-triangle edges, one row per pair."""
    rows, cols = np.triu_indices(graph.n, k=1)
    w = graph.weights[rows, cols]
    keep = w > 0
    banks, year = graph.banks, graph.year
    edges = zip(rows[keep].tolist(), cols[keep].tolist(), w[keep].tolist())
    write_csv(Path(path), ["year", "bank_i", "bank_j", "weight"],
              ([year, banks[i], banks[j], _fmt(x)] for i, j, x in edges))


def graph_from_edge_csv(path: str | Path) -> WeightedGraph:
    """Rebuild a graph from an edge list; bank order follows first appearance.

    The list must hold one year and name each pair once, in either order;
    anything else is ambiguous and rejected with the file and line named.
    So is a bank whose weights sum beyond the float range, whose degree
    would be infinite.
    """
    path = Path(path)
    banks: list[str] = []
    seen: dict[str, int] = {}
    pair_line: dict[tuple[int, int], int] = {}
    rows: list[tuple[int, int, float]] = []
    year = year_line = None
    with open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["year", "bank_i", "bank_j", "weight"]:
            raise InputError(f"{path}: bad edge-list header {header!r}")
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != 4:
                raise InputError(f"{path}: line {line}: expected 4 fields, got {len(row)}")
            try:
                row_year = int(row[0])
                w = float(row[3])
            except ValueError as exc:
                raise InputError(f"{path}: line {line}: bad numeric field") from exc
            if not math.isfinite(w):
                raise InputError(f"{path}: line {line}: non-finite weight {row[3]!r}")
            if w < 0:
                raise InputError(f"{path}: line {line}: negative weight {w}")
            if year is None:
                year, year_line = row_year, line
            elif row_year != year:
                raise InputError(
                    f"{path}: line {line}: year {row_year} differs from year {year} "
                    f"on line {year_line}; an edge list holds one year"
                )
            for bank in (row[1], row[2]):
                if bank not in seen:
                    seen[bank] = len(banks)
                    banks.append(bank)
            i, j = seen[row[1]], seen[row[2]]
            if i == j:
                raise InputError(f"{path}: line {line}: self-loop on {row[1]}")
            pair = (i, j) if i < j else (j, i)
            if pair in pair_line:
                raise InputError(
                    f"{path}: line {line}: pair {row[1]},{row[2]} already given on "
                    f"line {pair_line[pair]}"
                )
            pair_line[pair] = line
            rows.append((i, j, w))
    if len(banks) < 2:
        raise InputError(f"{path}: fewer than 2 banks")
    n = len(banks)
    weights = np.zeros((n, n))
    for i, j, w in rows:
        weights[i, j] = w
        weights[j, i] = w
    graph = WeightedGraph(banks, weights, year)
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

