import json

import numpy as np
import pytest

from fragnet.network import WeightedGraph
from fragnet.panel import BankRecord


def lei(tag: str) -> str:
    """Pad a short tag to a syntactically valid 20-char identifier."""
    return (tag.upper() + "0" * 20)[:20]


def bank(tag, country, assets=100.0, capital=10.0, exposures=None):
    return BankRecord(lei(tag), f"Bank {tag}", country, assets, capital, exposures or {})


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_json(path):
    """The JSON document in a file, parsed with NaN and Infinity refused."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)


def graph_of(weights, banks=None, year=2014) -> WeightedGraph:
    w = np.asarray(weights, dtype=float)
    if banks is None:
        banks = [f"N{i}" for i in range(len(w))]
    return WeightedGraph(list(banks), w, year)


def complete_graph(n, w=1.0, year=2014) -> WeightedGraph:
    m = np.full((n, n), float(w))
    np.fill_diagonal(m, 0.0)
    return graph_of(m, year=year)


def random_connected(rng, n, lo=0.5, hi=2.0) -> WeightedGraph:
    """Random complete graph with weights in [lo, hi]; connected by construction."""
    m = rng.uniform(lo, hi, (n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return graph_of(m)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
