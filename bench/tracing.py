"""Spans and eigensolver counters recorded from the benchmark's own code.

Nothing under `src/` is changed: the tracer replaces the layer functions
that `fragnet.cli` imported with timing wrappers, and the
`scipy.linalg`/`numpy.linalg` eigensolver entry points with counting
wrappers. The eigensolver wrappers go in before `fragnet` is imported, so
a module that binds `eigh` at import time gets the wrapper too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# fragnet.cli name -> layer metric it is timed under
CLI_LAYER_CALLS = {
    "load_panel": "panel.load",
    "allocate": "network.allocate",
    "symmetrize": "network.allocate",
    "validate_conservation": "network.conservation",
    "network_stats": "network.stats",
    "graph_to_edge_csv": "network.edges_write",
    "graph_from_edge_csv": "network.edges_read",
    "spectrum_of": "spectral.spectrum",
    "fragility_metrics": "spectral.fragility",
    "spectral_centralities": "spectral.centrality",
    "bootstrap_did": "inference.bootstrap",
    "did_level": "inference.estimators",
    "did_detrended": "inference.estimators",
    "placebo_test": "inference.estimators",
    "cascade_stress_test": "diffusion.cascade",
}

EIG_ENTRY_POINTS = (("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"),
                    ("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"))


class Tracer:
    """In-memory spans (name, start, end, parent index) and eigensolver counts."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.eig_calls = 0
        self.eig_s = 0.0
        self.wrapped_calls = 0
        self._in_eig = False

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.eig_calls = 0
        self.eig_s = 0.0
        self.wrapped_calls = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.wrapped_calls += 1
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_eig(self, fn):
        def counted(*args, **kwargs):
            if self._in_eig:
                return fn(*args, **kwargs)
            self._in_eig = True
            self.eig_calls += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.eig_s += time.perf_counter() - start
                self._in_eig = False

        return counted

    def install_eig_wrappers(self) -> None:
        import importlib

        for module_name, attr in EIG_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap_eig(getattr(module, attr)))

    def install_cli_wrappers(self, cli_module) -> None:
        for attr, metric in CLI_LAYER_CALLS.items():
            if hasattr(cli_module, attr):
                setattr(cli_module, attr, self.wrap(metric, getattr(cli_module, attr)))

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Duration of each span name minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out



def wrapper_costs(calls: int = 20000) -> tuple[float, float]:
    """Seconds a span wrapper and an eigensolver wrapper each add to one
    call, measured on a no-op with a throwaway tracer (best of five)."""

    def noop():
        return None

    probe = Tracer()
    costs = []
    for wrapped in (probe.wrap("probe", noop), probe.wrap_eig(noop)):
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - start
            probe.reset()
            start = time.perf_counter()
            for _ in range(calls):
                wrapped()
            best = min(best, time.perf_counter() - start - bare)
        costs.append(max(best, 0.0) / calls)
    return costs[0], costs[1]
