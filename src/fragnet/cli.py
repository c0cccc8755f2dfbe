"""Command-line entry point.

Subcommands: build, analyze, did, stress, synth. Every command writes
deterministic files (17-significant-digit floats, LF line endings, no
timestamps), so reruns with identical inputs are byte-identical.
Exit codes: 0 success, 1 computation-domain error, 2 I/O or config error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .diffusion import cascade_stress_test, load_scenario
from .errors import DomainError, InputError
from .inference import (
    MIN_BOOTSTRAP_B,
    BootstrapResult,
    DidEstimate,
    bootstrap_did,
    bootstrap_to_dict,
    did_detrended,
    did_level,
    did_to_dict,
    load_series_csv,
    make_series,
    placebo_test,
)
from .network import (
    allocate,
    graph_from_edge_csv,
    graph_to_edge_csv,
    network_stats,
    symmetrize,
    validate_conservation,
)
from .panel import (
    _cell,
    _fmt,
    csv_quote,
    load_calibration,
    load_panel,
    synthesize_panel,
    write_csv,
    write_csv_text,
    write_json,
    write_panel,
)
from .spectral import (
    fragility_metrics,
    lambda2,
    mixing_time,
    spectral_centralities,
)

EURO_COUNTRIES = [
    "DE", "FR", "IT", "ES", "NL", "BE", "AT", "PT", "IE", "GR",
    "FI", "SE", "DK", "NO", "PL",
]

# Euro-area sample shape: bank counts, exposure totals (million EUR) and
# country roster breadth for the five observation years.
DEFAULT_CALIBRATION = {
    2014: {"n_banks": 61, "total_exposure": 79317.0, "country_list": EURO_COUNTRIES[:15]},
    2016: {"n_banks": 37, "total_exposure": 64202.0, "country_list": EURO_COUNTRIES[:13]},
    2018: {"n_banks": 30, "total_exposure": 57202.0, "country_list": EURO_COUNTRIES[:12]},
    2021: {"n_banks": 31, "total_exposure": 58978.0, "country_list": EURO_COUNTRIES[:13]},
    2023: {"n_banks": 33, "total_exposure": 68403.0, "country_list": EURO_COUNTRIES[:14]},
}

DEFAULT_PRE = "2014,2016,2018"
DEFAULT_POST = "2021,2023"


def _parse_years(text: str, flag: str) -> tuple[int, ...]:
    try:
        years = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise InputError(f"{flag}: expected comma-separated years, got {text!r}") from exc
    if not years:
        raise InputError(f"{flag}: no years given")
    return years


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_build(args) -> int:
    panel = load_panel(args.input)
    out = _out_dir(args)
    stats_rows = []
    for year in panel.years:
        directed = allocate(panel.records[year], args.method, year)
        graph = symmetrize(directed, year)
        report = validate_conservation(graph, directed, panel.records[year])
        if not report.ok:
            raise DomainError(
                f"year {year}: conservation check failed: " + "; ".join(report.failures)
            )
        graph_to_edge_csv(graph, out / f"edges_{year}.csv")
        s = network_stats(graph)
        stats_rows.append(
            [
                year,
                s.n_nodes,
                s.n_edges,
                _fmt(s.density),
                _fmt(s.total_weight),
                _fmt(s.mean_weight),
                _fmt(s.sd_weight),
                _fmt(s.min_weight),
                _fmt(s.max_weight),
                _fmt(s.mean_degree),
                _fmt(s.sd_degree),
            ]
        )
    write_csv(
        out / "network_stats.csv",
        [
            "year", "n_nodes", "n_edges", "density", "total_weight",
            "mean_weight", "sd_weight", "min_weight", "max_weight",
            "mean_degree", "sd_degree",
        ],
        stats_rows,
    )
    return 0


FRAGILITY_HEADER = [
    "year", "n_nodes", "lambda2", "inv_lambda2_x1e3", "spectral_gap", "lambda3",
    "spectral_radius", "radius_ratio", "effective_resistance",
    "normalized_lambda2", "avg_resistance_distance", "mixing_time", "connected",
]


def cmd_analyze(args) -> int:
    if not 0.0 < args.epsilon < 1.0:
        raise InputError(f"--epsilon must be in (0, 1), got {args.epsilon}")
    out = _out_dir(args)

    if args.series:
        values = load_series_csv(args.series)
        rows = [
            [
                year,
                _fmt(lam2),
                _fmt(1000.0 / lam2 if lam2 > 0 else math.inf),
                _fmt(mixing_time(lam2, args.epsilon) if lam2 > 0 else math.inf),
            ]
            for year, lam2 in sorted(values.items())
        ]
        write_csv(out / "fragility.csv", ["year", "lambda2", "inv_lambda2_x1e3", "mixing_time"], rows)
        return 0

    if not args.input:
        raise InputError("analyze needs --input or --series")
    panel = load_panel(args.input)
    frag_rows = []
    centrality_rows = []
    for year in panel.years:
        directed = allocate(panel.records[year], args.method, year)
        graph = symmetrize(directed, year)
        m = fragility_metrics(graph)
        tau = mixing_time(m.lambda2, args.epsilon) if m.lambda2 > 0 else math.inf
        if not m.connected:
            print(f"note: year {year} network is disconnected", file=sys.stderr)
        frag_rows.append(
            [
                year,
                graph.n,
                _fmt(m.lambda2),
                _fmt(1000.0 / m.lambda2 if m.lambda2 > 0 else math.inf),
                _fmt(m.spectral_gap),
                _cell(m.lambda3),
                _fmt(m.spectral_radius),
                _fmt(m.radius_ratio),
                _fmt(m.effective_resistance),
                _cell(m.normalized_lambda2),
                _fmt(m.avg_resistance_distance),
                _fmt(tau),
                int(m.connected),
            ]
        )
        if graph.n < 3:
            print(
                f"note: year {year} has fewer than 3 banks, centrality table skipped",
                file=sys.stderr,
            )
        else:
            for bank, sc in spectral_centralities(graph, directed.factors, m.lambda2).items():
                centrality_rows.append([year, bank, _fmt(sc)])
        if args.spectra:
            spectrum = {"eigenvalues": m.eigenvalues.tolist(), "bank_order": graph.banks, "normalized": False}
            write_json(out / f"spectrum_{year}.json", spectrum)
    write_csv(out / "fragility.csv", FRAGILITY_HEADER, frag_rows)
    write_csv(out / "centrality.csv", ["year", "bank", "spectral_centrality"], centrality_rows)
    return 0


DID_HEADER = ["period", "lambda2", "effect", "pct_change", "ci_lower", "ci_upper", "p_value"]


def _p_cell(p: float, B: int) -> str:
    # an all-one-sided draw distribution is reported as below resolution
    if p == 0.0:
        return f"<{_fmt(2.0 / B)}"
    return _fmt(p)


def _did_table(
    path: Path,
    est: DidEstimate,
    values: dict[int, float],
    boot: BootstrapResult | None = None,
) -> None:
    rows = [["baseline", _fmt(est.baseline_alpha), "", "", "", "", ""]]
    for year in sorted(est.effects):
        row = est.effects[year]
        ci_lo = ci_hi = p = ""
        if boot is not None and year in boot.ci:
            ci_lo, ci_hi = _fmt(boot.ci[year][0]), _fmt(boot.ci[year][1])
            p = _p_cell(boot.p_values[year], boot.B)
        rows.append(
            [
                str(year),
                _fmt(values[year]),
                _fmt(row.beta),
                _cell(row.pct_change),
                ci_lo,
                ci_hi,
                p,
            ]
        )
    write_csv(path, DID_HEADER, rows)


def cmd_did(args) -> int:
    pre = _parse_years(args.pre, "--pre")
    post = _parse_years(args.post, "--post")
    if args.bootstrap_b and args.bootstrap_b < MIN_BOOTSTRAP_B:
        raise InputError(f"--bootstrap-b must be 0 or at least {MIN_BOOTSTRAP_B}, got {args.bootstrap_b}")
    if args.bootstrap_b and not args.input:
        raise InputError("bootstrap needs --input with a bank panel")
    out = _out_dir(args)

    panel = None
    if args.series:
        values = load_series_csv(args.series)
    elif args.input:
        panel = load_panel(args.input)
        values = {}
        for year in pre + post:
            if year not in panel.records:
                raise InputError(f"panel lacks year {year}")
            graph = symmetrize(allocate(panel.records[year], args.method, year), year)
            values[year] = lambda2(graph.weights)
    else:
        raise InputError("did needs --input or --series")
    missing = [y for y in pre + post if y not in values]
    if missing:
        raise InputError(f"series lacks configured years: {missing}")
    values = {y: values[y] for y in pre + post}

    series = make_series(values, pre, post)
    level = did_level(series)
    detrended = did_detrended(series)
    # every estimate comes before the first file is written, so a run that
    # fails leaves no outputs behind
    placebos = {false_year: placebo_test(series, false_year) for false_year in args.placebo or []}

    boot = None
    if args.bootstrap_b:
        boot = bootstrap_did(
            panel,
            B=args.bootstrap_b,
            seed=args.seed,
            method=args.method,
            variant="level",
            pre_years=pre,
            post_years=post,
        )
        boot_rows = []
        for year in boot.post_years:
            lo, hi = boot.ci[year]
            boot_rows.append(
                [
                    str(year),
                    _fmt(level.effects[year].beta),
                    _fmt(lo),
                    _fmt(hi),
                    _p_cell(boot.p_values[year], boot.B),
                    boot.B,
                    boot.master_seed,
                ]
            )
        write_csv(
            out / "bootstrap.csv",
            ["period", "effect", "ci_lower", "ci_upper", "p_value", "B", "seed"],
            boot_rows,
        )

    _did_table(out / "did_level.csv", level, values, boot)
    _did_table(out / "did_detrended.csv", detrended, values, None)

    doc = {"level": did_to_dict(level), "detrended": did_to_dict(detrended)}
    if boot is not None:
        doc["bootstrap"] = bootstrap_to_dict(boot)

    for false_year, placebo in placebos.items():
        _did_table(out / f"placebo_{false_year}.csv", placebo, values, None)
        doc.setdefault("placebo", {})[str(false_year)] = did_to_dict(placebo)

    write_json(out / "did.json", doc, indent=2)
    return 0


# cells (windows x live banks) of the cascade record per block written
_RECORD_BLOCK_CELLS = 2**12


def cmd_stress(args) -> int:
    graph = graph_from_edge_csv(args.input)
    forcing, capitals, horizon, dt = load_scenario(args.scenario, graph)
    result = cascade_stress_test(graph, capitals, forcing, horizon, dt)
    out = _out_dir(args)
    runs = result.live_runs()

    def blocks():
        # the record a bounded block of windows at a time: the window end
        # times and the live banks' distress in network order, sliced within
        # a run of windows that share their live banks
        for a, b, cols in runs:
            step = max(1, _RECORD_BLOCK_CELLS // len(cols))
            for start in range(a, b, step):
                stop = min(start + step, b)
                yield cols, result.times[start:stop].tolist(), result.distress[start:stop, cols].tolist()

    def history():
        # one snapshot per window end
        for cols, times, rows in blocks():
            banks = [graph.banks[c] for c in cols]
            yield [{"time": t, "distress": dict(zip(banks, row))} for t, row in zip(times, rows)]

    fields = [
        "total_failures", "rounds", "pre_lambda2", "post_lambda2",
        "fragility_change", "stabilization_time",
    ]
    doc = {key: getattr(result, key) for key in fields + ["losses"]}
    doc["failed"] = [{"round": r, "bank": b} for r, b in result.failed]
    doc["history"] = history()
    write_json(out / "cascade.json", doc)
    write_csv(out / "cascade_summary.csv", fields, [[_cell(getattr(result, key)) for key in fields]])

    def trajectory():
        # one chunk of text per window; each bank id is quoted once
        quoted = [csv_quote(bank) for bank in graph.banks]
        for cols, times, rows in blocks():
            banks = [quoted[c] for c in cols]
            for t, row in zip(times, rows):
                t = _fmt(t)
                yield "".join([f"{t},{bank},{v:.17g}\n" for bank, v in zip(banks, row)])

    write_csv_text(out / "trajectory.csv", ["time", "bank", "distress"], trajectory())
    return 0


def cmd_synth(args) -> int:
    if not (math.isfinite(args.sigma) and args.sigma >= 0):
        raise InputError(f"--sigma must be a finite non-negative number, got {args.sigma}")
    calibration = load_calibration(args.calib) if args.calib else DEFAULT_CALIBRATION
    panel = synthesize_panel(calibration, seed=args.seed, sigma=args.sigma)
    out_path = Path(args.out)
    if out_path.suffix != ".csv":
        out_path.mkdir(parents=True, exist_ok=True)
        out_path = out_path / "panel.csv"
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
    write_panel(panel, out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragnet",
        description="Reconstruct interbank exposure networks and analyze their spectral fragility.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, input_help: str = "bank panel CSV") -> None:
        p.add_argument("--input", required=True, help=input_help)
        p.add_argument("--out", required=True, help="output directory")

    def add_panel_or_series(p: argparse.ArgumentParser) -> None:
        # a series stands in for the panel's networks, so the two never mix
        source = p.add_mutually_exclusive_group()
        source.add_argument("--input", help="bank panel CSV")
        source.add_argument("--series", help="CSV of year,lambda2 overriding network construction")
        p.add_argument("--out", required=True, help="output directory")

    def add_method(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--method",
            choices=["equal", "size", "exposure"],
            default="equal",
            help="allocation method (default: equal)",
        )

    def add_seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42, help="random seed (default: 42)")

    p_build = sub.add_parser("build", help="reconstruct per-year networks from a panel")
    add_io(p_build)
    add_method(p_build)
    p_build.set_defaults(func=cmd_build)

    p_analyze = sub.add_parser("analyze", help="fragility metrics and centrality tables")
    add_panel_or_series(p_analyze)
    add_method(p_analyze)
    p_analyze.add_argument(
        "--epsilon",
        type=float,
        default=math.exp(-1.0),
        help="mixing-time threshold (default: 1/e)",
    )
    p_analyze.add_argument(
        "--spectra", action="store_true", help="also export per-year eigenvalue JSON"
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_did = sub.add_parser("did", help="treatment-effect estimates on the lambda2 series")
    add_panel_or_series(p_did)
    add_method(p_did)
    add_seed(p_did)
    p_did.add_argument(
        "--bootstrap-b", type=int, default=0, help="bootstrap replications (0 disables)"
    )
    p_did.add_argument("--pre", default=DEFAULT_PRE, help="comma-separated pre years")
    p_did.add_argument("--post", default=DEFAULT_POST, help="comma-separated post years")
    p_did.add_argument(
        "--placebo",
        action="append",
        type=int,
        help="false treatment year inside the pre-period (repeatable)",
    )
    p_did.set_defaults(func=cmd_did)

    p_stress = sub.add_parser("stress", help="cascade stress test on a built network")
    add_io(p_stress, input_help="edge-list CSV written by build")
    p_stress.add_argument("--scenario", required=True, help="scenario JSON path")
    p_stress.set_defaults(func=cmd_stress)

    p_synth = sub.add_parser("synth", help="generate a calibrated synthetic panel")
    p_synth.add_argument("--out", required=True, help="output CSV path or directory")
    add_seed(p_synth)
    p_synth.add_argument("--calib", help="JSON calibration (year -> n_banks/total_exposure/country_list)")
    p_synth.add_argument(
        "--sigma", type=float, default=1.0, help="log-normal exposure dispersion (default: 1)"
    )
    p_synth.set_defaults(func=cmd_synth)
    return parser


_METHOD_NAMES = {"equal": "equal", "size": "size_weighted", "exposure": "exposure_weighted"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "method"):
        args.method = _METHOD_NAMES[args.method]
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
