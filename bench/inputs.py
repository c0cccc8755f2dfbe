"""Benchmark set-up: write one workload's inputs with the program's own synth.

    python3 bench/inputs.py --workload paper --seed 42 --out DIR

A fresh interpreter runs this, so its wall time includes start-up and the
`fragnet` import that every command-line user pays. It writes
`DIR/panel.csv` (with its manifest) through `synthesize_panel` and
`write_panel`, and `DIR/scenario.json` for the cascade on the 2014 network.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_fragnet():
    """Import fragnet from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fragnet

    if not Path(fragnet.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: fragnet imported from {fragnet.__file__}, not from {src}")
    return fragnet


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import_fragnet()
    from fragnet.cli import DEFAULT_CALIBRATION
    from fragnet.panel import synthesize_panel, write_panel

    from workloads import CASCADE_YEAR, WORKLOADS, scaled_calibration, scenario

    workload = WORKLOADS[args.workload]
    calibration = scaled_calibration(DEFAULT_CALIBRATION) if workload.scaled else DEFAULT_CALIBRATION
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    panel = synthesize_panel(calibration, seed=args.seed)
    write_panel(panel, out / "panel.csv")
    banks = [r.lei for r in panel.records[CASCADE_YEAR]]
    doc = scenario(banks, workload, args.seed)
    (out / "scenario.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
