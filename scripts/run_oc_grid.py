#!/usr/bin/env python3
"""Long-running operating-characteristics grid.

Sweeps covariate influence and hazard shape across null and alternative
scenarios for all three methods, reproducing the qualitative trends of the
simulation study at configurable replicate counts.  Desk-scale defaults
(2000 replicates) run in tens of minutes; pass --replicates 10000 for the
full-precision version (hours).

Outputs one CSV row per (scenario, method, stage) plus a plot-data file per
scenario.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from seqsurv import (
    Scenario,
    build_design,
    calibrate_analysis_times,
    calibrate_effect,
    null_beta_w,
    oc_plot_data,
    run_oc,
)

PHIS = {"none": 0.0, "log1.5": math.log(1.5), "log2": math.log(2.0)}


def scenario_grid(n_per_arm: int):
    for shape_label, (a0, a1) in {"ph": (1.0, 0.0), "nph": (2.0, -1.0)}.items():
        for phi_label, phi in PHIS.items():
            scheme = "none" if phi == 0.0 else "normal1"
            yield f"{shape_label}_{phi_label}", Scenario(
                n0=n_per_arm, n1=n_per_arm, tau=1.0, alpha0=a0, alpha1=a1,
                beta_w=0.0, covariate_scheme=scheme, phi=phi, accrual=2.0,
                censor_rate=0.0, k_analyses=3, total_alpha=0.05,
                spending_rho=3.0, target_info_fractions=(0.5, 0.75, 1.0),
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--replicates", type=int, default=2000)
    parser.add_argument("--calibration-replicates", type=int, default=500)
    parser.add_argument("--n-per-arm", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--target-power", type=float, default=0.80)
    parser.add_argument("--out-dir", default="oc_grid_results")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["scenario,hypothesis,stage,method,cum_rejection,se"]

    for label, base in scenario_grid(args.n_per_arm):
        design = build_design(base)
        null_scenario = replace(base, beta_w=null_beta_w(base))
        cal = calibrate_analysis_times(
            null_scenario, replicates=args.calibration_replicates, seed=args.seed,
            methods=("adjusted", "km", "cox"), workers=args.workers,
        )
        print(f"[{label}] analysis times {tuple(round(t, 3) for t in cal.analysis_times)} "
              f"total info {cal.total_information:.1f}", flush=True)

        oc_null = run_oc(
            null_scenario, design, ("adjusted", "km", "cox"),
            replicates=args.replicates, seed=args.seed, calibration=cal,
            workers=args.workers,
        )
        for m in oc_null.methods:
            for k, val in enumerate(oc_null.cumulative_rejection[m]):
                rows.append(
                    f"{label},null,{k + 1},{m},{val!r},{oc_null.standard_errors[m][k]!r}"
                )
        (out_dir / f"{label}_null_plot.csv").write_text(oc_plot_data(oc_null, design))
        print(f"[{label}] null final: "
              + ", ".join(f"{m}={oc_null.final_rejection(m):.3f}" for m in oc_null.methods),
              flush=True)

        effect = calibrate_effect(
            null_scenario, args.target_power, design, calibration=cal,
            replicates=3 * args.replicates, seed=args.seed + 1, workers=args.workers,
        )
        alt_scenario = replace(base, beta_w=effect.beta_delta)
        oc_alt = run_oc(
            alt_scenario, design, ("adjusted", "km", "cox"),
            replicates=args.replicates, seed=args.seed + 2, calibration=cal,
            workers=args.workers,
        )
        for m in oc_alt.methods:
            for k, val in enumerate(oc_alt.cumulative_rejection[m]):
                rows.append(
                    f"{label},alternative,{k + 1},{m},{val!r},{oc_alt.standard_errors[m][k]!r}"
                )
        (out_dir / f"{label}_alt_plot.csv").write_text(oc_plot_data(oc_alt, design))
        print(f"[{label}] alternative (effect {effect.beta_delta:.3f}) final: "
              + ", ".join(f"{m}={oc_alt.final_rejection(m):.3f}" for m in oc_alt.methods),
              flush=True)

    (out_dir / "oc_grid.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out_dir / 'oc_grid.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
