#!/usr/bin/env python3
"""Worked sequential-monitoring example on a synthetic trial.

Mirrors a long-duration trial workflow: subjects accrue over six years, the
survival probability at two years post-entry is compared annually from years
3 to 8 against power-family spending boundaries (rho = 3), and the total
information target is fixed up front.  Demonstrates the design/analyze loop
the CLI exposes, driven directly through the library API.
"""

from __future__ import annotations

import argparse
import sys

from seqsurv import (
    MonitoringState,
    Scenario,
    SpendingFunction,
    boundaries,
    compare_sp,
    generate_columns,
    monitor,
    snapshot,
)

ANALYSIS_YEARS = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--n-per-arm", type=int, default=184)
    parser.add_argument("--treatment-log-hazard", type=float, default=-0.35)
    parser.add_argument("--total-info", type=float, default=450.550)
    args = parser.parse_args(argv)

    scenario = Scenario(
        n0=args.n_per_arm, n1=args.n_per_arm, tau=2.0, alpha0=1.0, alpha1=0.0,
        beta_w=args.treatment_log_hazard, covariate_scheme="bernoulli2",
        phi=0.4, accrual=6.0, censor_rate=0.01,
        k_analyses=len(ANALYSIS_YEARS),
        target_info_fractions=tuple((k + 1) / len(ANALYSIS_YEARS) for k in range(len(ANALYSIS_YEARS))),
    )
    dataset = generate_columns(scenario, args.seed)

    sf = SpendingFunction(0.05, "power", rho=3.0, sidedness="two_sided")
    design = boundaries(sf, scenario.target_info_fractions)
    state = MonitoringState(design=design, total_information=args.total_info, method="adjusted")

    print(f"{'year':>5} {'info':>9} {'IF':>7} {'boundary':>9} {'z':>8}  decision")
    for year in ANALYSIS_YEARS:
        snap = snapshot(dataset, year)
        res = compare_sp(snap, scenario.tau)
        stage = monitor(state, res.info_level, res.z, calendar_time=year)
        print(
            f"{year:>5.1f} {stage.info_level:>9.2f} {stage.info_fraction:>7.3f} "
            f"{stage.boundary:>9.4f} {stage.z:>8.4f}  {stage.decision}"
        )
        if stage.decision != "continue":
            break

    final = state.results[-1]
    if final.decision == "reject":
        print(f"\nefficacy boundary crossed at year {state.calendar_times[-1]:.1f}")
    else:
        print("\nno boundary crossed; trial ran to its final analysis")
    return 0


if __name__ == "__main__":
    sys.exit(main())
