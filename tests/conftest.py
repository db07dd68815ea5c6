import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from seqsurv import (
    Scenario,
    SubjectRecord,
    build_design,
    calibrate_analysis_times,
    calibrate_effect,
    snapshot,
)

WORKERS = min(2, os.cpu_count() or 1)

PH_ALT_BASE = Scenario(
    n0=200, n1=200, tau=1.0, alpha0=1.0, alpha1=0.0, beta_w=0.0,
    covariate_scheme="normal1", phi=math.log(2.0), accrual=2.0, censor_rate=0.0,
    k_analyses=3, total_alpha=0.05, spending_rho=3.0,
    target_info_fractions=(0.5, 0.75, 1.0),
)


@pytest.fixture(scope="session")
def ph_alt_effect():
    """Calibrated 80%-power effect for the covariate-influenced alternative.

    Shared between the power-ordering acceptance criterion and the replay
    check of the calibration itself.
    """
    design = build_design(PH_ALT_BASE)
    cal = calibrate_analysis_times(
        PH_ALT_BASE, replicates=300, seed=303, grid_size=11,
        methods=("adjusted", "km"), workers=WORKERS,
    )
    effect = calibrate_effect(
        PH_ALT_BASE, 0.80, design, calibration=cal, replicates=6000,
        seed=404, workers=WORKERS,
    )
    return {"design": design, "calibration": cal, "effect": effect}


def random_dataset(rng, n=None, p=None, arm_balance=True):
    """Small random two-arm dataset for oracle comparisons."""
    n = n if n is not None else int(rng.integers(4, 13))
    p = p if p is not None else int(rng.integers(1, 3))
    records = []
    for j in range(n):
        arm = j % 2 if arm_balance else int(rng.integers(0, 2))
        records.append(
            SubjectRecord(
                id=f"s{j}",
                arm=arm,
                entry=float(rng.uniform(0, 1)),
                time_on_study=float(rng.exponential(1.0) + 0.05),
                event=bool(rng.random() < 0.75),
                covariates=tuple(rng.normal(0, 1, p)),
            )
        )
    return records


def snapshot_arrays(snap):
    """Plain-python views handed to the naive oracles."""
    return (
        [float(x) for x in snap.follow_up],
        [bool(d) for d in snap.event_observed],
        [int(a) for a in snap.arm],
        [np.asarray(z, dtype=float) for z in snap.covariates],
    )


@pytest.fixture
def hand_snapshot():
    """Six-subject, one-covariate dataset with distinct event times."""
    records = [
        SubjectRecord("a", 0, 0.0, 0.9, True, (0.5,)),
        SubjectRecord("b", 0, 0.0, 1.7, True, (-0.3,)),
        SubjectRecord("c", 0, 0.0, 2.4, False, (1.2,)),
        SubjectRecord("d", 1, 0.0, 0.6, True, (0.1,)),
        SubjectRecord("e", 1, 0.0, 1.1, True, (-1.0,)),
        SubjectRecord("f", 1, 0.0, 2.0, False, (0.7,)),
    ]
    return snapshot(records, 5.0)


@pytest.fixture
def hand_snapshot_8():
    """Eight subjects, one covariate, including ties and late entry."""
    records = [
        SubjectRecord("a", 0, 0.0, 0.8, True, (0.4,)),
        SubjectRecord("b", 0, 0.2, 1.3, True, (-0.6,)),
        SubjectRecord("c", 0, 0.1, 1.3, True, (0.9,)),
        SubjectRecord("d", 0, 0.0, 2.5, False, (0.0,)),
        SubjectRecord("e", 1, 0.3, 0.5, True, (-0.2,)),
        SubjectRecord("f", 1, 0.0, 1.8, True, (1.1,)),
        SubjectRecord("g", 1, 0.4, 2.2, False, (-0.8,)),
        SubjectRecord("h", 1, 0.0, 2.9, True, (0.3,)),
    ]
    return snapshot(records, 6.0)
