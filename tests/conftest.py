import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from seqsurv import (
    Columns,
    Scenario,
    build_design,
    calibrate_analysis_times,
    calibrate_effect,
    snapshot,
    to_columns,
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
        PH_ALT_BASE, replicates=300, seed=303, methods=("adjusted", "km"), workers=WORKERS,
    )
    effect = calibrate_effect(
        PH_ALT_BASE, 0.80, design, calibration=cal, replicates=6000,
        seed=404, workers=WORKERS,
    )
    return {"design": design, "calibration": cal, "effect": effect}


def columns(rows):
    """Validated ``Columns`` from ``(id, arm, entry, time_on_study, event,
    covariates)`` rows, one per subject."""
    ids, arm, entry, time_on_study, event, covariates = zip(*rows)
    return to_columns(Columns(
        ids=ids,
        arm=np.array(arm, dtype=np.int8),
        entry=np.array(entry, dtype=np.float64),
        time_on_study=np.array(time_on_study, dtype=np.float64),
        event=np.array(event, dtype=bool),
        covariates=np.array(covariates, dtype=np.float64),
    ))


def random_dataset(rng, n=None, p=None, arm_balance=True):
    """Small random two-arm dataset for oracle comparisons."""
    n = n if n is not None else int(rng.integers(4, 13))
    p = p if p is not None else int(rng.integers(1, 3))
    rows = []
    for j in range(n):
        arm = j % 2 if arm_balance else int(rng.integers(0, 2))
        rows.append((
            f"s{j}",
            arm,
            float(rng.uniform(0, 1)),
            float(rng.exponential(1.0) + 0.05),
            bool(rng.random() < 0.75),
            tuple(rng.normal(0, 1, p)),
        ))
    return columns(rows)


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
    cols = columns([
        ("a", 0, 0.0, 0.9, True, (0.5,)),
        ("b", 0, 0.0, 1.7, True, (-0.3,)),
        ("c", 0, 0.0, 2.4, False, (1.2,)),
        ("d", 1, 0.0, 0.6, True, (0.1,)),
        ("e", 1, 0.0, 1.1, True, (-1.0,)),
        ("f", 1, 0.0, 2.0, False, (0.7,)),
    ])
    return snapshot(cols, 5.0)


@pytest.fixture
def hand_snapshot_8():
    """Eight subjects, one covariate, including ties and late entry."""
    cols = columns([
        ("a", 0, 0.0, 0.8, True, (0.4,)),
        ("b", 0, 0.2, 1.3, True, (-0.6,)),
        ("c", 0, 0.1, 1.3, True, (0.9,)),
        ("d", 0, 0.0, 2.5, False, (0.0,)),
        ("e", 1, 0.3, 0.5, True, (-0.2,)),
        ("f", 1, 0.0, 1.8, True, (1.1,)),
        ("g", 1, 0.4, 2.2, False, (-0.8,)),
        ("h", 1, 0.0, 2.9, True, (0.3,)),
    ])
    return snapshot(cols, 6.0)
