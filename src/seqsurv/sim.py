"""Trial simulation with Weibull outcomes, staggered accrual, Monte Carlo
calibration of analysis schedules, and effect sizes calibrated from the
canonical joint distribution's power with a simulated refinement.

Event times follow a Weibull law whose shape may differ by arm (shape offset
nonzero means non-proportional hazards between arms) while covariates act
proportionally on the rate.  Replicates draw from counter-based random
streams keyed by (seed, replicate index), so results are reproducible and
independent of how replicates are distributed over workers.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .adjusted import compare_sp_batch
from .comparators import cox_wald_batch, km_compare_batch
from .cox import RiskSets
# bench/spans.py wraps these three names here; the simulation calls the batch functions
from .adjusted import compare_sp  # noqa: F401
from .comparators import cox_wald, km_compare  # noqa: F401
from .data import Columns, Snapshot, check_t0, snapshot
from .errors import SeqSurvError
from .gsdesign import (
    ONE_SIDED_LOWER,
    GSDesign,
    MonitoringState,
    SpendingFunction,
    _integer,
    _number,
    _numbers,
    _parse_kv,
    boundaries,
    crossing_probabilities,
)

COVARIATE_SCHEMES = ("none", "normal1", "bernoulli2")

_MASK64 = (1 << 64) - 1
_CALIBRATION_STREAM_OFFSET = 1 << 48  # keeps calibration draws disjoint from OC draws
_COVARIATE_LAW_STREAM = 1 << 49       # fixed stream of the analytic power's covariate sample
_COVARIATE_LAW_DRAWS = 1 << 16
_EFFECT_SEARCH_WIDTH = 4.0            # calibrate_effect searches [null - 4, null]
_MAX_FAILURE_FRACTION = 0.005         # run_oc refuses to report rates beyond this
_CALIBRATION_GRID_SIZE = 13           # calendar times on which calibration estimates information
# Most replicates in one simulation block, and most rows in one of
# _monitor_block's statistic calls: a block of fewer replicates sends several
# consecutive looks in one call.  On the bench scenario (400 per arm, 2 shared
# vCPUs) a 2-replicate block's statistic calls took 3.6-3.9 ms as three calls
# per method, one per look, and 2.1-2.2 ms as one 6-row call per method.  A
# full block still takes one look per call, so a call's rows, and its memory,
# never exceed a block's.
_BLOCK_REPLICATES = 32
# Most study-end snapshots in one calibration batch of the methods after
# "adjusted".  On the bench scenario (400 per arm, 2 shared vCPUs) the
# study-end KM and Cox-Wald with their RiskSets cost 0.74-0.82 ms per
# replicate one at a time, 0.30-0.36 ms in groups of 8 and 0.31-0.36 ms in
# groups of 32: groups of 8 already remove the per-call overhead.  One group
# per 32-replicate block doubled the peak RSS of a 32-replicate calibration
# at 20 000 per arm (257 -> 531 MB).  A group of 8 is smaller than a
# replicate's 13-row grid batch and did not raise that peak (256-263 MB
# one replicate at a time, 253-261 MB in groups of 8).
_END_BATCH_ROWS = 8

# Scenario fields that must be finite floats (gamma0 may also be None); NaN
# would pass every ``<=`` check below.
_FLOAT_FIELDS = (
    "tau", "alpha0", "alpha1", "gamma0", "beta_w", "phi", "accrual", "censor_rate",
    "total_alpha", "spending_rho",
)
# Logs of the smallest and largest positive normal float64
_LOG_FLOAT_MIN = math.log(sys.float_info.min)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_FLOAT_RANGE = (
    f"float64's positive normal range [exp({_LOG_FLOAT_MIN:.1f}), exp({_LOG_FLOAT_MAX:.1f})]"
)


@dataclass(frozen=True)
class Scenario:
    """One simulated-trial configuration.

    The fixed comparison time is ``tau``; subjects accrue uniformly on
    [0, accrual] so the study runs until ``tau + accrual``.  Covariate effects
    are ``phi / sqrt(p)`` per covariate, which keeps the linear predictor
    variance equal across covariate schemes.  ``gamma0 = None`` defaults the
    baseline rate so a covariate-zero control subject has 50% survival at
    ``tau``.
    """

    n0: int
    n1: int
    tau: float
    alpha0: float = 1.0
    alpha1: float = 0.0
    gamma0: float | None = None
    beta_w: float = 0.0
    covariate_scheme: str = "none"
    phi: float = 0.0
    accrual: float = 2.0
    censor_rate: float = 0.0
    k_analyses: int = 3
    total_alpha: float = 0.05
    spending_rho: float = 3.0
    sidedness: str = "two_sided"
    target_info_fractions: tuple[float, ...] = (0.5, 0.75, 1.0)

    def __post_init__(self) -> None:
        for name in ("n0", "n1", "k_analyses"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not all(math.isfinite(f) for f in self.target_info_fractions):
            raise ValueError(f"target_info_fractions must be finite, got {self.target_info_fractions}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.alpha0 + self.alpha1 <= 0:
            raise ValueError("alpha0 + alpha1 must be positive (treatment-arm shape)")
        if self.gamma0 is not None and self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if self.accrual < 0:
            raise ValueError("accrual must be >= 0")
        if self.censor_rate < 0:
            raise ValueError("censor_rate must be >= 0")
        if self.covariate_scheme not in COVARIATE_SCHEMES:
            raise ValueError(f"covariate_scheme must be one of {COVARIATE_SCHEMES}")
        if len(self.target_info_fractions) != self.k_analyses:
            raise ValueError("target_info_fractions must have k_analyses entries")
        fracs = self.target_info_fractions
        if any(b <= a for a, b in zip(fracs, fracs[1:])) or fracs[0] <= 0:
            raise ValueError("target_info_fractions must be strictly increasing and positive")
        if abs(fracs[-1] - 1.0) > 1e-9:
            raise ValueError("target_info_fractions must end at 1")
        # generate_columns draws with the rates gamma0 and gamma0 * exp(beta_w),
        # which float64 must hold as positive normal numbers (an overflow gives
        # every subject an event at time 0, an underflow events at time inf).
        # Checked in log space: the default gamma0 = log 2 / tau**alpha0 can
        # itself overflow or divide by zero.
        if self.gamma0 is None:
            log_gamma0 = math.log(math.log(2.0)) - self.alpha0 * math.log(self.tau)
            if not _LOG_FLOAT_MIN <= log_gamma0 <= _LOG_FLOAT_MAX:
                raise ValueError(
                    f"tau = {self.tau!r} and alpha0 = {self.alpha0!r} put the default "
                    f"gamma0 = log 2 / tau**alpha0 outside {_FLOAT_RANGE}"
                )
        else:
            log_gamma0 = math.log(self.gamma0)
            if not _LOG_FLOAT_MIN <= log_gamma0 <= _LOG_FLOAT_MAX:
                raise ValueError(f"gamma0 = {self.gamma0!r} is outside {_FLOAT_RANGE}")
        if not (_LOG_FLOAT_MIN <= self.beta_w <= _LOG_FLOAT_MAX
                and _LOG_FLOAT_MIN <= log_gamma0 + self.beta_w <= _LOG_FLOAT_MAX):
            raise ValueError(
                f"beta_w = {self.beta_w!r} puts exp(beta_w) or the treatment rate "
                f"gamma0 * exp(beta_w) outside {_FLOAT_RANGE}"
            )

    @property
    def n_covariates(self) -> int:
        return {"none": 0, "normal1": 1, "bernoulli2": 2}[self.covariate_scheme]

    @property
    def covariate_effects(self) -> np.ndarray:
        p = self.n_covariates
        if p == 0:
            return np.zeros(0)
        return np.full(p, self.phi / math.sqrt(p))

    @property
    def gamma0_value(self) -> float:
        if self.gamma0 is not None:
            return self.gamma0
        return math.log(2.0) / self.tau**self.alpha0

    @property
    def study_length(self) -> float:
        return self.tau + self.accrual

    @property
    def n_total(self) -> int:
        return self.n0 + self.n1


def null_beta_w(scenario: Scenario) -> float:
    """Treatment log-rate offset that equalizes the arm survival curves at tau."""
    return -scenario.alpha1 * math.log(scenario.tau)


def build_design(scenario: Scenario) -> GSDesign:
    """Boundaries for the scenario's spending family and planned schedule."""
    sf = SpendingFunction(
        total_alpha=scenario.total_alpha,
        family="power",
        rho=scenario.spending_rho,
        sidedness=scenario.sidedness,
    )
    return boundaries(sf, scenario.target_info_fractions)


def _rng(seed: int, replicate: int) -> np.random.Generator:
    key = ((seed & _MASK64) << 64) | (replicate & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


@lru_cache(maxsize=8)
def _subject_ids(n0: int, n1: int) -> tuple[str, ...]:
    return tuple(f"c{j:05d}" for j in range(n0)) + tuple(f"t{j:05d}" for j in range(n1))


def _draw_covariates(rng: np.random.Generator, scheme: str, n: int) -> np.ndarray:
    if scheme == "none":
        return np.zeros((n, 0))
    if scheme == "normal1":
        return rng.standard_normal((n, 1))
    z = np.empty((n, 2))
    for j, q in enumerate((0.3, 0.5)):
        b = rng.random(n) < q
        z[:, j] = (b - q) / math.sqrt(q * (1.0 - q))
    return z


def generate_columns(scenario: Scenario, seed: int, replicate: int = 0) -> Columns:
    """Array-valued trial draw, in the columnar form :func:`~seqsurv.data.ingest_csv`
    also returns.  It is valid by construction, so the simulation loops
    snapshot it without validating it.

    Draw order per replicate stream: entry times, covariates, event uniforms,
    then censoring times (only when the censor rate is positive).
    """
    rng = _rng(seed, replicate)
    n = scenario.n_total
    arm = np.concatenate(
        [np.zeros(scenario.n0, dtype=np.int8), np.ones(scenario.n1, dtype=np.int8)]
    )
    entry = rng.uniform(0.0, scenario.accrual, n) if scenario.accrual > 0 else np.zeros(n)
    z = _draw_covariates(rng, scenario.covariate_scheme, n)
    shape = scenario.alpha0 + scenario.alpha1 * arm
    rate = scenario.gamma0_value * np.exp(
        scenario.beta_w * arm + z @ scenario.covariate_effects
    )
    t_event = (-np.log1p(-rng.random(n)) / rate) ** (1.0 / shape)
    if scenario.censor_rate > 0:
        t_censor = rng.exponential(1.0 / scenario.censor_rate, n)
    else:
        t_censor = np.full(n, np.inf)
    return Columns(
        ids=_subject_ids(scenario.n0, scenario.n1),
        arm=arm,
        entry=entry,
        time_on_study=np.minimum(t_event, t_censor),
        event=t_event <= t_censor,
        covariates=z,
    )


# Each method's statistic over a batch, ``(batch, t0)``: its batch result,
# whose rows hold z, info_level and the SeqSurvError the row raised (None when
# it did not).  ``batch`` is a sequence of snapshots or their RiskSets; the
# simulation builds one RiskSets per chunk of looks (_monitor_block) or per
# group of snapshots (_calibration_block) for them all.
# The entries look the batch functions up in this module when called.
# run_oc, calibration and the analyze command reach them here; compare_sp,
# km_compare and cox_wald, their batches of one, are on none of these paths.
STATISTICS = {
    "adjusted": lambda batch, t0: compare_sp_batch(batch, t0),
    "km": lambda batch, t0: km_compare_batch(batch, t0),
    "cox": lambda batch, t0: cox_wald_batch(batch),
}
METHODS = tuple(STATISTICS)


def method_statistic(method: str, snap: Snapshot, t0: float) -> tuple[float, float]:
    """(z, information) of one method at one snapshot, its statistic on a
    batch of one; raises ``SeqSurvError`` when the data cannot support the
    statistic, ``ValueError`` for a bad ``t0``."""
    if method not in STATISTICS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    check_t0(t0)
    batch = STATISTICS[method]((snap,), t0)
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return batch.z[0], batch.info_level[0]


def _check_methods(methods: Sequence[str]) -> tuple[str, ...]:
    """The methods as a tuple; at least one, each a name of ``METHODS``, none repeated."""
    methods = tuple(methods)
    if not methods:
        raise ValueError(f"at least one method is required; choose from {METHODS}")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"method(s) {', '.join(map(repr, repeated))} given more than once")
    return methods


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _monitor_block(scenario, design, methods, analysis_times, method_totals, seed, rs) -> list:
    """Each method's first rejection stage in each replicate of ``rs``:
    1-based, 0 when it never rejected, -1 when its statistic or monitor failed.

    The block is monitored in chunks of consecutive looks.  A chunk starts at
    the first look not yet taken and holds as many looks as keep (replicates
    still running) x (looks) within ``_BLOCK_REPLICATES`` rows, and at least
    one look: a small block sends all its looks at once, a full block one
    look at a time.  In a chunk every method makes one batched statistic
    call, whose rows, look-major, are the snapshots of the replicates whose
    monitoring of that method was running at the chunk's start; each
    replicate's monitor then steps through its rows in look order.  A method
    whose monitor has rejected, accepted or failed takes no later looks in
    that replicate, so the rows of its later looks in the same chunk are
    computed and dropped unread (a tiny trial can warn about such a row).
    A row's statistic does not depend on the other rows, so a replicate's
    stages do not depend on its block or chunk.  A chunk builds the
    ``RiskSets`` of each distinct row list once, and every method with those
    rows reads it: the methods' rows are the same until one of them stops in
    some replicate.
    """
    cols = [generate_columns(scenario, seed, r) for r in rs]
    stages = [dict.fromkeys(methods, 0) for _ in rs]
    # per replicate: each running method's monitor
    monitors = [{m: MonitoringState(design, method_totals[m]) for m in methods} for _ in rs]
    start, n_looks = 0, len(analysis_times)
    while start < n_looks:
        live = [i for i, running in enumerate(monitors) if running]
        if not live:
            break
        looks = range(start, min(n_looks, start + max(1, _BLOCK_REPLICATES // len(live))))
        start = looks.stop
        snaps = {(k, i): snapshot(cols[i], analysis_times[k]) for k in looks for i in live}
        risk_sets = {}  # this chunk's RiskSets of each row list
        for m in methods:
            rows = tuple((k, i) for k in looks for i in live if m in monitors[i])
            if not rows:
                continue
            if rows not in risk_sets:
                risk_sets[rows] = RiskSets.from_snapshots([snaps[row] for row in rows])
            batch = STATISTICS[m](risk_sets[rows], scenario.tau)
            for (k, i), z, info, error in zip(rows, batch.z, batch.info_level, batch.errors):
                if m not in monitors[i]:  # stopped at an earlier look of this chunk
                    continue
                decision = "fail"
                if error is None:
                    try:
                        decision = monitors[i][m].step(info, z).decision
                    except ValueError:  # the monitor refused the look (say, a NaN level)
                        pass
                if decision != "continue":
                    del monitors[i][m]
                    stages[i][m] = {"reject": k + 1, "accept": 0, "fail": -1}[decision]
    return [tuple(stage[m] for m in methods) for stage in stages]


# One worker pool per process, forked at the first ``workers > 1`` call and
# kept while the worker count stays the same; concurrent.futures shuts it down
# at interpreter exit.
_POOL_LOCK = threading.Lock()
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def _run_blocks(fn, worker_args: list, workers: int) -> list:
    """``fn`` over the blocks, in order, in this process or the worker pool.

    Blocks are pure functions of their arguments, so when a worker dies the
    call is rerun once on a fresh pool; a second break raises.
    """
    global _pool, _pool_workers
    if workers <= 1:
        return [fn(a) for a in worker_args]
    with _POOL_LOCK:
        for retry in (False, True):
            if _pool is None or _pool_workers != workers:
                _close_pool()
                _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
            try:
                return list(_pool.map(fn, worker_args))
            except BrokenProcessPool:
                _close_pool()
                if retry:
                    raise


def _map_replicates(fn, fixed: tuple, replicates: int, workers: int) -> list:
    """Each replicate's result for r = 0, ..., replicates - 1, in replicate
    order, from ``fn(*fixed, rs)`` on blocks ``rs`` of consecutive replicates
    (``fn`` returns one result per replicate of its block).

    A block holds min(32, ceil(replicates / workers)) replicates: a small run
    gives every worker one block, and a large run gives many blocks of 32,
    which keeps the pool balanced.  A caller that reduces the results in
    replicate order gets the same answer for every worker count.
    """
    _check_count("replicates", replicates)
    _check_count("workers", workers)
    block = min(_BLOCK_REPLICATES, math.ceil(replicates / workers))
    blocks = [range(start, min(start + block, replicates)) for start in range(0, replicates, block)]
    return [result for results in _run_blocks(partial(fn, *fixed), blocks, workers) for result in results]


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Stagewise cumulative rejection rates per method, with Monte Carlo SEs."""

    methods: tuple[str, ...]
    analysis_times: tuple[float, ...]
    replicates: int
    seed: int
    cumulative_rejection: dict[str, tuple[float, ...]]
    standard_errors: dict[str, tuple[float, ...]]
    failures: dict[str, int]
    used_replicates: dict[str, int]
    method_totals: dict[str, float]

    def final_rejection(self, method: str) -> float:
        return self.cumulative_rejection[method][-1]


def run_oc(
    scenario: Scenario,
    design: GSDesign,
    methods: Sequence[str] = ("adjusted",),
    replicates: int = 2000,
    seed: int = 0,
    *,
    calibration: CalibrationResult,
    workers: int = 1,
) -> OperatingCharacteristics:
    """Estimate stagewise cumulative rejection rates by simulation.

    Each replicate is generated and monitored look by look at the calibrated
    analysis times: every requested method whose monitoring has not ended
    takes an error-spending step against that method's total information with
    its statistic at the look's snapshot.  A block of replicates computes the
    statistics of several consecutive looks in one batch, up to 32 rows (see
    ``_monitor_block``); rows of looks after a monitor stopped are computed
    and dropped, so a tiny trial can print a ``RuntimeWarning`` for a row no
    monitor reads.  Results are deterministic in (scenario, seed, replicates)
    regardless of ``workers``.
    """
    methods = _check_methods(methods)
    totals = _method_totals(calibration, methods)
    if len(calibration.analysis_times) != design.n_stages:
        raise ValueError(
            f"design has {design.n_stages} stages but calibration produced "
            f"{len(calibration.analysis_times)} analysis times"
        )

    fixed = (scenario, design, methods, calibration.analysis_times, totals, seed)
    stages = np.array(_map_replicates(_monitor_block, fixed, replicates, workers))

    cumulative, ses, failures, used = {}, {}, {}, {}
    for m, stage in zip(methods, stages.T):
        failures[m] = int(np.sum(stage < 0))
        if failures[m] > _MAX_FAILURE_FRACTION * replicates:
            raise SeqSurvError(
                f"method {m!r}: {failures[m]} of {replicates} replicates failed "
                f"(more than {_MAX_FAILURE_FRACTION:.1%}); refusing to report rates"
            )
        # the failure bound leaves at least one replicate
        ok = stage[stage >= 0]
        used[m] = ok.size
        cum = [float(np.mean((ok > 0) & (ok <= k))) for k in range(1, design.n_stages + 1)]
        cumulative[m] = tuple(cum)
        ses[m] = tuple(math.sqrt(p * (1.0 - p) / ok.size) for p in cum)

    return OperatingCharacteristics(
        methods=methods,
        analysis_times=tuple(calibration.analysis_times),
        replicates=replicates,
        seed=seed,
        cumulative_rejection=cumulative,
        standard_errors=ses,
        failures=failures,
        used_replicates=used,
        method_totals=totals,
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Monte Carlo estimate of the information growth curve and the analysis
    times hitting the target information fractions.  ``failures`` counts the
    failed (replicate, grid time, method) evaluations."""

    analysis_times: tuple[float, ...]
    total_information: float
    method_totals: dict[str, float]
    grid_times: tuple[float, ...]
    mean_info: tuple[float, ...]
    isotonic_applied: bool
    replicates: int
    seed: int
    failures: int


def _calibration_block(scenario, grid, methods, seed, rs) -> list[list[float]]:
    """Each replicate of ``rs``: its adjusted information at each grid time,
    from one batched statistic call on its grid-time snapshots, then each
    other method's (``methods[1:]``) at the study end; NaN marks a failure.

    The other methods run once per group of at most ``_END_BATCH_ROWS``
    consecutive replicates, on one ``RiskSets`` of the group's study-end
    snapshots.  A row's statistic does not depend on the other rows, so a
    replicate's row does not depend on its block or its group.
    """
    rows = []
    for start in range(0, len(rs), _END_BATCH_ROWS):
        ends = []
        for r in rs[start : start + _END_BATCH_ROWS]:
            cols = generate_columns(scenario, seed, _CALIBRATION_STREAM_OFFSET + r)
            snaps = [snapshot(cols, u) for u in grid]
            # ``batch`` holds each batch until the next one replaces it.
            # Freed at once, its pages went back to the system and the next
            # replicate faulted them in again: 4 000 against 800 minor faults,
            # and 15 % more time, per 8-replicate calibration.
            batch = STATISTICS["adjusted"](snaps, scenario.tau)
            rows.append([
                info if error is None else math.nan
                for info, error in zip(batch.info_level, batch.errors)
            ])
            ends.append(snaps[-1])
        if methods[1:]:
            group = RiskSets.from_snapshots(ends)
            for m in methods[1:]:
                batch = STATISTICS[m](group, scenario.tau)
                for row, info, error in zip(rows[start:], batch.info_level, batch.errors):
                    row.append(info if error is None else math.nan)
            del group  # free it before the next group's replicates
    return rows


def calibrate_analysis_times(
    scenario: Scenario,
    replicates: int = 400,
    *,
    seed: int = 0,
    methods: Sequence[str] = ("adjusted",),
    workers: int = 1,
) -> CalibrationResult:
    """Estimate mean information versus calendar time and invert it at the
    scenario's target information fractions.

    The information curve is estimated on a uniform calendar grid of 13 times
    from the comparison time to the study end; a non-monotone estimate is
    smoothed by isotonic regression before inversion.  Total information per
    method is the mean at the study end.
    """
    # scipy.optimize (with scipy.linalg and scipy.sparse) loads here, not at
    # import: design, analyze and run_oc never need it
    from scipy.optimize import isotonic_regression

    methods = tuple(dict.fromkeys(("adjusted",) + _check_methods(methods)))
    grid = tuple(np.linspace(scenario.tau, scenario.study_length, _CALIBRATION_GRID_SIZE))

    fixed = (scenario, grid, methods, seed)
    rows = np.array(_map_replicates(_calibration_block, fixed, replicates, workers))
    failures = int(np.isnan(rows).sum())
    info = rows[:, : len(grid)]
    info_count = np.sum(~np.isnan(info), axis=0)
    if np.any(info_count == 0):
        raise SeqSurvError("calibration failed: no usable replicate at some grid time")
    mean_info = np.nansum(info, axis=0) / info_count

    isotonic_applied = bool(np.any(np.diff(mean_info) < 0))
    curve = isotonic_regression(mean_info).x if isotonic_applied else mean_info

    method_totals = {}
    # the adjusted column at the study end, then the other methods' columns
    for m, totals in zip(methods, rows[:, len(grid) - 1 :].T):
        count = int(np.sum(~np.isnan(totals)))
        if count == 0:
            raise SeqSurvError(f"calibration failed: method {m!r} never evaluated at study end")
        method_totals[m] = float(np.nansum(totals)) / count

    total_information = method_totals["adjusted"]
    times = []
    for f in scenario.target_info_fractions:
        if abs(f - 1.0) <= 1e-12:
            times.append(scenario.study_length)
        else:
            times.append(float(np.interp(f * total_information, curve, grid)))
    return CalibrationResult(
        analysis_times=tuple(times),
        total_information=float(total_information),
        method_totals=method_totals,
        grid_times=grid,
        mean_info=tuple(float(v) for v in curve),
        isotonic_applied=isotonic_applied,
        replicates=replicates,
        seed=seed,
        failures=failures,
    )


def _method_totals(calibration: CalibrationResult, methods: Sequence[str]) -> dict[str, float]:
    """Each method's calibrated total information, which must be finite and positive."""
    missing = [m for m in methods if m not in calibration.method_totals]
    if missing:
        raise ValueError(f"calibration lacks total information for method(s) {missing}")
    totals = {m: calibration.method_totals[m] for m in methods}
    for m, total in totals.items():
        if not (math.isfinite(total) and total > 0.0):
            raise ValueError(
                f"calibration total information for method {m!r} must be finite "
                f"and positive, got {total!r}"
            )
    return totals


@dataclass(frozen=True)
class EffectCalibration:
    beta_delta: float
    power: float
    probes: tuple[tuple[float, float], ...]


def _adjusted_drift(scenario: Scenario, calibration: CalibrationResult):
    """Map from the treatment log-rate offset to the adjusted statistic's
    drift at full information, Delta * sqrt(I).

    Delta is the true difference of covariate-averaged survival at tau,
    treatment minus control, averaged over a fixed sample of the scenario's
    covariate law; I is the calibrated total adjusted information.
    """
    z = _draw_covariates(
        _rng(0, _COVARIATE_LAW_STREAM), scenario.covariate_scheme, _COVARIATE_LAW_DRAWS
    )
    risks = np.exp(z @ scenario.covariate_effects)
    h0 = scenario.gamma0_value * scenario.tau**scenario.alpha0
    h1 = scenario.gamma0_value * scenario.tau ** (scenario.alpha0 + scenario.alpha1)
    s0 = float(np.mean(np.exp(-h0 * risks)))
    root_info = math.sqrt(_method_totals(calibration, ("adjusted",))["adjusted"])

    def drift(beta: float) -> float:
        s1 = float(np.mean(np.exp(-h1 * math.exp(beta) * risks)))
        return (s1 - s0) * root_info

    return drift


def analytic_power(scenario: Scenario, design: GSDesign, calibration: CalibrationResult) -> float:
    """Group-sequential power of the adjusted test at ``scenario.beta_w`` from
    the canonical joint distribution, at drift Delta * sqrt(I): the true
    covariate-averaged survival difference at tau times the square root of
    the calibrated total adjusted information."""
    drift = _adjusted_drift(scenario, calibration)(scenario.beta_w)
    return float(crossing_probabilities(design, drift).sum())


def calibrate_effect(
    scenario: Scenario,
    target_power: float,
    design: GSDesign,
    *,
    calibration: CalibrationResult,
    replicates: int = 6000,
    seed: int = 0,
    workers: int = 1,
) -> EffectCalibration:
    """Treatment log-rate offset at which the proposed test's simulated
    group-sequential power meets the target.

    The start is analytic: the canonical joint distribution gives the power at
    drift theta, the power equation is solved for theta, and theta = Delta *
    sqrt(I) (see :func:`_adjusted_drift`) is inverted for the offset in
    [null - 4, null], where Delta falls from its maximum to 0.  One
    independent simulated probe of ``replicates`` at the start corrects its
    level by a Newton step along the analytic power curve; an independent
    confirmation of ``replicates`` at the corrected offset gives the reported
    power.  A target at or below the design's alpha returns the null offset
    uncorrected.
    """
    from scipy.optimize import brentq  # loaded here, as in calibrate_analysis_times

    if not 0.0 < target_power < 1.0:
        raise ValueError("target_power must be in (0, 1)")
    _check_count("replicates", replicates)
    _check_count("workers", workers)
    if design.spending.sidedness == ONE_SIDED_LOWER:
        raise SeqSurvError(
            "calibrate_effect searches offsets that raise treatment-arm survival, "
            "where a one_sided_lower design's power never exceeds its alpha"
        )
    null = null_beta_w(scenario)
    lo = null - _EFFECT_SEARCH_WIDTH
    drift = _adjusted_drift(scenario, calibration)

    def power(theta: float) -> float:
        return float(crossing_probabilities(design, theta).sum())

    at_null = target_power <= design.spending.total_alpha
    start = null
    if not at_null:
        reachable = power(drift(lo))
        if reachable < target_power:
            raise SeqSurvError(
                f"target power {target_power:g} is out of reach: the analytic power is "
                f"{reachable:.4f} at beta_w = {lo:g}, the strongest offset searched"
            )
        theta = brentq(lambda t: power(t) - target_power, 0.0, drift(lo))
        start = brentq(lambda b: drift(b) - theta, lo, null)

    def simulated_power(beta: float, probe_seed: int) -> float:
        oc = run_oc(
            replace(scenario, beta_w=beta), design, ("adjusted",), replicates, probe_seed,
            calibration=calibration, workers=workers,
        )
        return oc.final_rejection("adjusted")

    p_start = simulated_power(start, seed + 1_000_003)
    h = 1e-4
    slope = (power(drift(start + h)) - power(drift(start - h))) / (2.0 * h)
    corrected = start
    if not at_null and slope < 0.0:  # at the null a two-sided slope is 0
        corrected = float(np.clip(start + (target_power - p_start) / slope, lo, null))
    p_final = simulated_power(corrected, seed + 2_000_003)
    return EffectCalibration(
        beta_delta=corrected, power=p_final, probes=((start, p_start), (corrected, p_final))
    )


# ---------------------------------------------------------------------------
# plain-text scenario files and CSV results

_SCENARIO_FIELDS = tuple(f.name for f in fields(Scenario))


def scenario_to_text(scenario: Scenario) -> str:
    lines = []
    for name in _SCENARIO_FIELDS:
        value = getattr(scenario, name)
        if name == "target_info_fractions":
            value = ",".join(repr(v) for v in value)
        elif name == "gamma0" and value is None:
            value = "default"
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str) -> Scenario:
    try:
        values = _parse_kv(text, _parse_scenario_value)
    except ValueError as exc:
        raise ValueError(f"scenario file {exc}") from None
    missing = [k for k in ("n0", "n1", "tau") if k not in values]
    if missing:
        raise ValueError(f"scenario file: missing required key(s) {', '.join(missing)}")
    beta_w = values.pop("beta_w", 0.0)
    try:
        scenario = Scenario(**values)  # type: ignore[arg-type]
        return replace(scenario, beta_w=null_beta_w(scenario) if beta_w == "null" else beta_w)
    except ValueError as exc:
        # Scenario's errors start with the field they name: point at its line
        lines = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            key, eq, _ = raw.split("#", 1)[0].partition("=")
            if eq:
                lines[key.strip()] = lineno
        field = str(exc).split(" ", 1)[0]
        where = f" line {lines[field]}" if field in lines else ""
        raise ValueError(f"scenario file{where}: {exc}") from None


def _parse_scenario_value(key: str, value: str):
    if key not in _SCENARIO_FIELDS:
        raise ValueError(f"unknown key {key!r}")
    if key in ("n0", "n1", "k_analyses"):
        return _integer(key, value)
    if key in ("covariate_scheme", "sidedness"):
        return value
    if key == "beta_w" and value == "null":
        return value
    if key == "gamma0" and value in ("default", ""):
        return None
    if key == "target_info_fractions":
        return _numbers(key, value)
    return _number(key, value)


def oc_to_csv(oc: OperatingCharacteristics) -> str:
    """Stagewise results as CSV; formatting is deterministic so equal runs
    produce byte-identical files."""
    lines = ["stage,method,cum_rejection,se"]
    for m in oc.methods:
        for k in range(len(oc.analysis_times)):
            lines.append(
                f"{k + 1},{m},{oc.cumulative_rejection[m][k]!r},{oc.standard_errors[m][k]!r}"
            )
    return "\n".join(lines) + "\n"


def oc_plot_data(oc: OperatingCharacteristics, design: GSDesign) -> str:
    """Per-stage plot table: calendar time, planned fraction, nominal spend,
    and each method's cumulative rejection."""
    header = ["stage", "calendar_time", "info_fraction", "nominal_spend"] + [
        f"cum_rejection_{m}" for m in oc.methods
    ]
    lines = [",".join(header)]
    for k in range(len(oc.analysis_times)):
        row = [
            str(k + 1),
            repr(oc.analysis_times[k]),
            repr(design.info_fractions[k]),
            repr(design.alpha_spent[k]),
        ]
        row += [repr(oc.cumulative_rejection[m][k]) for m in oc.methods]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
