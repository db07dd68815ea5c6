"""Alpha-spending boundaries over the canonical joint distribution.

Sequential statistics with independent-increment information follow a
multivariate normal law with Corr(Z_k, Z_l) = sqrt(IF_k / IF_l) for k <= l.
Boundaries are found by propagating the continuation sub-density across
stages on the Jennison-Turnbull quadrature mesh and solving each stage's
critical value, by safeguarded Newton, so the stagewise crossing probability
matches the spending increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

TWO_SIDED = "two_sided"
ONE_SIDED_UPPER = "one_sided_upper"
ONE_SIDED_LOWER = "one_sided_lower"
SIDEDNESS = (TWO_SIDED, ONE_SIDED_UPPER, ONE_SIDED_LOWER)

# Mesh size of the Jennison-Turnbull grid (at most 12r - 3 nodes per stage).
# At gsDesign's r = 18 a zero-spending stage's final boundary is off by about
# 1e-6; r = 32 brings it to 1e-7.
_GRID_R = 32
_GRID_RULE = f"jt:{_GRID_R}"   # recorded in design files; replay must match it
_C_MAX = 40.0         # boundary magnitudes are solved in [0, _C_MAX]
_C_TOL = 1e-14        # absolute tolerance of the boundary solve
_MAX_SOLVE_ITER = 200
_MIN_IF_STEP = 1e-9   # information fractions closer than this are rejected
_MIN_INFO_GROWTH = 1.005  # a monitored level is at least this times the previous one
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(t: np.ndarray) -> np.ndarray:
    return _INV_SQRT_2PI * np.exp(-0.5 * t * t)


@dataclass(frozen=True)
class SpendingFunction:
    """Cumulative type I error allowed as a function of information fraction.

    Families: ``power`` spends total_alpha * min(1, IF**rho); ``obf_like`` and
    ``pocock_like`` are the classical error-spending approximations of the
    O'Brien-Fleming and Pocock shapes; ``custom`` linearly interpolates a
    user-supplied (IF, cumulative alpha) table.
    """

    total_alpha: float
    family: str = "power"
    rho: float = 3.0
    sidedness: str = TWO_SIDED
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.total_alpha < 1.0:
            raise ValueError("total_alpha must be in (0, 1)")
        if self.family not in ("power", "obf_like", "pocock_like", "custom"):
            raise ValueError(f"unknown spending family {self.family!r}")
        if self.family == "power" and self.rho <= 0:
            raise ValueError("power family requires rho > 0")
        if self.sidedness not in SIDEDNESS:
            raise ValueError(f"sidedness must be one of {SIDEDNESS}")
        if self.family == "custom":
            if not self.table:
                raise ValueError("custom spending requires a (IF, alpha) table")
            fracs = [f for f, _ in self.table]
            alphas = [a for _, a in self.table]
            if any(f2 <= f1 for f1, f2 in zip(fracs, fracs[1:])):
                raise ValueError("custom spending table fractions must be strictly increasing")
            if fracs[0] <= 0.0:
                raise ValueError(f"custom spending table fractions must lie in (0, 1], got {self.table}")
            if any(a2 < a1 for a1, a2 in zip(alphas, alphas[1:])) or alphas[0] < 0:
                raise ValueError("custom spending table must be nondecreasing and nonnegative")
            if abs(fracs[-1] - 1.0) > 1e-12 or abs(alphas[-1] - self.total_alpha) > 1e-12:
                raise ValueError("custom spending table must end at (1, total_alpha)")
            # NaN passes the comparisons above
            if not all(map(math.isfinite, fracs + alphas)):
                raise ValueError(f"custom spending table entries must be finite, got {self.table}")
        if not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho!r}")


def spend(sf: SpendingFunction, info_fraction: float) -> float:
    """Cumulative alpha allowed at the given information fraction, at most
    ``total_alpha``."""
    if not info_fraction >= 0:   # NaN fails this too
        raise ValueError(f"information fraction must be >= 0, got {info_fraction!r}")
    t = min(float(info_fraction), 1.0)
    if t == 0.0:
        return 0.0
    if t == 1.0:
        return sf.total_alpha
    if sf.family == "power":
        value = sf.total_alpha * t**sf.rho
    elif sf.family == "obf_like":
        za = ndtri(1.0 - sf.total_alpha / 2.0)
        value = float(2.0 - 2.0 * ndtr(za / math.sqrt(t)))
    elif sf.family == "pocock_like":
        value = sf.total_alpha * math.log(1.0 + (math.e - 1.0) * t)
    else:
        fracs = np.array([0.0] + [f for f, _ in sf.table])
        alphas = np.array([0.0] + [a for _, a in sf.table])
        value = float(np.interp(t, fracs, alphas))
    # rounding (obf_like at a total_alpha near 1) or a custom table that ends
    # up to 1e-12 above total_alpha can overshoot the budget
    return min(value, sf.total_alpha)


def _jt_offsets(r: int) -> np.ndarray:
    """Jennison-Turnbull mesh in SD units around the stage mean (6r - 1 nodes):
    log-spaced beyond 3 SD out to 3 + 4 log r, linear with spacing 3/(2r) inside."""
    i = np.arange(1, 6 * r, dtype=np.float64)
    return np.where(
        i < r,
        -3.0 - 4.0 * np.log(r / i),
        np.where(i <= 5 * r, -3.0 + 3.0 * (i - r) / (2.0 * r), 3.0 + 4.0 * np.log(r / (6 * r - i))),
    )


# the mesh every propagator lays around its stage mean, built once
_OFFSETS = _jt_offsets(_GRID_R)
_OFFSETS.setflags(write=False)


def _jt_mesh(offsets: np.ndarray, mu: float, lower: float, upper: float):
    """Simpson nodes and weights on the mesh centred at ``mu``, trimmed to
    [lower, upper]; None when nothing of the mesh lies inside."""
    x = mu + offsets
    lo, hi = max(lower, x[0]), min(upper, x[-1])
    if hi <= lo:
        return None
    x = np.concatenate(([lo], x[(x > lo) & (x < hi)], [hi]))
    nodes = np.empty(2 * x.size - 1)
    nodes[0::2] = x
    nodes[1::2] = 0.5 * (x[:-1] + x[1:])
    sixth = np.diff(x) / 6.0
    weights = np.zeros(nodes.size)
    weights[1::2] = 4.0 * sixth
    weights[:-1:2] += sixth
    weights[2::2] += sixth
    return nodes, weights


class _Propagator:
    """Continuation sub-density of the canonical statistic sequence.

    Tracks the (defective) density of Z_k restricted to the event that no
    earlier boundary was crossed.  ``drift`` is the expected Z at information
    fraction 1, so E[Z_k] = drift * sqrt(IF_k).  Before the first stage the
    density is a point mass at 0 with information fraction 0.

    With no drift and a two-sided region the density is even at every stage
    (Armitage, McPherson & Rowe 1969; Jennison & Turnbull 2000, 19.2), so
    only the half mesh x >= 0 is kept and each node stands for itself and its
    mirror: the kernel is phi(a - b) + phi(a + b) on half the rows and
    columns, and one tail, taken at +-x, is doubled.  The J&T offsets and
    Simpson midpoints negate exactly and the weight at 0 is half the full one
    (the start mass gets weight 1/2), so the quadrature is the full mesh's
    summed in another order: design files keep ``grid = jt:32`` and replay as
    before.  One-sided regions and nonzero drift keep the full mesh.
    """

    def __init__(self, sidedness: str, drift: float = 0.0):
        if sidedness not in SIDEDNESS:
            raise ValueError(f"sidedness must be one of {SIDEDNESS}")
        self.sidedness = sidedness
        self.drift = float(drift)
        self._half = sidedness == TWO_SIDED and self.drift == 0.0
        self._fold = 2.0 if self._half else 1.0   # a half-mesh node and its mirror
        self.prev_if = 0.0
        self._x = np.zeros(1)      # nodes of the continuation region
        self._wg = np.full(1, 0.5 if self._half else 1.0)  # weights times sub-density
        self.dead = False          # continuation region collapsed

    def _increment(self, if_k: float) -> tuple[np.ndarray, float, float]:
        """Mean of S_k - each node's S_(k-1), increment SD, and dz/dS at stage k."""
        if if_k <= self.prev_if + _MIN_IF_STEP:
            raise ValueError("information fractions must be strictly increasing")
        delta = if_k - self.prev_if
        centre = self._x * math.sqrt(self.prev_if) + self.drift * delta
        return centre, math.sqrt(delta), math.sqrt(if_k)

    def _crossing_at(self, if_k: float) -> Callable[[float], tuple[float, float]]:
        """The stagewise crossing probability at information fraction ``if_k``
        as a function of the boundary magnitude ``c``, with its derivative in
        ``c`` (minus the continuation density at the boundary).  The arrays
        that do not depend on ``c`` are built here, once per stage."""
        centre, sd, root = self._increment(if_k)
        wg = self._wg
        fold = self._fold
        # the lower tail at mean m is the upper tail at mean -m
        if self.sidedness == TWO_SIDED:
            centre, wg = np.concatenate((centre, -centre)), np.concatenate((wg, wg))
        elif self.sidedness == ONE_SIDED_LOWER:
            centre = -centre

        def crossing(c: float) -> tuple[float, float]:
            t = (c * root - centre) / sd
            prob = fold * float(wg @ ndtr(-t))
            density = fold * float(wg @ _phi(t))
            return prob, -density * root / sd

        return crossing

    def stage_crossing(self, if_k: float, c: float) -> float:
        """P(first crossing happens at this stage) for boundary magnitude ``c``."""
        if self.dead or not math.isfinite(c):
            return 0.0
        return self._crossing_at(if_k)(c)[0]

    def solve_boundary(self, if_k: float, increment: float) -> float:
        """Boundary magnitude whose stagewise crossing equals the spending increment.

        Newton on c, kept inside a shrinking bracket of [0, _C_MAX] and
        replaced by bisection whenever it would leave the bracket or fails to
        halve the previous step.  It starts from the marginal normal quantile,
        which is the exact answer at the first stage without drift, and stops
        once the Newton step is within _C_TOL: a further step would fall below
        one ulp and fail the bracket test.  A zero boundary rejects everything
        when even it cannot spend the increment.
        """
        if increment <= 0.0 or self.dead:
            return math.inf
        tail = increment / 2.0 if self.sidedness == TWO_SIDED else increment
        quantile = float(ndtri(1.0 - tail))
        if self.prev_if == 0.0 and self.drift == 0.0:
            return quantile
        crossing = self._crossing_at(if_k)
        if self.sidedness == TWO_SIDED:
            # at c = 0 a node's two tails sum to 1: all the continuation mass crosses
            zero_crossing = self._fold * float(self._wg.sum())
        else:
            zero_crossing = crossing(0.0)[0]
        if zero_crossing <= increment:
            # even a zero boundary cannot spend this much; reject everything
            return 0.0
        lo, hi = 0.0, _C_MAX
        c = min(max(quantile, lo), hi)
        step = step_before = hi - lo
        for _ in range(_MAX_SOLVE_ITER):
            prob, slope = crossing(c)
            f = prob - increment
            if f == 0.0:
                return c
            if f > 0.0:
                lo = c
            else:
                hi = c
            newton = c - f / slope if slope < 0.0 else math.nan
            if abs(newton - c) <= _C_TOL:
                return newton
            if lo < newton < hi and abs(f) < 0.5 * abs(step_before * slope):
                step_before, step = step, c - newton
                c = newton
            else:
                step_before, step = step, 0.5 * (hi - lo)
                c = lo + step
            if abs(step) <= _C_TOL or hi - lo <= _C_TOL:
                return c
        raise RuntimeError(f"boundary solve did not converge in {_MAX_SOLVE_ITER} iterations")

    def advance(self, if_k: float, c: float) -> None:
        """Restrict to the continuation region at this stage and move the mesh."""
        if self.dead:
            return
        if self._half:
            lower = 0.0
        else:
            lower = -math.inf if self.sidedness == ONE_SIDED_UPPER else -c
        upper = math.inf if self.sidedness == ONE_SIDED_LOWER else c
        mesh = _jt_mesh(_OFFSETS, self.drift * math.sqrt(if_k), lower, upper)
        if mesh is None:
            self.dead = True
            self.prev_if = if_k
            return
        y, w = mesh
        centre, sd, root = self._increment(if_k)
        a = y[:, None] * root
        kernel = _phi((a - centre[None, :]) / sd)
        if self._half:
            kernel += _phi((a + centre[None, :]) / sd)
        self._x = y
        self._wg = w * (kernel @ self._wg * (root / sd))
        self.prev_if = if_k


@dataclass(frozen=True)
class GSDesign:
    """Analysis schedule with spending-matched critical values.

    ``critical_values`` are boundary magnitudes: a two-sided design rejects
    when |z| >= c_k, a one-sided upper (lower) design when z >= c_k
    (z <= -c_k).  ``alpha_spent`` is cumulative; the final stage always spends
    the full budget.  Boundaries are solved on one fixed Jennison-Turnbull
    mesh (``grid = jt:32`` in design files), the same one monitoring uses, so
    monitoring reproduces them exactly.
    """

    spending: SpendingFunction
    info_fractions: tuple[float, ...]
    critical_values: tuple[float, ...]
    alpha_spent: tuple[float, ...]

    @property
    def n_stages(self) -> int:
        return len(self.info_fractions)


def _validate_fractions(info_fractions: Sequence[float]) -> tuple[float, ...]:
    fracs = tuple(float(f) for f in info_fractions)
    if not fracs:
        raise ValueError("at least one information fraction is required")
    if not all(math.isfinite(f) for f in fracs):
        raise ValueError(f"information fractions must be finite, got {fracs}")
    if fracs[0] <= 0.0 or fracs[-1] > 1.0 + 1e-12:
        raise ValueError("information fractions must lie in (0, 1]")
    if any(b - a < _MIN_IF_STEP for a, b in zip(fracs, fracs[1:])):
        raise ValueError("information fractions must be strictly increasing")
    return fracs


def _stage_boundary(
    prop: _Propagator, sf: SpendingFunction, fraction: float, spent: float, final: bool
) -> tuple[float, float]:
    """Boundary magnitude and cumulative spending target of one stage.

    The target is the spending function at ``fraction`` (the whole budget at
    the final stage), never less than the ``spent`` of earlier stages; the
    boundary spends the increment between them.
    """
    target = max(sf.total_alpha if final else spend(sf, fraction), spent)
    return prop.solve_boundary(fraction, target - spent), target


def boundaries(sf: SpendingFunction, info_fractions: Sequence[float]) -> GSDesign:
    """Solve the per-stage critical values for a spending function and schedule.

    The final stage spends whatever remains of the total budget, so designs
    whose last information fraction falls short of 1 still exhaust alpha.
    """
    fracs = _validate_fractions(info_fractions)
    prop = _Propagator(sf.sidedness)
    crit: list[float] = []
    spent: list[float] = []
    previous = 0.0
    for k, f in enumerate(fracs):
        final = k == len(fracs) - 1
        c, previous = _stage_boundary(prop, sf, f, previous, final)
        crit.append(c)
        spent.append(previous)
        if not final:
            prop.advance(f, c)
    return GSDesign(
        spending=sf,
        info_fractions=fracs,
        critical_values=tuple(crit),
        alpha_spent=tuple(spent),
    )


def crossing_probabilities(design: GSDesign, drift: float = 0.0) -> np.ndarray:
    """Per-stage first-crossing probabilities under a given drift.

    ``drift`` is the expected standardized statistic at full information; 0
    recovers the spending increments.
    """
    prop = _Propagator(design.spending.sidedness, drift=drift)
    probs = np.zeros(design.n_stages)
    for k, f in enumerate(design.info_fractions):
        probs[k] = prop.stage_crossing(f, design.critical_values[k])
        if k < design.n_stages - 1:
            prop.advance(f, design.critical_values[k])
    return probs


@dataclass(frozen=True)
class StageResult:
    stage: int                 # 1-based
    info_level: float          # the level monitored, after any raise
    info_fraction: float       # after clamping at 1
    boundary: float
    z: float
    decision: str              # "continue" | "reject" | "accept"
    alpha_spent: float         # cumulative spending target used through this stage
    observed_info_level: float  # the level given to the step


@dataclass
class MonitoringState:
    """Error-spending monitor and the record of its session: re-solves each
    stage's boundary at the observed information fraction, conditional on
    the boundaries already used.

    Observed fractions above 1 clamp to 1 and force a final analysis; the
    final stage spends all remaining alpha.  Crossing at exactly the boundary
    rejects.  A level that does not grow by the factor ``_MIN_INFO_GROWTH``
    over the previous stage's level (saturated follow-up, or estimation
    noise) is raised to that; the stage keeps the level it was given as
    ``observed_info_level``.

    Stages passed to the constructor (and a state file's rows) replay through
    the admission check, the decision rule and ``_record`` of a live
    ``step``, so a recorded session is accepted exactly when a live monitor
    could have taken its looks in that order and decided them so.  A NaN
    calendar time marks a look given none.
    """

    design: GSDesign
    total_information: float
    calendar_times: list[float] = field(default_factory=list)
    results: list[StageResult] = field(default_factory=list)
    method: str = ""
    _prop: _Propagator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.total_information) and self.total_information > 0):
            raise ValueError(
                f"total_information must be finite and positive, got {self.total_information!r}"
            )
        if len(self.calendar_times) != len(self.results):
            raise ValueError("calendar_times and results must have one entry per stage")
        recorded = list(zip(self.calendar_times, self.results))
        self.calendar_times, self.results = [], []
        self._prop = _Propagator(self.design.spending.sidedness)
        for calendar_time, result in recorded:
            self._replay(calendar_time, result)

    @property
    def finished(self) -> bool:
        return bool(self.results) and self.results[-1].decision != "continue"

    def step(self, info_level: float, z: float, calendar_time: float | None = None) -> StageResult:
        """Take one look: solve its boundary, decide and record the stage."""
        observed = float(info_level)
        time = math.nan if calendar_time is None else float(calendar_time)
        stage = len(self.results) + 1
        level = observed
        if self.results:
            level = max(observed, self.results[-1].info_level * _MIN_INFO_GROWTH)
        info_fraction = min(level / self.total_information, 1.0)
        self._admit(stage, time, observed, z, info_fraction)
        spent = self.results[-1].alpha_spent if self.results else 0.0
        boundary, target = _stage_boundary(
            self._prop, self.design.spending, info_fraction, spent,
            self._is_final(stage, info_fraction),
        )
        decision = self._decision(stage, info_fraction, z, boundary)
        result = StageResult(
            stage=stage,
            info_level=level,
            info_fraction=float(info_fraction),
            boundary=float(boundary),
            z=float(z),
            decision=decision,
            alpha_spent=target,
            observed_info_level=observed,
        )
        self._record(time, result)
        return result

    def _admit(self, stage: int, calendar_time: float, info_level: float, z: float,
               info_fraction: float) -> None:
        """Refuse a look that cannot come next, the same way for a live step
        and a replayed stage."""
        if math.isinf(calendar_time):
            raise ValueError(f"calendar time must be finite, got {calendar_time!r}")
        given = [t for t in self.calendar_times if not math.isnan(t)]
        if given and calendar_time <= given[-1]:
            raise ValueError(
                f"calendar time must increase across stages ({calendar_time:g} after {given[-1]:g})"
            )
        if not (math.isfinite(info_level) and info_level > 0.0):
            raise ValueError(f"information level must be finite and positive, got {info_level!r}")
        if not math.isfinite(z):
            raise ValueError(f"statistic must be finite, got {z!r}")
        if self.finished:
            raise ValueError(f"monitoring already ended with decision {self.results[-1].decision!r}")
        if stage != len(self.results) + 1:
            raise ValueError(f"stage {stage} is out of sequence; expected stage {len(self.results) + 1}")
        if info_fraction <= self._prop.prev_if + _MIN_IF_STEP:
            raise ValueError(
                f"observed information fraction {info_fraction:g} does not exceed "
                f"the previous stage's {self._prop.prev_if:g}"
            )

    def _replay(self, calendar_time: float, result: StageResult) -> None:
        """Admit and record a stage taken earlier, without re-solving it; its
        decision must be the one a live step takes on its numbers."""
        r = result
        self._admit(r.stage, calendar_time, r.observed_info_level, r.z, r.info_fraction)
        decision = self._decision(r.stage, r.info_fraction, r.z, r.boundary)
        if r.decision != decision:
            raise ValueError(
                f"decision {r.decision!r} does not follow from z = {r.z!r} against boundary "
                f"{r.boundary!r} at stage {r.stage} of {self.design.n_stages}, information "
                f"fraction {r.info_fraction!r}: a live look decides {decision!r}"
            )
        self._record(calendar_time, result)

    def _record(self, calendar_time: float, result: StageResult) -> None:
        """Append a stage, moving the continuation density past it when
        monitoring continues."""
        if result.decision == "continue":
            self._prop.advance(result.info_fraction, result.boundary)
        self.results.append(result)
        self.calendar_times.append(calendar_time)

    def _is_final(self, stage: int, info_fraction: float) -> bool:
        """Whether a look ends the session: the design's last stage, or full information."""
        return stage == self.design.n_stages or info_fraction >= 1.0

    def _decision(self, stage: int, info_fraction: float, z: float, boundary: float) -> str:
        """Reject on a crossing, else accept at a final look, else continue."""
        final = self._is_final(stage, info_fraction)
        return "reject" if self._crossed(z, boundary) else "accept" if final else "continue"

    def _crossed(self, z: float, boundary: float) -> bool:
        if not math.isfinite(boundary):
            return False
        side = self.design.spending.sidedness
        if side == TWO_SIDED:
            return abs(z) >= boundary
        if side == ONE_SIDED_UPPER:
            return z >= boundary
        return z <= -boundary

    # Only the benchmark's tracer (bench/spans.py) looks up rebuild_monitor and
    # the SequentialMonitor name below; both go once it wraps MonitoringState.step.
    def rebuild_monitor(self) -> MonitoringState:
        """A fresh replay of the recorded stages."""
        return MonitoringState(self.design, self.total_information, list(self.calendar_times),
                               list(self.results), self.method)


SequentialMonitor = MonitoringState


def monitor(state: MonitoringState, info_level: float, z: float, *, calendar_time: float | None = None) -> StageResult:
    """Run one monitoring stage against the state, mutating it."""
    return state.step(info_level, z, calendar_time=calendar_time)


# ---------------------------------------------------------------------------
# plain-text serialization (audit formats)

def spending_to_text(sf: SpendingFunction) -> str:
    if sf.family == "power":
        return f"power:{sf.rho!r}"
    if sf.family == "custom":
        pairs = ";".join(f"{f!r}:{a!r}" for f, a in sf.table)
        return f"custom:{pairs}"
    return sf.family


def spending_from_text(text: str, total_alpha: float, sidedness: str) -> SpendingFunction:
    text = text.strip()
    if text.startswith("power"):
        rho = _number("spending", text.split(":", 1)[1]) if ":" in text else 3.0
        return SpendingFunction(total_alpha, "power", rho=rho, sidedness=sidedness)
    if text in ("obf", "obf_like"):
        return SpendingFunction(total_alpha, "obf_like", sidedness=sidedness)
    if text in ("pocock", "pocock_like"):
        return SpendingFunction(total_alpha, "pocock_like", sidedness=sidedness)
    if text.startswith("custom:"):
        pairs = [item.split(":") for item in text.split(":", 1)[1].split(";")]
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError(f"custom spending {text!r} is not of the form custom:IF:ALPHA;IF:ALPHA")
        table = tuple((_number("spending", f), _number("spending", a)) for f, a in pairs)
        return SpendingFunction(total_alpha, "custom", sidedness=sidedness, table=table)
    raise ValueError(f"unknown spending specification {text!r}")


_DESIGN_KEYS = (
    "stages", "alpha", "sidedness", "spending", "info_fractions", "critical_values",
    "alpha_spent", "grid",
)


def design_to_text(design: GSDesign) -> str:
    lines = [
        f"stages = {design.n_stages}",
        f"alpha = {design.spending.total_alpha!r}",
        f"sidedness = {design.spending.sidedness}",
        f"spending = {spending_to_text(design.spending)}",
        "info_fractions = " + ",".join(repr(f) for f in design.info_fractions),
        "critical_values = " + ",".join(repr(c) for c in design.critical_values),
        "alpha_spent = " + ",".join(repr(a) for a in design.alpha_spent),
        f"grid = {_GRID_RULE}",
    ]
    return "\n".join(lines) + "\n"


def _parse_kv(text: str, read: Callable[[str, str], object] = lambda key, value: value) -> dict:
    """``key = value`` lines (``#`` starts a comment) as a dict of ``read(key, value)``.
    A line that is not ``key = value``, a repeated key and a value that ``read``
    refuses are errors that name their line."""
    out: dict = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            out[key] = read(key, value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out


def _number(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"key {key!r}: {value.strip()!r} is not a number") from None


def _integer(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"key {key!r}: {value.strip()!r} is not an integer") from None


def _numbers(key: str, value: str) -> tuple[float, ...]:
    return tuple(_number(key, x) for x in value.split(","))


def design_from_text(text: str) -> GSDesign:
    return _design_from_kv(_parse_kv(text))


def _design_from_kv(kv: dict) -> GSDesign:
    unknown = sorted(set(kv) - set(_DESIGN_KEYS))
    if unknown:
        raise ValueError(
            f"design file has unknown key {unknown[0]!r}; a design written by another "
            f"version must be re-created, since boundaries replay only on grid = {_GRID_RULE}"
        )
    try:
        alpha = _number("alpha", kv["alpha"])
        sidedness = kv["sidedness"]
        sf = spending_from_text(kv["spending"], alpha, sidedness)
        stages = _integer("stages", kv["stages"])
        fractions = _validate_fractions(_numbers("info_fractions", kv["info_fractions"]))
        critical = _numbers("critical_values", kv["critical_values"])
        spent = _numbers("alpha_spent", kv["alpha_spent"])
        grid = kv["grid"]
    except KeyError as exc:
        raise ValueError(f"design file is missing key {exc.args[0]!r}") from None
    if grid != _GRID_RULE:
        raise ValueError(f"design file key 'grid' is {grid!r}; this version replays only {_GRID_RULE!r}")
    if not stages == len(fractions) == len(critical) == len(spent):
        raise ValueError(
            f"design file: stages = {stages} but the schedule arrays have lengths "
            f"{len(fractions)}, {len(critical)} and {len(spent)}"
        )
    # a stage that spends no alpha records an infinite boundary
    if not all(c >= 0.0 for c in critical):
        raise ValueError(f"design file key 'critical_values' must be >= 0 (inf allowed), got {critical}")
    # the final stage spends exactly alpha; 1e-12 is the custom table's slack
    if not (
        all(0.0 <= a <= alpha + 1e-12 for a in spent)
        and all(b >= a for a, b in zip(spent, spent[1:]))
    ):
        raise ValueError(
            f"design file key 'alpha_spent' must be nondecreasing within [0, alpha = {alpha!r}], "
            f"got {spent}"
        )
    return GSDesign(
        spending=sf,
        info_fractions=fractions,
        critical_values=critical,
        alpha_spent=spent,
    )


def state_to_text(state: MonitoringState) -> str:
    lines = [
        f"total_information = {state.total_information!r}",
        f"method = {state.method}",
        "design_begin",
        design_to_text(state.design).rstrip("\n"),
        "design_end",
    ]
    for t, res in zip(state.calendar_times, state.results):
        numbers = map(repr, (t, res.info_level, res.info_fraction, res.boundary, res.z))
        cells = [str(res.stage), *numbers, res.decision, repr(res.alpha_spent), repr(res.observed_info_level)]
        lines.append("stage = " + ",".join(cells))
    return "\n".join(lines) + "\n"


_DECISIONS = ("continue", "reject", "accept")
# (column, field) of the numbers in a stage row
_STAGE_NUMBERS = (
    (1, "calendar_time"), (2, "info_level"), (3, "info_fraction"), (4, "boundary"), (5, "z"),
    (7, "alpha_spent"), (8, "observed_info_level"),
)


def _stage_from_row(raw: str) -> tuple[float, StageResult]:
    """The calendar time and stage of one ``stage = ...`` row of a state file.

    Rows written before the observed level was recorded have 8 columns; their
    observed level is the level used.
    """
    line = raw.strip()
    if not line.startswith("stage ="):
        raise ValueError(f"unexpected line {raw!r}")
    parts = [p.strip() for p in line.split("=", 1)[1].split(",")]
    if len(parts) not in (8, 9):
        raise ValueError(f"malformed stage row {raw!r}")
    stage = _integer("stage", parts[0])
    decision = parts[6]
    if decision not in _DECISIONS:
        raise ValueError(f"decision must be one of {', '.join(_DECISIONS)}, got {decision!r}")
    if len(parts) == 8:
        parts.append(parts[2])
    values = {name: _number(name, parts[i]) for i, name in _STAGE_NUMBERS}
    for name in ("info_level", "info_fraction", "z", "alpha_spent", "observed_info_level"):
        if not math.isfinite(values[name]):
            raise ValueError(f"{name} must be finite, got {values[name]!r}")
    if values["observed_info_level"] > values["info_level"]:
        raise ValueError(
            f"observed_info_level {values['observed_info_level']!r} exceeds "
            f"info_level {values['info_level']!r}"
        )
    # the monitor records an infinite boundary for a stage that spends no alpha
    if math.isnan(values["boundary"]):
        raise ValueError("boundary must not be NaN")
    calendar_time = values.pop("calendar_time")
    return calendar_time, StageResult(stage=stage, decision=decision, **values)


def state_from_text(text: str) -> MonitoringState:
    lines = text.splitlines()
    try:
        start = lines.index("design_begin")
        end = lines.index("design_end")
    except ValueError:
        raise ValueError("state file: missing design block") from None
    # blank lines in place of the header keep the design block's line numbers
    try:
        kv = _parse_kv("\n".join(lines[:start]))
        design_kv = _parse_kv("\n" * (start + 1) + "\n".join(lines[start + 1 : end]))
    except ValueError as exc:
        raise ValueError(f"state file {exc}") from None
    design = _design_from_kv(design_kv)
    if "total_information" not in kv:
        raise ValueError("state file is missing key 'total_information'")
    total_information = _number("total_information", kv["total_information"])
    try:
        state = MonitoringState(
            design=design,
            total_information=total_information,
            method=kv.get("method", ""),
        )
    except ValueError as exc:  # a monitor without stages checks only its total
        raise ValueError(f"state file key 'total_information': {exc}") from None
    for lineno, raw in enumerate(lines[end + 1 :], start=end + 2):
        if not raw.strip():
            continue
        try:
            state._replay(*_stage_from_row(raw))
        except ValueError as exc:
            raise ValueError(f"state file line {lineno}: {exc}") from None
    return state
