"""Independent reference implementations used as test oracles.

Everything here is written with plain per-subject loops, straight from the
estimator definitions, deliberately sharing no code with the package's
vectorized paths.  The exception is ``lexsort_layout``: the sorted risk
sets and event groups as a stable ``lexsort`` per row builds them, the
reference for the package's faster sort.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


def naive_log_pl(beta, follow_up, event, arm, covariates):
    """Log partial likelihood with Breslow tie handling, by direct product."""
    beta = np.asarray(beta, dtype=float)
    total = 0.0
    for stratum in (0, 1):
        idx = [j for j in range(len(arm)) if arm[j] == stratum]
        for j in idx:
            if not event[j]:
                continue
            risk = [l for l in idx if follow_up[l] >= follow_up[j]]
            denom = sum(math.exp(float(beta @ covariates[l])) for l in risk)
            total += float(beta @ covariates[j]) - math.log(denom)
    return total


def lexsort_layout(snaps):
    """The sort and event-group fields of ``RiskSets.from_snapshots``, with
    one stable ``lexsort`` of (arm, follow-up) per row, so ties stay in
    snapshot order."""
    snaps = tuple(snaps)
    # bounds[2b + i] is where pair (row b, arm i) starts in the sorted order
    orders, bounds, start = [], [], 0
    for s in snaps:
        order = np.lexsort((s.follow_up, s.arm))
        orders.append(order + start if start else order)
        n1 = int(np.count_nonzero(s.arm))
        bounds += [start, start + s.n - n1]
        start += s.n
    bounds.append(start)
    order = np.concatenate(orders)
    xs = np.concatenate([s.follow_up for s in snaps])[order]
    # first sorted position of each run of equal (pair, follow-up): for an
    # event there, it is the first subject of its pair at risk
    new_run = np.empty(start, dtype=bool)
    new_run[1:] = xs[1:] != xs[:-1]
    new_run[[b for b in bounds[:-1] if b < start]] = True
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(start), 0))
    ev_run = run_start[np.concatenate([s.event_observed for s in snaps])[order]]
    first = np.flatnonzero(ev_run != np.concatenate(([-1], ev_run[:-1])))
    group_start = ev_run[first]
    # first[g]: index of group g's first event among the sorted events
    first = np.concatenate((first, [ev_run.size]))

    bounds = np.array(bounds)
    offsets = np.searchsorted(group_start, bounds)
    pair_ends = bounds[1:]
    return SimpleNamespace(
        snapshots=snaps,
        sizes=(pair_ends - bounds[:-1]).reshape(-1, 2),
        n_events=(first[offsets[1:]] - first[offsets[:-1]]).reshape(-1, 2),
        offsets=offsets,
        event_times=xs[group_start],
        dn=np.subtract(first[1:], first[:-1], dtype=np.float64),
        at_risk=np.repeat(pair_ends, offsets[1:] - offsets[:-1]) - group_start,
        order=order,
        follow_up=xs,
        pair_ends=pair_ends,
    )


def fd_gradient(f, beta, step=1e-5):
    beta = np.asarray(beta, dtype=float)
    grad = np.zeros_like(beta)
    for k in range(beta.size):
        up = beta.copy()
        dn = beta.copy()
        up[k] += step
        dn[k] -= step
        grad[k] = (f(up) - f(dn)) / (2 * step)
    return grad


def fd_hessian(f, beta, step=1e-4):
    beta = np.asarray(beta, dtype=float)
    p = beta.size
    hess = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            pp = beta.copy(); pp[a] += step; pp[b] += step
            pm = beta.copy(); pm[a] += step; pm[b] -= step
            mp = beta.copy(); mp[a] -= step; mp[b] += step
            mm = beta.copy(); mm[a] -= step; mm[b] -= step
            hess[a, b] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * step * step)
    return hess


def grid_refine_argmax(f, lo, hi, rounds=12, points=21):
    """Maximize a concave function on a box by repeated grid refinement.

    ``lo``/``hi`` are arrays (1 or 2 dimensions).  Each round evaluates a full
    grid and shrinks the box to two cells around the best point.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    p = lo.size
    for _ in range(rounds):
        axes = [np.linspace(lo[k], hi[k], points) for k in range(p)]
        if p == 1:
            values = [f(np.array([a])) for a in axes[0]]
            best = int(np.argmax(values))
            centers = (axes[0][best],)
        else:
            best_val = -np.inf
            centers = None
            for a in axes[0]:
                for b in axes[1]:
                    v = f(np.array([a, b]))
                    if v > best_val:
                        best_val = v
                        centers = (a, b)
        half = (hi - lo) / (points - 1) * 2.0
        lo = np.array(centers) - half
        hi = np.array(centers) + half
    return (lo + hi) / 2.0


def naive_breslow(beta, follow_up, event, arm, covariates, stratum, t):
    """Baseline cumulative hazard at ``t`` from the definition."""
    beta = np.asarray(beta, dtype=float)
    idx = [j for j in range(len(arm)) if arm[j] == stratum]
    times = sorted({follow_up[j] for j in idx if event[j] and follow_up[j] <= t})
    total = 0.0
    for s in times:
        dn = sum(1 for j in idx if event[j] and follow_up[j] == s)
        denom = sum(math.exp(float(beta @ covariates[l])) for l in idx if follow_up[l] >= s)
        total += dn / denom
    return total


def naive_adjusted_sp(beta, follow_up, event, arm, covariates, stratum, t0):
    """Average of per-subject conditional survival over the pooled sample."""
    beta = np.asarray(beta, dtype=float)
    lam = naive_breslow(beta, follow_up, event, arm, covariates, stratum, t0)
    n = len(arm)
    return sum(
        math.exp(-math.exp(float(beta @ covariates[g])) * lam) for g in range(n)
    ) / n


def naive_variance_pieces(beta, follow_up, event, arm, covariates, t0):
    """Every ingredient of the SP-difference variance, from the definitions.

    Returns a dict with per-stratum lists indexed by arm, the pooled
    information matrix over the full calendar window, and the assembled
    variance for both quadratic-form conventions.
    """
    beta = np.asarray(beta, dtype=float)
    n = len(arm)
    p = beta.size

    gamma = [0.0, 0.0]
    qvec = [np.zeros(p), np.zeros(p)]
    lam = [0.0, 0.0]
    sizes = [0, 0]
    for stratum in (0, 1):
        idx = [j for j in range(n) if arm[j] == stratum]
        sizes[stratum] = len(idx)
        ni = len(idx)
        times = sorted({follow_up[j] for j in idx if event[j] and follow_up[j] <= t0})
        for s in times:
            dn = sum(1 for j in idx if event[j] and follow_up[j] == s)
            risk = [l for l in idx if follow_up[l] >= s]
            s0 = sum(math.exp(float(beta @ covariates[l])) for l in risk) / ni
            s1 = sum(
                math.exp(float(beta @ covariates[l])) * np.asarray(covariates[l])
                for l in risk
            ) / ni
            gamma[stratum] += (1.0 / ni) * dn / s0**2
            qvec[stratum] += (1.0 / ni) * (dn * s1) / s0**2
            lam[stratum] += dn / (ni * s0)

    c1 = [0.0, 0.0]
    c2 = [np.zeros(p), np.zeros(p)]
    sp = [0.0, 0.0]
    for stratum in (0, 1):
        for g in range(n):
            e = math.exp(float(beta @ covariates[g]))
            surv = math.exp(-e * lam[stratum])
            sp[stratum] += surv / n
            c1[stratum] += surv * e / n
            c2[stratum] = c2[stratum] + surv * e * np.asarray(covariates[g]) / n

    info = np.zeros((p, p))
    for stratum in (0, 1):
        idx = [j for j in range(n) if arm[j] == stratum]
        for j in idx:
            if not event[j]:
                continue
            s = follow_up[j]
            risk = [l for l in idx if follow_up[l] >= s]
            w = [math.exp(float(beta @ covariates[l])) for l in risk]
            s0 = sum(w)
            zbar = sum(wi * np.asarray(covariates[l]) for wi, l in zip(w, risk)) / s0
            vmat = (
                sum(wi * np.outer(covariates[l], covariates[l]) for wi, l in zip(w, risk)) / s0
                - np.outer(zbar, zbar)
            )
            info += vmat
    sigma = info / n

    d_i = [c1[i] * qvec[i] - lam[i] * c2[i] for i in (0, 1)]
    d = d_i[1] - d_i[0]
    base = (n / sizes[0]) * c1[0] ** 2 * gamma[0] + (n / sizes[1]) * c1[1] ** 2 * gamma[1]
    var_inverse = base + float(d @ np.linalg.solve(sigma, d)) if p else base
    return {
        "gamma": gamma,
        "q": qvec,
        "lam": lam,
        "c1": c1,
        "c2": c2,
        "sp": sp,
        "sigma": sigma,
        "d_i": d_i,
        "d": d,
        "var_inverse": var_inverse,
    }


def naive_km(follow_up, event, t0):
    """Product-limit estimate and Greenwood variance at t0, by the defining
    product over event times."""
    times = sorted({x for x, d in zip(follow_up, event) if d and x <= t0})
    surv = 1.0
    green = 0.0
    for s in times:
        at_risk = sum(1 for x in follow_up if x >= s)
        dn = sum(1 for x, d in zip(follow_up, event) if d and x == s)
        surv *= (at_risk - dn) / at_risk
        if at_risk > dn:
            green += dn / (at_risk * (at_risk - dn))
    return surv, surv**2 * green


def pool_adjacent_violators(values):
    """Least-squares non-decreasing fit with unit weights: each value opens a
    block, and a block lower than the one before is pooled into it (block
    mean) until the blocks rise."""
    blocks = []  # [mean, count]
    for v in values:
        blocks.append([float(v), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean, count = blocks.pop()
            prev_mean, prev_count = blocks[-1]
            blocks[-1] = [(prev_mean * prev_count + mean * count) / (prev_count + count),
                          prev_count + count]
    return [mean for mean, count in blocks for _ in range(count)]


def weibull_survival(t, shape, rate):
    return math.exp(-rate * t**shape)


def gs_crossing_by_simulation(info_fractions, critical_values, sidedness, drift, draws, seed):
    """First-crossing probabilities per stage from simulated canonical paths.

    Simulates the score-scale process with independent increments and reads
    off first boundary crossings; the oracle for the integration engine.
    """
    rng = np.random.default_rng(seed)
    fracs = np.asarray(info_fractions, dtype=float)
    k = fracs.size
    incs = np.diff(np.concatenate(([0.0], fracs)))
    score = np.zeros(draws)
    alive = np.ones(draws, dtype=bool)
    out = np.zeros(k)
    for stage in range(k):
        score = score + drift * incs[stage] + rng.standard_normal(draws) * math.sqrt(incs[stage])
        z = score / math.sqrt(fracs[stage])
        c = critical_values[stage]
        if sidedness == "two_sided":
            crossed = np.abs(z) >= c
        elif sidedness == "one_sided_upper":
            crossed = z >= c
        else:
            crossed = z <= -c
        newly = alive & crossed
        out[stage] = newly.mean()
        alive &= ~crossed
    return out
