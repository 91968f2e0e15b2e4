"""Reference solvers the tests check the production solvers against.

Everything here trades speed for independence: a dense two-phase simplex
for the per-cluster weighted sum-rate LP, and projected gradient ascent for
the cluster PF problem. None of it shares numeric kernels with `dcopt`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from dcopt.net_model import AllocationFractions, InfeasibleError, NotConvergedError

_PIVOT_TOL = 1e-11
# projected gradient: step cap, and the relative gain that counts as a stall
_PG_MAX_ITER = 40_000
_PG_TOL = 1e-12


@dataclass
class SimplexResult:
    status: str          # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    value: float


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _enter(z: np.ndarray, ncols: int) -> int:
    """Bland's rule: lowest-index column with a negative reduced cost."""
    for j in range(ncols):
        if z[j] < -_PIVOT_TOL:
            return j
    return -1


def _leave(T: np.ndarray, basis: list[int], col: int, m: int) -> int:
    """Minimum-ratio row; ties resolved toward the lowest basis index."""
    best, best_ratio = -1, math.inf
    for i in range(m):
        a = T[i, col]
        if a > _PIVOT_TOL:
            ratio = T[i, -1] / a
            if ratio < best_ratio - _PIVOT_TOL or (
                abs(ratio - best_ratio) <= _PIVOT_TOL
                and (best == -1 or basis[i] < basis[best])
            ):
                best, best_ratio = i, ratio
    return best


def _run_simplex(T: np.ndarray, basis: list[int], cost: np.ndarray, m: int) -> str:
    ncols = T.shape[1] - 1
    z = np.zeros(ncols + 1)
    z[:ncols] = -cost
    for i in range(m):
        if cost[basis[i]] != 0.0:
            z += cost[basis[i]] * T[i]
    while True:
        col = _enter(z, ncols)
        if col < 0:
            return "optimal"
        row = _leave(T, basis, col, m)
        if row < 0:
            return "unbounded"
        _pivot(T, basis, row, col)
        z -= z[col] * T[row]
    # not reached


def solve_lp(
    c: Sequence[float],
    A: Sequence[Sequence[float]],
    b: Sequence[float],
    senses: Sequence[str],
    maximize: bool = True,
) -> SimplexResult:
    """Dense two-phase simplex for max/min c.x s.t. A x (<=,>=,=) b, x >= 0."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    if not maximize:
        c = -c
    m, n = A.shape if A.size else (0, len(c))
    senses = list(senses)

    # normalize to b >= 0
    rows = []
    for i in range(m):
        ai, bi, si = A[i].copy(), float(b[i]), senses[i]
        if bi < 0:
            ai, bi = -ai, -bi
            si = {"<=": ">=", ">=": "<=", "=": "="}[si]
        rows.append((ai, bi, si))

    n_slack = sum(1 for _, _, s in rows if s in ("<=", ">="))
    n_art = sum(1 for _, _, s in rows if s in (">=", "="))
    width = n + n_slack + n_art
    T = np.zeros((m, width + 1))
    basis = [-1] * m
    js, ja = n, n + n_slack
    art_cols = []
    for i, (ai, bi, si) in enumerate(rows):
        T[i, :n] = ai
        T[i, -1] = bi
        if si == "<=":
            T[i, js] = 1.0
            basis[i] = js
            js += 1
        elif si == ">=":
            T[i, js] = -1.0
            js += 1
            T[i, ja] = 1.0
            basis[i] = ja
            art_cols.append(ja)
            ja += 1
        else:
            T[i, ja] = 1.0
            basis[i] = ja
            art_cols.append(ja)
            ja += 1

    if art_cols:
        cost1 = np.zeros(width)
        cost1[art_cols] = -1.0
        status = _run_simplex(T, basis, cost1, m)
        assert status == "optimal"  # phase 1 is always bounded
        infeas = sum(T[i, -1] for i in range(m) if basis[i] in art_cols)
        if infeas > 1e-8:
            return SimplexResult("infeasible", None, math.nan)
        # drive leftover artificials out of the basis
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(n + n_slack):
                    if abs(T[i, j]) > _PIVOT_TOL:
                        _pivot(T, basis, i, j)
                        break

    cost2 = np.zeros(width)
    cost2[:n] = c
    keep = [i for i in range(m) if basis[i] not in art_cols]
    if len(keep) != m:  # drop redundant rows still pinned to an artificial
        T = T[keep]
        basis = [basis[i] for i in keep]
        m = len(keep)
    T[:, n + n_slack:width] = 0.0  # retire artificial columns
    status = _run_simplex(T, basis, cost2, m)
    if status != "optimal":
        return SimplexResult(status, None, math.nan)
    x = np.zeros(width)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    value = float(cost2 @ x)
    return SimplexResult("optimal", x[:n], value if maximize else -value)


# -- weighted sum-rate LP ------------------------------------------------------


def lp_solve_wsr(cluster) -> tuple[float, AllocationFractions]:
    """Cluster WSR optimum by plain LP (variables: one macro and one pico
    share per user). Raises InfeasibleError when minimum rates do not fit."""
    inst = cluster.inst
    macro = cluster.macro
    picos = sorted(cluster.pico_users)
    users = [(u, b) for b in picos for u in cluster.pico_users[b]]
    n = len(users)
    idx = {u: i for i, (u, _) in enumerate(users)}
    rows = [inst._uidx[u] for u, _ in users]
    r1 = inst.rates[rows, inst._tidx[macro]].tolist()
    rb = inst.rates[rows, [inst._tidx[b] for _, b in users]].tolist()
    w, rmin, rmax = (a[rows].tolist() for a in (inst.weights, inst.rate_min, inst.rate_max))

    c = []
    for i in range(n):
        c.extend([w[i] * r1[i], w[i] * rb[i]])

    A, rhs, senses = [], [], []
    row = [0.0] * (2 * n)
    for i in range(n):
        row[2 * i] = 1.0
    A.append(list(row))
    rhs.append(cluster.macro_budget)
    senses.append("<=")
    for b in picos:
        row = [0.0] * (2 * n)
        for u in cluster.pico_users[b]:
            row[2 * idx[u] + 1] = 1.0
        A.append(row)
        rhs.append(cluster.pico_budgets[b])
        senses.append("<=")
    for i in range(n):
        if rmin[i] > 0:
            row = [0.0] * (2 * n)
            row[2 * i] = r1[i]
            row[2 * i + 1] = rb[i]
            A.append(row)
            rhs.append(rmin[i])
            senses.append(">=")
        if math.isfinite(rmax[i]):
            row = [0.0] * (2 * n)
            row[2 * i] = r1[i]
            row[2 * i + 1] = rb[i]
            A.append(row)
            rhs.append(rmax[i])
            senses.append("<=")

    res = solve_lp(c, A, rhs, senses, maximize=True)
    if res.status == "infeasible":
        raise InfeasibleError("minimum rates exceed the cluster budgets")
    assert res.status == "optimal", res.status
    fr = AllocationFractions()
    for i, (u, b) in enumerate(users):
        if res.x[2 * i] > 1e-12:
            fr.theta[(u, macro)] = float(res.x[2 * i])
        if res.x[2 * i + 1] > 1e-12:
            fr.gamma[(u, b)] = float(res.x[2 * i + 1])
    return res.value, fr


# -- PF convex oracle ----------------------------------------------------------


def _proj_simplex(v: np.ndarray, total: float = 1.0) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(v) + 1)
    mask = u * ks > css - total
    rho = int(np.nonzero(mask)[0][-1])
    shift = (css[rho] - total) / (rho + 1.0)
    return np.maximum(v - shift, 0.0)


def _proj_budget(v: np.ndarray) -> np.ndarray:
    w = np.maximum(v, 0.0)
    if w.sum() <= 1.0:
        return w
    return _proj_simplex(v)


def pf_convex_oracle(cluster) -> float:
    """Cluster PF optimum by projected gradient ascent on the shares.

    Slow but structurally unrelated to the ladder-based production solver;
    raises NotConvergedError if progress stalls above tolerance too early.
    """
    inst = cluster.inst
    macro = cluster.macro
    if getattr(cluster, "macro_only", ()):
        raise ValueError("oracle expects every user to carry a pico leg")
    picos = sorted(cluster.pico_users)
    users = [(u, b) for b in picos for u in cluster.pico_users[b]]
    n = len(users)
    rows = [inst._uidx[u] for u, _ in users]
    r1 = inst.rates[rows, inst._tidx[macro]]
    rb = inst.rates[rows, [inst._tidx[b] for _, b in users]]
    blocks = []
    start = 0
    for b in picos:
        size = len(cluster.pico_users[b])
        blocks.append(slice(start, start + size))
        start += size

    theta = np.full(n, 1.0 / n)
    gamma = np.concatenate(
        [np.full(s.stop - s.start, 1.0 / (s.stop - s.start)) for s in blocks]
    )

    def objective(t: np.ndarray, g: np.ndarray) -> float:
        rates = t * r1 + g * rb
        if np.any(rates <= 0):
            return -math.inf
        return float(np.sum(np.log(rates)))

    cur = objective(theta, gamma)
    step = 1.0 / n
    stall = 0
    for _ in range(_PG_MAX_ITER):
        rates = theta * r1 + gamma * rb
        gt = r1 / rates
        gg = rb / rates
        while True:
            t_new = _proj_budget(theta + step * gt)
            g_new = np.concatenate(
                [_proj_budget(gamma[s] + step * gg[s]) for s in blocks]
            )
            val = objective(t_new, g_new)
            if val >= cur - 1e-15:
                break
            step *= 0.5
            if step < 1e-18:
                break
        gain = val - cur
        if val > cur:
            theta, gamma, cur = t_new, g_new, val
            step *= 1.25
        if gain <= _PG_TOL * max(1.0, abs(cur)):
            stall += 1
            if stall >= 25:
                return cur
        else:
            stall = 0
    if stall >= 5:
        return cur
    raise NotConvergedError("projected gradient stalled above tolerance")
