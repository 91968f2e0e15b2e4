"""Shared random-instance builders, sized so oracles stay exhaustive."""

import contextlib

import numpy as np

from dcopt import (
    ClusterProblem,
    InfeasibleError,
    PfClusterProblem,
    allocate_cluster,
    make_instance,
)

MACRO = 0

_CRITERIA: dict[int, tuple[str, str]] = {}


@contextlib.contextmanager
def criterion(num, name):
    """Record one acceptance criterion verdict for the terminal summary."""
    try:
        yield
    except BaseException:
        _CRITERIA[num] = (name, "FAIL")
        raise
    _CRITERIA[num] = (name, "PASS")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        name, verdict = _CRITERIA[num]
        terminalreporter.write_line(f"criterion {num} ({name}): {verdict}")


def single_macro_instance(rng, n_users, n_picos, min_frac=0.0, max_frac=None):
    """One macro (id 0) plus picos 1..n_picos, every rate positive.

    Rates are log-uniform so macro/pico ratios are distinct almost surely.
    min_frac > 0 draws R^min up to that fraction of the user's best
    dual-connection rate; max_frac (if set) gives roughly half the users a
    finite cap above their minimum.
    """
    pico_ids = list(range(1, n_picos + 1))
    users, peaks = [], []
    for i in range(n_users):
        u = 100 + i
        rm = float(np.exp(rng.uniform(-1.0, 2.0)))
        rbs = {b: float(np.exp(rng.uniform(-1.0, 2.0))) for b in pico_ids}
        best = rm + max(rbs.values())
        rmin = float(rng.uniform(0.0, min_frac)) * best if min_frac else 0.0
        rmax = np.inf
        if max_frac is not None and rng.random() < 0.5:
            rmax = rmin + float(rng.uniform(0.3, max_frac)) * best
        users.append((u, float(rng.uniform(0.2, 2.0)), rmin, rmax))
        peaks.append((u, MACRO, rm))
        peaks.extend((u, b, r) for b, r in rbs.items())
    return make_instance(users, [(MACRO, pico_ids)], peaks)


def random_feasible_cluster(rng, max_users=8, max_picos=3, min_frac=0.6,
                            max_frac=2.0):
    """Random WSR cluster passing the min-rate feasibility condition."""
    for _ in range(300):
        k = int(rng.integers(1, max_users + 1))
        p = int(rng.integers(1, max_picos + 1))
        inst = single_macro_instance(rng, k, p, min_frac=min_frac,
                                     max_frac=max_frac)
        grouped = {}
        for u in inst.users:
            b = int(rng.choice(inst.picos_of[MACRO]))
            grouped.setdefault(b, []).append(u)
        cl = ClusterProblem.build(inst, MACRO, grouped)
        try:
            allocate_cluster(cl)
        except InfeasibleError:
            continue
        return inst, cl
    raise AssertionError("no feasible draw in 300 tries")


def random_pf_cluster(rng, n_users, n_picos, macro_only=0):
    """PF cluster with every pico nonempty; optional macro-only users."""
    inst = single_macro_instance(rng, n_users + macro_only, n_picos)
    users = list(inst.users)
    solo, rest = users[:macro_only], users[macro_only:]
    grouped = {}
    for j, u in enumerate(rest):
        grouped.setdefault(1 + j % n_picos, []).append(u)
    return inst, PfClusterProblem.build(inst, MACRO, grouped, macro_only=solo)


def assoc_instance(rng, n_users=4, n_macros=2, picos_per=2, admission=False):
    """Small multi-macro instance for association solvers.

    admission=True draws minimum rates meeting the twice-the-minimum-rates
    condition on every macro (sum of 2 R^min / R_{u,m} stays below 1).
    """
    macros = [(m, [10 * (m + 1) + j for j in range(picos_per)])
              for m in range(n_macros)]
    users, peaks = [], []
    for i in range(n_users):
        u = 100 + i
        rms = {m: float(np.exp(rng.uniform(-0.5, 1.5))) for m, _ in macros}
        rmin = 0.0
        if admission:
            rmin = float(rng.uniform(0.0, 0.5 / n_users)) * min(rms.values())
        users.append((u, float(rng.uniform(0.5, 1.5)), rmin, np.inf))
        for m, picos in macros:
            peaks.append((u, m, rms[m]))
            peaks.extend(
                (u, b, float(np.exp(rng.uniform(-0.5, 1.5)))) for b in picos
            )
    return make_instance(users, macros, peaks)
