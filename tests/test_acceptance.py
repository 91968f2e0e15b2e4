"""Acceptance gate: one test per release criterion.

Each test prints a pass/fail line through the terminal-summary hook in
conftest. Tolerances and shapes here are the release contract; the rest of
the suite covers the same ground in finer grain.
"""

import json
import math
import time

import numpy as np
import pytest

from dcopt import (
    ClusterProblem,
    DeploymentConfig,
    InfeasibleError,
    PfClusterProblem,
    allocate_cluster,
    generate,
    local_search_associate,
    make_instance,
    pf_bisection,
    staged_pf_associate,
    verify_kkt_pf,
)
from dcopt.net_model import build_ground_set
from dcopt.pf_alloc import h_of_lambda
from dcopt.wsr_assoc import SetFunctionCache, brute_force_wsr_assoc
from dcopt.cli import main, run_algorithm

from conftest import (
    MACRO,
    assoc_instance,
    criterion,
    f_wsr,
    random_feasible_cluster,
    random_pf_cluster,
    single_macro_instance,
)
from oracle_reference import lp_solve_wsr, pf_convex_oracle
from pf_reference import brute_force_dc_pf, orthogonal_split_solve


def test_criterion_1_wsr_allocator_matches_lp():
    with criterion(1, "WSR allocator equals LP oracle on 100 clusters, <5s"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for trial in range(100):
            _, cl = random_feasible_cluster(rng, max_users=8, max_picos=3,
                                            min_frac=0.6, max_frac=2.0)
            got = allocate_cluster(cl).value
            want, _ = lp_solve_wsr(cl)
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"100 clusters took {elapsed:.2f}s"


def test_criterion_2_budget_curve_shape(tmp_path):
    with criterion(2, "budget curves concave, ordered by min-rate scalar"):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--users", "30", "--picos", "10",
                     "--scalars", "0,0.1,0.2", "--points", "101",
                     "--seed", "1", "--out", str(out)]) == 0
        curves: dict[float, list[tuple[float, float]]] = {}
        for ln in out.read_text(encoding="utf-8").splitlines()[2:]:
            g, v, s = (float(x) for x in ln.split(","))
            curves.setdefault(s, []).append((g, v))
        assert sorted(curves) == [0.0, 0.1, 0.2]

        # tolerance is relative: values sit near 1e8 b/s where an absolute
        # 1e-9 is below one float ulp
        for s, pts in curves.items():
            vs = [v for _, v in pts]
            tol = 1e-9 * max(abs(v) for v in vs)
            assert all(b >= a - tol for a, b in zip(vs, vs[1:]))
            slopes = [(v2 - v1) / (g2 - g1)
                      for (g1, v1), (g2, v2) in zip(pts, pts[1:])]
            assert all(s2 <= s1 + tol for s1, s2 in zip(slopes, slopes[1:]))

        starts = [curves[s][0][0] for s in (0.0, 0.1, 0.2)]
        assert starts[0] < starts[1] < starts[2]
        for lo, hi in ((0.0, 0.1), (0.1, 0.2)):
            glo = np.array([g for g, _ in curves[lo]])
            vlo = np.array([v for _, v in curves[lo]])
            tol = 1e-9 * float(vlo.max())
            for g, v in curves[hi]:
                if g >= glo[0]:
                    assert v <= float(np.interp(g, glo, vlo)) + tol


def test_criterion_3_submodularity_probes():
    with criterion(3, "200 diminishing-returns + 200 budget probes"):
        rng = np.random.default_rng(103)
        checked = 0
        while checked < 200:
            inst = assoc_instance(rng, n_users=int(rng.integers(2, 6)),
                                  n_macros=2, picos_per=2, admission=True)
            gs = build_ground_set(inst)
            cache = SetFunctionCache(inst)
            pairs = list(gs)
            rng.shuffle(pairs)
            big, used = [], set()
            for u, b in pairs:
                if u not in used and rng.random() < 0.6:
                    used.add(u)
                    big.append((u, b))
            if len(big) < 2:
                continue
            small = [t for t in big[:-1] if rng.random() < 0.7]
            extra = [(u, b) for u, b in pairs if u not in {x for x, _ in big}]
            if not extra:
                continue
            e = extra[0]
            fF, fFe = f_wsr(inst, big, cache), f_wsr(inst, big + [e], cache)
            fE, fEe = f_wsr(inst, small, cache), f_wsr(inst, small + [e], cache)
            if None in (fF, fFe, fE, fEe):
                continue
            assert fEe - fE >= fFe - fF - 1e-8
            checked += 1

        checked = 0
        while checked < 200:
            inst = single_macro_instance(rng, int(rng.integers(2, 7)), 2,
                                         min_frac=0.3)
            grouped: dict[int, list[int]] = {}
            for u in inst.users:
                grouped.setdefault(int(rng.choice([1, 2])), []).append(u)
            base_g = float(rng.uniform(0.1, 0.35))
            base_gb = {b: float(rng.uniform(0.1, 0.35)) for b in grouped}

            def value(dg, db):
                cl = ClusterProblem.build(
                    inst, MACRO, grouped, macro_budget=base_g + dg,
                    pico_budgets={b: base_gb[b] + db.get(b, 0.0)
                                  for b in grouped},
                )
                return allocate_cluster(cl).value

            try:
                picos = sorted(grouped)
                b1 = int(rng.choice(picos))
                b2 = int(rng.choice(picos))   # b1 == b2 allowed
                d, dt = float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.3))
                db1, db2 = (float(rng.uniform(0, 0.3)),
                            float(rng.uniform(0, 0.3)))
                lhs = value(0.0, {}) - value(d, {b1: db1})
                both = {b1: db1}
                both[b2] = both.get(b2, 0.0) + db2
                rhs = value(dt, {b2: db2}) - value(dt + d, both)
            except InfeasibleError:
                continue
            assert lhs <= rhs + 1e-8
            checked += 1


def test_criterion_4_association_guarantees():
    with criterion(4, "LS >= OPT/4.5 with admission, greedy >= OPT/2 without"):
        rng = np.random.default_rng(104)
        for trial in range(50):
            inst = assoc_instance(rng, n_users=int(rng.integers(2, 5)),
                                  n_macros=2, picos_per=2, admission=True)
            res = local_search_associate(inst, epsilon=0.5)
            _, opt = brute_force_wsr_assoc(inst)
            assert res.value >= opt / 4.5 - 1e-9
        for trial in range(50):
            inst = assoc_instance(rng, n_users=int(rng.integers(2, 5)),
                                  n_macros=2, picos_per=2, admission=False)
            res = local_search_associate(inst)
            _, opt = brute_force_wsr_assoc(inst)
            assert res.greedy_value >= opt / 2.0 - 1e-9


def test_criterion_5_pf_bisection_accuracy():
    with criterion(5, "PF dual residuals, KKT, convex-oracle agreement"):
        rng = np.random.default_rng(105)
        for trial in range(50):
            _, cl = random_pf_cluster(rng, int(rng.integers(2, 9)),
                                      int(rng.integers(1, 4)))
            sol = pf_bisection(cl)
            n_tot = len(cl.users)
            load = sum(h_of_lambda(cl, sol.lambda_hat, b)
                       for b in cl.pico_users)
            residual = abs(1.0 + load - n_tot / sol.lambda_hat)
            assert residual <= 1e-10 * n_tot
            assert verify_kkt_pf(cl, sol.fractions).max_residual <= 1e-8
            ref = pf_convex_oracle(cl)
            assert abs(sol.objective - ref) <= 1e-4 * max(1.0, abs(ref))

        # analytic two-user cluster: rates (1,1) and (2,1) on one pico
        inst = make_instance(
            [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
            [(MACRO, [10])],
            [(1, MACRO, 1.0), (1, 10, 1.0), (2, MACRO, 2.0), (2, 10, 1.0)],
        )
        sol = pf_bisection(PfClusterProblem.build(inst, MACRO, {10: [1, 2]}))
        assert abs(sol.lambda_hat - 1.0) <= 1e-10
        assert sol.objective == pytest.approx(math.log(2.0), abs=1e-10)


def test_criterion_6_staged_pf_bounds():
    with criterion(6, "staged PF within ln2 bound of exhaustive DC optimum"):
        rng = np.random.default_rng(106)
        for trial in range(30):
            k = int(rng.integers(2, 7))
            inst = assoc_instance(rng, n_users=k, n_macros=2,
                                  picos_per=int(rng.integers(1, 3)))
            res = staged_pf_associate(inst)
            _, opt = brute_force_dc_pf(inst)
            n_picos = sum(len(v) for v in inst.picos_of.values())
            assert res.value <= opt + 1e-9
            assert res.value >= opt - min(k, n_picos) * math.log(2.0) - 1e-9

            for m in inst.macros:
                groups = res.association.users_of_macro(m)
                solo = groups.pop(None, [])
                if not groups and not solo:
                    continue
                cl = PfClusterProblem.build(inst, m, groups, macro_only=solo)
                split = orthogonal_split_solve(cl)
                cluster_opt = pf_bisection(cl).objective
                bound = min(len(cl.users), len(cl.pico_users)) * math.log(2.0)
                assert split.value <= cluster_opt + 1e-9
                assert split.value >= cluster_opt - bound - 1e-9


def test_criterion_7_load_sweep_trends(tmp_path):
    with criterion(7, "both algorithms beat max-SINR; DC gain fades with load"):
        config = {"seed": 1, "rings": 1, "sectors_per_site": 1,
                  "picos_per_macro": 10, "users_per_macro": 6}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        gains: dict[int, dict[str, float]] = {}
        for load in (42, 168):
            out = tmp_path / f"sweep{load}"
            t0 = time.perf_counter()
            assert main(["sweep", "--config", str(cfg), "--loads", str(load),
                         "--seeds", "1", "--band", "out",
                         "--out", str(out)]) == 0
            elapsed = time.perf_counter() - t0
            assert elapsed < 120.0, f"load {load} cell took {elapsed:.1f}s"
            rows = (out / "gains.csv").read_text(encoding="utf-8").splitlines()
            gains[load] = {r.split(",")[2]: float(r.split(",")[3])
                           for r in rows[2:]}
        for load in (42, 168):
            assert gains[load]["greedy-ls"] > 0.0
            # staged PF maximizes the sum of log rates, not the sum rate: it
            # beats max-SINR on its own objective
            inst = generate(DeploymentConfig(
                **{**config, "users_per_macro": load // 7})).inst
            pf, base = (run_algorithm(inst, alg)[2] for alg in ("staged-pf", "max-sinr"))
            assert (sum(math.log(pf[u]) for u in inst.users)
                    > sum(math.log(base[u]) for u in inst.users))
        # PF dual connectivity helps most at low load; the 4x-load gain is lower
        assert gains[42]["staged-pf"] > gains[168]["staged-pf"]


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    with criterion(8, "seeded reruns byte-identical for every command"):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 3, "rings": 0, "sectors_per_site": 1,
            "picos_per_macro": 3, "users_per_macro": 5,
        }), encoding="utf-8")

        insts = [tmp_path / f"inst{i}.json" for i in (0, 1)]
        for p in insts:
            assert main(["generate", "--config", str(cfg), "--seed", "5",
                         "--out", str(p)]) == 0
        assert insts[0].read_bytes() == insts[1].read_bytes()

        sols = [tmp_path / f"sol{i}.json" for i in (0, 1)]
        for p in sols:
            assert main(["solve", str(insts[0]), "--alg", "staged-pf",
                         "--out", str(p)]) == 0
        assert sols[0].read_bytes() == sols[1].read_bytes()

        sweeps = [tmp_path / f"sweep{i}" for i in (0, 1)]
        for p in sweeps:
            assert main(["sweep", "--config", str(cfg), "--loads", "5",
                         "--seeds", "2", "--out", str(p)]) == 0
        for name in ("metrics.csv", "gains.csv"):
            assert (sweeps[0] / name).read_bytes() == \
                (sweeps[1] / name).read_bytes()

        curves = [tmp_path / f"curve{i}.csv" for i in (0, 1)]
        for p in curves:
            assert main(["curve", "--users", "8", "--picos", "3",
                         "--scalars", "0,0.2", "--points", "21",
                         "--seed", "4", "--out", str(p)]) == 0
        assert curves[0].read_bytes() == curves[1].read_bytes()
