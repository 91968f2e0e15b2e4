"""End-to-end command line checks, run in-process through main()."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from dcopt import (
    InfeasibleError,
    allocate_cluster,
    compute_user_rates,
    instance_from_json,
    instance_to_json,
    make_instance,
)
from dcopt.cli import build_parser, main, run_algorithm
from dcopt.wsr_assoc import brute_force_wsr_assoc

TINY = {"seed": 3, "rings": 0, "sectors_per_site": 1,
        "picos_per_macro": 2, "users_per_macro": 4}


def write_config(tmp_path, **overrides):
    cfg = {**TINY, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def gen_instance(tmp_path, name="inst.json", **overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / name
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    return str(out)


# -- generate -------------------------------------------------------------------


def test_generate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--config", cfg, "--seed", "7",
                 "--out", str(a)]) == 0
    assert main(["generate", "--config", cfg, "--seed", "7",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["generate", "--config", cfg, "--seed", "8",
                 "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_generate_reports_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 3,,}\n', encoding="utf-8")
    code = main(["generate", "--config", str(bad), "--out",
                 str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert re.search(r":\d+:\d+:", err)  # line:col diagnostic


def test_generate_rejects_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}\n', encoding="utf-8")
    assert main(["generate", "--config", str(bad), "--out",
                 str(tmp_path / "x.json")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, overrides, message", [
    (["sweep", "--loads", "4"], {"sectors_per_site": 0}, "sectors_per_site"),
    (["generate"], {"rings": -1}, "rings"),
    (["generate"], {"picos_per_macro": -1}, "picos_per_macro"),
    (["generate"], {"users_per_macro": -1}, "users_per_macro"),
    (["generate"], {"isd_m": 0.0}, "isd_m"),
    (["generate"], {"bandwidth_hz": -1.0}, "bandwidth_hz"),
    (["curve", "--users", "4", "--picos", "2", "--points", "1"], None, "--points"),
])
def test_invalid_config_and_curve_args_exit_usage(tmp_path, capsys, argv,
                                                  overrides, message):
    if overrides is not None:
        argv = argv + ["--config", write_config(tmp_path, **overrides)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("overrides, argv, field", [
    ({"seed": 1.5}, [], "seed"),
    ({"seed": -1}, [], "seed"),
    ({"seed": True}, [], "seed"),
    ({}, ["--seed", "-3"], "seed"),
    ({"shadow_macro_db": math.inf}, [], "shadow_macro_db"),
    ({"shadow_pico_db": -1.0}, [], "shadow_pico_db"),
    # user_weight is no longer a setting: any value of it is refused by name
    ({"user_weight": 0.0}, [], "user_weight"),
    ({"min_rate_bps": -5.0}, [], "min_rate_bps"),
    ({"min_rate_bps": math.nan}, [], "min_rate_bps"),
    # these once wrote NaN rates, meant the full band, or failed deep inside
    # generate with a message (or a traceback) naming no config field
    ({"noise_figure_db": math.nan}, [], "noise_figure_db"),
    ({"tx_macro_dbm": math.inf}, [], "tx_macro_dbm"),
    ({"tx_pico_dbm": -math.inf}, [], "tx_pico_dbm"),
    ({"macro_antenna_dbi": math.nan}, [], "macro_antenna_dbi"),
    ({"pico_antenna_dbi": math.inf}, [], "pico_antenna_dbi"),
    ({"isd_m": math.inf}, [], "isd_m"),
    ({"bandwidth_hz": math.inf}, [], "bandwidth_hz"),
    ({"pico_bandwidth_hz": 0}, [], "pico_bandwidth_hz"),
    ({"macro_bandwidth_hz": -5}, [], "macro_bandwidth_hz"),
    ({"macro_bandwidth_hz": math.nan}, [], "macro_bandwidth_hz"),
    # finite but beyond the physical ranges: these overflowed, printed numpy
    # warnings or built deployments whose zero rates failed a solver
    ({"noise_figure_db": 1e300}, [], "noise_figure_db"),
    ({"shadow_macro_db": 300}, [], "shadow_macro_db"),
    ({"tx_macro_dbm": -400}, [], "tx_macro_dbm"),
    ({"tx_pico_dbm": -400}, [], "tx_pico_dbm"),
    ({"pico_bandwidth_hz": 1e-300}, [], "pico_bandwidth_hz"),
    ({"user_weight": 1e300}, [], "user_weight"),
    ({"isd_m": 1e12}, [], "isd_m"),
    ({"split": "fdd"}, [], "split"),
    ({"rings": 0.5}, [], "rings"),
    ({"sectors_per_site": 3.0}, [], "sectors_per_site"),
    ({"picos_per_macro": True}, [], "picos_per_macro"),
    ({"users_per_macro": 2.5}, [], "users_per_macro"),
    # JSON true and false are not numbers, even where 1 or 0 is in range
    ({"user_weight": True}, [], "user_weight"),
    ({"tx_macro_dbm": True}, [], "tx_macro_dbm"),
    ({"min_rate_bps": False}, [], "min_rate_bps"),
], ids=["seed-float", "seed-negative", "seed-bool", "seed-flag",
        "shadow-macro-inf", "shadow-pico-negative", "weight-zero",
        "min-rate-negative", "min-rate-nan", "noise-figure-nan",
        "tx-macro-inf", "tx-pico-minus-inf", "macro-gain-nan",
        "pico-gain-inf", "isd-inf", "bandwidth-inf", "pico-bandwidth-zero",
        "macro-bandwidth-negative", "macro-bandwidth-nan", "noise-figure-huge",
        "shadow-macro-huge", "tx-macro-minus-400", "tx-pico-minus-400",
        "pico-bandwidth-tiny", "weight-huge", "isd-huge", "split-unknown",
        "rings-float", "sectors-float", "picos-bool", "users-float",
        "weight-bool", "tx-macro-bool", "min-rate-bool"])
def test_generate_rejects_bad_config_value(tmp_path, capsys, overrides, argv,
                                           field):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x.json"
    assert main(["generate", "--config", cfg, "--out", str(out)] + argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {cfg}: {field} ")
    assert not out.exists()


@pytest.mark.parametrize("command", [["generate"], ["sweep", "--loads", "4"]])
def test_deeply_nested_config_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    out = tmp_path / "out"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {cfg}: JSON nests too deeply\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, overrides", [
    (["generate"], {"rings": 10**6}),
    (["generate"], {"users_per_macro": 10**6}),
    (["sweep", "--loads", "10000000"], {}),
    (["curve", "--users", "10000"], None),
])
def test_deployments_above_pair_limit_exit_usage(tmp_path, capsys, argv,
                                                 overrides):
    # checked on the config's counts, before any deployment is built
    if overrides is not None:
        argv = argv + ["--config", write_config(tmp_path, **overrides)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert "(user, TP) pairs, above the limit of 2000000" in capsys.readouterr().err
    assert not out.exists()


def test_curve_rejects_points_above_limit(tmp_path, capsys):
    # checked before any deployment is generated, so this returns at once
    out = tmp_path / "curve.csv"
    assert main(["curve", "--users", "3", "--picos", "2", "--points", "100001",
                 "--out", str(out)]) == 1
    assert "--points must be between 2 and 100000, got 100001" in capsys.readouterr().err
    assert not out.exists()


# -- solve ----------------------------------------------------------------------


@pytest.mark.parametrize("alg", ["greedy-ls", "staged-pf", "max-sinr"])
def test_solve_verifies_each_algorithm(tmp_path, alg):
    inst_path = gen_instance(tmp_path)
    out = tmp_path / "sol.json"
    code = main(["solve", inst_path, "--alg", alg, "--verify",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["algorithm"] == alg
    assert len(doc["association"]) == 4
    assert doc["sum_rate"] > 0.0
    # every share in (0, 1]
    for key in ("theta", "gamma"):
        for v in doc[key].values():
            assert 0.0 < v <= 1.0 + 1e-12


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_local_search_cap_is_reported(tmp_path, capsys, command):
    # with eps 0 the first run of this deployment's local search makes a swap
    # and then a delete that gains 0.03% of the value: a real improvement,
    # not a rounding-noise move. The complement run is ruled out by its
    # bound, capped or not, so the warning is the first run's
    cfg = {"seed": 14, "sectors_per_site": 3, "min_rate_bps": 2e5}
    if command == "solve":
        argv = ["solve", gen_instance(tmp_path, **cfg), "--alg", "greedy-ls"]
    else:
        argv = ["sweep", "--config", write_config(tmp_path, **cfg),
                "--loads", "12", "--algs", "greedy-ls"]
    capsys.readouterr()
    argv += ["--eps", "0"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    first = capsys.readouterr()
    assert first.err == ""
    assert main(argv + ["--max-iter", "1", "--out", str(tmp_path / "b")]) == 0
    capped = capsys.readouterr()
    assert capped.out == first.out
    assert capped.err == ("greedy-ls: local search on 12 users stopped at its "
                          "iteration cap with an improving move left; raise "
                          "--max-iter\n")


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("flag, value", [
    ("--max-iter", "-3"), ("--eps", "-1"), ("--eps", "nan"), ("--eps", "inf")])
def test_local_search_settings_must_be_finite_and_non_negative(
        tmp_path, capsys, command, flag, value):
    # these once exited 0; with --eps nan the local search silently never ran
    if command == "solve":
        argv = ["solve", gen_instance(tmp_path), "--alg", "greedy-ls"]
    else:
        argv = ["sweep", "--config", write_config(tmp_path), "--loads", "4",
                "--algs", "greedy-ls"]
    out = tmp_path / "out"
    assert main(argv + [flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be finite and non-negative, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "nan", "-1e7", "inf"])
def test_solve_rejects_bandwidth_outside_range(tmp_path, capsys, value):
    # 0 once ended in a ZeroDivisionError traceback; the others exited 0
    # and wrote nan, negative or zero cell_se rows
    metrics = tmp_path / "metrics.csv"
    out = tmp_path / "sol.json"
    argv = ["solve", gen_instance(tmp_path), "--alg", "max-sinr", "--out", str(out),
            "--metrics-out", str(metrics), f"--bandwidth-hz={value}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"argument --bandwidth-hz: must be from 1000 to 1e+10, got {value!r}" in err
    assert not out.exists() and not metrics.exists()


def test_solve_max_sinr_equal_shares(tmp_path):
    inst_path = gen_instance(tmp_path)
    out = tmp_path / "sol.json"
    assert main(["solve", inst_path, "--alg", "max-sinr",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    loads: dict[str, int] = {}
    for key in list(doc["theta"]) + list(doc["gamma"]):
        t = key.split(",")[1]
        loads[t] = loads.get(t, 0) + 1
    for key, v in list(doc["theta"].items()) + list(doc["gamma"].items()):
        assert v == pytest.approx(1.0 / loads[key.split(",")[1]])


def test_solve_writes_metrics_row(tmp_path):
    inst_path = gen_instance(tmp_path)
    metrics = tmp_path / "metrics.csv"
    assert main(["solve", inst_path, "--alg", "max-sinr",
                 "--out", str(tmp_path / "s.json"),
                 "--metrics-out", str(metrics)]) == 0
    lines = metrics.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema: dcopt-metrics-v1"
    assert lines[1] == "scenario,load,algorithm,cell_se,p5_se"
    assert lines[2].startswith("inst,4,max-sinr,")


@pytest.mark.parametrize("rate_min, peaks", [
    (0.5, [[5, 0, 2.0], [5, 1, 3.0], [6, 0, 1.5], [6, 1, 1.0], [6, 2, 4.0]]),
    (0.0, [[5, 0, 2.0], [6, 0, 1.5], [6, 2, 4.0]]),
])
def test_solve_greedy_ls_on_sparse_instance(tmp_path, rate_min, peaks):
    # an omitted (zero) peak rate means "no link": no candidate pair uses it
    doc = {
        "users": [{"id": u, "weight": 1.0, "rate_min": rate_min}
                  for u in (5, 6)],
        "macros": [{"id": 0, "picos": [1, 2]}],
        "peak_rates": peaks,
    }
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--alg", "greedy-ls", "--verify",
                 "--out", str(out)]) == 0
    sol = json.loads(out.read_text(encoding="utf-8"))
    links = {(u, t) for u, t, _ in peaks}
    for key in list(sol["theta"]) + list(sol["gamma"]):
        u, t = map(int, key.split(","))
        assert (u, t) in links
    assert sol["sum_rate"] > 0.0


def test_solve_unknown_algorithm_is_usage_error(tmp_path, capsys):
    inst_path = gen_instance(tmp_path)
    assert main(["solve", inst_path, "--alg", "bogus"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_run_algorithm_refuses_an_unknown_name(tmp_path):
    # argparse's choices guard the command line; run_algorithm checks too
    with open(gen_instance(tmp_path), encoding="utf-8") as fh:
        inst = instance_from_json(fh.read())
    with pytest.raises(ValueError, match="^unknown algorithm 'bogus'$"):
        run_algorithm(inst, "bogus")


def test_solve_missing_instance_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json"),
                 "--alg", "max-sinr"]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_unservable_user_exits_infeasible(tmp_path, capsys):
    # user 2 has no TP with a positive rate; PF cannot cover it
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(0, [10])],
        [(1, 0, 1.0), (1, 10, 2.0)],
    )
    path = tmp_path / "broken.json"
    path.write_text(instance_to_json(inst) + "\n", encoding="utf-8")
    assert main(["solve", str(path), "--alg", "staged-pf"]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_solve_bad_solution_exits_verification(tmp_path, capsys, monkeypatch):
    inst_path = gen_instance(tmp_path)

    def corrupted(inst, alg, eps=0.5, max_iter=None):
        assoc, fractions, _ = run_algorithm(inst, alg, eps=eps,
                                            max_iter=max_iter)
        (u, t), v = next(iter(fractions.theta.items()))
        fractions.theta[(u, t)] = 0.25 * v
        return assoc, fractions, compute_user_rates(inst, fractions)

    monkeypatch.setattr("dcopt.cli.run_algorithm", corrupted)
    code = main(["solve", inst_path, "--alg", "staged-pf", "--verify",
                 "--out", str(tmp_path / "s.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "verification failed" in err and "duality gap" in err


def test_solve_verify_skips_bound_without_admission_control(tmp_path, capsys):
    # 2 * 0.6 / 1.0 > 1: the macro cannot cover twice the minimum rate, so
    # the 1/4.5 guarantee has no footing and must not be asserted
    heavy = make_instance(
        [(1, 1.0, 0.6, math.inf)], [(0, [10])],
        [(1, 0, 1.0), (1, 10, 1.0)],
    )
    path = tmp_path / "heavy.json"
    path.write_text(instance_to_json(heavy) + "\n", encoding="utf-8")
    code = main(["solve", str(path), "--alg", "greedy-ls", "--verify",
                 "--out", str(tmp_path / "s.json")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verify: 1/4.5 bound not asserted (admission control fails)" in lines
    assert any("exhaustive optimum" in ln for ln in lines)


def test_solve_verify_empty_ground_set(tmp_path, capsys):
    # user 1's minimum rate exceeds its two peak rates together and user 2
    # has no pico link, so no (user, pico) tuple exists: local search runs
    # on an empty ground set and serves nobody
    inst = make_instance(
        [(1, 1.0, 5.0, math.inf), (2, 1.0, 0.0, math.inf)], [(0, [10])],
        [(1, 0, 1.0), (1, 10, 1.0), (2, 0, 2.0)],
    )
    path, out = tmp_path / "empty.json", tmp_path / "s.json"
    path.write_text(instance_to_json(inst) + "\n", encoding="utf-8")
    code = main(["solve", str(path), "--alg", "greedy-ls", "--verify",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == (
        "verify: every cluster reaches its LP dual bound\n"
        "verify: value 0 vs exhaustive optimum 0 (within 1/4.5 bound)\n")
    sol = json.loads(out.read_text(encoding="utf-8"))
    assert sol["association"] == {"1": None, "2": None}
    assert sol["sum_rate"] == 0.0


@pytest.mark.parametrize("alg", ["greedy-ls", "staged-pf", "max-sinr"])
def test_solve_without_users_writes_a_float_sum_rate(tmp_path, capsys, alg):
    # no user: the sum of no rates is the float 0.0, as with users it is a
    # float; staged PF has no cluster to check and says so
    path, out = tmp_path / "empty.json", tmp_path / "s.json"
    path.write_text(json.dumps({"users": [], "macros": [{"id": 0, "picos": [10]}],
                                "peak_rates": []}), encoding="utf-8")
    assert main(["solve", str(path), "--alg", alg, "--verify", "--out", str(out)]) == 0
    assert '"sum_rate": 0.0' in out.read_text(encoding="utf-8")
    if alg == "staged-pf":
        assert capsys.readouterr().out == (
            "verify: no cluster has users; nothing to certify\n")


def test_staged_pf_verify_skips_a_macro_without_users(tmp_path, capsys):
    # no user links to macro 1 or its pico, so staged PF leaves it empty and
    # --verify has no cluster to check there
    doc = {
        "users": [{"id": u, "weight": 1.0, "rate_min": 0.0} for u in (5, 6)],
        "macros": [{"id": 0, "picos": [10]}, {"id": 1, "picos": [11]}],
        "peak_rates": [[5, 0, 2.0], [5, 10, 1.0], [6, 0, 1.0], [6, 10, 3.0]],
    }
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["solve", str(path), "--alg", "staged-pf", "--verify",
                 "--out", str(tmp_path / "s.json")]) == 0
    assert capsys.readouterr().out == "verify: macro 0 cluster optimal (1.79176)\n"


# both deployments have at most 14 ground-set tuples, so --verify runs the
# exhaustive search: the first under admission control with minimum rates
# (the 1/4.5 bound), the second without (the 1/2 bound)
PINNED_VERIFY = [
    ({"seed": 1, "rings": 0, "sectors_per_site": 1, "picos_per_macro": 2,
      "users_per_macro": 5, "min_rate_bps": 2e5}, {
        "greedy-ls": "verify: every cluster reaches its LP dual bound\n"
                     "verify: value 4.86708e+08 vs exhaustive optimum 4.86708e+08"
                     " (within 1/4.5 bound)\n",
        "staged-pf": "verify: macro 0 cluster optimal (91.5723)\n",
    }),
    ({"seed": 4, "rings": 0, "sectors_per_site": 1, "picos_per_macro": 3,
      "users_per_macro": 4}, {
        "greedy-ls": "verify: every cluster reaches its LP dual bound\n"
                     "verify: value 5.69325e+08 vs exhaustive optimum 5.69325e+08"
                     " (within 1/2.0 bound)\n",
        "staged-pf": "verify: macro 0 cluster optimal (74.638)\n",
    }),
]


@pytest.mark.parametrize("config, expected", PINNED_VERIFY)
def test_solve_verify_stdout_is_pinned(tmp_path, capsys, config, expected):
    inst_path = gen_instance(tmp_path, **config)
    for alg, stdout in expected.items():
        capsys.readouterr()
        assert main(["solve", inst_path, "--alg", alg, "--verify",
                     "--out", str(tmp_path / f"{alg}.json")]) == 0
        assert capsys.readouterr().out == stdout


# the exhaustive optimum of each PINNED_VERIFY deployment, bit for bit (the
# stdout above keeps 6 digits)
PINNED_OPTIMUM = ["0x1.d029415965dfcp+28", "0x1.0f79bbce7130cp+29"]


# fixed ids, so that re-recording a pin does not rename the test
@pytest.mark.parametrize("config, optimum",
                         [(c, v) for (c, _), v in zip(PINNED_VERIFY, PINNED_OPTIMUM)],
                         ids=["config0", "config1"])
def test_exhaustive_optimum_is_pinned(tmp_path, config, optimum):
    with open(gen_instance(tmp_path, **config), encoding="utf-8") as f:
        inst = instance_from_json(f.read())
    _, value = brute_force_wsr_assoc(inst)
    assert value.hex() == optimum


def test_solve_verify_exits_when_an_exhaustive_certificate_fails(
        tmp_path, capsys, monkeypatch):
    # halve one pico share of each cluster point the exhaustive search
    # certifies; the solve itself ran on the true allocator
    inst_path = gen_instance(tmp_path, **PINNED_VERIFY[1][0])

    def perturbed(cl):
        alloc = allocate_cluster(cl)
        fractions = alloc.fractions
        key = next(iter(fractions.gamma))
        fractions.gamma[key] *= 0.5
        return alloc

    def solved(inst, alg, eps=0.5, max_iter=None):
        out = run_algorithm(inst, alg, eps=eps, max_iter=max_iter)
        monkeypatch.setattr("dcopt.wsr_assoc.allocate_cluster", perturbed)
        return out

    monkeypatch.setattr("dcopt.cli.run_algorithm", solved)
    code = main(["solve", inst_path, "--alg", "greedy-ls", "--verify",
                 "--out", str(tmp_path / "s.json")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""   # log lines print only after every check passed
    assert "verification failed: macro 0: weighted sum rate" in captured.err
    assert "below the dual bound" in captured.err


@pytest.mark.parametrize("alg, config, corrupt, message", [
    # a halved share leaves its cluster below the LP dual bound
    ("greedy-ls", {}, "share", "verification failed: macro 0: weighted sum rate"),
    # every cluster keeps its certificate, but the rates report a quarter
    # of the value: below half the exhaustive optimum
    ("greedy-ls", PINNED_VERIFY[1][0], "rates", "below brute-force bound"),
    # a halved max-SINR share leaves its TP's shares short of 1
    ("max-sinr", {}, "share", "shares sum to 0."),
])
def test_solve_corrupted_solution_exits_verification(
        tmp_path, capsys, monkeypatch, alg, config, corrupt, message):
    inst_path = gen_instance(tmp_path, **config)

    def corrupted(inst, alg, eps=0.5, max_iter=None):
        assoc, fractions, rates = run_algorithm(inst, alg, eps=eps,
                                                max_iter=max_iter)
        if corrupt == "rates":
            return assoc, fractions, {u: 0.25 * r for u, r in rates.items()}
        shares = fractions.theta or fractions.gamma
        shares[next(iter(shares))] *= 0.5
        return assoc, fractions, compute_user_rates(inst, fractions)

    monkeypatch.setattr("dcopt.cli.run_algorithm", corrupted)
    code = main(["solve", inst_path, "--alg", alg, "--verify",
                 "--out", str(tmp_path / "s.json")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


GOOD_USER = {"id": 6, "weight": 1.0, "rate_min": 0.0}
GOOD_PEAKS = [[5, 0, 2.0], [5, 1, 1.0], [6, 0, 1.0], [6, 1, 3.0]]


@pytest.mark.parametrize("alg", ["greedy-ls", "staged-pf"])
@pytest.mark.parametrize("user, peak, message", [
    ({"weight": -1.0}, 1.0, "user 5: weight must be positive and finite"),
    ({"weight": math.inf}, 1.0, "user 5: weight must be positive and finite"),
    ({"rate_min": -0.5}, 1.0, "user 5: rate_min must be non-negative and finite"),
    ({"rate_min": math.nan}, 1.0, "user 5: rate_min must be non-negative and finite"),
    ({"rate_min": 0.5, "rate_max": 0.2}, 1.0, "user 5: rate_min exceeds rate_max"),
    ({}, math.nan, "user 5, tp 1: peak rate must be non-negative and finite"),
    ({}, -1.0, "user 5, tp 1: peak rate must be non-negative and finite"),
    ({"rate_max": math.nan}, 1.0, "user 5: rate_max must not be NaN"),
])
def test_solve_rejects_invalid_instance(tmp_path, capsys, alg, user, peak,
                                        message):
    doc = {
        "users": [{"id": 5, "weight": 1.0, "rate_min": 0.0, **user}, GOOD_USER],
        "macros": [{"id": 0, "picos": [1]}],
        "peak_rates": [[5, 0, 2.0], [5, 1, peak]] + GOOD_PEAKS[2:],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--alg", alg, "--out", str(out)]) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_verify_refuses_overflowing_weighted_rates(tmp_path, capsys):
    # weight x peak rate is 1e309 and more: the local search and the
    # exhaustive check once printed numpy warnings and reported "value inf"
    inst = make_instance(
        [(1, 1e300, 0.0, math.inf), (2, 1e300, 0.0, math.inf)], [(0, [10])],
        [(1, 0, 1e9), (1, 10, 2e10), (2, 0, 2e9), (2, 10, 1e10)],
    )
    path = tmp_path / "heavy.json"
    path.write_text(instance_to_json(inst) + "\n", encoding="utf-8")
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--alg", "greedy-ls", "--verify",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: weight x peak rate summed over all links "
                            "is inf, above 1e+300 (user 1 has the largest)\n")
    assert captured.out == ""
    assert not out.exists()


def _doc(users=None, macros=None, peaks=None):
    return {
        "users": [{"id": 5, "weight": 1.0, "rate_min": 0.0}, GOOD_USER]
        if users is None else users,
        "macros": [{"id": 0, "picos": [1]}] if macros is None else macros,
        "peak_rates": [[5, 0, 2.0], [5, 1, 1.0]] + GOOD_PEAKS[2:]
        if peaks is None else peaks,
    }


@pytest.mark.parametrize("doc, message", [
    (_doc(users=[{"id": 5, "rate_min": 0.0}, GOOD_USER]),
     "user 5 has no 'weight' key"),
    ([_doc()], "instance must be a JSON object"),
    (_doc(peaks=[[5, 0, 2.0], [5, 1, None]] + GOOD_PEAKS[2:]),
     "peak rate None is not a number"),
    (_doc(peaks=[[5, 0, 2.0], [5, 1, True]] + GOOD_PEAKS[2:]),
     "peak rate True is not a number"),
    (_doc(users=[{"id": 5, "weight": "1.0"}, GOOD_USER]),
     "user 5: rate or weight '1.0' is not a number"),
    (_doc(users=[{"id": 1.5, "weight": 1.0}, GOOD_USER]),
     "user id 1.5 is not an integer"),
    (_doc(users=[{"id": True, "weight": 1.0}, GOOD_USER]),
     "user id True is not an integer"),
    (_doc(macros=[{"id": 0, "picos": 1}]), "macro 0: 'picos' must be a JSON array"),
    (_doc(peaks=[[5, 0, 2.0], [5, 1, 1.0], [5, 1, 7.0]] + GOOD_PEAKS[2:]),
     "peak rate for (5, 1) listed twice"),
    ("[" * 100_000 + "]" * 100_000, "instance JSON nests too deeply"),
    (_doc(users=[{"id": 5, "weight": 10**400}, GOOD_USER]),
     "user 5: weight is too large for a float"),
    (_doc(peaks=[[5, 0, 2.0], [5, 1, -10**400]] + GOOD_PEAKS[2:]),
     "peak rate for (5, 1) is too large for a float"),
    (_doc(macros=[{"id": 0, "picos": [1]}, {"id": 2, "picos": [1]}]),
     "pico 1 listed under macros 0 and 2"),
    # a dropped key would answer another problem: without the check user 6
    # is served at 3.0, not at the asked-for minimum of 50.0
    (_doc(users=[{"id": 5, "weight": 1.0}, {**GOOD_USER, "rate_mn": 50.0, "ratemax": 0.1}]),
     "user 6 has an unknown key 'rate_mn'"),
    (_doc(macros=[{"id": 0, "picos": [1], "pico": [2]}]), "macro 0 has an unknown key 'pico'"),
    ({**_doc(), "peak_rate": []}, "instance has an unknown key 'peak_rate'"),
], ids=["missing-weight", "array-document", "null-rate", "bool-rate",
        "string-weight", "float-id", "bool-id", "scalar-picos", "duplicate-pair",
        "deep-nesting", "huge-weight", "huge-rate", "shared-pico", "unknown-user-key",
        "unknown-macro-key", "unknown-instance-key"])
def test_solve_rejects_malformed_instance_json(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--alg", "greedy-ls", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_names_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(_doc()).encode("utf-8")[:-1] + b', "x": "\xff"}')
    out = tmp_path / "sol.json"
    assert main(["solve", str(path), "--alg", "greedy-ls", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


_IDS = st.sampled_from([0, 1, 2, 5, 6, -1, 1.5, True, None, "5"])
# numbers of the right type, some out of range (beyond a float among them);
# _NUMS adds values of the wrong type
_NUMBERS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 3.0, 1e6, -1.0, math.nan, math.inf,
                     10**400, -10**400]),
    st.integers(-2, 4),
)
_NUMS = st.one_of(_NUMBERS, st.none(), st.booleans(), st.text(max_size=2))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.floats(allow_nan=True), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _instance_docs(draw):
    """Small instance documents, mostly well formed, some with one part
    replaced by an arbitrary JSON value or dropped."""
    good = draw(st.booleans())
    ident = st.sampled_from([5, 6, 7]) if good else _IDS
    if not good:
        value = floor = _NUMS
    elif draw(st.booleans()):   # well formed, but numbers may be out of range
        value = floor = _NUMBERS
    else:
        value = st.sampled_from([0.5, 1.0, 2.0, 3.0])
        floor = st.sampled_from([0.0, 0.0, 0.5, 1.0])
    users = [{"id": u, "weight": draw(value), "rate_min": draw(floor)}
             for u in draw(st.lists(ident, min_size=1, max_size=3, unique=good))]
    picos = draw(st.lists(st.sampled_from([1, 2, 3]) if good else _IDS,
                          max_size=3, unique_by=repr))
    macros = [{"id": 0, "picos": picos}]
    tps = [0] + picos
    peaks = [[u["id"], t, draw(value)] for u in users for t in tps
             if draw(st.booleans())]
    doc = {"users": users, "macros": macros, "peak_rates": peaks}
    if not good:
        path = draw(st.sampled_from([("users",), ("macros",), ("peak_rates",),
                                     ("users", 0), ("macros", 0, "picos"),
                                     ("users", 0, "weight"), ("users", 0, "id"),
                                     ("macros", 0, "id")]))
        *head, last = path
        node = doc
        for k in head:
            node = node[k]
        if draw(st.booleans()) and isinstance(node, dict):
            del node[last]
        else:
            node[last] = draw(_JSON)
    return draw(st.sampled_from([doc, [doc], doc, doc]))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(doc=_instance_docs(), alg=st.sampled_from(["greedy-ls", "staged-pf", "max-sinr"]))
def test_solve_fuzzed_instances_exit_cleanly(doc, alg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["solve", path, "--alg", alg,
                         "--out", os.path.join(tmp, "sol.json")])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_solve_accepts_tied_ratios(tmp_path, capsys):
    # both users have macro/pico ratio 2 at pico 1; the solvers break the
    # tie by id, and each algorithm's certificate holds
    doc = {
        "users": [{"id": u, "weight": 1.0, "rate_min": 0.0} for u in (5, 6)],
        "macros": [{"id": 0, "picos": [1]}],
        "peak_rates": [[5, 0, 2.0], [5, 1, 1.0], [6, 0, 4.0], [6, 1, 2.0]],
    }
    path = tmp_path / "tied.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for alg, line in [("greedy-ls", "verify: every cluster reaches its LP dual bound"),
                      ("staged-pf", "verify: macro 0 cluster optimal"),
                      ("max-sinr", "verify: equal-share fractions sum to 1 per TP")]:
        capsys.readouterr()
        assert main(["solve", str(path), "--alg", alg, "--verify",
                     "--out", str(tmp_path / f"{alg}.json")]) == 0
        assert line in capsys.readouterr().out


def test_python_m_dcopt_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["dcopt"].__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dcopt", "generate",
         "--config", write_config(tmp_path), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["users"]


def test_parser_is_built_once_and_keeps_no_values():
    # every main() call of a process parses with one parser, so a parse must
    # leave no value behind for the next
    parser = build_parser()
    assert build_parser() is parser
    argv = ["solve", "inst.json", "--alg", "max-sinr"]
    assert parser.parse_args(argv + ["--eps", "0.1"]).eps == 0.1
    assert parser.parse_args(argv).eps == 0.5


# -- sweep ----------------------------------------------------------------------


def test_sweep_writes_schema_tagged_csvs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", cfg, "--loads", "4", "--seeds", "3",
            "--band", "out", "--out", str(out)]
    assert main(argv) == 0
    metrics = (out / "metrics.csv").read_text(encoding="utf-8")
    gains = (out / "gains.csv").read_text(encoding="utf-8")
    mlines = metrics.splitlines()
    assert mlines[0] == "# schema: dcopt-metrics-v1"
    assert mlines[1] == "scenario,load,algorithm,cell_se,p5_se"
    algs = [ln.split(",")[2] for ln in mlines[2:]]
    assert algs == ["greedy-ls", "max-sinr", "staged-pf"]  # sorted rows
    glines = gains.splitlines()
    assert glines[0] == "# schema: dcopt-gains-v1"
    assert [ln.split(",")[2] for ln in glines[2:]] == ["greedy-ls", "staged-pf"]

    again = tmp_path / "sweep2"
    assert main(argv[:-1] + [str(again)]) == 0
    assert (again / "metrics.csv").read_bytes() == metrics.encode()
    assert (again / "gains.csv").read_bytes() == gains.encode()


@pytest.mark.parametrize("exc, code", [(InfeasibleError, 2), (RuntimeError, 1)])
def test_sweep_failed_cell_sets_exit_code(tmp_path, capsys, monkeypatch,
                                          exc, code):
    def failing(inst, alg, eps=0.5, max_iter=None):
        if len(inst.users) == 8:
            raise exc("injected cell failure")
        return run_algorithm(inst, alg, eps=eps, max_iter=max_iter)

    monkeypatch.setattr("dcopt.cli.run_algorithm", failing)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path), "--loads", "4,8",
                 "--algs", "staged-pf", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "injected cell failure" in err
    assert "Traceback" in err and "in failing" in err  # the raising frame
    # the cell that succeeded is still written
    rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[2:]
    assert [r.split(",")[1] for r in rows] == ["4", "4"]


def test_sweep_process_pool_matches_serial_bytes(tmp_path, monkeypatch):
    argv = ["sweep", "--config", write_config(tmp_path), "--loads", "4,8",
            "--seeds", "3,4", "--algs", "staged-pf,max-sinr"]
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    monkeypatch.setenv("HETNET_THREADS", "1")
    assert main(argv + ["--out", str(serial)]) == 0
    monkeypatch.setenv("HETNET_THREADS", "2")
    assert main(argv + ["--out", str(pooled)]) == 0
    for name in ("metrics.csv", "gains.csv"):
        assert (pooled / name).read_bytes() == (serial / name).read_bytes()
    assert len((serial / "metrics.csv").read_text().splitlines()) == 2 + 4 * 2


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs inline."""

    sizes: list = []

    def __init__(self, max_workers):
        InlinePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads, cpus, workers", [
    ("100000", 3, 3),      # capped by the CPU count
    ("100000", 64, 4),     # capped by the cell count
    ("2", 64, 2),
    ("100000", None, None),   # an unknown CPU count runs serially
    ("1", 64, None),
])
def test_sweep_pool_size_is_capped(tmp_path, monkeypatch, threads, cpus, workers):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr("dcopt.cli.os.cpu_count", lambda: cpus)
    monkeypatch.setenv("HETNET_THREADS", threads)
    assert main(["sweep", "--config", write_config(tmp_path), "--loads", "4,8",
                 "--seeds", "3,4", "--algs", "max-sinr",
                 "--out", str(tmp_path / "s")]) == 0
    assert InlinePool.sizes == ([] if workers is None else [workers])
    assert len((tmp_path / "s" / "metrics.csv").read_text().splitlines()) == 2 + 4


def test_cli_import_leaves_the_process_pool_out():
    # importing the pool module slows every start; only a pooled sweep needs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["dcopt"].__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dcopt.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("threads", ["0", "-2", "1.5", "two", "", "1" * 5000])
def test_sweep_rejects_bad_thread_count(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setenv("HETNET_THREADS", threads)
    assert main(["sweep", "--config", write_config(tmp_path), "--loads", "4,8",
                 "--algs", "max-sinr", "--out", str(tmp_path / "s")]) == 1
    assert "HETNET_THREADS must be a positive integer" in capsys.readouterr().err
    assert InlinePool.sizes == []
    assert not (tmp_path / "s").exists()


def test_sweep_rejects_indivisible_load(tmp_path, capsys):
    cfg = write_config(tmp_path, sectors_per_site=3)
    assert main(["sweep", "--config", cfg, "--loads", "5",
                 "--out", str(tmp_path / "s")]) == 1
    assert "not divisible" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--loads", "0"], "load 0 is smaller than the cell count 1"),
    (["sweep", "--loads", "4,-1"], "load -1 is smaller than the cell count 1"),
    (["curve", "--picos", "0", "--users", "4"], "--picos must be at least 1, got 0"),
    (["curve", "--users", "0", "--picos", "2"], "--users must be at least 1, got 0"),
    (["curve", "--users", "4", "--picos", "2", "--scalars", "0,nan"],
     "--scalars nan: user 100000: rate_min must be non-negative and finite"),
    (["curve", "--users", "4", "--picos", "2", "--scalars", "-0.1"],
     "--scalars -0.1: user 100000: rate_min must be non-negative and finite"),
    # a repeated entry would write its metrics, gains or curve rows twice
    (["sweep", "--loads", "7", "--seeds", "1,1"], "error: --seeds repeats 1\n"),
    (["sweep", "--loads", "7", "--seeds", "2,02"], "error: --seeds repeats 2\n"),
    (["sweep", "--loads", "7,7"], "error: --loads repeats 7\n"),
    (["sweep", "--loads", "7", "--algs", "greedy-ls,greedy-ls"],
     "error: --algs repeats greedy-ls\n"),
    (["curve", "--users", "4", "--picos", "2", "--scalars", "0,0"],
     "error: --scalars repeats 0.0\n"),
])
def test_empty_loads_counts_and_bad_scalars_exit_usage(tmp_path, capsys, argv,
                                                       message):
    if argv[0] == "sweep":
        argv = argv + ["--config", write_config(tmp_path, users_per_macro=1)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_unknown_algorithm(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg, "--loads", "4",
                 "--algs", "greedy-ls,magic",
                 "--out", str(tmp_path / "s")]) == 1
    assert "unknown algorithm" in capsys.readouterr().err


# -- curve ----------------------------------------------------------------------


def test_curve_output_shape_and_monotonicity(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    argv = ["curve", "--users", "6", "--picos", "3", "--scalars", "0,0.3,50",
            "--points", "11", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "infeasible" in err and "50" in err  # hopeless scalar warned, omitted

    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema: dcopt-curve-v1"
    assert lines[1] == "gamma,value,scalar"
    by_scalar: dict[float, list[tuple[float, float]]] = {}
    for ln in lines[2:]:
        g, v, s = (float(x) for x in ln.split(","))
        by_scalar.setdefault(s, []).append((g, v))
    assert set(by_scalar) == {0.0, 0.3}
    assert len(by_scalar[0.0]) == 11
    assert by_scalar[0.0][0][0] == 0.0     # no min rates: full budget range
    assert by_scalar[0.3][0][0] > 0.0      # min rates push the start right
    for s, pts in by_scalar.items():
        gs = [g for g, _ in pts]
        vs = [v for _, v in pts]
        scale = max(abs(v) for v in vs)
        assert gs == sorted(gs)
        assert all(b >= a - 1e-9 * scale for a, b in zip(vs, vs[1:]))
        slopes = [(v2 - v1) / (g2 - g1)
                  for (g1, v1), (g2, v2) in zip(pts, pts[1:])]
        assert all(s2 <= s1 + 1e-9 * scale for s1, s2 in zip(slopes, slopes[1:]))

    again = tmp_path / "curve2.csv"
    assert main(argv[:-1] + [str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_curve_constrained_scalar_lies_below(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--users", "6", "--picos", "3",
                 "--scalars", "0,0.3", "--points", "11", "--seed", "1",
                 "--out", str(out)]) == 0
    pts: dict[float, dict[float, float]] = {}
    for ln in out.read_text(encoding="utf-8").splitlines()[2:]:
        g, v, s = (float(x) for x in ln.split(","))
        pts.setdefault(s, {})[g] = v
    shared = sorted(set(pts[0.0]) & set(pts[0.3]))
    scale = max(pts[0.0].values())
    assert shared
    assert all(pts[0.3][g] <= pts[0.0][g] + 1e-9 * scale for g in shared)


def test_curve_overflowing_scalar_exits_usage(tmp_path, capsys):
    # 1e308 times a macro rate is inf, which the instance check refuses; the
    # product must not print numpy's overflow warning on the way
    out = tmp_path / "curve.csv"
    assert main(["curve", "--users", "4", "--picos", "2", "--scalars", "0,1e308",
                 "--points", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --scalars 1e+308: user 100000: rate_min must "
                          "be non-negative and finite;")
    assert not out.exists()


# -- fuzzed curve and sweep runs --------------------------------------------------

def _mostly(valid, odd):
    """One of the valid values at least half the time, else an odd one."""
    return st.sampled_from(valid) | st.sampled_from(valid + odd)


_SCALARS = st.lists(
    _mostly(["0", "0.1", "0.5", "50"],
            ["-1", "nan", "inf", "-inf", "1e308", "1e-320", "x", "", " 1"]),
    min_size=1, max_size=4).map(",".join)
_CURVE_FLAGS = {
    "--users": _mostly(["1", "4", "6"], ["0", "-3", "x", "1.5", "10000"]),
    "--picos": _mostly(["1", "2", "3"], ["0", "-1", "y"]),
    "--scalars": _SCALARS,
    "--points": _mostly(["2", "3", "7"], ["1", "0", "100001", "z"]),
    "--seed": _mostly(["1", "2", "0", str(2**70)], ["-1", "x"]),
}
_SWEEP_FLAGS = {
    "--seeds": _mostly(["1", "1,2", str(2**70)], ["-1", "x", ""]),
    "--seed": _mostly(["1", "2"], ["-1", "x"]),
    "--algs": _mostly(["greedy-ls", "staged-pf", "max-sinr", "greedy-ls,staged-pf,max-sinr"],
                      ["bogus", ""]),
    "--band": _mostly(["in", "out"], ["sideways"]),
    "--eps": _mostly(["0", "0.5"], ["-1", "nan", "x"]),
    "--max-iter": _mostly(["0", "1", "5"], ["-1", "x"]),
}
_LOADS = _mostly(["4", "8", "4,8", "21"], ["6", "0", "-4", "3", "x", ""])
# config values in a realistic range, finite extremes outside the physical
# ranges, and (from _ODD_VALUES) ones of the wrong kind or sign
_CONFIG_VALUES = {
    "seed": [3, 0, 2**70],
    "rings": [0, 1],
    "sectors_per_site": [1, 3],
    "picos_per_macro": [0, 1, 3],
    "users_per_macro": [1, 4, 10**7],
    "isd_m": [500.0, 200.0, 1000.0, 1e12],
    "bandwidth_hz": [10e6, 1e6],
    "split": ["in-band", "out-of-band"],
    "macro_bandwidth_hz": [None, 5e6],
    "pico_bandwidth_hz": [None, 5e6, 1e-300],
    "tx_macro_dbm": [46.0, 30.0, 60.0, -400.0],
    "tx_pico_dbm": [40.0, 20.0, -400.0],
    "macro_antenna_dbi": [14.0, -5.0],
    "pico_antenna_dbi": [5.0, 0.0],
    "noise_figure_db": [9.0, 0.0, 20.0, 1e300],
    "shadow_macro_db": [8.0, 0.0, 12.0, 300.0],
    "shadow_pico_db": [10.0, 0.0],
    "min_rate_bps": [0.0, 2e5, 1e9],
    "unknown_field": [1],
}
_ODD_VALUES = [math.nan, math.inf, -math.inf, -1, 0, True, "x", None, [1]]


@st.composite
def _flags(draw, table):
    """Some of the table's flags, each with a drawn value."""
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(table)), unique=True)):
        argv += [flag, draw(table[flag])]
    return argv


@st.composite
def _config_texts(draw):
    """TINY with a few fields replaced, as a JSON document, or a file that
    is not a config object."""
    doc = dict(TINY)
    for key in draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), max_size=4,
                             unique=True)):
        doc[key] = draw(_mostly(_CONFIG_VALUES[key], _ODD_VALUES))
    return draw(st.sampled_from([json.dumps(doc)] * 5 + [json.dumps([doc]), "{", "7"]))


def _assert_clean_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(flags=_flags(_CURVE_FLAGS))
def test_curve_fuzzed_arguments_exit_cleanly(flags):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_clean_exit(["curve", *flags, "--out", os.path.join(tmp, "curve.csv")])


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(config=st.none() | _config_texts() | _config_texts(), flags=_flags(_SWEEP_FLAGS),
       loads=_LOADS)
def test_sweep_fuzzed_arguments_and_configs_exit_cleanly(config, flags, loads):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["sweep", "--loads", loads, *flags, "--out", os.path.join(tmp, "out")]
        if config is not None:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config)
            argv += ["--config", path]
        _assert_clean_exit(argv)
