"""End-to-end command line checks, run in-process through main()."""

import json
import math
import re

import pytest

from dcopt import (
    InfeasibleError,
    compute_user_rates,
    instance_to_json,
    make_instance,
)
from dcopt.cli import main, run_algorithm

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
    assert "verification failed" in capsys.readouterr().err


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


def test_sweep_rejects_indivisible_load(tmp_path, capsys):
    cfg = write_config(tmp_path, sectors_per_site=3)
    assert main(["sweep", "--config", cfg, "--loads", "5",
                 "--out", str(tmp_path / "s")]) == 1
    assert "not divisible" in capsys.readouterr().err


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
