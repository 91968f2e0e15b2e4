#!/usr/bin/env python3
"""dcopt benchmark: seeded deployments driven through the public `dcopt` CLI.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload wsr-dense --seed 1 --seconds 20 --trace 0

Workloads (see WORKLOADS below and perfbench/README.md):
  wsr-dense    `dcopt solve --alg greedy-ls`, no minimum rates (closed-form path)
  wsr-minrate  `dcopt solve --alg greedy-ls`, minimum rates (allocator path)
  pf-sweep     `dcopt sweep --algs staged-pf,max-sinr`, one CLI call per seed
               over the load grid (one cell per load)

One run builds its inputs from --seed (set-up), then runs a fixed batch of
operations back to back (the timed phase), each on its own seeded input. The
batch is sized from --seconds and the workload's nominal operation time, so a
pass lasts about --seconds on the reference machine and the same seed always
does the same work. Correctness checks run after the timed phase.

--trace 0 reports the end-to-end metrics. --trace 1 runs the batch untraced,
then again with spans around each layer's public functions, and reports the
per-layer metrics. The last stdout line is a JSON object with the keys
correct, attempted, failed and metrics. Details (per-operation times, output
digests, environment, purpose checks) go to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = WORK / "results"

SETUP_REPEATS = 3
BANDWIDTH_HZ = 10e6      # DeploymentConfig.bandwidth_hz and `solve --bandwidth-hz` default
REL_TOL = 1e-9
PF_RESIDUAL_TOL = 1e-8   # the tolerance `dcopt solve --verify` applies
DEEP_CHECKED_OPS = 1     # pf-sweep calls whose cells are re-solved and verified per run

# nominal_op_s is the median operation time measured on a 2-core x86-64 VM
# (Python 3.11, numpy 2.4) when the benchmark was defined; it only sizes
# the batch. Every operation gets its own deployment: solve workloads
# generate them in set-up, each sweep call generates its own from a fresh
# seed.
WORKLOADS = {
    "wsr-dense": {
        "kind": "solve",
        "config": {"rings": 1, "sectors_per_site": 1, "users_per_macro": 9},
        "nominal_op_s": 0.55,
    },
    "wsr-minrate": {
        "kind": "solve",
        "config": {"rings": 1, "sectors_per_site": 1, "users_per_macro": 6,
                   "min_rate_bps": 2e5},
        "nominal_op_s": 0.8,
    },
    "pf-sweep": {
        "kind": "sweep",
        "config": {"rings": 1, "sectors_per_site": 3},   # 7 sites x 3 sectors
        "cells": 21,
        "loads": (42, 84),
        "nominal_op_s": 1.1,
    },
}

# counters that must repeat exactly across traced runs of one seed
EXACT_COUNTERS = (
    "scenario.generate_calls",
    "net_model.ground_set_size",
    "wsr_alloc.allocate_cluster_calls",
    "wsr_alloc.infeasible_calls",
    "wsr_assoc.set_evals",
    "wsr_assoc.cache_misses",
    "wsr_assoc.ls_moves",
    "pf_alloc.pf_bisection_calls",
)


# -- inputs and operations -------------------------------------------------


def batch_size(spec: dict, seconds: int) -> int:
    return max(2, round(seconds / spec["nominal_op_s"]))


def input_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def op_argv(spec: dict, seed: int, i: int, inputs: Path, out: Path) -> list[str]:
    if spec["kind"] == "solve":
        return ["solve", str(inputs / f"inst{i}.json"), "--alg", "greedy-ls",
                "--out", str(out / f"sol{i}.json"),
                "--metrics-out", str(out / f"metrics{i}.csv")]
    return ["sweep", "--config", str(inputs / "config.json"),
            "--seeds", str(input_seed(seed, i)),
            "--loads", ",".join(str(x) for x in spec["loads"]),
            "--algs", "staged-pf,max-sinr", "--out", str(out / f"sweep{i}")]


def run_cli(cli, argv: list[str], tracer: Tracer | None = None):
    """One in-process CLI call: (exit code or crash text, seconds, stderr)."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", cli.main, (argv,), {})
    except Exception as e:   # a crash inside the CLI is a failed operation
        rc = f"{type(e).__name__}: {e}"
    return rc, time.perf_counter() - start, err.getvalue()


def setup(cli, spec: dict, seed: int, n: int, inputs: Path, tracer=None) -> list[str]:
    """Write the workload's input files; returns problems (empty when fine)."""
    inputs.mkdir(parents=True, exist_ok=True)
    if spec["kind"] == "sweep":
        (inputs / "config.json").write_text(json.dumps(spec["config"]))
        return []
    problems = []
    for i in range(n):
        cfg = inputs / f"config{i}.json"
        cfg.write_text(json.dumps({**spec["config"], "seed": input_seed(seed, i)}))
        rc, _, err = run_cli(cli, ["generate", "--config", str(cfg),
                                   "--out", str(inputs / f"inst{i}.json")], tracer)
        if rc != 0:
            problems.append(f"generate input {i}: exit {rc}: {err.strip()[-300:]}")
    return problems


# -- correctness checks (outside the timed phase) ---------------------------


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def digests(base: Path) -> dict[str, str]:
    """sha256 of every file under base, by relative path."""
    return {str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.rglob("*")) if p.is_file()}


def load_solution(dc, path: Path):
    doc = json.loads(path.read_text())

    def keyed(d):
        return {tuple(int(x) for x in k.split(",")): v for k, v in d.items()}

    fractions = dc.AllocationFractions(theta=keyed(doc["theta"]), gamma=keyed(doc["gamma"]))
    assoc = {int(u): (tuple(mb) if mb is not None else None)
             for u, mb in doc["association"].items()}
    return doc, assoc, fractions


def check_solution(dc, inst, path: Path, kkt: str | None) -> tuple[list[str], dict[int, float]]:
    """Feasibility, reported rates and, for kkt "wsr" or "pf", the per-cluster
    optimality conditions of a `dcopt solve` output; returns (problems,
    recomputed user rates)."""
    doc, assoc, fractions = load_solution(dc, path)
    problems = []
    rates = dc.compute_user_rates(inst, fractions)
    for u in inst.users:
        if not close(doc["user_rates"].get(str(u), math.nan), rates[u]):
            problems.append(f"user {u}: reported rate differs from recomputation")
    if not close(doc["sum_rate"], sum(rates.values())):
        problems.append(f"sum_rate {doc['sum_rate']} != recomputed {sum(rates.values())}")
    load: dict[int, float] = {}
    for (u, t), v in list(fractions.theta.items()) + list(fractions.gamma.items()):
        load[t] = load.get(t, 0.0) + v
        if v < 0:
            problems.append(f"negative share for ({u}, {t})")
    problems += [f"TP {t} shares sum to {s}" for t, s in load.items() if s > 1 + 1e-9]
    for u, mb in assoc.items():
        if mb is None:
            continue
        if rates[u] < inst.rmin(u) * (1 - REL_TOL) or rates[u] > inst.rmax(u) * (1 + REL_TOL):
            problems.append(f"user {u} rate {rates[u]} outside its limits")
    if kkt == "pf" and any(mb is None for mb in assoc.values()):
        problems.append("PF solution leaves a user unserved")
    served = dc.Association(pairs=assoc)
    for m in inst.macros if kkt else ():
        groups = served.users_of_macro(m)
        solo = groups.pop(None, [])
        if kkt == "pf":
            if groups or solo:
                cl = dc.PfClusterProblem.build(inst, m, groups, macro_only=solo)
                rep = dc.verify_kkt_pf(cl, fractions)
                if not rep.max_residual <= PF_RESIDUAL_TOL:
                    problems.append(f"macro {m}: PF residual {rep.max_residual:.3e}")
        elif groups:
            cl = dc.ClusterProblem.build(inst, m, groups)
            problems += [f"macro {m}: {s}" for s in dc.verify_kkt_wsr(cl, fractions)]
    return problems, rates


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def check_solve_op(dc, inst, out: Path, i: int) -> tuple[list[str], dict]:
    problems, rates = check_solution(dc, inst, out / f"sol{i}.json", "wsr")
    rows = read_csv(out / f"metrics{i}.csv")
    met = dc.rate_metrics(rates, len(inst.macros), BANDWIDTH_HZ, list(inst.users))
    cell_se = float(rows[-1]["cell_se"])
    if not close(cell_se, met.cell_se):
        problems.append(f"metrics row cell_se {cell_se} != recomputed {met.cell_se}")
    served = {u: r for u, r in rates.items() if r > 0.0}
    return problems, {"cell_se": cell_se,
                      "p5_served_se": dc.rate_metrics(served, 1, BANDWIDTH_HZ).p5_se,
                      "served_share": len(served) / len(rates)}


def check_sweep_op(spec: dict, seed: int, out: Path, i: int) -> tuple[list[str], dict, dict]:
    """Rows of one sweep call: every (seed, load) cell present, positive and
    consistent with gains.csv. A cell missing from metrics.csv is a failure
    even when the sweep exited 0. Returns (problems, quality, rows by cell)."""
    scenario = f"s{input_seed(seed, i)}-out"
    sweep = out / f"sweep{i}"
    metrics, gains = read_csv(sweep / "metrics.csv"), read_csv(sweep / "gains.csv")
    problems, cells, pf_vals = [], {}, []
    for load in spec["loads"]:
        pick = lambda rows: {r["algorithm"]: r for r in rows
                             if r["scenario"] == scenario and r["load"] == str(load)}
        rows, gain = pick(metrics), pick(gains)
        missing = {"max-sinr", "staged-pf"} - set(rows)
        if missing:
            problems.append(f"cell {scenario}/{load} missing from metrics.csv: {sorted(missing)}")
            continue
        cells[load] = rows
        vals = {a: (float(r["cell_se"]), float(r["p5_se"])) for a, r in rows.items()}
        for a, v in vals.items():
            if not all(math.isfinite(x) and x > 0 for x in v):
                problems.append(f"cell {scenario}/{load} {a}: non-positive metrics {v}")
        pf_vals.append(vals["staged-pf"])
        if "staged-pf" not in gain:
            problems.append(f"cell {scenario}/{load} missing from gains.csv")
        elif not close(float(gain["staged-pf"]["cell_se_gain_pct"]),
                       100.0 * (vals["staged-pf"][0] / vals["max-sinr"][0] - 1.0)):
            problems.append(f"cell {scenario}/{load}: gain disagrees with metrics rows")
    quality = {"cell_se": statistics.fmean(v[0] for v in pf_vals),
               "p5_se": statistics.fmean(v[1] for v in pf_vals)} if pf_vals else {}
    return problems, quality, cells


def deep_check_cell(cli, dc, spec: dict, cell_seed: int, load: int, rows: dict,
                    work: Path) -> list[str]:
    """Re-solve one sweep cell through `generate` + `solve`, verify the PF
    solution's optimality conditions, and match the sweep's rows to it."""
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "config.json"
    cfg.write_text(json.dumps({**spec["config"], "seed": cell_seed,
                               "users_per_macro": load // spec["cells"]}))
    inst_path = work / "inst.json"
    for argv in (["generate", "--config", str(cfg), "--out", str(inst_path)],
                 ["solve", str(inst_path), "--alg", "staged-pf", "--out", str(work / "pf.json")],
                 ["solve", str(inst_path), "--alg", "max-sinr", "--out", str(work / "base.json")]):
        rc, _, err = run_cli(cli, argv)
        if rc != 0:
            return [f"cell s{cell_seed}/{load} re-solve `{argv[0]}`: exit {rc}: {err[-300:]}"]
    inst = dc.instance_from_json(inst_path.read_text())
    problems = []
    for alg, name, kkt in (("staged-pf", "pf.json", "pf"), ("max-sinr", "base.json", None)):
        got, rates = check_solution(dc, inst, work / name, kkt)
        problems += got
        met = dc.rate_metrics(rates, spec["cells"], BANDWIDTH_HZ, list(inst.users))
        row = rows[alg]
        if not (close(float(row["cell_se"]), met.cell_se) and close(float(row["p5_se"]), met.p5_se)):
            problems.append(f"cell s{cell_seed}/{load} {alg}: sweep row {row} != re-solved {met}")
    return problems


def check_pass(cli, dc, spec, seed, ops, inputs: Path, out: Path, deep_dir: Path | None):
    """Per-operation problem lists and quality values for one timed pass."""
    problems, quality = [], []
    for i, op in enumerate(ops):
        if op["rc"] != 0:
            problems.append([f"exit {op['rc']}: {op['stderr']}"])
            quality.append({})
            continue
        try:
            if spec["kind"] == "solve":
                inst = dc.instance_from_json((inputs / f"inst{i}.json").read_text())
                got, q = check_solve_op(dc, inst, out, i)
            else:
                got, q, cells = check_sweep_op(spec, seed, out, i)
                if deep_dir is not None and i < DEEP_CHECKED_OPS:
                    for load, rows in cells.items():
                        got += deep_check_cell(cli, dc, spec, input_seed(seed, i), load,
                                               rows, deep_dir / f"s{i}-{load}")
        except (OSError, ValueError, KeyError, IndexError) as e:
            got, q = [f"unreadable output: {type(e).__name__}: {e}"], {}
        problems.append(got)
        quality.append(q)
    return problems, quality


# -- environment and results -----------------------------------------------


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tree_digest(base: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(base.rglob("*.py")):
        h.update(str(p.relative_to(base)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "git_revision": git_revision(),
        "source_sha256": tree_digest(SRC / "dcopt"),
        "benchmark_sha256": tree_digest(Path(__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    dur, self_t, calls = tracer.totals()
    c = tracer.counts
    n_alloc = calls["wsr_alloc.allocate_cluster"]
    n_gs = calls["net_model.build_ground_set"]
    evals = c["cache_hits"] + c["cache_misses"]
    return {
        "scenario.generate_s": dur["scenario.generate"],
        "scenario.generate_calls": calls["scenario.generate"],
        "scenario.max_sinr_baseline_s": dur["scenario.max_sinr_baseline"],
        "scenario.rate_metrics_s": dur["scenario.rate_metrics"],
        "net_model.instance_from_json_s": dur["net_model.instance_from_json"],
        "net_model.build_ground_set_s": dur["net_model.build_ground_set"],
        "net_model.ground_set_size": c["ground_set_size"] / n_gs if n_gs else 0,
        "net_model.compute_user_rates_s": dur["net_model.compute_user_rates"],
        "wsr_alloc.allocate_cluster_calls": n_alloc,
        "wsr_alloc.allocate_cluster_s": dur["wsr_alloc.allocate_cluster"],
        "wsr_alloc.allocate_cluster_us":
            1e6 * dur["wsr_alloc.allocate_cluster"] / n_alloc if n_alloc else 0.0,
        "wsr_alloc.infeasible_calls": c["wsr_alloc.allocate_cluster.raised.InfeasibleError"],
        "wsr_assoc.local_search_s": dur["wsr_assoc.local_search_associate"],
        "wsr_assoc.self_s": self_t["wsr_assoc.local_search_associate"],
        "wsr_assoc.set_evals": evals,
        "wsr_assoc.cache_misses": c["cache_misses"],
        "wsr_assoc.cache_hit_ratio": c["cache_hits"] / evals if evals else 0.0,
        "wsr_assoc.ls_moves": c["ls_moves"],
        "pf_assoc.staged_s": dur["pf_assoc.staged_pf_associate"],
        "pf_assoc.single_tp_s": dur["pf_assoc.single_tp_pf_solve"],
        "pf_assoc.dc_pf_value_s": dur["pf_assoc.dc_pf_value"],
        "pf_alloc.pf_bisection_calls": calls["pf_alloc.pf_bisection"],
        "pf_alloc.pf_bisection_s": dur["pf_alloc.pf_bisection"],
        "pf_alloc.residual_max": tracer.residual_max,
        "cli.self_s": self_t["cli.solve"] + self_t["cli.sweep"],
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tracer.spans),
    }


def purpose_checks(workload: str, tracer: Tracer, m: dict) -> dict:
    """Whether the traced run shows the layer each workload was chosen for."""
    dur, _, calls = tracer.totals()
    ops_s = dur["cli.solve"] + dur["cli.sweep"]
    share = lambda s: s / ops_s if ops_s else 0.0
    if workload == "wsr-dense":
        s = share(m["wsr_assoc.self_s"])
        return {"claim": "wsr_assoc self time is most of the operations", "share": s, "met": s > 0.5}
    if workload == "wsr-minrate":
        s = share(m["wsr_alloc.allocate_cluster_s"])
        return {"claim": "allocate_cluster is most of the operations", "share": s, "met": s > 0.5}
    s = share(m["scenario.generate_s"])
    wsr = calls["wsr_assoc.local_search_associate"] + calls["wsr_alloc.allocate_cluster"]
    return {"claim": "generate is most of the operations and no WSR code runs",
            "share": s, "wsr_calls": wsr, "met": s > 0.5 and wsr == 0}


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units for this mode, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


# -- main ------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_setup(cli, spec: dict, seed: int, n: int, inputs: Path, tracer):
    """Build the inputs SETUP_REPEATS times (once when traced); every
    repetition must write the same bytes. Returns (seconds per repetition,
    input digests, problems)."""
    times, seen, problems = [], [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            problems += setup(cli, spec, seed, n, inputs, tracer)
            times.append(time.perf_counter() - start)
        seen.append(digests(inputs))
    if any(d != seen[0] for d in seen):
        problems.append("set-up repetitions wrote different input files")
    return times, seen[0], problems


def measured_pass(cli, dc, spec, seed, n, cap_s, inputs: Path, out: Path, tracer,
                  deep_dir: Path | None):
    """Run the batch back to back (stopping early only past cap_s), then
    check it. Returns (ops, wall seconds, peak RSS in MB); each op carries
    its problems and quality values."""
    out.mkdir(parents=True)
    argvs = [op_argv(spec, seed, i, inputs, out) for i in range(n)]
    ops = []
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        for argv in argvs:
            rc, dt, err = run_cli(cli, argv, tracer)
            ops.append({"rc": rc, "s": dt, "stderr": err.strip()[-300:]})
            if time.perf_counter() - start > cap_s:
                break
        wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op, p, q in zip(ops, *check_pass(cli, dc, spec, seed, ops, inputs, out, deep_dir)):
        op.update(problems=p, quality=q)
    return ops, wall, rss_mb


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dcopt" / "__init__.py").is_file():
        print(f"error: no dcopt package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HETNET_THREADS", None)   # sweep cells run in this process

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dcopt as dc
    import dcopt.cli as cli
    import_s = time.perf_counter() - start
    if SRC.resolve() not in Path(dc.__file__).resolve().parents:
        print(f"error: imported dcopt from {dc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    n = batch_size(spec, args.seconds)
    cap_s = 3.0 * args.seconds   # keeps a much slower program inside the run time limit
    run_dir = WORK / f"run-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    inputs = run_dir / "inputs"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "batch": n, "environment": environment(),
                    "import_s": import_s}
    RESULTS.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_s, result["inputs_sha256"], errors = timed_setup(
            cli, spec, args.seed, n, inputs, tracer)
        ops, wall, rss_mb = measured_pass(cli, dc, spec, args.seed, n, cap_s, inputs,
                                          run_dir / "untraced", None, run_dir / "deep")
        result["outputs_sha256"] = digests(run_dir / "untraced")
        result.update(setup_runs_s=setup_s, wall_s=wall, ops_untraced=ops)
        all_ops = list(ops)
        if tracer:
            traced_ops, traced_wall, _ = measured_pass(
                cli, dc, spec, args.seed, n, cap_s, inputs, run_dir / "traced", tracer, None)
            all_ops += traced_ops
            result.update(traced_wall_s=traced_wall, ops_traced=traced_ops)
            untraced = result["outputs_sha256"]
            if any(untraced.get(k) != v for k, v in digests(run_dir / "traced").items()):
                errors.append("traced outputs differ from untraced outputs")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # a truncated batch is slow, not wrong: it is reported, and its metrics
    # cover the operations that ran
    result["truncated"] = len(ops) < n

    quality = [op["quality"] for op in ops if op["quality"]]
    result["quality"] = {k: statistics.fmean(q[k] for q in quality)
                         for k in (quality[0] if quality else ())}
    if tracer:
        metrics = layer_metrics(tracer, traced_wall, wall)
        result["purpose"] = purpose_checks(args.workload, tracer, metrics)
        errors += counters_repeat(tag, result, metrics)
        result["counters"] = {k: metrics[k] for k in EXACT_COUNTERS}
        result["missing_trace_targets"] = tracer.missing
        (RESULTS / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_s),
            "wall_s": wall,
            "op_p50_s": statistics.median(op["s"] for op in ops),
            "peak_rss_mb": rss_mb,
            "cell_se": result["quality"].get("cell_se", 0.0),
        }
    result["op_samples"] = len(ops)

    failed = sum(1 for op in all_ops if op["problems"])
    result.update(errors=errors, failed=failed, attempted=len(all_ops),
                  fail_ratio=failed / max(len(all_ops), 1))
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str))
    for msg in errors + [f"op {i}: {op['problems']}" for i, op in enumerate(all_ops)
                         if op["problems"]]:
        print(f"check: {msg}", file=sys.stderr)
    if "purpose" in result:
        print(f"purpose: {json.dumps(result['purpose'])}", file=sys.stderr)
    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def counters_repeat(tag: str, result: dict, metrics: dict) -> list[str]:
    """Compare the exact counters with the last traced run of this seed, if
    it ran the same batch on the same program and benchmark sources."""
    try:
        prev = json.loads((RESULTS / f"{tag}.json").read_text())
    except (OSError, ValueError):
        return []
    same = ("source_sha256", "benchmark_sha256")
    if (prev.get("batch") != result["batch"]
            or any(prev["environment"].get(k) != result["environment"][k] for k in same)):
        return []
    old = prev.get("counters", {})
    return [f"counter {k} was {old[k]} on the last run of this seed, now {metrics[k]}"
            for k in EXACT_COUNTERS if k in old and old[k] != metrics[k]]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
