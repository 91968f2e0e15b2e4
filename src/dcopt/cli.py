"""Batch command line: generate deployments, run solvers, sweep loads.

Subcommands: generate (deployment -> instance JSON), solve (one instance,
one algorithm, optional verification), sweep (load x seed grid with
metrics and relative-gain CSVs), curve (single-cluster utility vs macro
budget for several minimum-rate scalings). Exit codes: 0 success, 1 usage,
2 infeasible input, 3 verification failure. A sweep whose cell fails still
writes the rows of the cells that succeeded, then exits with the failed
cell's code (2 if infeasible, else 1). All outputs are deterministic for
fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from dataclasses import replace
from typing import Optional

import numpy as np

from .net_model import (
    AllocationFractions,
    Association,
    InfeasibleError,
    NetworkInstance,
    NotConvergedError,
    VerificationError,
    compute_user_rates,
    ground_set_index,
    instance_errors,
    instance_from_json,
    instance_to_json,
)
from .wsr_alloc import ClusterProblem, allocate_cluster, verify_kkt_wsr
from .wsr_assoc import brute_force_wsr_assoc, check_admission_control, local_search_associate
from .pf_alloc import PfClusterProblem, verify_kkt_pf
from .pf_assoc import staged_pf_associate, strongest_pico
from .scenario import (
    FLOAT_RANGES,
    DeploymentConfig,
    SPLIT_IN_BAND,
    SPLIT_OUT_OF_BAND,
    generate,
    max_sinr_baseline,
    rate_metrics,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3

METRICS_SCHEMA = "# schema: dcopt-metrics-v1"
METRICS_HEADER = ["scenario", "load", "algorithm", "cell_se", "p5_se"]
GAINS_SCHEMA = "# schema: dcopt-gains-v1"
CURVE_SCHEMA = "# schema: dcopt-curve-v1"

ALGORITHMS = ("greedy-ls", "staged-pf", "max-sinr")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    infeasible inputs, so remap usage problems to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _number(kind: type, low: float = 0, high: float = math.inf):
    """argparse type: a finite number of the given kind from low to high;
    by default, finite and non-negative."""
    rule = f"from {low:g} to {high:g}" if high < math.inf else "finite and non-negative"

    def parse(text: str):
        value = kind(text)
        if not low <= value <= high or value == math.inf:   # NaN fails; no int overflows
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = kind.__name__   # argparse names the kind on a bad literal
    return parse


# -- shared plumbing -----------------------------------------------------------


def _load_config(path: Optional[str], seed: Optional[int]) -> DeploymentConfig:
    data = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply") from None
    try:
        if seed is not None:
            data = {**data, "seed": seed}
        for key in data if isinstance(data, dict) else ():
            if key not in DeploymentConfig.__dataclass_fields__:
                raise ValueError(f"{key} is not a config setting")
        return DeploymentConfig(**data)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path or '--seed'}: {e}") from None


def _check_instance(inst: NetworkInstance, where: str) -> None:
    """Refuse an instance whose user rows or peak rates no solver can take."""
    bad = instance_errors(inst)
    if bad:
        more = f" (and {len(bad) - 3} more)" if len(bad) > 3 else ""
        raise ValueError(f"{where}: " + "; ".join(bad[:3]) + more)


def _comma_list(flag: str, text: str, kind: type) -> list:
    """Parse a comma list; refuse a value named twice, whose rows would repeat."""
    values = [kind(x) for x in text.split(",")]
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{flag} repeats {v}")
    return values


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv_row(row: list) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in row)


def _csv_text(schema: str, header: list[str], rows: list[list]) -> str:
    lines = [schema, ",".join(header)] + [_csv_row(row) for row in rows]
    return "\n".join(lines) + "\n"


def run_algorithm(
    inst: NetworkInstance,
    alg: str,
    eps: float = 0.5,
    max_iter: Optional[int] = None,
):
    """Run one association algorithm; returns (association, fractions, rates)."""
    if alg == "max-sinr":
        return max_sinr_baseline(inst)
    if alg == "greedy-ls":
        res = local_search_associate(inst, epsilon=eps, max_iter=max_iter)
        if res.capped:
            sys.stderr.write(
                f"greedy-ls: local search on {len(inst.users)} users stopped "
                "at its iteration cap with an improving move left; raise "
                "--max-iter\n")
    elif alg == "staged-pf":
        res = staged_pf_associate(inst)
    else:
        raise ValueError(f"unknown algorithm {alg!r}")
    return res.association, res.fractions, compute_user_rates(inst, res.fractions)


def _solution_json(alg: str, assoc: Association, fractions: AllocationFractions,
                   rates: dict[int, float]) -> str:
    doc = {
        "algorithm": alg,
        "association": {
            str(u): (list(mb) if mb is not None else None)
            for u, mb in sorted(assoc.pairs.items())
        },
        "theta": {f"{u},{t}": v for (u, t), v in sorted(fractions.theta.items())},
        "gamma": {f"{u},{t}": v for (u, t), v in sorted(fractions.gamma.items())},
        "user_rates": {str(u): rates.get(u, 0.0) for u in sorted(rates)},
        "sum_rate": sum(rates.values()),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


# -- verification --------------------------------------------------------------


def _verify_solution(
    inst: NetworkInstance,
    alg: str,
    assoc: Association,
    fractions: AllocationFractions,
    rates: dict[int, float],
) -> list[str]:
    """Optimality checks; returns log lines, raises VerificationError."""
    log: list[str] = []
    if alg == "greedy-ls":
        value = sum(w * rates[u] for u, w in zip(inst.users, inst.weights.tolist()))
        for m in inst.macros:
            grouped = assoc.users_of_macro(m)
            if not grouped:
                continue
            cl = ClusterProblem.build(inst, m, grouped)
            issues = verify_kkt_wsr(cl, fractions)
            if issues:
                raise VerificationError(f"macro {m}: " + "; ".join(issues))
        log.append("verify: every cluster reaches its LP dual bound")
        if ground_set_index(inst)[0].size <= 14:
            has_min = bool((inst.rate_min > 0).any())
            _, opt = brute_force_wsr_assoc(inst)
            factor = 4.5 if has_min else 2.0
            compared = f"verify: value {value:.6g} vs exhaustive optimum {opt:.6g}"
            if has_min and not check_admission_control(inst):
                # the 1/4.5 guarantee presumes admission control
                log.append(compared)
                log.append("verify: 1/4.5 bound not asserted (admission control fails)")
            elif value < opt / factor - 1e-9:
                raise VerificationError(
                    f"value {value} below brute-force bound {opt}/{factor}"
                )
            else:
                log.append(f"{compared} (within 1/{factor} bound)")
    elif alg == "staged-pf":
        for m in inst.macros:
            groups = assoc.users_of_macro(m)
            solo = groups.pop(None, [])
            if not groups and not solo:
                continue
            cl = PfClusterProblem.build(inst, m, groups, macro_only=solo)
            rep = verify_kkt_pf(cl, fractions)
            if not rep.max_residual <= 1e-8:
                raise VerificationError(f"macro {m}: duality gap {rep.max_residual:.3e}")
            got = sum(math.log(rates[u]) for u in cl.users)
            log.append(f"verify: macro {m} cluster optimal ({got:.6g})")
    else:
        by_tp: dict[int, float] = {}
        for (u, t), v in list(fractions.theta.items()) + list(fractions.gamma.items()):
            by_tp[t] = by_tp.get(t, 0.0) + v
        for t, s in sorted(by_tp.items()):
            if abs(s - 1.0) > 1e-9:
                raise VerificationError(f"TP {t} shares sum to {s}")
        log.append("verify: equal-share fractions sum to 1 per TP")
    return log


# -- subcommands ---------------------------------------------------------------


def cmd_generate(args) -> int:
    try:
        cfg = _load_config(args.config, args.seed)
    except ValueError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_USAGE
    dep = generate(cfg)
    _write_text(args.out, instance_to_json(dep.inst) + "\n")
    sys.stderr.write(
        f"wrote {args.out}: {len(dep.inst.macros)} macros, "
        f"{len(dep.inst.pico_macro)} picos, {len(dep.inst.users)} users\n"
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        inst = instance_from_json(text)
    except ValueError as e:
        raise ValueError(f"{args.instance}: {e}") from None
    _check_instance(inst, args.instance)
    assoc, fractions, rates = run_algorithm(
        inst, args.alg, eps=args.eps, max_iter=args.max_iter
    )
    if args.verify:
        for line in _verify_solution(inst, args.alg, assoc, fractions, rates):
            print(line)
    out = args.out or (os.path.splitext(args.instance)[0] + f".{args.alg}.json")
    _write_text(out, _solution_json(args.alg, assoc, fractions, rates) + "\n")
    if args.metrics_out:
        met = rate_metrics(rates, len(inst.macros), args.bandwidth_hz,
                           list(inst.users))
        scenario = os.path.splitext(os.path.basename(args.instance))[0]
        row = [scenario, len(inst.users), args.alg, met.cell_se, met.p5_se]
        fresh = not os.path.exists(args.metrics_out)
        with open(args.metrics_out, "a", encoding="utf-8", newline="\n") as fh:
            if fresh:
                fh.write(_csv_text(METRICS_SCHEMA, METRICS_HEADER, []))
            fh.write(_csv_row(row) + "\n")
    return EXIT_OK


def _sweep_cell(payload: dict) -> dict:
    """One (seed, load) sweep cell; runs in its own process when parallel."""
    cfg = payload["config"]
    dep = generate(cfg)
    inst = dep.inst
    users = list(inst.users)
    scenario = payload["scenario"]
    load = len(users)
    rows, gains = [], []
    _, _, base_rates = max_sinr_baseline(inst)
    base = rate_metrics(base_rates, len(inst.macros), cfg.bandwidth_hz, users)
    rows.append([scenario, load, "max-sinr", base.cell_se, base.p5_se])
    for alg in payload["algorithms"]:
        if alg == "max-sinr":
            continue
        _, _, rates = run_algorithm(
            inst, alg, eps=payload["eps"], max_iter=payload["max_iter"]
        )
        met = rate_metrics(rates, len(inst.macros), cfg.bandwidth_hz, users)
        rows.append([scenario, load, alg, met.cell_se, met.p5_se])
        gains.append([
            scenario, load, alg,
            100.0 * (met.cell_se / base.cell_se - 1.0),
            100.0 * (met.p5_se / base.p5_se - 1.0) if base.p5_se > 0 else math.inf,
        ])
    return {"rows": rows, "gains": gains}


def cmd_sweep(args) -> int:
    try:
        cfg = _load_config(args.config, args.seed)
    except ValueError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_USAGE
    if args.band:
        split = SPLIT_IN_BAND if args.band == "in" else SPLIT_OUT_OF_BAND
        cfg = replace(cfg, split=split)
    seeds = _comma_list("--seeds", args.seeds, int) if args.seeds else [cfg.seed]
    loads = _comma_list("--loads", args.loads, int)
    algorithms = _comma_list("--algs", args.algs, str)
    for a in algorithms:
        if a not in ALGORITHMS:
            sys.stderr.write(f"unknown algorithm {a!r}\n")
            return EXIT_USAGE

    n_cells = cfg.n_cells
    cells = []
    for seed in seeds:
        for load in loads:
            if load < n_cells:
                sys.stderr.write(
                    f"load {load} is smaller than the cell count {n_cells}\n"
                )
                return EXIT_USAGE
            if load % n_cells:
                sys.stderr.write(
                    f"load {load} not divisible by {n_cells} cells\n"
                )
                return EXIT_USAGE
            cell_cfg = replace(cfg, seed=seed, users_per_macro=load // n_cells)
            band = "in" if cell_cfg.split == SPLIT_IN_BAND else "out"
            cells.append({
                "config": cell_cfg,
                "scenario": f"s{seed}-{band}",
                "algorithms": algorithms,
                "eps": args.eps,
                "max_iter": args.max_iter,
            })

    threads = os.environ.get("HETNET_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"HETNET_THREADS must be a positive integer, got {threads!r}")
    # the pool forks all its workers at once: no more than cells or CPUs
    workers = min(workers, len(cells), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # here: it slows every start

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell_safe, cells))
    else:
        results = [_sweep_cell_safe(c) for c in cells]

    rows, gains = [], []
    code = EXIT_OK
    for res in results:
        if "error" in res:
            sys.stderr.write(f"cell {res['scenario']} failed: {res['error']}\n"
                             f"{res['traceback']}")
            code = code or res["exit"]
            continue
        rows.extend(res["rows"])
        gains.extend(res["gains"])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    gains.sort(key=lambda r: (r[0], r[1], r[2]))

    os.makedirs(args.out, exist_ok=True)
    _write_text(
        os.path.join(args.out, "metrics.csv"),
        _csv_text(METRICS_SCHEMA, METRICS_HEADER, rows),
    )
    _write_text(
        os.path.join(args.out, "gains.csv"),
        _csv_text(GAINS_SCHEMA,
                  ["scenario", "load", "algorithm",
                   "cell_se_gain_pct", "p5_se_gain_pct"], gains),
    )
    return code


def _sweep_cell_safe(payload: dict) -> dict:
    try:
        return _sweep_cell(payload)
    except Exception as e:   # cell failures must not kill the sweep
        return {
            "scenario": payload["scenario"],
            "error": f"{type(e).__name__}: {e}",
            "traceback": traceback.format_exc(),
            "exit": EXIT_INFEASIBLE if isinstance(e, InfeasibleError) else EXIT_USAGE,
        }


def cmd_curve(args) -> int:
    if not 2 <= args.points <= 100_000:
        raise ValueError(f"--points must be between 2 and 100000, got {args.points}")
    for flag, value in (("--users", args.users), ("--picos", args.picos)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    # rates come from a surrounding multi-cell deployment so the macro link
    # is interference-limited like the picos; the demo then solves only the
    # center macro's cluster, whose users come first
    cfg = DeploymentConfig(
        seed=args.seed,
        rings=1,
        sectors_per_site=1,
        picos_per_macro=args.picos,
        users_per_macro=args.users,
    )
    base_inst = generate(cfg).inst
    macro = base_inst.macros[0]
    n = cfg.users_per_macro
    scalars = _comma_list("--scalars", args.scalars, float)
    macro_rate = base_inst.rates[:n, base_inst._tidx[macro]]
    grouped: dict[int, list[int]] = {}
    for u in base_inst.users[:n]:
        grouped.setdefault(strongest_pico(base_inst, u, macro), []).append(u)

    rows = []
    for s in scalars:
        rate_min = np.zeros(len(base_inst.users))
        with np.errstate(over="ignore"):   # an overflow gives inf, refused below
            rate_min[:n] = s * macro_rate
        inst = replace(base_inst, rate_min=rate_min)
        _check_instance(inst, f"--scalars {s!r}")
        try:
            out = allocate_cluster(ClusterProblem.build(inst, macro, grouped))
        except InfeasibleError as e:
            sys.stderr.write(f"scalar {s!r} infeasible, omitted: {e}\n")
            continue
        curve = out.curve
        for i in range(args.points):
            g = curve.start + (1.0 - curve.start) * i / (args.points - 1)
            rows.append([g, curve.value_at(g), s])

    _write_text(args.out, _csv_text(CURVE_SCHEMA, ["gamma", "value", "scalar"], rows))
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dcopt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="write an instance JSON from a config")
    g.add_argument("--config", help="deployment config JSON file")
    g.add_argument("--seed", type=int, help="override config seed")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run one algorithm on an instance file")
    s.add_argument("instance")
    s.add_argument("--alg", required=True, choices=ALGORITHMS)
    s.add_argument("--eps", type=_number(float), default=0.5)
    s.add_argument("--max-iter", type=_number(int), default=None)
    s.add_argument("--verify", action="store_true",
                   help="certify the solution (duality, exhaustive search)")
    s.add_argument("--out", help="solution JSON path")
    s.add_argument("--metrics-out", help="append a metrics CSV row here")
    s.add_argument("--bandwidth-hz", type=_number(float, *FLOAT_RANGES["bandwidth_hz"]),
                   default=10e6)
    s.set_defaults(func=cmd_solve)

    w = sub.add_parser("sweep", help="run algorithms over a load/seed grid")
    w.add_argument("--config")
    w.add_argument("--seed", type=int)
    w.add_argument("--seeds", help="comma list, overrides --seed for the grid")
    w.add_argument("--loads", required=True, help="comma list of user counts")
    w.add_argument("--algs", default="greedy-ls,staged-pf")
    w.add_argument("--band", choices=("in", "out"))
    w.add_argument("--eps", type=_number(float), default=0.5)
    w.add_argument("--max-iter", type=_number(int), default=None)
    w.add_argument("--out", required=True, help="output directory")
    w.set_defaults(func=cmd_sweep)

    c = sub.add_parser(
        "curve", help="single-cluster optimal utility vs macro budget"
    )
    c.add_argument("--users", type=int, default=30)
    c.add_argument("--picos", type=int, default=10)
    c.add_argument("--scalars", default="0,0.1,0.2",
                   help="minimum rate as a fraction of each user's macro rate")
    c.add_argument("--points", type=int, default=101)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_curve)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except InfeasibleError as e:
        sys.stderr.write(f"infeasible: {e}\n")
        return EXIT_INFEASIBLE
    except VerificationError as e:
        sys.stderr.write(f"verification failed: {e}\n")
        return EXIT_VERIFY
    except (OSError, ValueError, NotConvergedError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
