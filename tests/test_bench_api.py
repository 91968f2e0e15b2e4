"""The library surface the benchmark harness in perfbench/ relies on.

A rename or deletion in dcopt that the harness still names would otherwise
show only as `missing_trace_targets` in a benchmark results file.
"""

import ast
import importlib.util
import re
from pathlib import Path

import dcopt
from dcopt import DeploymentConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
    finally:
        t.uninstall()


def test_harness_names_exist_on_dcopt():
    text = (PERFBENCH / "run.py").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\bdc\.(\w+)", text)))
    assert names
    assert [n for n in names if not hasattr(dcopt, n)] == []


def test_workload_configs_are_valid():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    workloads = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign) and node.targets[0].id == "WORKLOADS")
    for spec in workloads.values():
        DeploymentConfig(**spec["config"])
