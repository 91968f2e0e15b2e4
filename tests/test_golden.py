"""Pinned sha256 of seeded CLI outputs, compared across commits.

Criterion 8 compares two runs of one commit; these hashes catch an output
change between commits. They may change only with a golden change that
CHANGES.md states: which outputs changed and why. Re-record them after
such a change with `PYTHONPATH=src python tests/test_golden.py`, which
prints the current table.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from dcopt.cli import main

CONFIGS = {
    "small": {"seed": 5, "rings": 0, "sectors_per_site": 3,
              "picos_per_macro": 4, "users_per_macro": 4},
    "minrate": {"seed": 6, "rings": 0, "sectors_per_site": 3,
                "picos_per_macro": 4, "users_per_macro": 4,
                "min_rate_bps": 2e5},
}
ALGORITHMS = ("greedy-ls", "staged-pf", "max-sinr")

PINNED = {
    "curve.csv":
        "1679d6f6d92976ce839c6053a34af2ddc1ccb2404a34c58f0f1d93d1a9ced2f9",
    "minrate.greedy-ls.json":
        "fa286a2e38349776a4d66a31b21d89c4ba7cce6e5cf5c0afc5a82da77859c2bd",
    "minrate.instance.json":
        "d9b950db778a0584650bae287f62913ec16a09722bccbcbcdf945373a89535a1",
    "minrate.max-sinr.json":
        "aa908a0a7a07d0324560a5a3ea0b0e1f0eda574620fe2ccfca4ca24614ff40be",
    "minrate.metrics.csv":
        "fa120b9147e9485d3e4d74f87d4abe715167832570acf205212f3b60a7519fbd",
    "minrate.staged-pf.json":
        "a91d22a4ab2375dd6964344f83bb5cf291ebcaad58d93b40c49e0c1497b27559",
    "minrate.sweep/gains.csv":
        "725903d8b2fb682c6d3f98ab900474b620c81534e03a17d03cde41752d944598",
    "minrate.sweep/metrics.csv":
        "9e6d02954939fc96e40cba1efa3f2b58b8f6badc193bb98fec15f8452ff8b71f",
    "small.greedy-ls.json":
        "0fc847893f6e1a88a22e32ef08e165b99b2efdf9bb429bb3ecc0da36855d73c1",
    "small.instance.json":
        "c396ae090269184de995fc2e0b93450cde311bb83f4dd2ad09a012bbe0739494",
    "small.max-sinr.json":
        "e8fcd4f25942097db76c1b2fc910ace9429cbfea819a5225f82563df6f7cd313",
    "small.metrics.csv":
        "fa6fb5c10cbfd456f6def0b16f2f1e02d28267798cf440ebe03591f6d8b32fbe",
    "small.staged-pf.json":
        "c9e47cec90b291ca3a7b26e28b6b19d5d24f58f58d1cf6d0b8f2e3269ced15e9",
    "small.sweep/gains.csv":
        "ae7ca322871928dce4eab56525529310e98c2000dc4aba63e5f61fc4d2656c99",
    "small.sweep/metrics.csv":
        "a3e049bf03782263f63eb49f2b2c8e154a17cc030c07fd612cfa44b5e16e1e6e",
}


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv


def golden_outputs(work: Path) -> dict[str, str]:
    """Run every command on the pinned configs; map output name to sha256."""
    for name, cfg in CONFIGS.items():
        cfg_path = work / f"{name}.config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        inst = work / f"{name}.instance.json"
        _run(["generate", "--config", str(cfg_path), "--out", str(inst)])
        for alg in ALGORITHMS:
            _run(["solve", str(inst), "--alg", alg,
                  "--out", str(work / f"{name}.{alg}.json"),
                  "--metrics-out", str(work / f"{name}.metrics.csv")])
        _run(["sweep", "--config", str(cfg_path), "--seeds", "1,2",
              "--loads", "6,12", "--algs", ",".join(ALGORITHMS),
              "--out", str(work / f"{name}.sweep")])
    _run(["curve", "--users", "8", "--picos", "3", "--scalars", "0,0.2",
          "--points", "21", "--seed", "4", "--out", str(work / "curve.csv")])
    return {
        p.relative_to(work).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file() and not p.name.endswith(".config.json")
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


def test_golden_outputs_are_all_pinned(outputs):
    assert sorted(outputs) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_golden_output_unchanged(outputs, name):
    assert outputs[name] == PINNED[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in golden_outputs(Path(tmp)).items():
            print(f'    "{key}":\n        "{digest}",')
    sys.exit(0)
