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
# generate-only configs: an in-band split (which ignores the per-tier
# bandwidths) and a seed wider than 32 bits
GENERATE_ONLY = {
    "inband": {"seed": 8, "rings": 0, "sectors_per_site": 3,
               "picos_per_macro": 4, "users_per_macro": 4, "split": "in-band",
               "macro_bandwidth_hz": 4e6, "pico_bandwidth_hz": 6e6},
    "wideseed": {"seed": 2**40 + 3, "rings": 0, "sectors_per_site": 3,
                 "picos_per_macro": 4, "users_per_macro": 4,
                 "macro_bandwidth_hz": 4e6, "pico_bandwidth_hz": 6e6},
}
ALGORITHMS = ("greedy-ls", "staged-pf", "max-sinr")

PINNED = {
    "curve.csv":
        "fbc9c0d5aca126d3586171deb7f8f095d15056edf32c5ac338faa89c107e9c50",
    "inband.instance.json":
        "1a15869d34ed76fe0cb7268bbac6210a7cd3bf66257fcf4e99158a60dcf7651f",
    "minrate.greedy-ls.json":
        "e818de0d19744171db728823d958b5ef40460fa20792ce7b6c380d022a6fd818",
    "minrate.instance.json":
        "8e9e998e5fc20f3df8c416a7d7356bdb1f2c593fb9f93cb1799f75cf17f28471",
    "minrate.max-sinr.json":
        "7b23e1cace834483f960a22bd2e89da7ae0b603270a4b2925221b5b8ff020f13",
    "minrate.metrics.csv":
        "fd4bf267c5ff29b696cb9f4bb4fc5743bc6487de58e009584142dc441cb7a64a",
    "minrate.staged-pf.json":
        "81c513fe5e5ca03b6124f838c03943487290709b20618e6e8a07a698a201655e",
    "minrate.sweep/gains.csv":
        "53a47cf3caa552044bfd680b10bc42d18c6d222e2c649067ce06427d43b25180",
    "minrate.sweep/metrics.csv":
        "1073f24fb21e6a2f8e2b7ae9cc199c9a0bc61565669faf6c70d44dccfe881939",
    "small.greedy-ls.json":
        "99c1831e9a913fd3b453bd9321fd08198781030b27bb1ee1293bc00f4e9d4a02",
    "small.instance.json":
        "d52a2a1e5e5432b770270be8d3556724f02d3c2e85f82d98a71e4f6ba94945b7",
    "small.max-sinr.json":
        "621e5d8ef2ffafec1cbfddfea998fb83c02804ec03880530b4faceaa299852dd",
    "small.metrics.csv":
        "18ba83c564d64662069e7deafaa79295246905fe0e0d1ac1e991fb068978ae9f",
    "small.staged-pf.json":
        "9151fe2e0c0219dfc96c4000ae4ddc099d9f4448101fc0b2950d317eee0e7ea5",
    "small.sweep/gains.csv":
        "ba44654039e4e4cb8131db5743322cb000edfa0e37c6a95d009cec482972b475",
    "small.sweep/metrics.csv":
        "3a9cf52158d8183e8b75cc57b7b6a624b69c2b7e39dd6f3cf63572466ba2bdb9",
    "wideseed.instance.json":
        "df5e1f9bc539a348b6f62539d513eadbacf5cbdd57e06cdfc57b15bc7df92371",
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
    for name, cfg in GENERATE_ONLY.items():
        cfg_path = work / f"{name}.config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        _run(["generate", "--config", str(cfg_path),
              "--out", str(work / f"{name}.instance.json")])
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
