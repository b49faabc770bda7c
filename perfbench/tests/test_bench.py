"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

The end-to-end tests run the benchmark for one second per workload, which
still completes at least one operation each.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=170,
                          cwd=cwd)


_RESULTS = {}


def result(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _RESULTS:
        proc = bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        _RESULTS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RESULTS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.NAMES)
def test_metric_names_match_benchmark_json(workload, trace):
    r = result(workload, 1, trace)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in r["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in r["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(m["value"], (int, float)) and \
            math.isfinite(m["value"])
    if trace == 0:
        assert all(m["value"] > 0 for m in r["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert list(workloads.WORKLOADS) == list(run.NAMES)


def test_seed_changes_inputs_not_metrics(tmp_path):
    def inputs(name, seed):
        d = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
        d.mkdir()
        wl = workloads.WORKLOADS[name](seed, str(d))
        wl.prepare()
        return wl.inputs()

    for name in run.NAMES:
        a, b, c = inputs(name, 1), inputs(name, 1), inputs(name, 2)
        assert len(a) == len(b) and all(
            x.tobytes() == y.tobytes() for x, y in zip(a, b))
        assert any(x.shape != y.shape or x.tobytes() != y.tobytes()
                   for x, y in zip(a, c))
    assert set(result("eval_long", 1, 0)["metrics"]) == \
        set(result("eval_long", 2, 0)["metrics"])


def _run_phase(wl):
    stats = run.new_stats()
    run.run_phase(wl, spans.Tracer(), reference.ReferenceKernel(), 1e-6,
                  stats)
    return stats


def test_truncated_feature_file_is_a_failure_not_an_abort(tmp_path):
    wl = workloads.WORKLOADS["adapt_frozen"](1, str(tmp_path))
    wl.prepare()
    path = Path(wl.files[0])
    path.write_bytes(path.read_bytes()[:-7])
    stats = _run_phase(wl)
    assert stats["attempted"] == 1 and stats["failed"] == 1
    assert "TruncatedFileError" in stats["errors"][0]


def test_nan_feature_is_a_failure_not_an_abort(tmp_path):
    wl = workloads.WORKLOADS["eval_long"](1, str(tmp_path))
    wl.prepare()
    wl.batches[0][0].feats[0, 5] = math.nan
    stats = _run_phase(wl)
    assert stats["attempted"] == 1 and stats["failed"] == 1
    assert "CheckFailed" in stats["errors"][0]


def test_tracer_restores_every_binding():
    from ucam import adaptation, tensor, training
    before = (tensor.from_op, training.batch_pad, adaptation.lin_batch,
              training.AdamState.apply)
    tr = spans.Tracer()
    tr.install()
    assert tensor.from_op is not before[0]
    tr.uninstall()
    assert (tensor.from_op, training.batch_pad, adaptation.lin_batch,
            training.AdamState.apply) == before


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "eval_long", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
