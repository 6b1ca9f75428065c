"""Fast checks of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest -q e2ebench

Every workload must print every metric ``BENCHMARK.json`` names, with its
unit, and each oracle must reject a deliberately perturbed result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402

TINY = 0.02
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", trace, "--scale", str(TINY))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "metric failed_frac = 0 ratio" in done.stdout


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "events_flow", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _workload(cls, tmp_path):
    w = cls(seed=3, scale=TINY, work=tmp_path, root=ROOT)
    w.setup(tmp_path / "setup")
    return w


def test_flow_oracle_rejects_a_perturbed_count(tmp_path):
    w = _workload(workloads.EventsFlow, tmp_path)
    try:
        pipeline = w.pipeline(w.ranges[0])
        values = pipeline.run(w.context(), w.directory).cell_values()
        good, bad = Outcome(), Outcome()
        w.check_op(0, pipeline.converter, values, good)
        perturbed = list(values)
        perturbed[len(perturbed) // 2] += 1
        w.check_op(0, pipeline.converter, perturbed, bad)
        assert (good.failed, bad.failed) == (0, 1)
    finally:
        w.close()


def test_raster_checks_reject_a_wrong_count_and_digest(tmp_path, monkeypatch):
    w = _workload(workloads.TrajsRasterSpeed, tmp_path)
    try:
        pipeline = w.pipeline(w.ranges[0])
        values = pipeline.run(w.context(), w.directory).cell_values()
        good, bad = Outcome(), Outcome()
        w.check_op(0, pipeline.converter, values, good)
        pipeline.converter.stats.instances += 1
        w.check_op(0, pipeline.converter, values, bad)
        assert (good.failed, bad.failed) == (0, 1)

        outputs = {0: values}
        w.finish_checks(outputs, Outcome())
        truth = w.digest
        monkeypatch.setattr(oracles, "recorded_digest", lambda *a: truth)
        good, bad = Outcome(), Outcome()
        w.finish_checks(dict(outputs), good)
        vehicles, speed = outputs[0][0]
        outputs[0][0] = (vehicles + 1, speed)
        w.finish_checks(outputs, bad)
        assert (good.failed, bad.failed) == (0, 1)
    finally:
        w.close()


def test_stream_oracle_rejects_a_perturbed_flow(tmp_path, monkeypatch):
    w = _workload(workloads.StreamIngest, tmp_path)
    try:
        good = Outcome()
        w._stream(good, None)
        assert good.failed == 0 and good.attempted == w.n_batches + 1
        honest = w.expected

        def off_by_one(k):
            values = honest(k)
            values[-1] += 1
            return values

        monkeypatch.setattr(w, "expected", off_by_one)
        bad = Outcome()
        w._stream(bad, None)
        assert bad.failed == w.n_batches
    finally:
        w.close()


def test_serve_oracle_rejects_a_missing_event(tmp_path, monkeypatch):
    w = _workload(workloads.ServeMixed, tmp_path)
    try:
        good = Outcome()
        w._loop(0.3, 0, None, good)
        assert good.attempted > 0 and good.failed == 0
        honest = oracles.answer_ids
        monkeypatch.setattr(oracles, "answer_ids", lambda records: honest(records)[1:])
        bad = Outcome()
        done = w._loop(0.3, 0, None, bad)
        assert bad.failed == sum(1 for d in done if d["count"])
        assert bad.failed > 0
    finally:
        w.close()
