"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def _result(*args: str) -> dict:
    p = _command(*args)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_plain() -> dict:
    return _result("--workload", "smoke", "--seed", "3", "--seconds", "1",
                   "--trace", "0")


@pytest.fixture(scope="module")
def smoke_traced() -> dict:
    return _result("--workload", "smoke", "--seed", "3", "--seconds", "1",
                   "--trace", "1")


def test_spec_names_are_valid_and_match_the_command():
    for group in ("end_to_end", "per_layer", "workloads"):
        names = [m["name"] for m in SPEC[group]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name
    for w in SPEC["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why


def test_plain_run_reports_every_end_to_end_metric(smoke_plain):
    assert smoke_plain["correct"] and smoke_plain["failed"] == 0
    assert smoke_plain["attempted"] >= 2
    got = smoke_plain["metrics"]
    assert set(got) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert got[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(got[m["name"]]["value"]) and got[m["name"]]["value"] > 0
    assert got["sim_recovery_x"]["value"] > 1.0


def test_traced_run_reports_every_layer_metric(smoke_traced):
    assert smoke_traced["correct"] and smoke_traced["failed"] == 0
    got = smoke_traced["metrics"]
    assert set(got) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert got[m["name"]]["unit"] == m["unit"]
        assert NAME.fullmatch(m["name"])
    v = {k: x["value"] for k, x in got.items()}
    assert v["executor.tasks"] > 0 and v["operators.join_calls"] > 0
    assert v["recovery.plans"] == 1 and v["recovery.rewound"] > 0
    assert 0 < v["gcs.journal_bytes"] < v["cluster.backup_bytes"]
    # Self times of the engine's layers cover the traced wall time, up
    # to the time the tracer itself adds.
    assert v["trace.coverage"] <= 1.0 + 1e-9
    assert 1.0 - v["trace.coverage"] <= max(v["trace.overhead"] - 1.0, 0.01)


def test_tracer_restores_every_wrapped_function():
    from repro.engine import executor, partition

    orig_partition = partition.partition
    orig_run = executor.Executor.run
    assert spans.find_leftover_wrappers() == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        live = spans.find_leftover_wrappers()
        assert "repro.engine.executor.partition" in live
        assert "repro.engine.partition.partition" in live
        assert "repro.engine.executor.Executor.run" in live
    finally:
        tracer.uninstall()
    assert spans.find_leftover_wrappers() == []
    assert executor.partition is orig_partition is partition.partition
    assert executor.Executor.run is orig_run


def test_checks_flag_nondeterminism_and_rollback():
    w = run.WORKLOADS["smoke"]
    env, _ = run.setup(w, 3)
    runner = run.Runner(w, env)
    first, second = runner.run_pass(), runner.run_pass()
    assert runner.check_pass(first) == [True, True]
    second[0].sim += 1e-9
    kill = second[1]
    rewound = [c for batch in kill.stats["rewound"] for c in batch]
    kill.hosts[rewound[0]] = run.KILLED_WORKER + 1
    assert runner.check_pass(second) == [False, False]
    assert "differs" in runner.failures[0]
    assert "surviving" in runner.failures[1]


def test_pass_brackets_each_run_with_the_calibration_kernel():
    w = run.WORKLOADS["smoke"]
    env, _ = run.setup(w, 3)
    cal: list[list[float]] = []
    run.Runner(w, env).run_pass(cal)
    assert len(cal) == len(w.runs) + 1
    assert all(len(b) == run.CAL_SAMPLES and min(b) > 0 for b in cal)


def test_exits_nonzero_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _command("--workload", "smoke", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
