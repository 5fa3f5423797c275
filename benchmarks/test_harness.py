"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks -q

They cover the tail-percentile rule, failure counting with injected failing
ops, seed determinism of every workload's inputs, a smoke run of every
workload in both modes, and the refusal to run without the sources.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from harness import CheckFailed, Op, measure, require, tail_latency  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert tail_latency(values) == (90, 90.0, 100)
    assert tail_latency(list(range(11))) == (0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        tail_latency(list(range(10)))


def _ops():
    def boom(tracer):
        raise RuntimeError("injected")

    def bad_check(out):
        require(out == 2, "injected check failure")

    return [
        Op("ok", lambda tracer: 1, lambda out: None),
        Op("raises", boom, lambda out: None),
        Op("wrong output", lambda tracer: 1, bad_check),
    ]


def test_failures_are_counted_against_attempts():
    m = measure(lambda b: _ops(), seconds=0.0, min_ops=6)
    assert (m.attempted, m.failed, m.batches) == (6, 4, 2)
    assert "RuntimeError: injected" in m.errors[0]
    assert "injected check failure" in m.errors[1]
    assert m.ops_per_s == pytest.approx(2 / m.busy)
    assert len(m.cpu_latencies) == 6
    assert m.ops_per_cpu_s == pytest.approx(2 / m.cpu_busy)


class _FailingWorkload:
    name = "band_long"
    uses_children = False

    def __init__(self, seed, smoke, workdir, tracer):
        pass

    def batch(self, b):
        return _ops()


def test_a_failed_op_makes_the_run_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "band_long", _FailingWorkload)
    argv = ["--workload", "band_long", "--seed", "1", "--seconds", "0", "--smoke"]
    assert bench.main(argv + ["--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (12, 8)


def _inputs(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    wl = workloads.WORKLOADS[name](seed, True, workdir, harness.NULL_TRACER)
    if name == "band_long":
        (V0, q0), (V3, q3) = wl.first, wl.draw(3)
        return [V0.tobytes(), q0, V3.tobytes(), q3]
    if name == "sweep_small":
        return [A.data.tobytes() for A in wl.mats]
    return [wl.mtx.read_bytes()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_alone(name, tmp_path):
    first = _inputs(name, 5, tmp_path)
    assert _inputs(name, 5, tmp_path) == first
    other = _inputs(name, 6, tmp_path)
    assert all(a != b for a, b in zip(first, other))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace):
    proc = _run(HERE.parent, "--workload", name, "--seed", "2", "--seconds", "0.5",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "band_long", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
