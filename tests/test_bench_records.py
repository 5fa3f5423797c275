"""The benchmark trajectory: every ``BENCH_<workload>.json`` at the repository
root is a JSON list of paired parent/change records, in the format README.md
describes under "Benchmark records"."""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
SIDES = ("parent", "change")
RECORD_KEYS = {
    "pr", "commit", "parent", "src_sha256", "workload", "seeds", "seconds", "host", "ops",
    "metrics", "pairs",
}
HOST_KEYS = {"nproc", "cpus_usable", "python", "numpy", "blas", "threads"}
SPREAD_KEYS = {"q1", "median", "q3"}


def reject(constant):
    raise ValueError(f"non-finite constant {constant} in a benchmark record")


def is_commit(value):
    return isinstance(value, str) and len(value) == 40 and set(value) <= set("0123456789abcdef")


def check_spread(spread, positive=False):
    assert spread.keys() == SPREAD_KEYS
    assert all(math.isfinite(v) for v in spread.values())
    assert spread["q1"] <= spread["median"] <= spread["q3"]
    assert not positive or spread["q1"] > 0


def check_record(record, workload):
    assert record.keys() == RECORD_KEYS
    assert isinstance(record["pr"], int) and record["pr"] >= 1
    assert record["commit"] is None or is_commit(record["commit"])
    assert is_commit(record["parent"])
    assert record["src_sha256"].keys() == set(SIDES)
    assert record["workload"] == workload
    seeds = record["seeds"]
    assert len(seeds) >= 5 and len(set(seeds)) == len(seeds)
    assert record["seconds"] > 0
    assert record["host"].keys() == HOST_KEYS
    assert record["ops"].keys() == set(SIDES)
    for ops in record["ops"].values():
        assert ops.keys() == {"attempted", "failed"} and 0 <= ops["failed"] <= ops["attempted"]
    assert record["metrics"].keys() == GATED.keys()
    for name, metric in record["metrics"].items():
        assert metric.keys() == {"unit", "better", *SIDES, "ratio"}
        assert (metric["unit"], metric["better"]) == (GATED[name]["unit"], GATED[name]["better"])
        for side in SIDES:
            check_spread(metric[side])
        check_spread(metric["ratio"], positive=True)
    assert [pair["seed"] for pair in record["pairs"]] == seeds
    for pair in record["pairs"]:
        assert pair.keys() == {"seed", "first", *SIDES} and pair["first"] in SIDES
        for side in SIDES:
            assert pair[side].keys() == GATED.keys()
            assert all(math.isfinite(v) and v >= 0 for v in pair[side].values())
        # every paired change/parent ratio is finite and positive
        assert all(0 < pair["change"][n] / pair["parent"][n] < math.inf for n in GATED)


def test_every_bench_record_is_finite_and_complete():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert {p.name for p in paths} >= {f"BENCH_{w}.json" for w in WORKLOADS}
    for path in paths:
        workload = path.stem.removeprefix("BENCH_")
        assert workload in WORKLOADS, path.name
        records = json.loads(path.read_text(), parse_constant=reject)
        assert isinstance(records, list) and records, path.name
        for record in records:
            check_record(record, workload)
