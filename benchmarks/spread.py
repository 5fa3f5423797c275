"""Run the benchmark once per seed and summarise each metric across runs.

    python3 benchmarks/spread.py --workloads band_long paper_cli --seeds 1-10
    python3 benchmarks/spread.py --seeds 1-10 --out benchmarks/baseline.json

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
the figure the bounds in BENCHMARK.json are set against, and marks a spread
of a third of the bound or more. Runs are sequential; a run that exits
nonzero stops the script. --out writes every run's metrics and host facts.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.splitlines()
    host = next(json.loads(line[5:]) for line in lines if line.startswith("host "))
    return json.loads(lines[-1]), host


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, host = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "host": host, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarise([r["metrics"][name] for r in runs])
            s, bound = summary[name]["spread"], bounds.get(name)
            flag = "  <-- spread >= bound/3" if bound and s is not None and s >= bound / 3 else ""
            print(f"  {workload:12s} {name:38s} median {summary[name]['median']:.6g}  "
                  f"spread {s if s is None else round(s, 4)}  bound {bound}{flag}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
