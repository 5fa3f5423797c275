"""greendecay benchmark: one command, three workloads, every output checked.

    python3 benchmarks/bench.py --workload band_long --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py; BENCHMARK.json says why each was chosen):

    band_long    one N = 4000, r = s = 4 band matrix per op: storage, LU,
                 generators, qr_bound and point queries
    paper_cli    the CLI commands a paper reader runs, one subprocess per op;
                 ex3 reads a seeded nonsymmetric banded N = 512 Matrix Market
                 file, a stand-in for gre_512 until that file is in the
                 repository
    sweep_small  100 small dominant matrices (N <= 200, r <= 8, half
                 one-sided) through every layer, including reconstruction.
                 Not in BENCHMARK.json: on a shared 2-vCPU host its CPU time
                 per op swung 1.3-1.9x between phases lasting minutes, so
                 ten runs spread past any allowed bound. Run it by name.

Load model: a closed loop with one client and no think time, in one process
(plus one child per op for paper_cli). BLAS is pinned to one thread for this
process and its children. The loop runs whole batches (one matrix, one pass
over the ensemble, one round of commands) until the timed op bodies add up
to --seconds; output checks run between ops, outside the timed region.

--trace 0 prints the end-to-end metrics, measured untraced. Times are CPU
time (user + system) of the process doing the work: this process, plus the
child for paper_cli. The ops are single-threaded, so on an idle core that
is their wall time; on a shared host the wall time also holds the time the
host ran other tenants, which changes from minute to minute by more than
the bounds. The metrics in BENCHMARK.json, and so in the result line, are:

    setup_s        import greendecay plus the workload's seeded inputs, up
                   to the first op; median of seven set-ups, six of them in
                   fresh processes
    ops_per_cpu_s  ops completed per CPU second of timed op bodies
    op_cpu_p50_ms  median op CPU time
    op_cpu_tail_ms highest op CPU time percentile with >= 10 samples beyond it
    peak_rss_mib   peak resident memory of this process (of its children for
                   paper_cli)

The wall-clock figures are printed beside them but not gated:

    ops_per_s      ops completed per second of timed op bodies
    op_p50_ms      median op latency
    op_tail_ms     highest latency percentile with >= 10 samples beyond it
    failed_frac    failed / attempted ops (also the result's "failed" count)

--trace 1 runs half of --seconds untraced and half traced, with a span
around every call into greendecay, and prints per-layer metrics from the
spans: time per op inside each public function, counts and byte sizes per
op, the generator scaling exponent and tracemalloc peak, the import time and
the tracing overhead. Spans are written to .bench_out/ when the run ends.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every output
check passed; --smoke shrinks every workload to run in seconds.
"""

import os

# Before numpy is imported anywhere; children inherit the setting.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import (  # noqa: E402
    NULL_TRACER,
    ROOT,
    SRC,
    TAIL_BEYOND,
    Tracer,
    cpu_clock,
    measure,
    tail_latency,
)

OUT = ROOT / ".bench_out"
# The keys of workloads.WORKLOADS, named here because importing workloads
# imports greendecay, which belongs to the timed set-up.
WORKLOAD_NAMES = ("band_long", "sweep_small", "paper_cli")
SETUP_SAMPLES = 7  # this process's set-up plus six in fresh processes
IMPORT_SAMPLES = 3
PROBE_TIMEOUT_S = 120

# Spans whose summed time per op is a per-layer metric "<span>_s". Spans
# recorded outside ops (the ensemble drawn at set-up) are summed per run.
SPANS = (
    "banded.construct",
    "banded.dominance_mu",
    "banded.read_matrix_market",
    "ensembles.dominant_ensemble",
    "lu.structured_lu",
    "lu.inverse_green_generators",
    "green.reconstruct_lower",
    "green.green_scalar_entry",
    "bounds.lu_bound",
    "bounds.varah_bound",
    "bounds.qr_bound",
    "oracle.dense_inverse",
    "oracle.symmetric_spectrum",
    "experiments.generate",
    "experiments.run_experiment",
    "experiments.emit_csv",
    "verify.run_all",
    "cli.main",
)
COUNTS = (
    "banded.stored_bytes",
    "lu.factor_bytes",
    "green.reconstructed_entries",
    "green.green_scalar_entry_calls",
)


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> float:
    """Set-up time of one fresh process running the same workload and seed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    proc = subprocess.run(
        argv + (["--smoke"] if args.smoke else []),
        capture_output=True,
        text=True,
        check=True,
        timeout=PROBE_TIMEOUT_S,
    )
    return float(proc.stdout.split()[-1])


def import_time(env) -> float:
    """Wall time of a bare `import greendecay` subprocess."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import greendecay"],
        env=env,
        check=True,
        timeout=PROBE_TIMEOUT_S,
    )
    return time.perf_counter() - t0


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own
    return lines[1]


def host_facts(args, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "greendecay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def end_to_end(wl, m, setups, rss_mib) -> tuple[dict, dict]:
    cpu_tail, cpu_pct, samples = tail_latency(m.cpu_latencies)
    tail, pct, _ = tail_latency(m.latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_cpu_s": m.ops_per_cpu_s,
        "op_cpu_p50_ms": 1e3 * statistics.median(m.cpu_latencies),
        "op_cpu_tail_ms": 1e3 * cpu_tail,
        "peak_rss_mib": rss_mib,
        "ops_per_s": m.ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(m.latencies),
        "op_tail_ms": 1e3 * tail,
        "failed_frac": m.failed / m.attempted,
    }
    who = "child" if wl.uses_children else "process"
    notes = {
        "setup_s": f"CPU time, median of {len(setups)} set-ups",
        "ops_per_cpu_s": f"{m.attempted} ops in {m.batches} batches, {m.cpu_busy:.2f} CPU s timed",
        "op_cpu_p50_ms": f"CPU time of this {who}, {samples} samples",
        "op_cpu_tail_ms": f"p{cpu_pct:.1f} of {samples} samples, {TAIL_BEYOND} beyond",
        "peak_rss_mib": "children's peak" if wl.uses_children else "this process's peak",
        "ops_per_s": f"wall clock, {m.busy:.2f} s timed",
        "op_p50_ms": "wall clock",
        "op_tail_ms": f"wall clock, p{pct:.1f}",
        "failed_frac": f"{m.failed} of {m.attempted} failed",
    }
    return values, notes


def per_layer(tracer, plain, traced, extras) -> dict:
    ops = traced.attempted
    totals = tracer.totals()
    values = {}
    for span in SPANS:
        total, in_ops = totals.get(span, (0.0, True))
        values[f"{span}_s"] = total / ops if in_ops else total
    values["lu.generator_only_s"] = (
        values["lu.inverse_green_generators_s"] - values["lu.structured_lu_s"]
    )
    for name in COUNTS:
        values[name] = tracer.counts.get(name, 0) / ops
    attempts = tracer.counts.get("bounds.qr_bound_attempts", 0)
    useful = tracer.counts.get("bounds.qr_bound_applicable", 0)
    values["bounds.qr_bound_applicable_ratio"] = useful / attempts if attempts else 0.0
    values["trace.overhead_frac"] = 1.0 - traced.ops_per_s / plain.ops_per_s
    values.update(extras)
    return values


def run(args, workdir: Path) -> int:
    tracer = Tracer() if args.trace else NULL_TRACER
    t0 = cpu_clock()
    import workloads  # imports greendecay: part of the timed set-up

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir, tracer)
    setup = cpu_clock() - t0
    if args.setup_probe:
        print(repr(setup))
        return 0

    gd_file = Path(workloads.gd.__file__).resolve()
    if not gd_file.is_relative_to(SRC):
        print(f"bench: imported greendecay from {gd_file}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    facts = host_facts(args, workloads.np)

    if not args.trace:
        m = measure(wl.batch, args.seconds, min_ops=TAIL_BEYOND + 1)
        who = resource.RUSAGE_CHILDREN if wl.uses_children else resource.RUSAGE_SELF
        rss_mib = resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB
        setups = [setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        values, notes = end_to_end(wl, m, setups, rss_mib)
        extra_units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                       "failed_frac": "ratio"}
        attempted, failed, errors = m.attempted, m.failed, m.errors
    else:
        plain = measure(wl.batch, args.seconds / 2)
        traced = measure(wl.batch, args.seconds / 2, tracer, first_batch=plain.batches)
        extras = workloads.generator_extras(args.seed, args.smoke)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        extras["cli.import_s"] = statistics.median(import_time(env) for _ in range(IMPORT_SAMPLES))
        values = per_layer(tracer, plain, traced, extras)
        notes = {}
        extra_units = {}
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        errors = plain.errors + traced.errors
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))

    missing = units.keys() - values.keys()
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics the benchmark does not measure: {sorted(missing)}")
    print(f"{args.workload} seed {args.seed}{' (smoke)' if args.smoke else ''}")
    all_units = {**extra_units, **units}
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:.6g} {all_units.get(name, '')}{note}")
    for err in errors[:3]:
        print(f"FAILED {err}", file=sys.stderr)
    print("host " + json.dumps(facts))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {"host": facts, "result": result, "values": values, "errors": errors}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "greendecay" / "__init__.py").is_file():
        print(f"bench: no greendecay sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
