"""Benchmark of kstretch: four workloads, end-to-end metrics with tracing
off, per-layer metrics from a separate traced run, and output checks.

    python3 perfbench/run.py --workload threshold-ghz --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --self-test

Run from the root of a source tree: the program is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
machine record.  See README.md in this directory.
"""

import os

# Pin the BLAS thread count before anything imports numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("threshold-ghz", "criteria-isotropic", "dense-mixed", "povm-catalog")
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def import_program():
    """Import kstretch from this tree's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import kstretch
    if Path(kstretch.__file__).resolve().parent != ROOT / "src" / "kstretch":
        raise ImportError(f"kstretch imported from {kstretch.__file__}, not from {ROOT / 'src'}")


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": BLAS_THREADS}


def time_setup(name: str, seed: int) -> float:
    """Median, over fresh processes, of the time from process start until
    the inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process for {name} failed ({proc.returncode})")
        samples.append(ready - start)
    return statistics.median(samples)


def run_pass(ops) -> tuple[float, list[float], list[tuple]]:
    """One timed pass: wall time, per-operation latencies, (output, error) pairs."""
    latencies, outputs = [], []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{op.label}: {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        if err is None and op.post is not None:
            try:
                out = op.post(out)
            except Exception as exc:
                err = f"{op.label}: {type(exc).__name__}: {exc}"
        outputs.append((out, err))
    return perf_counter() - start, latencies, outputs


def count_failures(ops, outputs) -> int:
    failed = 0
    for op, (out, err) in zip(ops, outputs):
        errors = [err] if err else op.check(out)
        if errors:
            failed += 1
            for line in errors[:5]:
                print(f"FAILED {op.label}: {line}", file=sys.stderr)
    return failed


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import OVERHEAD, Tracer, combine, metric_units

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        workload = workloads.WORKLOADS[name](seed, workdir)
        if tracer:
            tracer.uninstall()
            setup_bucket = tracer.take()
        run_errors = workload.prepare()
        for line in run_errors:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
        ops = workload.operations()
        walls, traced_walls, buckets = [], [], []
        latencies = [[] for _ in ops]  # per operation, over untraced passes
        attempted = failed = 0
        start = perf_counter()
        while True:
            round_start = perf_counter()
            for traced in ((False, True) if tracer else (False,)):
                if traced:
                    tracer.install()
                wall, lat, outputs = run_pass(ops)
                if traced:
                    tracer.uninstall()
                    buckets.append(tracer.take())
                    traced_walls.append(wall)
                else:
                    walls.append(wall)
                    for samples, value in zip(latencies, lat):
                        samples.append(value)
                attempted += len(ops)
                failed += count_failures(ops, outputs)
            now = perf_counter()
            # start another round only if it should end within the run
            if now - start + (now - round_start) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        units = metric_units()
        values = combine(setup_bucket, buckets)
        values[OVERHEAD] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        units = END_TO_END_UNITS
        values = {"setup_s": time_setup(name, seed), "wall_s": statistics.median(walls),
                  # the median operation's latency, each operation taken
                  # at its median over the passes
                  "op_p50_ms": 1000 * statistics.median(
                      statistics.median(samples) for samples in latencies),
                  "peak_rss_mb": peak_rss_mb}
    return {"correct": not run_errors, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": values[key], "unit": units[key]} for key in units}}


def print_metrics(metrics: dict, prefix: str = "") -> None:
    for key, m in metrics.items():
        print(f"{prefix}{key:40s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> dict:
    """Each workload in its own process; one table, one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        print_metrics(result["metrics"], prefix="  ")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{key}": m for key, m in result["metrics"].items()})
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="generate the inputs, print 'ready' and exit (set-up timing)")
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check rejects a perturbed output")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1

    if args.self_test:
        import selftest
        return selftest.main()
    if args.setup_only:
        import workloads
        workloads.WORKLOADS[args.workload](args.seed, ROOT)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"{args.workload}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        print_metrics(result["metrics"])
    print("machine: " + json.dumps(machine_record()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
