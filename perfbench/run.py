"""quditsim benchmark: seeded closed-loop workloads with verified outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  One client submits the next job only after
the previous one has finished and been checked (a closed loop).  A job is
what a CLI user's command does: compile, dense-verify, serialize.  Only
the job itself is timed; input generation and the oracle check are not.

``--trace 0`` runs jobs until their summed time reaches ``seconds`` and
reports the end-to-end metrics.  ``--trace 1`` makes
``ceil(seconds / nominal job time)`` jobs, the nominal time being a
constant of the workload measured at the seed commit, so every commit
runs the same inputs and call counts repeat exactly; it alternates
untraced and traced jobs and reports per-function calls and self time.

``all`` runs every workload, each in its own process.  BENCHMARK.json
lists two of them, ``connect_mixed`` and ``verify_trotter``, which between
them call every traced function of all eight modules.  ``isolate_dense``
(kron-per-term ``reconstruct`` is about 90% of a job) and
``isolate_deep`` (a 1023-node program on D=162, where
``effective_hamiltonian`` and its memo dominate time and memory) are not
listed: wall time on a shared host drifts by about 20% over minutes, so a
run must be long to be steady, and the time allowed for the repeated runs
of a check leaves room for two workloads at that length.

The last stdout line is the JSON result; the line before it holds the
environment stamp and the details behind each number.  Exit status is 0
only when every job passed its check; 2 when quditsim cannot be loaded
from ``src/`` next to this directory.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The names of bench_workloads.WORKLOADS, repeated here because importing
# that module imports numpy, which must wait for the thread setting below.
# BENCHMARK_WORKLOADS are the ones BENCHMARK.json lists.
BENCHMARK_WORKLOADS = ("connect_mixed", "verify_trotter")
WORKLOAD_NAMES = BENCHMARK_WORKLOADS + ("isolate_dense", "isolate_deep")
MIN_JOBS = 3
# One BLAS thread plus the single client thread stays within a 2-core box.
BLAS_THREADS = "1"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
    "program_nodes": "count",
    "program_factors_log10": "log10",
}


def load_workloads():
    """Import quditsim from this checkout's ``src`` and the workload module."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import quditsim

    if not Path(quditsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"quditsim loaded from {quditsim.__file__}, not from {ROOT / 'src'}")
    import bench_workloads

    return bench_workloads


def set_up(name: str, seed: int, workdir: Path):
    """Import, generate job 0's input and run it: what one CLI process pays once."""
    start = time.perf_counter()
    workloads = load_workloads()
    loop = Loop(workloads.WORKLOADS[name](workdir), seed)
    warm_up = loop.execute(0)
    return loop, warm_up, time.perf_counter() - start


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quditsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(loadavg) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "client_threads": 1,
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in loadavg],
    }


class Loop:
    """One closed-loop client: generate, run (timed), check, record."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.jobs: list[dict] = []

    def execute(self, index: int, tracer=None) -> tuple:
        """Generate job ``index``'s input and run the job; only the job is timed."""
        inp = self.workload.generate(self.seed, index)
        out, error, elapsed = None, None, 0.0
        try:
            prepared = self.workload.prepare(inp)
            gc.collect()
            if tracer is not None:
                tracer.job = index
                tracer.install()
            start = time.perf_counter()
            try:
                out = self.workload.job(prepared)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
        except Exception as exc:  # never retried: counts as a failed job
            error = f"{type(exc).__name__}: {exc}"
        # Free the job's own garbage before the check runs, so the oracle's
        # memory never stacks on top of the library's in peak RSS.
        gc.collect()
        return index, inp, out, error, elapsed

    def record(self, index, inp, out, error, elapsed) -> dict:
        problems = [error] if error else []
        sizes = []
        if not error:
            try:
                problems += self.workload.check(inp, out)
                sizes = self.workload.sizes(inp, out)
            except Exception as exc:  # a malformed artifact fails this job only
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        for problem in problems:
            print(f"job {index} failed: {problem}", file=sys.stderr)
        job = {"index": index, "elapsed": elapsed, "returned": error is None,
               "ok": not problems, "sizes": sizes}
        self.jobs.append(job)
        return job

    def run(self, index: int, tracer=None) -> dict:
        return self.record(*self.execute(index, tracer))


def job_count(seconds: float, workload) -> int:
    return max(MIN_JOBS, math.ceil(seconds / workload.nominal_job_s))


def run_for(loop: Loop, seconds: float) -> float:
    """Run jobs 1, 2, ... until their summed time reaches ``seconds``."""
    busy, index = 0.0, 0
    while busy < seconds or index < MIN_JOBS:
        index += 1
        busy += loop.run(index)["elapsed"]
    return busy


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with ten jobs beyond it, as (value, percentile).

    With ten jobs or fewer no percentile has ten beyond it; the slowest
    job (percentile 100) stands in.  With 21 jobs or fewer the rule's
    percentile is the median or below it, which is why the tail is only
    reported in the details line, not as a metric.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * k / (n - 1)


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (import, generation, warm-up job)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(loop: Loop, busy: float, setup: list[float]) -> tuple[dict, dict]:
    timed = [j for j in loop.jobs if j["index"] > 0]
    times = [j["elapsed"] for j in timed if j["returned"]]
    verified = sum(j["ok"] for j in timed)
    nodes = [n for j in timed for n, _ in j["sizes"]]
    logs = [x for j in timed for _, x in j["sizes"]]
    tail_value, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": verified / busy,
        "job_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "program_nodes": sum(nodes) / len(nodes),
        "program_factors_log10": sum(logs) / len(logs),
    }
    details = {
        "setup_samples_s": setup,
        "timed_jobs": len(timed),
        "job_s_tail": tail_value,
        "job_s_tail_percentile": round(tail_pct, 2),
        "job_s_tail_jobs": len(times),
        "busy_s": busy,
        "job_s": [round(j["elapsed"], 4) for j in timed],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, details


def per_layer(loop: Loop, tracer, traced: list[int]) -> tuple[dict, dict]:
    import bench_trace

    calls, self_s, total_s = tracer.aggregate(set(traced))
    metrics = {}
    for name in bench_trace.SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s[name], "unit": "s"}
    for name in bench_trace.COUNT_NAMES:
        unit = "bytes" if name.endswith(".bytes") else "count"
        metrics[name] = {"value": tracer.counts[name], "unit": unit}
    by_index = {j["index"]: j for j in loop.jobs}
    traced_times = [by_index[i]["elapsed"] for i in traced]
    plain_times = [j["elapsed"] for j in loop.jobs if j["index"] > 0 and j["index"] not in traced]
    total = sum(traced_times)

    def shares(seconds):
        ranked = sorted(seconds, key=seconds.get, reverse=True)
        return {name: round(seconds[name] / total, 5) for name in ranked if seconds[name] > 0}

    details = {
        "traced_jobs": len(traced),
        "traced_job_s_p50": statistics.median(traced_times),
        "untraced_job_s_p50": statistics.median(plain_times),
        "tracing_overhead_s": statistics.median(traced_times) - statistics.median(plain_times),
        "self_share": shares(self_s),
        "inclusive_share": shares(total_s),
    }
    return metrics, details


def run_workload(args) -> int:
    wall_start = time.perf_counter()
    loadavg = os.getloadavg()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        try:
            loop, warm_up, setup_main = set_up(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"cannot load quditsim: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        import bench_trace

        stamp = environment(loadavg)
        workload = loop.workload
        loop.record(*warm_up)
        if args.trace:
            jobs = job_count(args.seconds, workload)
            tracer = bench_trace.Tracer()
            rounds = math.ceil(jobs / 2)
            traced = []
            for r in range(rounds):
                loop.run(2 * r + 1)
                traced.append(loop.run(2 * r + 2, tracer)["index"])
            metrics, details = per_layer(loop, tracer, traced)
        else:
            busy = run_for(loop, args.seconds)
            setup = [setup_main] + [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_SAMPLES - 1)]
            metrics, details = end_to_end(loop, busy, setup)
        attempted = len(loop.jobs)
        failed = sum(not j["ok"] for j in loop.jobs)
        details.update({
            "workload": args.workload,
            "seed": args.seed,
            "why": workload.why,
            "input": {**workload.properties(warm_up[1]),
                      "dag_nodes": [n for n, _ in loop.jobs[0]["sizes"]]},
            "failed_ratio": failed / attempted,
            "wall_s": time.perf_counter() - wall_start,
            "environment": stamp,
        })
        for name, metric in metrics.items():
            print(f"{args.workload:15s} {name:48s} {metric['value']:>16.6g} {metric['unit']}")
        print(json.dumps(details, sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    worst, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, done.returncode)
        if done.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
