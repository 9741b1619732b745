"""ngbayes benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Each run is one process with BLAS pinned to one thread, one closed-loop
client and no extra threads. It imports ``ngbayes`` from ``src/`` of the
checkout (never an installed copy), generates its inputs from ``--seed``,
sets up, then repeats the workload's op for ``--seconds`` seconds and
checks every op's output. Workloads are described in ``workloads.py``;
``BENCHMARK.json`` lists the gated ones (``sweep``, ``cvstudy`` and
``kl_oracle``). ``fit_n1000`` runs the same way but is not gated: the
three gated workloads already cover every layer, and leaving it out
lets each gated run measure longer within the same total time.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: median over fresh processes of the wall time from process
  start to the end of set-up (import, input generation, warm-up);
- ``op_p50_ms``: median wall time of one op (``sweep_s``, ``cvstudy_s``,
  ``fit_p50_ms`` and the ``kl --check`` round of the workload list);
- ``peak_rss_mb``: peak resident memory of the measuring process.

With ``--trace 1`` the first half of the time runs untraced ops and the
second half traced ops, and the metrics are per layer (see
``tracing.py``), per op, plus the traced op time and the tracing
overhead (traced minus untraced median op time).

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the environment, sample counts, the error rate and the
workload's own figures. Exit status is non-zero, with no result line,
when the program cannot be imported or set up.
"""

import os

# Pin BLAS before numpy is imported, here and in the set-up processes.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

# Set-up is timed in this many fresh processes; setup_s is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Counts measured by profiling the default configs, one op each.
PROFILED_COUNTS = {
    "sweep": {"glm.log_model_evidence.calls": 2100, "glm.dataset.calls": 2200,
              "numerics.spd_factor.calls": 4301},
    "cvstudy": {"glm.fit_posterior.calls": 2000, "glm.complexity.calls": 1000,
                "numerics.spd_factor.calls": 4001},
}


class SetupError(RuntimeError):
    """The program could not be imported or set up; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "cvstudy", "fit_n1000", "kl_oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import ngbayes from this checkout's src/ and nowhere else."""
    if not (SRC / "ngbayes" / "__init__.py").is_file():
        raise SetupError(f"no ngbayes package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ngbayes
    import ngbayes.cli  # noqa: F401  (not imported by the package itself)

    if Path(ngbayes.__file__).resolve().parent != SRC / "ngbayes":
        raise SetupError(f"imported ngbayes from {ngbayes.__file__}, not {SRC}")
    return ngbayes


def set_up(args, work: Path):
    """Import the program, generate inputs and warm up; return the workload."""
    import_program()
    import workloads

    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    problems = workload.warm_up()
    if problems:
        raise SetupError(f"warm-up failed: {problems}")
    return workload


def time_setup(args):
    """Wall time of set-up in SETUP_REPEATS fresh processes, in seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return samples


def run_ops(workload, seconds, outcome=None):
    """Closed loop: repeat the op for ``seconds`` seconds (at least once).

    No op starts that would, at the median op time so far, end after the
    deadline. Appends to ``outcome`` (latencies of ops that returned,
    problem lists of failed ops, ops attempted) and returns it.
    """
    outcome = outcome or {"latencies": [], "failures": [], "attempted": 0}
    deadline = time.perf_counter() + seconds
    latencies = []
    while True:
        outcome["attempted"] += 1
        start = time.perf_counter()
        try:
            op_seconds, problems = workload.op()
            outcome["latencies"].append(op_seconds)
        except Exception as exc:  # an op that raises is a failed op
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            outcome["failures"].append(problems)
        latencies.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(latencies) > deadline:
            return outcome


def summarize(seconds_list):
    """Median and, where at least 10 samples lie beyond it, p90; in ms."""
    ms = sorted(1e3 * s for s in seconds_list)
    out = {"n": len(ms), "p50_ms": statistics.median(ms) if ms else None}
    rank = math.ceil(0.9 * len(ms))
    if len(ms) - rank >= 10:
        out["p90_ms"] = ms[rank - 1]
    return out


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
    }


def workload_figures(name, untraced):
    """The workload's own end-to-end figures, under their issue names."""
    p50 = untraced["p50_ms"]
    if name == "sweep":
        return {"sweep_s": p50 / 1e3, "n": untraced["n"]}
    if name == "cvstudy":
        return {"cvstudy_s": p50 / 1e3, "n": untraced["n"]}
    if name == "fit_n1000":
        figures = {"fit_p50_ms": p50, "n": untraced["n"]}
        if "p90_ms" in untraced:
            figures["fit_p90_ms"] = untraced["p90_ms"]
        return figures
    # Three 10**6-sample checks per op.
    return {"mc_msamples_per_s": 3.0 / (p50 / 1e3), "n": untraced["n"]}


def end_to_end_metrics(args, outcome, setup_samples, report):
    untraced = summarize(outcome["latencies"])
    report["op"] = untraced
    report["op_ms"] = [1e3 * s for s in outcome["latencies"]]
    report["figures"] = workload_figures(args.workload, untraced)
    report["setup_s_samples"] = setup_samples
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "op_p50_ms": {"value": untraced["p50_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }


def traced_metrics(args, workload, ngbayes, report):
    """Untraced ops for half the time, then traced ops; per-layer metrics."""
    import tracing

    half = args.seconds / 2.0
    outcome = run_ops(workload, half)
    untraced = summarize(outcome["latencies"])
    tracer = tracing.Tracer()
    tracer.install(ngbayes)
    per_op, traced = [], []
    try:
        deadline = time.perf_counter() + half
        while True:
            tracer.reset()
            failed_before = len(outcome["failures"])
            done_before = len(outcome["latencies"])
            run_ops(workload, 0.0, outcome)
            if len(outcome["latencies"]) > done_before:
                traced.append(outcome["latencies"][-1])
                if len(outcome["failures"]) == failed_before:
                    per_op.append(tracer.stats)
            if not traced or time.perf_counter() + statistics.median(traced) > deadline:
                break
    finally:
        tracer.uninstall()
    if not per_op:
        return outcome, {}
    metrics = tracing.layer_metrics(per_op)
    with_trace = summarize(traced)
    overhead = with_trace["p50_ms"] - untraced["p50_ms"]
    metrics["trace.op_p50_ms"] = {"value": with_trace["p50_ms"], "unit": "ms"}
    metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    counts = [tracing.counts_of(stats) for stats in per_op]
    report["tracing"] = {
        "untraced_op": untraced,
        "traced_op": with_trace,
        "overhead_ms": overhead,
        "counts_repeat": all(c == counts[0] for c in counts),
        "profiled_counts": {
            key: {"expected": want, "measured": metrics[key]["value"]}
            for key, want in PROFILED_COUNTS.get(args.workload, {}).items()
        },
    }
    return outcome, metrics


def main(argv=None):
    args = parse_args(argv)
    work = WORK_ROOT / str(os.getpid())
    try:
        if args.setup_only:
            set_up(args, work)
            return 0
        ngbayes = import_program()
        setup_samples = None if args.trace else time_setup(args)
        workload = set_up(args, work)
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment()}
        if args.trace:
            outcome, metrics = traced_metrics(args, workload, ngbayes, report)
        else:
            outcome = run_ops(workload, args.seconds)
            metrics = (end_to_end_metrics(args, outcome, setup_samples, report)
                       if outcome["latencies"] else {})
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    failures = outcome["failures"]
    report["attempted"] = outcome["attempted"]
    report["error_rate"] = len(failures) / outcome["attempted"]
    report["problems"] = failures[:5]
    for problems in failures[:5]:
        print(f"perfbench: failed op: {problems}", file=sys.stderr)
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({"correct": not failures and bool(metrics),
                      "attempted": outcome["attempted"], "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
