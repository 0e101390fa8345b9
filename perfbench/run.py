#!/usr/bin/env python3
"""qmg benchmark: seeded nash, scan and tables workloads.

Run from the repository root:

    python3 perfbench/run.py --workload nash --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One process runs one workload as a closed loop: it issues one job at a
time, and BLAS/OpenMP pools are pinned to one thread. Passes over the
workload's jobs repeat until `--seconds` have elapsed; `setup_s` is the
median over several fresh processes, spread over the run, that only
import and build inputs. With `--trace 1`, passes alternate untraced and
traced and the per-layer metrics come from the traced ones.
`--workload all` runs each workload in its own fresh process. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 7
MAX_LOGGED_FAILURES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("results_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _per_layer_metrics():
    layers = {
        "game.minority_projector": (("calls", "count"), ("self_s", "s"),
                                    ("repeat_frac", "fraction")),
        "states.build_pure": (("calls", "count"), ("self_s", "s"),
                              ("repeat_frac", "fraction")),
        "game.final_state": (("self_s", "s"),),
        "game.strategy_unitary": (("calls", "count"), ("self_s", "s")),
        "core.apply_local": (("calls", "count"), ("self_s", "s"),
                             ("bytes_computed", "B")),
        "core.diagonal_expectation": (("calls", "count"), ("self_s", "s")),
        "game.expected_payoff": (("calls", "count"), ("self_s", "s")),
        "analysis.best_response": (("calls", "count"), ("self_s", "s"),
                                   ("grid_points", "count"),
                                   ("kernel_bytes_computed", "B")),
        "analysis.nash_check": (("self_s", "s"),),
        "analysis.payoff_surface": (("self_s", "s"),),
        "analysis.sweep": (("self_s", "s"),),
        "cli.parse_config": (("self_s", "s"),),
        "cli.run": (("self_s", "s"),),
        "cli.render_table": (("self_s", "s"),),
        "cli.emit_table": (("self_s", "s"), ("bytes", "B")),
    }
    metrics = [(f"{layer}.{q}", unit) for layer, qs in layers.items() for q, unit in qs]
    for module in spans.MODULES:
        metrics += [(f"{module}.self_s", "s"), (f"{module}.errors", "count")]
    return tuple(metrics) + (("trace_overhead_s", "s"),)


PER_LAYER = _per_layer_metrics()


def prepare_environment():
    """Pin thread pools and import qmg from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "qmg" / "__init__.py").is_file():
        raise SystemExit(f"error: no qmg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (part of set-up)
    import qmg
    from qmg import analysis, cli, core, game, states  # noqa: F401

    if Path(qmg.__file__).resolve().parent != SRC / "qmg":
        raise SystemExit(f"error: imported qmg from {qmg.__file__}, not {SRC}")


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def provenance(args):
    import numpy
    import qmg

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "qmg_file": qmg.__file__,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, one process, one job at a time",
    }


def _cpu_seconds():
    """User+sys CPU of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rows: int = 0
    attempted: int = 0
    failed: int = 0


def run_pass(jobs, tracer, first_job_id, failures):
    """Run every job once; time only the calls, check outputs after each.

    A job that raises or fails its check is counted, not propagated; the
    tracebacks of the first few go into `failures`.
    """
    result = Pass(traced=tracer is not None)
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_job_id + k
            tracer.active = True
        error = None
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # includes MemoryError (numpy's _ArrayMemoryError)
            error = exc
        result.wall += time.perf_counter() - t0
        result.cpu += _cpu_seconds() - c0
        result.attempted += 1
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                result.rows += job.check(out)
            except Exception as exc:
                error = exc
        if error is not None:
            result.failed += 1
            if tracer is not None:
                tracer.charge(job.module, error)
            if len(failures) < MAX_LOGGED_FAILURES:
                trace_text = "".join(traceback.format_exception(error))
                failures.append(f"{job.name}:\n{trace_text}")
    return result


def _probe_setup(args):
    """Seconds from starting a fresh process to its first job being ready."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed (exit {code})")
    return elapsed


def _work_dir(tag):
    return OUT / f"work-{tag}-{os.getpid()}"


def run_workload(args):
    prepare_environment()
    if args.probe:
        workloads.build(args.workload, args.size, args.seed, _work_dir("probe"))
        print("ready", flush=True)
        return 0

    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    workdir = _work_dir(args.workload)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    passes, failures, probes = [], [], []
    try:
        jobs = workloads.build(args.workload, args.size, args.seed, workdir)
        start = time.perf_counter()
        while True:
            # Set-up probes are spread over the run, so that they sample
            # the same machine load as the passes.
            share = min((time.perf_counter() - start) / max(args.seconds, 1e-9), 1)
            due = 0 if args.trace else 1 + int((SETUP_PROBES - 1) * share)
            while len(probes) < due:
                probes.append(_probe_setup(args))
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                tracer.install()
                tracer.begin_pass()
            try:
                passes.append(run_pass(jobs, tracer if traced else None,
                                       len(passes) * len(jobs), failures))
            finally:
                if traced:
                    tracer.end_pass()
                    tracer.uninstall()
            enough = not args.trace or len(passes) >= 2
            if enough and time.perf_counter() - start >= args.seconds:
                break
        while not args.trace and len(probes) < SETUP_PROBES:
            probes.append(_probe_setup(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for text in failures:
        print(f"failed job {text}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    plain = [p for p in passes if not p.traced]
    wall_s = statistics.median(p.wall for p in plain)
    if args.trace:
        values = {name: 0 for name, _ in PER_LAYER}
        values.update(tracer.mean_metrics())
        traced_wall = statistics.median(p.wall for p in passes if p.traced)
        values["trace_overhead_s"] = traced_wall - wall_s
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{args.workload}-{args.size}.spans.jsonl.gz", prov)
    else:
        values = {
            "setup_s": statistics.median(probes),
            "wall_s": wall_s,
            "results_per_s": statistics.median(p.rows / p.wall for p in plain),
            "cpu_s": statistics.median(p.cpu for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    print("pass_wall_s " + " ".join(
        f"{p.wall:.4g}{'T' if p.traced else ''}" for p in passes))
    for name, unit in units:
        print(f"metric {name} {values[name]:.6g} {unit}")
    print(f"metric error_rate {failed / attempted:.6g} fraction"
          f" ({failed} of {attempted} jobs over {len(passes)} passes)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own fresh process; a combined line at the end."""
    combined, status = {}, 0
    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if proc.returncode == 0 and lines:
            combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="tiny is for the smoke test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
