#!/usr/bin/env python3
"""Benchmark for g2k: closed loop, one process, one client.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 30 --trace 0

Run from the repository root. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of a traced run. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run facts.

Set-up (import g2k, ingest the inputs, warm up) runs several times in fresh
interpreters and setup_s is their median, so first-call costs land there and
not in the throughputs. The measured phase then repeats the workload's fixed
unit of work for about --seconds (always at least one unit) and reports the
median unit time as wall_s; the facts line lists every sample. A traced run does one
untraced and one traced unit, compares their outputs bit for bit and reports
the tracing overhead. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    n = nproc()
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, n))
        except ValueError:
            want = n
        os.environ[var] = str(max(1, min(want, n)))


def import_g2k():
    """Import g2k from this checkout's src/, never from anywhere else."""
    if not (SRC / "g2k" / "__init__.py").is_file():
        raise SystemExit(f"g2k sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import g2k
    from g2k import (autodiff, config, data, evaluation, gridlstm, model,  # noqa: F401
                     neighborhood, training)
    if Path(g2k.__file__).resolve().parent != SRC / "g2k":
        raise SystemExit(f"imported g2k from {g2k.__file__}, not from {SRC}")
    return g2k


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("train_paper", "gradcheck_audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="budget for the measured phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke shrinks every workload for the harness self-check")
    ap.add_argument("--setup-only", metavar="INPUTS_JSON",
                    help=argparse.SUPPRESS)  # one timed set-up, in a child process
    return ap.parse_args(argv)


def setup_once(inputs_json: str, workload: str) -> None:
    t0 = perf_counter()
    g2k = import_g2k()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    state = wl.ingest(g2k, json.loads(Path(inputs_json).read_text()))
    wl.warm_up(g2k, state)
    print(json.dumps({"setup_s": perf_counter() - t0}))


def timed_setups(args, inputs_json: Path) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(inputs_json)]
    out = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up run failed with exit code {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_facts(args, np) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - best effort; older numpy lacks mode=
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(),
        "load": "closed loop, one process, one client",
        "warm_up": "import, ingestion and one forward/backward per model "
                   "config run before timing and count as setup_s",
    }


def measure(args, g2k, wl, state, work: Path) -> list:
    """Repeat the unit until the next one would end more than half a unit
    past the budget, so the run ends as close to it as the unit allows."""
    units = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        units.append(wl.unit(g2k, state, work))
        took = perf_counter() - t0
        if perf_counter() - start + took / 2 > args.seconds:
            return units


def traced(args, g2k, wl, inputs: dict, work: Path):
    """One untraced and one traced pass of ingestion plus one unit."""
    from spans import Tracer

    t0 = perf_counter()
    plain = wl.unit(g2k, wl.ingest(g2k, inputs), work)
    wall_plain = perf_counter() - t0

    tracer = Tracer()
    tracer.install(g2k)
    try:
        t0 = perf_counter()
        seen = wl.unit(g2k, wl.ingest(g2k, inputs), work)
        wall_traced = perf_counter() - t0
    finally:
        tracer.uninstall()

    attempted, failed = plain.ops + seen.ops, plain.failed + seen.failed
    if seen.fingerprint != plain.fingerprint:
        print("check failed: traced outputs differ from untraced ones", file=sys.stderr)
        failed += seen.ops
    metrics = tracer.summary(wall_traced)
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    metrics["untraced.wall_s"] = (plain.wall_s, "s")
    for name, unit in (("train_scenes_per_s", "1/s"), ("eval_scenes_per_s", "1/s"),
                       ("gradcheck_s", "s"), ("eval_ade_m", "m")):
        metrics[f"untraced.{name}"] = (plain.phases.get(name, 0.0), unit)

    import numpy as np
    dump = OUT / "traces" / f"{args.workload}-seed{args.seed}.npz"
    dump.parent.mkdir(parents=True, exist_ok=True)
    np.savez(dump, **tracer.spans())
    print(f"spans written to {dump.relative_to(ROOT)}", file=sys.stderr)
    return metrics, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    # exit through the with-blocks, so scratch files go and children are killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args.seed %= 2**32  # numpy seeds must be non-negative
    cap_blas_threads()
    if args.setup_only:
        setup_once(args.setup_only, args.workload)
        return 0

    g2k = import_g2k()
    import numpy as np
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        work = Path(tmp)
        inputs = wl.make_inputs(g2k, args.seed, args.size, work)
        if args.trace:
            wl.warm_up(g2k, wl.ingest(g2k, inputs))
            metrics, attempted, failed = traced(args, g2k, wl, inputs, work)
            samples = {}
        else:
            inputs_json = work / "inputs.json"
            inputs_json.write_text(json.dumps(inputs))
            setups = timed_setups(args, inputs_json)
            state = wl.ingest(g2k, inputs)
            wl.warm_up(g2k, state)
            units = measure(args, g2k, wl, state, work)
            attempted = sum(u.ops for u in units)
            failed = sum(u.failed for u in units)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (statistics.median(u.wall_s for u in units), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            samples = {"setup_s": setups, "wall_s": [u.wall_s for u in units]}

    print(json.dumps({"facts": run_facts(args, np), "samples": samples}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
