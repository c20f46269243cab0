"""eventnilm benchmark: one workload per run, or all three in turn.

    python3 bench/run.py --workload cli28 --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all

Builds its inputs from --seed, measures for --seconds, checks every output,
and prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with --trace 0, per-layer
metrics from a separate traced round with --trace 1. The full record (raw
timings, quality, environment, spans) goes to .bench_out/. Exits 1 when a
check fails, 2 when eventnilm cannot be imported from the checkout's src/.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("demo28", "balanced120", "cli28")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout: do not let git find an enclosing repo
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy

    status = git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def print_metrics(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:12s} {metric:48s} {m['value']:>14.6g} {m['unit']}")
    for metric, m in result.get("reported", {}).items():
        print(f"{name:12s} {metric:48s} {m['value']:>14.6g} {m['unit']} (not gated)")


def run_all(args) -> int:
    """Each workload in a fresh process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            part = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= part["correct"] and proc.returncode == 0
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, m in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: single-threaded throughout
    sys.path.insert(0, str(SRC))
    try:
        import eventnilm
    except ImportError as exc:
        print(f"error: cannot import eventnilm from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(eventnilm.__file__).resolve().parent.parent != SRC:
        print(f"error: eventnilm imported from {eventnilm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = workloads.traced_run(wl, args.seed, work)
        else:
            result = workloads.timed_run(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{tag}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} phases, {result['failed']} failed")
    print_metrics(wl.name, result)
    print("environment " + json.dumps(env))
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
