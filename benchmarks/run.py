"""Benchmark of transducer-sim: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload statics_sweep --seed 1 --seconds 40 --trace 0

Generates the workload's config documents from the seed, then runs
set-up probes and full passes, each in a fresh single-threaded process
(worker.py), until the next pass would end after ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics as medians over the
passes, with wall and set-up times scaled to the reference machine speed
by the worker's speed probe.  With ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of the traced pass
of median wall time.  Output checks run once per invocation, outside
the timed passes.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
``--record FILE`` also appends the run, with machine and version details,
to a results file such as ``benchmarks/results/BENCH_<date>.json``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, generate, check_generator, point_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: set-up-only processes per run, on top of the set-up of every pass
SETUP_PROBES = 5
#: a run makes at least this many passes, so reruns can be compared
MIN_PASSES = 2
WORKER_TIMEOUT_S = 150

#: BLAS / OpenMP thread pools pinned to one thread in every worker
SINGLE_THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TRANSDUCER_SIM_THREADS"}
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class WorkerError(RuntimeError):
    pass


def run_worker(args: list, env: dict) -> tuple:
    """Run worker.py with ``args``; returns (its JSON report, elapsed seconds)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *args],
        env=env,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1]), elapsed


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git ('unknown' outside a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fastest_pass(passes: list, key: str) -> float:
    """Time of a pass made of each call's fastest run across ``passes``."""
    fastest = {}
    for report in passes:
        for result in report["results"]:
            fastest[result["name"]] = min(fastest.get(result["name"], math.inf), result[key])
    return sum(fastest.values())


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    calls = generate(workload, seed)
    config_dir = work / "configs"
    config_dir.mkdir(parents=True)
    listing = []
    for i, call in enumerate(calls):
        path = config_dir / f"{i}_{call.name}.ini"
        path.write_text(call.document, encoding="utf-8")
        listing.append({"name": call.name, "command": call.command, "config": str(path)})
    calls_json = work / "calls.json"
    calls_json.write_text(json.dumps(listing), encoding="utf-8")
    env = worker_env()
    base = ["--calls", str(calls_json), "--workload", workload]

    setup = []
    for i in range(SETUP_PROBES):
        out_dir = work / f"probe{i}"
        out_dir.mkdir()
        report, _ = run_worker(base + ["--out-dir", str(out_dir), "--setup-only"], env)
        setup.append(report)

    passes = []
    durations = []
    started = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        out_dir = work / f"pass{len(passes)}"
        out_dir.mkdir()
        report, elapsed = run_worker(
            base + ["--out-dir", str(out_dir)] + (["--trace"] if traced else []), env
        )
        report["traced"] = traced
        report["out_dir"] = out_dir
        passes.append(report)
        durations.append(elapsed)
        setup.append(report)
        spent = time.monotonic() - started
        if len(passes) >= MIN_PASSES and spent + statistics.median(durations) > seconds:
            break

    # output checks, once per invocation and outside the timed passes
    problems = [f"generator: {p}" for p in check_generator(workload, seed)]
    content = {}    # sha256 -> problems found in that output
    first = {}      # call name -> sha256 of its first output
    attempted = failed = 0
    outputs = []
    for report in passes:
        for result in report["results"]:
            attempted += 1
            path = report["out_dir"] / (result["name"] + ".csv")
            issues = [] if result["ok"] else [f"call failed: {result['error']}"]
            if result["ok"] and path.is_file():
                digest = sha256(path)
                if digest not in content:
                    content[digest] = checks.check_output(workload, result["name"], path, calls)
                    outputs.append({"name": result["name"], "sha256": digest, "rows": checks.row_count(path)})
                issues += content[digest]
                if first.setdefault(result["name"], digest) != digest:
                    issues.append("output differs from the first pass (rerun not bit-identical)")
            elif result["ok"]:
                issues.append("no output written")
            if issues:
                failed += 1
                problems += [f"{result['name']}: {issue}" for issue in issues]

    untraced = [p for p in passes if not p["traced"]]
    points = point_count(calls)
    for report in untraced:
        for r in report["results"]:
            r["net_wall_s"] = r["wall_s"] - r["probe_s"]
    wall_s = statistics.median(sum(r["norm_wall_s"] for r in p["results"]) for p in untraced)
    metrics = {
        "wall_s": wall_s,
        "points_per_s": points / wall_s,
        "setup_s": statistics.median(r["norm_setup_s"] for r in setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
    }
    result = {
        "metrics": metrics,
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "info": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "points": points,
            "passes": len(untraced),
            "traced_passes": len(passes) - len(untraced),
            "setup_samples": len(setup),
            "raw_wall_s": fastest_pass(untraced, "net_wall_s"),
            "raw_setup_s": statistics.median(r["setup_s"] for r in setup),
            "probe_kernel_s": [p["kernel_s"] for p in untraced],
            "call_wall_s": {
                r["name"]: [q["wall_s"] for p in untraced for q in p["results"] if q["name"] == r["name"]]
                for r in passes[0]["results"]
            },
            "versions": passes[0]["versions"],
            "outputs": outputs,
        },
    }
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        # the traced pass of median wall time, whose self times add up to it
        summaries = sorted(
            (tracing.summarize(json.loads(Path(p["spans"]).read_text())) for p in traced_passes),
            key=lambda layer: layer["trace.wall_s"],
        )
        layers = summaries[(len(summaries) - 1) // 2]
        errors = [t["fidelity_err"] for p in traced_passes for t in p["trajectories"]]
        layers["dynamics.fidelity_err"] = max(errors) if errors else 0.0
        layers["trace.overhead_frac"] = (
            fastest_pass(traced_passes, "wall_s") / fastest_pass(untraced, "net_wall_s") - 1.0
        )
        result["layers"] = layers
        result["info"]["trajectories"] = traced_passes[0]["trajectories"]
    return result


def record(path: Path, label: str, run: dict, trace: bool):
    """Append one run to the results file under the entry named ``label``."""
    data = json.loads(path.read_text()) if path.is_file() else {"entries": []}
    entry = next((e for e in data["entries"] if e["label"] == label), None)
    if entry is None:
        entry = {
            "label": label,
            "date": datetime.date.today().isoformat(),
            "git_commit": git_commit(ROOT),
            "machine": {
                "nproc": os.cpu_count(),
                "cpu_model": cpu_model(),
                "platform": platform.platform(),
            },
            "versions": run["info"]["versions"],
            "runs": [],
        }
        data["entries"].append(entry)
    entry["runs"].append(
        {
            "trace": int(trace),
            "metrics": run["layers"] if trace else run["metrics"],
            "error_rate": run["error_rate"],
            "info": {k: v for k, v in run["info"].items() if k != "versions"},
        }
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="results file to append the runs to")
    parser.add_argument("--label", default="baseline", help="entry of the results file")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "transducer_sim" / "__init__.py").is_file():
        print(f"error: no transducer_sim package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        work = Path(tempfile.mkdtemp(prefix=f"{workload}-{args.seed}-", dir=scratch))
        try:
            run = measure(workload, args.seed, args.seconds, bool(args.trace), work)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)

        for problem in run["problems"]:
            print(f"check failed: {problem}")
        if args.trace:
            metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in run["layers"].items()}
            shown = metrics
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in run["metrics"].items()}
            shown = {**metrics, "error_rate": {"value": run["error_rate"], "unit": "ratio"}}
        for name, m in shown.items():
            print(f"{workload:20s} {name:30s} {m['value']:>16.6g} {m['unit']}")
        print("info " + json.dumps(run["info"]))
        if args.record:
            record(args.record, args.label, run, bool(args.trace))
        prefix = f"{workload}." if len(workloads) > 1 else ""
        summary["correct"] = summary["correct"] and not run["problems"]
        summary["attempted"] += run["attempted"]
        summary["failed"] += run["failed"]
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
