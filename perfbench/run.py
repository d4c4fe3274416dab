"""klvwb benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload check-ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It writes the seeded inputs to a
temporary directory in the checkout, samples set-up time with several fresh
interpreters, then measures the workload in one more fresh interpreter (see
worker.py).  It prints each metric by name with its unit, then, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 its per-layer ones.  The full results, with the environment stamp,
go to .perfbench-out/<workload>.json (and the spans of a traced run to
.perfbench-out/<workload>.spans.csv.gz).  Any wrong output makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

ROOT = inputs.ROOT
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 9
BUDGET_S = 170  # the whole run, set-up included, must end within 180 s


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def probe_setup(manifest: Path) -> float:
    """Seconds from spawning an interpreter until its first job could start."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(inputs.HERE / "worker.py"), str(manifest), "--probe"],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=30)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def environment(workload: str, seed: int) -> dict:
    commit = "absent"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import klvwb

    backend = getattr(klvwb, "kernel_backend", None)
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "kernel": backend() if backend else "absent",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "klvwb" / "cli.py").is_file():
        return fail(f"no klvwb sources under {SRC}; run from a full checkout")
    if not inputs.GOLDEN.is_dir():
        return fail(f"no golden outputs under {inputs.GOLDEN}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    began = time.perf_counter()

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    OUT.mkdir(exist_ok=True)
    try:
        jobs = inputs.write_inputs(args.workload, args.seed, work)
        manifest = work / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "src": str(SRC),
                    "jobs": jobs,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "per_layer": [m["name"] for m in spec["per_layer"]],
                    "spans": str(OUT / f"{args.workload}.spans.csv.gz"),
                }
            ),
            encoding="utf-8",
        )
        setup = [probe_setup(manifest) for _ in range(SETUP_SAMPLES)]
        done = subprocess.run(
            [sys.executable, str(inputs.HERE / "worker.py"), str(manifest)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, BUDGET_S - (time.perf_counter() - began)),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        return fail(f"worker exited with code {done.returncode}")
    run = json.loads(done.stdout.splitlines()[-1])

    failed = len(run["failures"])
    values = {
        # the mean, not the median: host contention comes in phases of several
        # seconds, so pass times are bimodal and their median jumps between modes
        "wall_s": statistics.fmean(run["walls"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    metrics = {}
    if not args.trace:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        for m in spec["per_layer"]:
            value = run["layer"].get(m["name"])
            entry = {"value": 0 if value is None else value, "unit": m["unit"]}
            if value is None:
                entry["absent"] = True
            metrics[m["name"]] = entry

    env = environment(args.workload, args.seed)
    record = {
        "environment": env,
        "end_to_end": values,
        "fail_ratio": failed / run["attempted"],
        "attempted": run["attempted"],
        "failed": failed,
        "failures": run["failures"],
        "passes": run["walls"],
        "setup_samples": setup,
        "metrics": metrics,
    }
    if args.trace:
        record.update(traced_passes=run["traced_walls"], counts_repeat=run["counts_repeat"])
    (OUT / f"{args.workload}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, value in env.items():
        print(f"# {key}: {value}")
    for reason in run["failures"]:
        print(f"FAILED {reason}")
    print(f"fail_ratio {failed}/{run['attempted']} = {failed / run['attempted']:.4f} ratio")
    for name, m in metrics.items():
        tag = " (absent)" if m.get("absent") else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{tag}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
