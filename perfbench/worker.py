"""One benchmark run in a fresh interpreter.

    python3 perfbench/worker.py MANIFEST          # measure, print one JSON line
    python3 perfbench/worker.py MANIFEST --probe  # set up, print 'ready', exit

The run imports klvwb.cli, reads the generated input files, then drives
cli.main in a closed loop: one client, one job after another, the whole job
list once per pass, until the manifest's time is spent.  Every job's output
is checked.  With tracing on, the first half of the time runs untraced
passes and the rest traced ones, so the run also gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

perf = time.perf_counter


def cpu_seconds() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def run_pass(cli, jobs, reference, judge, tracer=None):
    """Run every job once; returns (seconds per job, failure reasons)."""
    times, failures = [], []
    for n, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_job(n)
        start = perf()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job["argv"])
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            rc = None
            reason = f"raised {type(exc).__name__}: {exc}"
        times.append(perf() - start)
        if tracer is not None:
            tracer.end_job()
        if rc is not None:
            reason = judge(job, rc, out.getvalue(), reference)
        if reason is not None:
            failures.append(f"{job['key']}: {reason} {err.getvalue().strip()}".strip())
    return times, failures


def main(argv) -> int:
    manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, manifest["src"])
    from klvwb import cli

    for job in manifest["jobs"]:
        if job["path"]:
            Path(job["path"]).read_bytes()
    if "--probe" in argv:
        print("ready", flush=True)
        return 0

    from inputs import judge, load_reference

    reference = load_reference()
    jobs, seconds, traced = manifest["jobs"], manifest["seconds"], manifest["trace"]
    walls, cpus, job_times, failures = [], [], [], []
    attempted = 0
    began = perf()
    while not walls or perf() - began < (seconds / 2 if traced else seconds):
        cpu = cpu_seconds()
        times, failed = run_pass(cli, jobs, reference, judge)
        cpus.append(cpu_seconds() - cpu)
        walls.append(sum(times))
        job_times.append(times)
        failures += failed
        attempted += len(jobs)
        if len(walls) == 1:
            # later passes add the previous pass's uncollected cycles to the peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"walls": walls, "peak_rss_mb": peak_rss_mb}
    if traced:
        from tracer import Tracer, is_time

        tracer = Tracer()
        tracer.install()
        summaries, traced_walls = [], []
        spans = Path(manifest["spans"])
        try:
            while not traced_walls or perf() - began < seconds:
                tracer.reset()
                times, failed = run_pass(cli, jobs, reference, judge, tracer)
                traced_walls.append(sum(times))
                summaries.append(tracer.summary())
                tracer.write_spans(spans, len(traced_walls), append=len(traced_walls) > 1)
                failures += failed
                attempted += len(jobs)
        finally:
            tracer.uninstall()
        layer = {
            "proc.cpu_s": statistics.median(cpus),
            "trace.overhead_ratio": statistics.fmean(traced_walls) / statistics.fmean(walls),
        }
        for n, job in enumerate(jobs):
            layer[f"job.{job['key']}.s"] = statistics.median(t[n] for t in job_times)
        for name in manifest["per_layer"]:
            if name in layer:
                continue
            values = [s.get(name, 0) for s in summaries]
            # counts repeat exactly from pass to pass; times take the median
            layer[name] = statistics.median(values) if is_time(name) else values[0]
            if tracer.is_absent(name):
                layer[name] = None
        result.update(
            layer=layer,
            traced_walls=traced_walls,
            counts_repeat=all(
                {k: v for k, v in s.items() if not is_time(k)}
                == {k: v for k, v in summaries[0].items() if not is_time(k)}
                for s in summaries
            ),
        )
    result.update(attempted=attempted, failures=failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
