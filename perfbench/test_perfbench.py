"""The benchmark's own checks: seeds change the inputs, never the answers or the counts.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer, is_time  # noqa: E402
from worker import run_pass  # noqa: E402

from klvwb import cli  # noqa: E402

FILE_WORKLOADS = ("klv-files", "ext-sweep")


def _outputs(jobs):
    """Canonical digest of every job, checked against the reference."""
    import contextlib
    import io

    reference = inputs.load_reference()
    digests = {}
    for job in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(job["argv"])
        assert inputs.judge(job, rc, buf.getvalue(), reference) is None, job["key"]
        digests[job["key"]] = inputs.digest(inputs.canonical(job["verb"], buf.getvalue(), job["back"]))
    return digests


@pytest.mark.parametrize("workload", FILE_WORKLOADS)
def test_seeds_change_inputs_not_digests(tmp_path, workload):
    runs = {}
    for seed in (1, 2):
        directory = tmp_path / str(seed)
        directory.mkdir()
        jobs = inputs.write_inputs(workload, seed, directory)
        runs[seed] = (jobs, _outputs(jobs))
    (jobs1, digests1), (jobs2, digests2) = runs[1], runs[2]
    assert digests1 == digests2
    for a, b in zip(jobs1, jobs2):
        assert set(a["back"]) != set(b["back"])  # fresh ids per seed
        assert set(a["back"].values()) == set(b["back"].values())


def _traced_counts(workload, seed, directory):
    jobs = inputs.write_inputs(workload, seed, directory)
    tracer = Tracer()
    tracer.install()
    try:
        _, failures = run_pass(cli, jobs, inputs.load_reference(), inputs.judge, tracer)
    finally:
        tracer.uninstall()
    assert not failures
    assert not tracer.absent
    return {k: v for k, v in tracer.summary().items() if not is_time(k)}


@pytest.mark.parametrize("workload", FILE_WORKLOADS)
def test_traced_counts_repeat_across_runs_and_seeds(tmp_path, workload):
    counts = {}
    for seed in (1, 2):
        for run in range(2):
            directory = tmp_path / f"{seed}-{run}"
            directory.mkdir()
            counts[seed, run] = _traced_counts(workload, seed, directory)
    assert counts[1, 0] == counts[1, 1]
    assert counts[2, 0] == counts[2, 1]

    # the relabelling reorders basis ties, which moves kernel calls by a
    # fraction of a percent; every count at a layer boundary stays exact
    def boundary(c):
        return {k: v for k, v in c.items() if not k.startswith("laurent.kernel.")}

    assert boundary(counts[1, 0]) == boundary(counts[2, 0])
    assert counts[1, 0].get("hecke.kl_basis.calls", 0) == 0
    assert counts[1, 0]["klv.klv_table.calls"] > 0


def test_uninstall_restores_every_binding():
    from klvwb import hecke, hmodule

    before = (hecke.kl_basis, hmodule.kl_basis, hecke.HeckeElt.__dict__["bar"])
    tracer = Tracer()
    tracer.install()
    assert hmodule.kl_basis is hecke.kl_basis is not before[0]
    tracer.uninstall()
    assert (hecke.kl_basis, hmodule.kl_basis, hecke.HeckeElt.__dict__["bar"]) == before


def test_missing_target_is_absent_not_a_crash(monkeypatch):
    from klvwb import hmodule

    monkeypatch.delattr(hmodule, "matrix_apply")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "hmodule.matrix_apply" in tracer.absent
    assert tracer.is_absent("hmodule.matrix_apply.calls")
    assert not tracer.is_absent("hmodule.beta.calls")
