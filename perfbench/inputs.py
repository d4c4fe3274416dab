"""Workloads, seeded input generation and the output correctness gate.

A workload is a list of jobs, each one `klvwb` command line.  File-based jobs
read a datum dumped from a builtin and then relabelled from the seed: every
parameter and orbit gets a fresh random id, and the orbit, parameter and
closure lists (and the keys of every table) are shuffled.  The program only
ever sees those files.  Each job's output is mapped back to the builtin ids,
sorted and hashed, so one reference digest holds for every seed.

    python3 perfbench/inputs.py      # re-record reference.json from this tree
"""

from __future__ import annotations

import hashlib
import json
import random
import string
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
GOLDEN = ROOT / "tests" / "golden"

SL2 = ("sl2-T", "sl2-N")
HR = ("A1", "A2", "B2", "G2", "A3", "C3")


@dataclass(frozen=True)
class JobSpec:
    verb: str  # klvwb subcommand
    builtin: str  # the builtin the input comes from
    from_file: bool  # read a relabelled dump instead of --builtin
    keep_costandard: bool = True
    golden: str | None = None  # tests/golden file the mapped-back output must equal

    @property
    def label(self) -> str:
        return self.builtin.replace("hecke-regular:", "hr-")

    @property
    def key(self) -> str:
        return f"{self.verb}.{self.label}"


def _hr(t: str) -> str:
    return f"hecke-regular:{t}"


_KLV_GOLDEN = {"sl2-T": "sl2T_klv.csv", "sl2-N": "sl2N_klv.csv", _hr("A2"): "hrA2_klv.csv"}

WORKLOADS: dict[str, tuple[JobSpec, ...]] = {
    # the whole `klvwb check` ladder; builtins take no input, so no seed effect
    "check-ladder": tuple(
        JobSpec("check", name, from_file=False) for name in SL2 + tuple(map(_hr, HR))
    ),
    # hecke-regular dumps lose their costandard: the derived path, never kl_basis
    "klv-files": tuple(
        JobSpec(
            "klv",
            name,
            from_file=True,
            keep_costandard=name in SL2,
            golden=_KLV_GOLDEN.get(name),
        )
        for name in SL2 + tuple(map(_hr, HR))
    ),
    # full Ext/IC sweep on dumps that keep the given costandard
    "ext-sweep": tuple(
        JobSpec(
            "ext",
            name,
            from_file=True,
            golden="sl2N_ext.csv" if name == "sl2-N" else None,
        )
        for name in SL2 + (_hr("G2"), _hr("A3"), _hr("C3"))
    ),
}


# ---------------------------------------------------------------- relabelling


class _Ids:
    """Fresh random ids, unique within one datum."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        alphabet = string.ascii_lowercase + string.digits
        while True:
            token = "x" + "".join(self.rng.choice(alphabet) for _ in range(7))
            if token not in self.used:
                self.used.add(token)
                return token


def _relabel_descriptor(desc: dict, p: dict) -> dict:
    out = {}
    for field, value in desc.items():
        if field in ("up", "down", "cross", "partner"):
            out[field] = p[value]
        elif field in ("ups", "downs"):
            out[field] = [p[v] for v in value]
        elif field == "coeffs":
            out[field] = {p[k]: v for k, v in value.items()}
        else:
            out[field] = value
    return out


def relabel(obj: dict, rng: random.Random | None, name: str) -> tuple[dict, dict[str, str]]:
    """Datum JSON with fresh ids and shuffled lists, plus new id -> old id.

    rng=None keeps every id and order, which is how the reference is made.
    """
    ids = _Ids(rng) if rng is not None else None
    o = {x["id"]: (ids.fresh() if ids else x["id"]) for x in obj["orbits"]}
    p = {x["id"]: (ids.fresh() if ids else x["id"]) for x in obj["params"]}

    def shuffled(seq):
        seq = list(seq)
        if rng is not None:
            rng.shuffle(seq)
        return seq

    out = {
        "name": name,
        "coxeter": obj["coxeter"],
        "orbits": shuffled({**x, "id": o[x["id"]]} for x in obj["orbits"]),
        "closure": shuffled([o[lo], o[hi]] for lo, hi in obj["closure"]),
        "params": shuffled({**x, "id": p[x["id"]], "orbit": o[x["orbit"]]} for x in obj["params"]),
        "actions": {
            s: {p[pid]: _relabel_descriptor(desc, p) for pid, desc in shuffled(rows.items())}
            for s, rows in obj["actions"].items()
        },
        "poincare": {p[pid]: series for pid, series in shuffled(obj["poincare"].items())},
    }
    if "costandard" in obj:
        out["costandard"] = {
            p[col]: {p[row]: poly for row, poly in shuffled(rows.items())}
            for col, rows in shuffled(obj["costandard"].items())
        }
    return out, {new: old for old, new in p.items()}


def write_inputs(workload: str, seed: int | None, directory: Path) -> list[dict]:
    """Write the workload's datum files; returns the job manifest."""
    from klvwb import datum as dm

    rng = random.Random(seed) if seed is not None else None
    jobs = []
    for n, spec in enumerate(WORKLOADS[workload]):
        path, back = None, {}
        if spec.from_file:
            obj = dm.builtin_datum(spec.builtin).to_jsonable()
            if not spec.keep_costandard:
                del obj["costandard"]
            name = spec.builtin if seed is None else f"datum-{seed}-{n}"
            relabelled, back = relabel(obj, rng, name)
            path = directory / f"{n:02d}.json"
            path.write_text(json.dumps(relabelled, indent=1) + "\n", encoding="utf-8")
            path = str(path)
        source = ["--datum", path] if path else ["--builtin", spec.builtin]
        jobs.append(
            {
                "key": spec.key,
                "verb": spec.verb,
                "argv": [spec.verb, *source, "--format", "csv"],
                "path": path,
                "back": back,
                "golden": spec.golden,
            }
        )
    return jobs


# ------------------------------------------------------------ correctness gate


def canonical(verb: str, text: str, back: dict[str, str]) -> str:
    """Output with ids mapped back to the builtin's and the rows sorted.

    klv and ext rows start with two parameter ids (the IC rows of ext leave
    the second empty); check output has no ids and keeps its fixed order.
    """
    if verb == "check":
        return text
    lines = text.splitlines()
    rows = []
    for line in lines[1:]:
        a, b, rest = line.split(",", 2)
        rows.append(",".join((back.get(a, a), back.get(b, b), rest)))
    return "\n".join([lines[0]] + sorted(rows)) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def judge(job: dict, rc: int, out: str, reference: dict[str, str]) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    canon = canonical(job["verb"], out, job["back"])
    if digest(canon) != reference.get(job["key"]):
        return "digest differs from the reference"
    if job["verb"] == "check":
        rows = out.splitlines()[1:]
        if not rows or any(not r.startswith("PASS,") for r in rows):
            return "a check line does not read PASS"
    if job["golden"]:
        gold = (GOLDEN / job["golden"]).read_text(encoding="utf-8")
        if canonical(job["verb"], gold, {}) != canon:
            return f"differs from tests/golden/{job['golden']}"
    return None


def record_reference() -> dict[str, str]:
    """Digests of every job on the un-relabelled dumps."""
    import contextlib
    import io
    import tempfile

    from klvwb import cli

    ref = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for workload in WORKLOADS:
            for job in write_inputs(workload, None, Path(tmp)):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(job["argv"])
                if rc != 0:
                    raise SystemExit(f"{job['key']}: exit code {rc}")
                ref[job["key"]] = digest(canonical(job["verb"], buf.getvalue(), {}))
    return ref


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    REFERENCE.write_text(json.dumps(record_reference(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
