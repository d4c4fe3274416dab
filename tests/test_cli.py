import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from klvwb import cli
from klvwb import datum as dm
from klvwb.cli import MAX_WINDOW, main
from klvwb.errors import DatumFormatError, UnsupportedType
from klvwb.laurent import MAX_QUOTIENT_TERMS
from test_hmodule import _relabelled

GOLDEN = Path(__file__).parent / "golden"


def run_to_file(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "builtin"
    assert set(lines[1:]) == set(dm.BUILTIN_NAMES)


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["klv", "--builtin", "sl2-T", "--format", "csv"], "sl2T_klv.csv"),
        (["klv", "--builtin", "sl2-N", "--format", "csv"], "sl2N_klv.csv"),
        (["klv", "--builtin", "hecke-regular:A2", "--format", "csv"], "hrA2_klv.csv"),
        (["ext", "--builtin", "hecke-regular:A1", "--format", "csv"], "hrA1_ext.csv"),
        (["ext", "--builtin", "sl2-N", "--format", "csv"], "sl2N_ext.csv"),
        (
            ["cexp", "--builtin", "sl2-T", "--word", "1", "--format", "csv"],
            "sl2T_cexp_s.csv",
        ),
        (["check", "--builtin", "hecke-regular:G2", "--format", "csv"], "hrG2_check.csv"),
        (["check", "--builtin", "hecke-regular:A3", "--format", "csv"], "hrA3_check.csv"),
        (["klv", "--builtin", "hecke-regular:A1", "--format", "csv"], "hrA1_klv.csv"),
        (["ext", "--builtin", "hecke-regular:B2", "--format", "csv"], "hrB2_ext.csv"),
        (
            ["act", "--builtin", "hecke-regular:B2", "--param", "2", "--word", "1,2,1",
             "--basis", "C"],
            "hrB2_act_C121.txt",
        ),
        (["ext", "--builtin", "hecke-regular:B2", "--format", "json"], "hrB2_ext.json"),
        (["ext", "--builtin", "hecke-regular:B2", "--format", "table"], "hrB2_ext.txt"),
    ],
)
def test_golden_outputs(tmp_path, argv, golden):
    code, body = run_to_file(tmp_path, argv)
    assert code == 0
    assert body == (GOLDEN / golden).read_bytes()


# Planted descriptor faults, each a set of rows swapped into one generator's
# action table.  The golden `validate` output pins every detail string of the
# mirroring rules and the order in which the problems are reported.
PLANTED_FAULTS = {
    "fault_ascentU_validate.csv": (
        "hecke-regular:A2", "2", {"e": {"case": "AscentU", "up": "e"}},
    ),
    "fault_descentU_validate.csv": (
        "hecke-regular:A1", "1", {"1": {"case": "DescentU", "down": "1"}},
    ),
    "fault_ascentT_validate.csv": (
        "sl2-T",
        "1",
        {
            "p0": {"case": "AscentT", "cross": "ws", "up": "p0"},
            "pInf": {"case": "AscentT", "cross": "pInf", "up": "wt"},
        },
    ),
    "fault_descentT_validate.csv": (
        "sl2-T", "1", {"wt": {"case": "DescentT", "downs": ["ws", "ws"]}},
    ),
    "fault_ascentN_validate.csv": (
        "sl2-N", "1", {"u": {"case": "AscentN", "ups": ["u", "wp"]}},
    ),
    "fault_descentN_validate.csv": (
        "sl2-N",
        "1",
        {
            "wp": {"case": "DescentN", "partner": "wp", "down": "wm"},
            "wm": {"case": "DescentN", "partner": "u", "down": "u"},
        },
    ),
}


@pytest.mark.parametrize("golden", sorted(PLANTED_FAULTS))
def test_validate_planted_fault_golden(tmp_path, golden):
    builtin, gen, rows = PLANTED_FAULTS[golden]
    obj = dm.builtin_datum(builtin).to_jsonable()
    obj["actions"][gen].update(rows)
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, body = run_to_file(tmp_path, ["validate", "--datum", str(path), "--format", "csv"])
    assert code == 1
    assert body == (GOLDEN / golden).read_bytes()


def test_check_reports_a_non_involutive_duality_on_its_validation_line(tmp_path):
    # beta^2 = id is tested once, by validation; the suites never run here
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["costandard"]["ws"] = {"ws": "1", "p0": "1"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, body = run_to_file(tmp_path, ["check", "--datum", str(path), "--format", "csv"])
    assert code == 1
    assert body == (
        b"status,suite,detail\n"
        b"FAIL,validation,costandard-involution: beta^2 != id at ws\n"
    )


def test_klv_csv_has_expected_rows(tmp_path):
    code, body = run_to_file(tmp_path, ["klv", "--builtin", "sl2-T", "--format", "csv"])
    assert code == 0
    lines = body.decode().splitlines()
    assert "p0,wt,1" in lines
    assert "ws,ws,1" in lines
    assert sum(1 for line in lines if line.startswith("ws,")) == 1
    assert sum(1 for line in lines if ",ws," in line) == 1


def test_json_mirrors_csv(tmp_path):
    code_csv, csv_body = run_to_file(
        tmp_path, ["klv", "--builtin", "sl2-N", "--format", "csv"], "a.csv"
    )
    code_json, json_body = run_to_file(
        tmp_path, ["klv", "--builtin", "sl2-N", "--format", "json"], "a.json"
    )
    assert code_csv == code_json == 0
    header, *rows = csv_body.decode().splitlines()
    keys = header.split(",")
    from_csv = [dict(zip(keys, row.split(","))) for row in rows]
    assert json.loads(json_body) == from_csv


def test_validate_builtin_ok(capsys):
    assert main(["validate", "--builtin", "sl2-T"]) == 0
    out = capsys.readouterr().out
    assert "datum sl2-T: VALID" in out
    assert "thm-order-reachability" in out


def test_validate_broken_file_reports_reachability(tmp_path, capsys):
    obj = dm.builtin_datum("sl2-N").to_jsonable()
    obj["actions"]["1"]["u"] = {"case": "CompactG"}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["validate", "--datum", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "thm-order-reachability" in out


def test_validate_file_with_missing_row_exits_1(tmp_path, capsys):
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    del obj["actions"]["1"]["ws"]
    broken = tmp_path / "missing.json"
    broken.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["validate", "--datum", str(broken)]) == 1
    assert "invalid datum" in capsys.readouterr().err


def _assert_one_invalid_datum_line(code, captured):
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("klvwb: invalid datum:"), lines
    return lines[0]


@pytest.mark.parametrize(
    "where,value",
    [
        (("name",), 7),
        (("orbits", 0, "dim"), "x"),
        (("poincare",), []),
        (("costandard",), []),
        (("params", 0, "id"), ["p0"]),
        (("params", 0, "orbit"), ["0"]),
        (("params", 0, "local_system"), ["triv"]),
        (("coxeter",), {"cartan": [[2, "x"], [-1, 2]]}),
        (("coxeter",), {"cartan": 5}),
        (("coxeter",), {"cartan": "A1"}),
        (("coxeter",), {"type": [[2]]}),
        (("coxeter",), {"cartan": [["2"]]}),
        (("actions", "1", "p0"), {"case": "AscentT", "cross": ["pInf"], "up": "wt"}),
        (("actions", "1", "wt"), {"case": "DescentT", "downs": [["p0"], "pInf"]}),
        (("actions", "1", "wt"), {"case": "DescentT", "downs": ["p0", "pInf", "p0"]}),
        (("actions", "1", "p0"), {"case": "AscentT", "cross": "pInf", "up": 3}),
        (("orbits",), 5),
        (("closure",), 5),
        (("params",), 5),
        (("params", 0), "p0"),
        (("closure", 0), [["0"], "w"]),
        (("orbits", 0, "dim"), 1.7),
        (("orbits", 0, "dim"), "1"),
        (("orbits", 0, "dim"), True),
        (("orbits", 0, "closed"), "false"),
        (("orbits", 0, "closed"), 1),
        # parse errors of polynomials and series, reported at their entry
        (("costandard", "wt", "p0"), 5),
        pytest.param(("costandard", "wt", "p0"), "q^" + "1" * 5000, id="where27-long-exponent"),
        (("poincare", "ws"), 5),
        (("poincare", "ws"), {"num": "1-", "den": []}),
        (("poincare", "ws"), {"num": "1", "den": [0]}),
        (("actions", "1", "ws"), {"case": "ExplicitRow", "coeffs": {"ws": "x"}}),
    ],
)
def test_hostile_datum_is_rejected_cleanly(tmp_path, capsys, where, value):
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    *parents, key = where
    target = obj
    for k in parents:
        target = target[k]
    target[key] = value
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(DatumFormatError):
        dm.load_datum(path.read_text(encoding="utf-8"))
    code = main(["check", "--datum", str(path), "--format", "csv"])
    _assert_one_invalid_datum_line(code, capsys.readouterr())


def test_a_boolean_poincare_denominator_is_refused(tmp_path, capsys):
    # JSON true is a Python int subclass; it once read as the factor (1 - q)
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["poincare"]["ws"] = {"num": "1", "den": [True]}
    path = tmp_path / "bool_den.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert '"den": [true]' in path.read_text(encoding="utf-8")
    line = _assert_one_invalid_datum_line(
        main(["validate", "--datum", str(path)]), capsys.readouterr()
    )
    assert line == "klvwb: invalid datum: poincare['ws']: bad series denominator [True]"


def test_file_that_is_not_utf8_is_rejected_cleanly(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    text = json.dumps(dm.builtin_datum("sl2-T").to_jsonable())
    path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    line = _assert_one_invalid_datum_line(
        main(["validate", "--datum", str(path)]), capsys.readouterr()
    )
    assert "can't decode byte 0xff" in line


def test_deeply_nested_json_is_rejected_cleanly(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 1000 + "]" * 1000, encoding="utf-8")
    line = _assert_one_invalid_datum_line(
        main(["validate", "--datum", str(path)]), capsys.readouterr()
    )
    assert line.startswith("klvwb: invalid datum: invalid JSON: maximum recursion depth")


def _child_env() -> dict:
    """The environment of a child interpreter that imports this klvwb."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_long_series_quotient_is_refused_in_bounded_memory(tmp_path):
    # 1 - q^N over (1 - q) reduces to N terms: about 10 GB for this file of
    # under 1 KB.  The child's address space is capped, so a regression
    # fails this test instead of exhausting the host.
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["poincare"]["ws"] = {"num": "1-q^100000000", "den": [1]}
    path = tmp_path / "long_quotient.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from klvwb.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, "validate", "--datum", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr[-2000:]
    assert proc.stderr.splitlines() == [
        "klvwb: invalid datum: poincare['ws']: dividing by (1-q^1) would give "
        f"100000000 terms, more than {MAX_QUOTIENT_TERMS}"
    ]


def test_an_id_with_a_newline_gives_one_error_line(tmp_path, capsys):
    # the id once reached the MissingDescriptor message raw, which printed
    # a second, forged "klvwb:" line
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["params"].append({"id": "x\nklvwb: forged", "orbit": "w", "local_system": "other"})
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["validate", "--datum", str(path)])
    line = _assert_one_invalid_datum_line(code, capsys.readouterr())
    assert line == (
        "klvwb: invalid datum: params[4]: id 'x\\nklvwb: forged' holds a comma or a "
        "control character"
    )


# ------------------------------------------------------------ fuzz property

_FUZZ_BASES = {
    name: dm.builtin_datum(name).to_jsonable()
    for name in ("sl2-T", "sl2-N", "hecke-regular:A1", "hecke-regular:A2")
}
# wrong types, ids that exist and ids that do not, ids that would break a
# line or a CSV field, malformed polynomials and series, and a numerator
# whose quotient would be long
_HOSTILE = st.sampled_from([
    None, True, 0, -1, 7, 1.5, 10**30, "", "x", "p0", "e", "1", "w", "q^-1", "1-",
    "1-q^1000000", [], ["p0", "wt"], {}, {"case": "CompactG"}, {"case": "AscentU"},
    {"num": "1", "den": [1]}, {"num": "1-q^1000000", "den": [1]}, {"den": [0]},
    "x\nklvwb: forged", "p0,wt", "w\r",
])


def _nodes(node, path=()):
    """The path of every value inside node, node itself excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


@st.composite
def _mutated_dumps(draw):
    """A builtin dump with one key deleted, one value replaced from the
    hostile pool, or one key added to an object."""
    obj = json.loads(json.dumps(_FUZZ_BASES[draw(st.sampled_from(sorted(_FUZZ_BASES)))]))
    *parents, key = draw(st.sampled_from(list(_nodes(obj))))
    parent = obj
    for k in parents:
        parent = parent[k]
    op = draw(st.sampled_from(["delete", "replace", "add"]))
    if op == "delete":
        del parent[key]
    elif op == "add" and isinstance(parent[key], dict):
        parent[key][draw(st.sampled_from(["ghost", "p0", "e", "num"]))] = draw(_HOSTILE)
    else:
        parent[key] = draw(_HOSTILE)
    return json.dumps(obj)


@settings(
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_mutated_dumps())
def test_mutated_dumps_load_or_fail_cleanly(tmp_path, text):
    try:
        assert isinstance(dm.load_datum(text), dm.OrbitDatum)
    except (DatumFormatError, UnsupportedType):
        pass
    path = tmp_path / "mutated.json"
    path.write_text(text, encoding="utf-8")
    for verb in ("check", "klv"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([verb, "--datum", str(path)])
        assert code in (0, 1, 2, 3)
        assert sum(line.startswith("klvwb:") for line in err.getvalue().splitlines()) <= 1


def test_klv_missing_costandard_exits_2(tmp_path, capsys):
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    del obj["costandard"]
    stripped = tmp_path / "nocost.json"
    stripped.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["klv", "--datum", str(stripped)]) == 2
    assert "computation failed" in capsys.readouterr().err


def test_usage_errors_exit_3(capsys):
    assert main(["act", "--builtin", "sl2-T", "--param", "nope"]) == 3
    assert main(["klv"]) == 3
    assert main(["bogus-command"]) == 3
    assert main(["klv", "--builtin", "no-such-builtin"]) == 3
    assert main(["ext", "--builtin", "sl2-T", "--gamma", "wt"]) == 3
    assert main(["act", "--builtin", "sl2-T", "--param", "p0", "--word", "x"]) == 3
    assert main(["ext", "--builtin", "sl2-T", "--window", "-1"]) == 3
    assert main(["check", "--builtin", "sl2-T", "--window", "-1"]) == 3
    too_wide = str(MAX_WINDOW + 1)
    assert main(["ext", "--builtin", "sl2-T", "--window", too_wide]) == 3
    assert main(["check", "--builtin", "sl2-T", "--window", too_wide]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("klvwb:")][-1] == (
        f"klvwb: usage error: argument --window: must be at most {MAX_WINDOW}, got {too_wide}"
    )
    assert main(["ext", "--builtin", "sl2-T", "--window", str(MAX_WINDOW)]) == 0
    capsys.readouterr()


def test_act_token_word_reduces(capsys):
    # a non-reduced word names the element it reduces to: C[1,1] is C[e]
    assert main(["act", "--builtin", "sl2-T", "--param", "wt", "--word", "1,1", "--basis", "C"]) == 0
    out = capsys.readouterr().out
    assert out == "C[1,1] . m[wt] = + 1*m[wt]\n"


def test_act_output(capsys):
    assert main(["act", "--builtin", "sl2-T", "--param", "p0", "--word", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "T[1] . m[p0] = + 1*m[pInf] + 1*m[wt]\n"
    assert (
        main(
            ["act", "--builtin", "sl2-T", "--param", "ws", "--word", "1", "--basis", "C"]
        )
        == 0
    )
    assert capsys.readouterr().out == "C[1] . m[ws] = 0\n"


def test_check_builtin_passes_and_is_deterministic(tmp_path):
    code1, body1 = run_to_file(
        tmp_path, ["check", "--builtin", "sl2-N"], "check1.txt"
    )
    code2, body2 = run_to_file(
        tmp_path, ["check", "--builtin", "sl2-N"], "check2.txt"
    )
    assert code1 == code2 == 0
    assert body1 == body2
    assert b"FAIL" not in body1


def test_check_reports_failures(tmp_path):
    obj = dm.builtin_datum("sl2-N").to_jsonable()
    obj["actions"]["1"]["u"] = {"case": "CompactG"}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(obj), encoding="utf-8")
    code, body = run_to_file(tmp_path, ["check", "--datum", str(broken)])
    assert code == 1
    assert b"FAIL" in body and b"validation" in body


@pytest.mark.parametrize("costandard", [True, False])
def test_check_skips_the_cross_oracle_on_a_relabelled_dump(tmp_path, capsys, costandard):
    # the name still says hecke-regular, but no column id is an element token
    obj = _relabelled(dm.builtin_datum("hecke-regular:A1").to_jsonable(), random.Random(3))
    if not costandard:
        del obj["costandard"]
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check", "--datum", str(path), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "PASS,cross-oracle,parameter ids are not the element tokens; skipped" in lines
    assert [line[:4] for line in lines[1:]] == ["PASS"] * 8
    assert "Traceback" not in captured.err


def test_ext_single_pair(capsys):
    assert (
        main(
            [
                "ext",
                "--builtin",
                "hecke-regular:A1",
                "--tau",
                "e",
                "--gamma",
                "1",
                "--format",
                "csv",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tau,gamma,series,first_degrees"
    assert out[1].startswith("e,1,q/(1-q),")


def test_ext_ic_mode(capsys):
    assert main(["ext", "--builtin", "sl2-T", "--tau", "ws", "--format", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "ws,,1,-1:1"


def test_cached_parser_matches_fresh_parsers(capsys):
    # one parser serves every call in a process; each outcome must be what
    # a parser built for that call alone gives
    runs = [
        ["klv", "--builtin", "sl2-T", "--format", "csv"],
        ["klv", "--format", "csv"],
        ["ext", "--builtin", "sl2-T", "--window", "-1"],
        ["ext", "--builtin", "sl2-T", "--format", "csv", "--window", "3"],
    ]

    def outcomes(fresh):
        got = []
        for argv in runs:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            out = capsys.readouterr()
            got.append((code, out.out, out.err))
        return got

    cached = outcomes(fresh=False)
    assert cached == outcomes(fresh=True)
    assert [code for code, _, _ in cached] == [0, 3, 3, 0]
    assert "must be a non-negative integer" in cached[2][2]
    assert cli._build_parser() is cli._build_parser()


def test_datum_is_freed_when_the_command_returns(monkeypatch, capsys):
    # the memoized tables refer back to their datum; main drops them, so the
    # datum goes with its last reference, not at a later cyclic collection
    refs = []
    build = dm.builtin_datum

    def recording(name):
        d = build(name)
        refs.append(weakref.ref(d))
        return d

    monkeypatch.setattr(dm, "builtin_datum", recording)
    runs = [
        ["klv", "--builtin", "hecke-regular:A2"],
        ["check", "--builtin", "sl2-T"],
        ["ext", "--builtin", "sl2-N", "--format", "csv"],
        ["ext", "--builtin", "sl2-N", "--tau", "nope"],
    ]
    gc.disable()
    try:
        codes = [main(argv) for argv in runs]
        # read before the collector runs again
        freed = [ref() is None for ref in refs]
    finally:
        gc.enable()
    capsys.readouterr()
    assert codes == [0, 0, 0, 3]
    assert freed == [True] * len(runs)


# Modules that start-up leaves out: dataclasses and inspect would be pure
# import cost, and checks and extseries serve one command each.
_DEFERRED = {"dataclasses", "inspect", "klvwb.checks", "klvwb.extseries"}


def _loaded_by(argv, out):
    """The modules a fresh interpreter loads for `import klvwb.cli` and then,
    when argv is given, for main(argv) writing to out."""
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from klvwb.cli import main\n"
        "out, argv = sys.argv[1], sys.argv[2:]\n"
        "code = main([*argv, '--out', out]) if argv else 0\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, str(out), *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.split())


def test_importing_the_cli_defers_what_only_some_commands_need(tmp_path):
    path = tmp_path / "sl2T.json"
    path.write_text(json.dumps(dm.builtin_datum("sl2-T").to_jsonable()), encoding="utf-8")
    out = tmp_path / "out.txt"
    bare = _loaded_by([], out)
    assert "klvwb.cli" in bare
    assert not bare & _DEFERRED
    for verb in ("klv", "validate"):
        assert not _loaded_by([verb, "--datum", str(path)], out) & _DEFERRED, verb
    assert "klvwb.checks" in _loaded_by(["check", "--datum", str(path)], out)
    assert "klvwb.extseries" in _loaded_by(["ext", "--datum", str(path)], out)
