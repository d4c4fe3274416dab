import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klvwb import datum as dm
from klvwb import hmodule as hm
from klvwb.errors import (
    DatumError,
    DatumFormatError,
    MissingDescriptor,
    UnsupportedType,
)
from klvwb.laurent import ONE, parse_poly, render_poly

GOLDEN = Path(__file__).parent / "golden"


def clone(d, **overrides):
    """Rebuild a datum with some fields replaced (mutation helper)."""
    kwargs = dict(
        name=d.name,
        coxeter_spec=d.coxeter_spec,
        orbits=d.orbits,
        closure_pairs=d.closure_pairs,
        params=d.params,
        actions={s: dict(rows) for s, rows in d.actions.items()},
        costandard=d.costandard,
        poincare=d.poincare,
    )
    kwargs.update(overrides)
    return dm.OrbitDatum(**kwargs)


def failed_names(d):
    return dm.validate_datum(d).failed_names()


def test_builtins_all_validate():
    for name in dm.BUILTIN_NAMES:
        report = dm.validate_datum(dm.builtin_datum(name))
        assert report.ok, (name, report.failed_names())


def test_builtin_shapes():
    t = dm.builtin_datum("sl2-T")
    assert len(t.params) == 4 and len(t.orbits) == 3
    n = dm.builtin_datum("sl2-N")
    assert len(n.params) == 3 and len(n.orbits) == 2
    a1 = dm.builtin_datum("hecke-regular:A1")
    assert [p.id for p in a1.basis] == ["e", "1"]
    assert isinstance(a1.descriptor(0, "e"), dm.AscentU)
    assert isinstance(a1.descriptor(0, "1"), dm.DescentU)


def test_builtin_unknown_name():
    with pytest.raises(UnsupportedType):
        dm.builtin_datum("sl3-X")


def _compact_explicit_datum():
    """sl2-T times a second A1 factor acting by T = q on every parameter,
    with the sign row written as an ExplicitRow: the builtins use neither
    CompactG nor ExplicitRow."""
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["name"] = "sl2-T-x-compact"
    obj["coxeter"] = {"cartan": [[2, 0], [0, 2]]}
    obj["actions"]["1"]["ws"] = {"case": "ExplicitRow", "coeffs": {"ws": "-1"}}
    obj["actions"]["2"] = {p["id"]: {"case": "CompactG"} for p in obj["params"]}
    return dm.load_datum(json.dumps(obj))


def test_round_trip_serialization():
    datums = [dm.builtin_datum(n) for n in ["sl2-T", "sl2-N", "hecke-regular:A2"]]
    datums.append(_compact_explicit_datum())
    for d in datums:
        loaded = dm.load_datum(dm.dump_datum(d))
        assert loaded == d
        assert dm.validate_datum(loaded).ok
    # the file form of every descriptor family, byte for byte
    dumps = "".join(dm.dump_datum(d) for d in datums)
    assert dumps == (GOLDEN / "descriptor_dumps.txt").read_text(encoding="utf-8")


def test_load_rejects_missing_action_row():
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    del obj["actions"]["1"]["p0"]
    with pytest.raises(MissingDescriptor):
        dm.load_datum(json.dumps(obj))


def test_load_rejects_unknown_coxeter_label():
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["coxeter"] = {"type": "H3"}
    with pytest.raises(UnsupportedType):
        dm.load_datum(json.dumps(obj))
    # a well-formed Cartan matrix of affine type A1~
    obj["coxeter"] = {"cartan": [[2, -2], [-2, 2]]}
    with pytest.raises(UnsupportedType):
        dm.load_datum(json.dumps(obj))


def test_load_rejects_schema_problems():
    base = dm.builtin_datum("sl2-T").to_jsonable()

    obj = json.loads(json.dumps(base))
    obj["params"].append({"id": "p0", "orbit": "0", "local_system": "x"})
    with pytest.raises(DatumFormatError, match="duplicate parameter id"):
        dm.load_datum(json.dumps(obj))

    obj = json.loads(json.dumps(base))
    obj["params"].append({"id": "px", "orbit": "nowhere", "local_system": "x"})
    with pytest.raises(DatumFormatError, match="unknown orbit"):
        dm.load_datum(json.dumps(obj))

    obj = json.loads(json.dumps(base))
    obj["actions"]["1"]["p0"] = {"case": "AscentU", "up": "ghost"}
    with pytest.raises(DatumFormatError, match="dangling"):
        dm.load_datum(json.dumps(obj))

    obj = json.loads(json.dumps(base))
    del obj["poincare"]["ws"]
    with pytest.raises(DatumFormatError, match="poincare"):
        dm.load_datum(json.dumps(obj))

    with pytest.raises(DatumFormatError, match="invalid JSON"):
        dm.load_datum("{not json")


def test_validation_detects_deleted_ascent_row():
    d = dm.builtin_datum("sl2-T")
    actions = {0: dict(d.actions[0])}
    del actions[0]["p0"]
    bad = clone(d, actions=actions)
    assert "thm-order-reachability" in failed_names(bad)


def test_validation_detects_unreachable_orbit():
    # replace the only ascent of sl2-N by a neutral row: orbit w unreachable
    d = dm.builtin_datum("sl2-N")
    actions = {0: dict(d.actions[0])}
    actions[0]["u"] = dm.CompactG()
    bad = clone(d, actions=actions)
    report = dm.validate_datum(bad)
    failing = {c.name for c in report.checks if not c.passed}
    assert "thm-order-reachability" in failing
    reach = next(c for c in report.checks if c.name == "thm-order-reachability")
    assert "unreachable" in reach.detail


def test_validation_detects_corrupted_coefficient():
    # q-2 becomes q-3 in the T-action on the open trivial parameter
    d = dm.builtin_datum("sl2-T")
    actions = {0: dict(d.actions[0])}
    actions[0]["wt"] = dm.ExplicitRow(
        coeffs=(
            ("p0", parse_poly("-1+q")),
            ("pInf", parse_poly("-1+q")),
            ("wt", parse_poly("-3+q")),
        )
    )
    bad = clone(d, actions=actions)
    assert "quadratic-relation" in failed_names(bad)


def test_validation_detects_broken_mirror():
    d = dm.builtin_datum("sl2-N")
    actions = {0: dict(d.actions[0])}
    actions[0]["wp"] = dm.DescentN(partner="wp", down="u")
    bad = clone(d, actions=actions)
    assert "link-mirroring" in failed_names(bad)


def test_validation_detects_dim_closure_conflict():
    d = dm.builtin_datum("sl2-N")
    bad = clone(d, closure_pairs=(("u", "w"), ("w", "u")))
    assert "dim-closure-consistency" in failed_names(bad)


def test_validation_detects_bad_poincare():
    d = dm.builtin_datum("sl2-N")
    poincare = dict(d.poincare)
    poincare["u"] = dm.PoincareSeries(parse_poly("2"), [1])
    bad = clone(d, poincare=poincare)
    assert "poincare-normalization" in failed_names(bad)


def test_negative_poincare_exponent_is_flagged_without_expansion(monkeypatch):
    # the constant-term test would expand from q^-10000000 up to q^0
    def no_expand(self, lo, hi):
        raise AssertionError("expand called")

    monkeypatch.setattr(dm.PoincareSeries, "expand", no_expand)
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["poincare"]["p0"] = {"num": "q^-10000000", "den": [1]}
    report = dm.validate_datum(dm.load_datum(json.dumps(obj)))
    assert report.failed_names() == ["poincare-normalization"]
    assert report.checks[-1].detail == "poincare[p0] has negative exponents"


def test_validation_detects_non_involutive_costandard():
    d = dm.builtin_datum("sl2-T")
    costd = {k: dict(v) for k, v in d.costandard.items()}
    costd["ws"] = {"ws": parse_poly("1"), "p0": parse_poly("1")}
    bad = clone(d, costandard=costd)
    assert "costandard-involution" in failed_names(bad)


def test_s_star_examples():
    t = dm.builtin_datum("sl2-T")
    assert dm.s_star(t, 0, "0") == "w"
    assert dm.s_star(t, 0, "w") == "w"
    a1 = dm.builtin_datum("hecke-regular:A1")
    assert dm.s_star(a1, 0, "e") == "1"
    with pytest.raises(DatumError):
        dm.s_star(t, 0, "ghost")


def test_s_star_idempotent_over_builtins():
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        for s in range(d.coxeter.rank):
            for o in d.orbits:
                w = dm.s_star(d, s, o.id)
                assert dm.s_star(d, s, w) == w


def test_s_star_conflicting_targets():
    d = dm.builtin_datum("sl2-T")
    orbits = list(d.orbits) + [dm.OrbitInfo("w2", 1, False)]
    params = list(d.params) + [dm.Parameter("x2", "w2", "triv", 1)]
    actions = {0: dict(d.actions[0])}
    # p0 claims to ascend to both open orbits at once
    actions[0]["p0"] = dm.ExplicitRow(
        coeffs=(("wt", parse_poly("1")), ("x2", parse_poly("1")))
    )
    actions[0]["x2"] = dm.CompactG()
    poincare = dict(d.poincare)
    poincare["x2"] = d.poincare["wt"]
    bad = clone(
        d,
        orbits=orbits,
        params=params,
        actions=actions,
        costandard=None,
        poincare=poincare,
        closure_pairs=d.closure_pairs + (("0", "w2"),),
    )
    with pytest.raises(DatumError):
        dm.s_star(bad, 0, "0")


def test_descriptor_columns_keep_entry_order():
    # no output shows the order of a T_s column's entries; this pins it
    cases = [
        (dm.CompactG(), [("a", "q")]),
        (dm.AscentU(up="u"), [("u", "1")]),
        (dm.DescentU(down="d"), [("d", "q"), ("a", "-1+q")]),
        (dm.AscentT(cross="c", up="u"), [("c", "1"), ("u", "1")]),
        (dm.DescentT(downs=("d", "e")), [("d", "-1+q"), ("e", "-1+q"), ("a", "-2+q")]),
        (dm.DescentTNonParity(), [("a", "-1")]),
        (dm.AscentN(ups=("u", "v")), [("a", "1"), ("u", "1"), ("v", "1")]),
        (dm.DescentN(partner="p", down="d"), [("d", "-1+q"), ("a", "-1+q"), ("p", "-1")]),
        (
            dm.ExplicitRow(coeffs=(("z", parse_poly("q")), ("b", parse_poly("0")), ("a", ONE))),
            [("z", "q"), ("a", "1")],
        ),
    ]
    for desc, want in cases:
        assert [(t, render_poly(c)) for t, c in desc.column("a")] == want, desc


def test_explicit_row_datum_end_to_end():
    # the escape hatch: rewrite every sl2-T descriptor as a raw row and the
    # whole pipeline (validation, solver, ascent inference) must agree
    from klvwb import hmodule as hm
    from klvwb import klv
    from klvwb.laurent import render_poly

    base = dm.builtin_datum("sl2-T")
    table = hm.build_action_table(base)
    obj = base.to_jsonable()
    obj["name"] = "sl2-T-explicit"
    for s in range(base.coxeter.rank):
        for p in base.params:
            col = table.columns[s][p.id]
            obj["actions"][str(s + 1)][p.id] = {
                "case": "ExplicitRow",
                "coeffs": {t: render_poly(c) for t, c in col},
            }
    d = dm.load_datum(json.dumps(obj))
    assert dm.validate_datum(d).ok
    assert dm.s_star(d, 0, "0") == "w"
    got = {k: dict(v.coords) for k, v in klv.klv_table(d).columns.items()}
    want = {k: dict(v.coords) for k, v in klv.klv_table(base).columns.items()}
    assert got == want


def test_hecke_regular_closure_is_bruhat():
    d = dm.builtin_datum("hecke-regular:A2")
    sys = d.coxeter
    for x in sys.elements():
        for y in sys.elements():
            assert d.leq_orbits(
                sys.element_token(x), sys.element_token(y)
            ) == sys.leq_bruhat(x, y)


def test_hecke_regular_other_types_validate():
    for label in ["G2", "C3", "D4"]:
        d = dm.builtin_datum(f"hecke-regular:{label}")
        report = dm.validate_datum(d)
        assert report.ok, (label, report.failed_names())


# ------------------------------------------------------------------ oracles


def _dense_costandard_check(d):
    """costandard-involution with beta^2 = id tested on every basis vector."""
    table, origin = hm.costandard_table(d)
    problems = []
    for col, rows in table.items():
        if rows.get(col) != ONE:
            problems.append(f"n[{col}] diagonal is not 1")
        for row in rows:
            if row != col and d.param_by_id[row].dim >= d.param_by_id[col].dim:
                problems.append(f"n[{col}] has non-lower term at {row}")
    if not problems:
        for p in d.params:
            v = hm.basis_vector(d, p.id)
            if hm.beta(hm.beta(v, d), d) != v:
                problems.append(f"beta^2 != id at {p.id}")
    return dm.CheckResult.of("costandard-involution", problems, f"table {origin}")


def _dense_compatibility_problems(d):
    """The T_s-compatibility gate on ModuleVectors, one beta per side."""
    table = hm.build_action_table(d)
    problems = {}
    for p in d.params:
        v = hm.basis_vector(d, p.id)
        bv = hm.beta(v, d)
        problems[p.id] = [
            f"beta(T{s + 1} m[{p.id}]) != bar(T{s + 1}) beta(m[{p.id}])"
            for s in range(d.coxeter.rank)
            if hm.beta(table.apply(s, v), d) != hm._bar_ts_apply(table, s, bv)
        ]
    return problems


@st.composite
def _costandard_perturbations(draw):
    """A builtin's dump with one costandard entry set to a small polynomial
    (zero deletes it)."""
    name = draw(st.sampled_from(
        ["sl2-T", "sl2-N", "hecke-regular:A1", "hecke-regular:A2", "hecke-regular:B2"]
    ))
    obj = dm.builtin_datum(name).to_jsonable()
    pids = sorted(obj["costandard"])
    col, row = draw(st.sampled_from(pids)), draw(st.sampled_from(pids))
    obj["costandard"][col][row] = draw(st.sampled_from(
        ["0", "1", "-1", "2", "q", "1-q", "-1+q", "q^-1", "1-q^2", "q-q^2", "1-2q+q^2"]
    ))
    return obj


@settings(deadline=None, max_examples=120)
@given(obj=_costandard_perturbations())
def test_costandard_check_and_gate_agree_with_the_dense_ones(obj):
    d = dm.load_datum(obj)
    assert hm.compatibility_problems(d) == _dense_compatibility_problems(d)
    # a fresh datum, so the gate is not already memoized
    d = dm.load_datum(obj)
    assert dm._check_costandard(d) == _dense_costandard_check(d)


def test_planted_non_target_costandard_entry_fails():
    # ws is no ascent target.  n[ws] = m_ws + c (m_p0 - m_pInf) keeps beta
    # compatible with T_1 for every c, and beta^2 = id at ws iff c = -q bar(c)
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    for c, c_neg, ok in (("1", "-1", False), ("1-q", "-1+q", True)):
        obj["costandard"]["ws"] = {"ws": "1", "p0": c, "pInf": c_neg}
        d = dm.load_datum(obj)
        assert not any(hm.compatibility_problems(d).values())
        check = dm._check_costandard(d)
        assert check == _dense_costandard_check(d)
        assert check.passed is ok
        assert check.detail == ("table given" if ok else "beta^2 != id at ws")


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "C3"])
def test_costandard_is_certified_from_the_identity_alone(label, monkeypatch):
    d = dm.builtin_datum(f"hecke-regular:{label}")
    seen = []
    beta = hm.beta
    monkeypatch.setattr(hm, "beta", lambda x, d: seen.append(set(x.terms)) or beta(x, d))
    assert dm._check_costandard(d) == dm.CheckResult("costandard-involution", True, "table given")
    assert seen[0] == {"e"} and len(seen) == 2
