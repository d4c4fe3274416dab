import json
import random
import types

import pytest

from klvwb import datum as dm
from klvwb import hecke
from klvwb import hmodule as hm
from klvwb.cli import main
from klvwb.errors import DatumError, MissingCostandard, SystemMismatch
from klvwb.laurent import ONE, LaurentPoly, parse_poly, punpack
from test_datum import assert_derivation_matches_the_dense_one


def vec(d, spec):
    return hm.ModuleVector(d, {pid: parse_poly(s) for pid, s in spec.items()})


def rand_vec(d, rng):
    out = hm.ModuleVector(d)
    for _ in range(rng.randint(1, 4)):
        p = rng.choice(d.params)
        c = LaurentPoly({rng.randint(-2, 2): rng.randint(-4, 4)})
        out = out + hm.ModuleVector(d, {p.id: c})
    return out


def test_ts_columns_sl2_t():
    d = dm.builtin_datum("sl2-T")
    table = hm.ts_matrix(d)
    assert table.apply(0, hm.basis_vector(d, "p0")) == vec(d, {"pInf": "1", "wt": "1"})
    assert table.apply(0, hm.basis_vector(d, "ws")) == vec(d, {"ws": "-1"})
    assert table.apply(0, hm.basis_vector(d, "wt")) == vec(
        d, {"p0": "-1+q", "pInf": "-1+q", "wt": "-2+q"}
    )


def test_ts_columns_sl2_n():
    d = dm.builtin_datum("sl2-N")
    table = hm.ts_matrix(d)
    assert table.apply(0, hm.basis_vector(d, "u")) == vec(
        d, {"u": "1", "wp": "1", "wm": "1"}
    )
    assert table.apply(0, hm.basis_vector(d, "wp")) == vec(
        d, {"u": "-1+q", "wp": "-1+q", "wm": "-1"}
    )


def test_act_cs_on_closed_parameter():
    d = dm.builtin_datum("sl2-T")
    out = hm.act("C[1]", hm.basis_vector(d, "p0"), d)
    assert out == vec(d, {"p0": "1", "pInf": "1", "wt": "1"})


def test_act_identity():
    for name in ["sl2-T", "hecke-regular:A2"]:
        d = dm.builtin_datum(name)
        rng = random.Random(11)
        for _ in range(10):
            x = rand_vec(d, rng)
            assert hm.act("T[]", x, d) == x


def test_act_word_equals_column_composition():
    d = dm.builtin_datum("hecke-regular:A2")
    table = hm.ts_matrix(d)
    x = hm.basis_vector(d, "e")
    via_word = hm.act("T[1,2]", x, d)
    via_columns = table.apply(0, table.apply(1, x))
    assert via_word == via_columns


def test_act_heckeelt_linearity():
    d = dm.builtin_datum("sl2-N")
    sys = d.coxeter
    h = hecke.T(sys, [0]).scale(parse_poly("q")) + hecke.unit(sys)
    rng = random.Random(3)
    for _ in range(10):
        x, y = rand_vec(d, rng), rand_vec(d, rng)
        assert hm.act(h, x + y, d) == hm.act(h, x, d) + hm.act(h, y, d)


def test_beta_closed_parameter_fixed():
    d = dm.builtin_datum("sl2-T")
    v = hm.basis_vector(d, "p0")
    assert hm.beta(v, d) == v


def test_beta_open_trivial_parameter():
    d = dm.builtin_datum("sl2-T")
    out = hm.beta(hm.basis_vector(d, "wt"), d)
    assert out == vec(d, {"wt": "q^-1", "p0": "q^-1-1", "pInf": "q^-1-1"})


def test_beta_is_involution_on_random_vectors():
    rng = random.Random(2024)
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        for _ in range(15):
            x = rand_vec(d, rng)
            assert hm.beta(hm.beta(x, d), d) == x


def test_beta_semilinear_against_bar_ts():
    qinv = LaurentPoly.monomial(1, -1)
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        table = hm.ts_matrix(d)
        for s in range(d.coxeter.rank):
            for p in d.params:
                x = hm.basis_vector(d, p.id)
                lhs = hm.beta(table.apply(s, x), d)
                bx = hm.beta(x, d)
                rhs = table.apply(s, bx).scale(qinv) + bx.scale(qinv - ONE)
                assert lhs == rhs, (name, s, p.id)


def test_hecke_regular_act_matches_algebra():
    d = dm.builtin_datum("hecke-regular:B2")
    sys = d.coxeter
    rng = random.Random(7)
    for _ in range(25):
        v = rng.choice(sys.elements())
        w = rng.choice(sys.elements())
        prod = hecke.mul_T(hecke.T(sys, v), hecke.T(sys, w))
        acted = hm.act(hecke.T(sys, v), hm.basis_vector(d, sys.element_token(w)), d)
        assert {sys.element_token(x): c for x, c in prod.terms.items()} == dict(
            acted.coords
        )


def test_a_given_costandard_table_is_returned_as_it_is():
    d = dm.builtin_datum("hecke-regular:A2")
    table, origin = hm.costandard_table(d)
    assert table is d.costandard
    assert origin == "given"


def test_costandard_derivation_matches_hecke_inversion():
    given = dm.builtin_datum("hecke-regular:A2")
    stripped = dm.OrbitDatum(
        name=given.name,
        coxeter_spec=given.coxeter_spec,
        coxeter=given.coxeter,
        orbits=given.orbits,
        closure_pairs=given.closure_pairs,
        params=given.params,
        actions=given.actions,
        costandard=None,
        poincare=given.poincare,
    )
    derived, origin = hm.costandard_table(stripped)
    assert origin == "derived"
    table, _ = hm.costandard_table(given)
    assert derived == table


def _relabelled(obj, rng):
    """obj with fresh parameter ids, so a new basis order, and every list
    and table of the file shuffled."""
    pids = [p["id"] for p in obj["params"]]
    names = dict(zip(pids, (f"x{n}" for n in rng.sample(range(len(pids)), len(pids)))))

    def renamed(field, value):
        if field == "case":
            return value
        if field == "coeffs":
            return {names[pid]: c for pid, c in value.items()}
        return [names[v] for v in value] if isinstance(value, list) else names[value]

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    obj["orbits"] = shuffled(obj["orbits"])
    obj["params"] = shuffled({**p, "id": names[p["id"]]} for p in obj["params"])
    obj["actions"] = {
        s: {
            names[pid]: {f: renamed(f, v) for f, v in desc.items()}
            for pid, desc in shuffled(rows.items())
        }
        for s, rows in obj["actions"].items()
    }
    obj["poincare"] = {names[pid]: v for pid, v in shuffled(obj["poincare"].items())}
    if "costandard" in obj:
        obj["costandard"] = {
            names[col]: {names[row]: c for row, c in shuffled(rows.items())}
            for col, rows in shuffled(obj["costandard"].items())
        }
    return obj


_HR = [f"hecke-regular:{t}" for t in ("A1", "A2", "B2", "G2", "A3", "C3", "D4")]


def _stripped(name, seed=None):
    """The JSON text of a builtin without its costandard table, relabelled
    and shuffled from seed unless it is None."""
    obj = dm.builtin_datum(name).to_jsonable()
    del obj["costandard"]
    if seed is not None:
        obj = _relabelled(obj, random.Random(seed))
    return json.dumps(obj)


def _width_spy(monkeypatch, decline=False):
    """Record what each _derivation_width call returns; with decline, it
    returns None, which sends the derivation down the kernel path."""
    seen = []
    width = hm._derivation_width

    def spy(d, table, plan):
        out = None if decline else width(d, table, plan)
        seen.append(out)
        return out

    monkeypatch.setattr(hm, "_derivation_width", spy)
    return seen


def _columns(table):
    return [(c, list(r.items())) for c, r in table.items()]


@pytest.mark.parametrize(
    "name, seed",
    [(name, None) for name in ["sl2-T", "sl2-N", *_HR]]
    + [(name, seed) for name in _HR[1:-1] for seed in (1, 2)]
    + [(_HR[-1], 1)],
)
def test_derived_costandard_matches_the_dense_propagation(monkeypatch, name, seed):
    # every column and every row in the same order as the ModuleVector
    # propagation: the non-lower term lines of costandard-involution follow
    # it; and the packed derivation is the kernel one, taken included
    text = _stripped(name, seed)
    assert_derivation_matches_the_dense_one(dm.load_datum(text))
    packed, kernel = _assert_packed_matches_kernel(monkeypatch, text)
    if len(hm._propagate(packed, False)[0]) == len(packed.basis):
        assert hm._induction_holds(packed) is hm._induction_holds(kernel) is True


@pytest.mark.parametrize(
    "name, orbit, field, value",
    [
        # n[1] = m[1] cancels (1-q)(q-1) m[1] in the diagonal step of n[1.2.1]
        ("hecke-regular:A2", "1", "closed", True),
        # q^0 n[pInf] cancels the cross term of n[wt] in its last step
        ("sl2-T", "inf", "dim", 1),
    ],
)
def test_packed_derivation_drops_a_cancelled_key_as_the_kernel_does(
    monkeypatch, name, orbit, field, value
):
    obj = json.loads(_stripped(name))
    next(o for o in obj["orbits"] if o["id"] == orbit)[field] = value
    _assert_packed_matches_kernel(monkeypatch, json.dumps(obj))


def _assert_packed_matches_kernel(monkeypatch, text):
    """The packed derivation of the datum text equals the kernel one that a
    declined width forces: values, key order and taken.  Returns the two
    datums."""
    packed, kernel = dm.load_datum(text), dm.load_datum(text)
    assert hm._packed_derivation(packed) is not None
    seen = _width_spy(monkeypatch, decline=True)
    got, want = hm._propagate(packed, False), hm._propagate(kernel, False)
    assert seen == [None]
    assert _columns(got[0]) == _columns(want[0])
    assert got[1] == want[1]
    return packed, kernel


# (s1, 1) of hecke-regular A2 without its costandard, rewritten so that
# _derivation_width refuses the packed path: q^100000 would need 100,001
# digits, q^-1 a negative exponent at offset 0, and 10^2500 about 8,300 bits
# a digit; the kernel path gives what it gave before the packed one existed
_REFUSED = {
    "wide": {"e": "q^100000", "1": "-1+q"},
    "negative": {"e": "q^-1", "1": "-1+q"},
    "coefficient": {"e": f"{10 ** 2500}q", "1": "-1+q"},
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_a_derivation_the_width_refuses_takes_the_kernel_path(tmp_path, monkeypatch, capsys, case):
    obj = json.loads(_stripped("hecke-regular:A2"))
    obj["actions"]["1"]["1"] = {"case": "ExplicitRow", "coeffs": _REFUSED[case]}
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    seen = _width_spy(monkeypatch)
    decoded = []
    monkeypatch.setattr(hm, "_decode", lambda v, bits: decoded.append(v))
    assert main(["validate", "--datum", str(path), "--format", "csv"]) == 1
    assert capsys.readouterr().out == (
        "status,check,detail\n"
        "PASS,thm-order-reachability,\n"
        "PASS,sstar-monotone,\n"
        "FAIL,quadratic-relation,(T+1)(T-q) != 0 at (s1, e); (T+1)(T-q) != 0 at (s1, 1)\n"
        "FAIL,braid-relations,braid (s1, s2) fails at 1; braid (s1, s2) fails at 2.1; "
        "braid (s1, s2) fails at 1.2.1\n"
        "FAIL,link-mirroring,(s1, e) AscentU link to 1 not mirrored\n"
        "FAIL,costandard-involution,duality propagation inconsistent at parameter 1.2.1\n"
        "PASS,dim-closure-consistency,\n"
        "PASS,poincare-normalization,\n"
    )
    assert main(["klv", "--datum", str(path), "--format", "csv"]) == 1
    assert capsys.readouterr().err == (
        "klvwb: invalid datum: datum failed validation checks: quadratic-relation, "
        "braid-relations, link-mirroring, costandard-involution\n"
    )
    assert seen and not any(seen)
    assert decoded == []


def test_a_declined_derivation_gives_the_same_bytes(tmp_path, monkeypatch, capsys):
    # a valid datum past a tiny width cap: the kernel path, the same output
    path = tmp_path / "a3.json"
    path.write_text(_stripped("hecke-regular:A3", 5), encoding="utf-8")
    outputs = []
    for cap in (hm.MAX_PACKED_BITS, 8):
        monkeypatch.setattr(hm, "MAX_PACKED_BITS", cap)
        seen = _width_spy(monkeypatch)
        for verb in ("klv", "validate"):
            assert main([verb, "--datum", str(path), "--format", "csv"]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(seen) == 2 and all(width is None for width in seen) is (cap == 8)
    assert outputs[:2] == outputs[2:]


def test_an_inconsistent_packed_derivation_is_still_reported(monkeypatch):
    # the late disagreement of w0 in A3: the packed path keeps the first
    # candidate, the induction fails, and the kernel pass names the parameter
    obj = json.loads(_stripped("hecke-regular:A3"))
    next(o for o in obj["orbits"] if o["id"] == "1.2.1.3.2")["closed"] = True
    d = dm.load_datum(json.dumps(obj))
    seen = _width_spy(monkeypatch)
    message = "duality propagation inconsistent at parameter 1.2.1.3.2.1"
    with pytest.raises(DatumError, match=f"^{message}$"):
        hm.costandard_table(d)
    assert len(seen) == 1 and seen[0] is not None
    assert not hm._induction_holds(d)


@pytest.mark.parametrize("name", ["hecke-regular:A3", "hecke-regular:C3"])
def test_equal_entries_of_a_derived_table_are_one_object(name):
    table, origin = hm.costandard_table(dm.load_datum(_stripped(name, 6)))
    assert origin == "derived"
    objects: dict[frozenset, set] = {}
    for rows in table.values():
        for c in rows.values():
            objects.setdefault(frozenset(c._c.items()), set()).add(id(c))
    assert all(len(ids) == 1 for ids in objects.values())
    assert sum(map(len, table.values())) > 2 * len(objects)


def test_read_only_shared_entries_change_no_output(tmp_path, monkeypatch, capsys):
    # every decoded entry is a read-only view: a write into a shared entry
    # anywhere downstream raises, and the bytes are those of plain dicts
    names = ["sl2-T", "sl2-N", *_HR]
    for n, name in enumerate(names):
        (tmp_path / f"{n}.json").write_text(_stripped(name), encoding="utf-8")
    runs = [
        [verb, "--datum", str(tmp_path / f"{n}.json"), "--format", "csv"]
        for n in range(len(names))
        for verb in ("klv", "validate", "check", "ext")
    ]
    decoded = []

    def read_only(v, bits):
        decoded.append(v)
        return LaurentPoly._raw(types.MappingProxyType(punpack(v, bits, 0)))

    outputs = []
    for decode in (hm._decode, read_only):
        monkeypatch.setattr(hm, "_decode", decode)
        for argv in runs:
            code = main(argv)
            outputs.append((code, capsys.readouterr()))
    assert outputs[: len(runs)] == outputs[len(runs) :]
    assert decoded
    # past the two sl2 datums, whose tables do not derive, every run passes
    assert all(code == 0 for code, _ in outputs[8 : len(runs)])


def test_ascent_sources_index_u_and_t_ascents_by_target():
    assert hm.ascent_sources(dm.builtin_datum("sl2-T")) == {
        "wt": [(0, "p0", ("pInf",)), (0, "pInf", ("p0",))]
    }
    # N-ascents force no duality and are not sources
    assert hm.ascent_sources(dm.builtin_datum("sl2-N")) == {}
    a2 = dm.builtin_datum("hecke-regular:A2")
    assert hm.ascent_sources(a2)["1.2"] == [(0, "2", ())]
    assert hm.ascent_sources(a2)["1.2.1"] == [(0, "2.1", ()), (1, "1.2", ())]


@pytest.mark.parametrize("label", ["A3", "C3", "D4"])
def test_the_ascent_induction_starts_at_the_coset_representatives(label):
    # T_s m_w = m_sw when sw > w, so the induction over a parabolic subgroup
    # starts at its minimal coset representatives: |W| / |W_J| of them
    d = dm.builtin_datum(f"hecke-regular:{label}")
    sys, order = d.coxeter, len(d.params)
    for s in range(sys.rank):
        assert len(hm.unreached(d, (s,))) == order // 2
        for t in range(s + 1, sys.rank):
            assert len(hm.unreached(d, (s, t))) == order // (2 * sys.coxeter_m(s, t))
    assert hm.unreached(d, tuple(range(sys.rank))) == ("e",)
    assert hm.unreached(dm.builtin_datum("sl2-T"), (0,)) == ("p0", "pInf", "ws")


def test_costandard_derivation_rejects_disagreeing_sources():
    # raising pInf's orbit makes the two T-ascents to wt force different beta(m_wt)
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    del obj["costandard"]
    next(o for o in obj["orbits"] if o["id"] == "inf")["dim"] = 1
    with pytest.raises(DatumError, match="^duality propagation inconsistent at parameter wt$"):
        hm.costandard_table(dm.load_datum(json.dumps(obj)))


def test_costandard_derivation_rejects_a_late_disagreeing_source(tmp_path):
    # w0 of A3 has three U-ascent sources; marking the orbit of the third
    # closed makes it force another n[w0], while the first two agree
    obj = dm.builtin_datum("hecke-regular:A3").to_jsonable()
    del obj["costandard"]
    next(o for o in obj["orbits"] if o["id"] == "1.2.1.3.2")["closed"] = True
    d = dm.load_datum(json.dumps(obj))
    assert [src for _, src, _ in hm.ascent_sources(d)["1.2.1.3.2.1"]] == [
        "2.1.3.2.1", "1.2.3.2.1", "1.2.1.3.2"
    ]
    message = "duality propagation inconsistent at parameter 1.2.1.3.2.1"
    with pytest.raises(DatumError, match=f"^{message}$"):
        hm.costandard_table(d)
    path, out = tmp_path / "a3.json", tmp_path / "out.csv"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["validate", "--datum", str(path), "--format", "csv", "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == (
        "status,check,detail\n"
        "PASS,thm-order-reachability,\n"
        "PASS,sstar-monotone,\n"
        "PASS,quadratic-relation,\n"
        "PASS,braid-relations,\n"
        "PASS,link-mirroring,\n"
        f"FAIL,costandard-involution,{message}\n"
        "FAIL,dim-closure-consistency,closed orbit 1.2.1.3.2 is not minimal (above e)\n"
        "PASS,poincare-normalization,\n"
    )


def test_costandard_underivable_without_table():
    for name in ["sl2-T", "sl2-N"]:
        given = dm.builtin_datum(name)
        stripped = dm.OrbitDatum(
            name=given.name,
            coxeter_spec=given.coxeter_spec,
            coxeter=given.coxeter,
            orbits=given.orbits,
            closure_pairs=given.closure_pairs,
            params=given.params,
            actions=given.actions,
            costandard=None,
            poincare=given.poincare,
        )
        with pytest.raises(MissingCostandard):
            hm.costandard_table(stripped)
        # the datum itself still validates; only duality is disabled
        report = dm.validate_datum(stripped)
        assert report.ok
        note = next(c for c in report.checks if c.name == "costandard-involution")
        assert "not derivable" in note.detail
        # the failure was not memoized: the call raises again
        with pytest.raises(MissingCostandard):
            hm.costandard_table(stripped)


def test_vector_rendering():
    d = dm.builtin_datum("sl2-T")
    x = vec(d, {"wt": "1+q", "p0": "1"})
    assert str(x) == "+ 1*m[p0] + (1+q)*m[wt]"
    assert str(hm.ModuleVector(d)) == "0"


def test_mixed_datum_vectors_rejected():
    a = dm.builtin_datum("sl2-T")
    b = dm.builtin_datum("sl2-T")
    with pytest.raises(SystemMismatch):
        hm.basis_vector(a, "p0") + hm.basis_vector(b, "p0")
