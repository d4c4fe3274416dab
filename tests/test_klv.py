import contextlib
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klvwb import checks
from klvwb import coxeter
from klvwb import datum as dm
from klvwb import extseries
from klvwb import hecke
from klvwb import hmodule as hm
from klvwb import klv
from klvwb.errors import DatumError, DomainError, NonGeometricDatum
from klvwb.laurent import ONE, LaurentPoly, parse_poly, render_poly


def table_dict(table):
    return {(g, d): render_poly(p) for g, d, p in table.rows()}


def _beta_column(d, columns, delta):
    """Reference solver for one column by dense correction: start L_delta
    at m_delta and subtract lower columns until the dense beta fixes it up
    to the twist, one beta per correction, raising klv's two errors.  It
    stops within n + 1 steps, so a bound of 4 n^2 steps is asserted, not
    reported."""
    index = d.basis_index
    twist = LaurentPoly.monomial(1, delta.dim)
    vec = hm.basis_vector(d, delta.id)
    for _ in range(4 * len(d.params) ** 2):
        diff = hm.beta(vec, d).scale(twist) - vec
        if diff.is_zero():
            return vec
        gamma = max(diff.coords, key=index.__getitem__)
        if index[gamma] >= index[delta.id]:
            raise NonGeometricDatum(
                f"correction support at or above {delta.id} (datum {d.name})"
            )
        gap = delta.dim - d.param_by_id[gamma].dim
        fix = (-diff.coords[gamma]).truncate((gap - 1) // 2)
        if fix.is_zero():
            raise NonGeometricDatum(
                f"no degree-bounded correction at ({gamma}, {delta.id}) "
                f"(datum {d.name})"
            )
        vec = vec - columns[gamma].scale(fix)
    raise AssertionError(f"dense correction did not converge at {delta.id}")


def _beta_correction_columns(d):
    """Reference table: every column by the dense correction loop."""
    columns = {}
    for delta in d.basis:
        columns[delta.id] = _beta_column(d, columns, delta)
    return columns


def _forced_fallback():
    """hmodule.compatibility_problems marked failed at every parameter, so
    klv_table reads every column off the costandard table."""
    return mock.patch.object(
        hm, "compatibility_problems", lambda d: [f"forced at {p.id}" for p in d.params]
    )


def _same_columns(got, expected):
    """Equal columns in equal key order, parameters and rows alike."""
    assert list(got) == list(expected)
    for delta, col in expected.items():
        assert list(got[delta].coords.items()) == list(col.coords.items()), delta


ORACLE_DATUMS = ["sl2-T", "sl2-N"] + [
    f"hecke-regular:{label}" for label in ("A1", "A2", "B2", "G2", "A3", "C3")
]


@pytest.mark.parametrize("name", ORACLE_DATUMS)
def test_ascent_recursion_matches_beta_correction(name):
    d = dm.builtin_datum(name)
    table = klv.klv_table(d)
    expected = _beta_correction_columns(d)
    assert list(table.columns) == list(expected)
    for delta, col in expected.items():
        assert table.column(delta).coords == col.coords, delta


@pytest.mark.parametrize("name", ORACLE_DATUMS)
def test_every_column_read_off_the_costandard_table_matches_beta_correction(name):
    d = dm.builtin_datum(name)
    with _forced_fallback():
        table = klv.klv_table(d)
    _same_columns(table.columns, _beta_correction_columns(d))


@pytest.fixture(scope="module")
def d4():
    """hecke-regular D4, shared so its table is solved once per module."""
    return dm.builtin_datum("hecke-regular:D4")


def test_d4_table_passes_verifier_and_equals_kl_basis(d4):
    d = d4
    table = klv.klv_table(d)
    assert klv.verify_klv_table(table, d) == []
    sys = d.coxeter
    basis = hecke.kl_basis(sys)
    for w in sys.elements():
        expected = {sys.element_token(x): p for x, p in basis.c(w).terms.items()}
        assert table.column(sys.element_token(w)).coords == expected


@pytest.mark.parametrize("name", ["hecke-regular:B2", "sl2-T"])
def test_sweep_removes_any_symmetric_lower_combination(name):
    # coefficients symmetric about gap/2 that are not a single middle term,
    # some below q^0: the sweep has to rebuild each from its upper half
    d = dm.builtin_datum(name)
    table = klv.klv_table(d)
    delta = d.basis[-1]
    v = table.column(delta.id)
    for gamma in d.basis[:-1]:
        gap = delta.dim - gamma.dim
        c = LaurentPoly({-1: 2, gap + 1: 2, gap // 2: 3, gap - gap // 2: 3})
        v = v + table.column(gamma.id).scale(c)

    def owned(vector):
        # the sweep consumes its argument: hand it fresh kernel dicts
        return {pid: dict(c._c) for pid, c in vector.terms.items()}

    assert klv._selfdual_column(d, table.columns, delta, owned(v)) == table.column(delta.id)
    assert klv._selfdual_column(d, table.columns, delta, owned(v.scale(ONE + ONE))) is None


def test_incompatible_duality_falls_back_to_beta_correction():
    obj = dm.builtin_datum("hecke-regular:A1").to_jsonable()
    # still unitriangular with beta^2 = id, but beta no longer intertwines T_s
    obj["costandard"]["1"]["e"] = "2-2q"
    d = dm.load_datum(json.dumps(obj))
    assert dm.validate_datum(d).ok
    table = klv.klv_table(d)
    # the ascent seed (T_s + 1) m_e would give P[e,1] = 1, which is not self-dual here
    assert render_poly(table.p("e", "1")) == "2"
    assert klv.verify_klv_table(table, d) == []
    expected = _beta_correction_columns(d)
    for delta, col in expected.items():
        assert table.column(delta).coords == col.coords, delta
    involution = next(c for c in checks.run_check_suites(d).checks if c.name == "involution")
    assert involution.detail == (
        "beta(T1 m[e]) != bar(T1) beta(m[e]); beta(T1 m[1]) != bar(T1) beta(m[1])"
    )


def test_sl2_t_table():
    d = dm.builtin_datum("sl2-T")
    t = klv.klv_table(d)
    assert table_dict(t) == {
        ("p0", "p0"): "1",
        ("pInf", "pInf"): "1",
        ("ws", "ws"): "1",
        ("p0", "wt"): "1",
        ("pInf", "wt"): "1",
        ("wt", "wt"): "1",
    }
    assert klv.verify_klv_table(t, d) == []


def test_sl2_n_table():
    d = dm.builtin_datum("sl2-N")
    t = klv.klv_table(d)
    assert table_dict(t) == {
        ("u", "u"): "1",
        ("u", "wp"): "1",
        ("wp", "wp"): "1",
        ("u", "wm"): "1",
        ("wm", "wm"): "1",
    }
    assert klv.verify_klv_table(t, d) == []


def test_verifier_rejects_degree_violation():
    d = dm.builtin_datum("sl2-T")
    t = klv.klv_table(d)
    cols = dict(t.columns)
    cols["wt"] = hm.ModuleVector(
        d, {"wt": ONE, "p0": parse_poly("q"), "pInf": ONE}
    )
    problems = klv.verify_klv_table(klv.KLVTable(d, cols), d)
    assert any("degree bound" in p for p in problems)


def test_verifier_rejects_missing_lower_term():
    d = dm.builtin_datum("sl2-T")
    t = klv.klv_table(d)
    cols = dict(t.columns)
    cols["wt"] = hm.ModuleVector(d, {"wt": ONE, "pInf": ONE})
    problems = klv.verify_klv_table(klv.KLVTable(d, cols), d)
    assert any("not self-dual" in p for p in problems)


def test_uniqueness_any_perturbation_fails():
    d = dm.builtin_datum("hecke-regular:A2")
    t = klv.klv_table(d)
    for delta in d.basis:
        for gamma in d.basis:
            if d.basis_index[gamma.id] >= d.basis_index[delta.id]:
                continue
            cols = dict(t.columns)
            bump = hm.ModuleVector(d, {gamma.id: ONE})
            cols[delta.id] = cols[delta.id] + bump
            assert klv.verify_klv_table(klv.KLVTable(d, cols), d) != []


def test_cross_oracle_tables_equal_kl_basis():
    for label in ["A1", "A2", "B2"]:
        d = dm.builtin_datum(f"hecke-regular:{label}")
        t = klv.klv_table(d)
        basis = hecke.kl_basis(d.coxeter)
        sys = d.coxeter
        for w in sys.elements():
            expected = {
                sys.element_token(x): p for x, p in basis.c(w).terms.items()
            }
            assert dict(t.column(sys.element_token(w)).coords) == expected


def test_mu_values():
    d = dm.builtin_datum("sl2-T")
    t = klv.klv_table(d)
    assert klv.mu(t, "p0", "wt") == 1
    assert klv.mu(t, "ws", "wt") == 0  # same dimension: no extreme degree
    a1 = dm.builtin_datum("hecke-regular:A1")
    assert klv.mu(klv.klv_table(a1), "e", "1") == 1
    a2 = dm.builtin_datum("hecke-regular:A2")
    t2 = klv.klv_table(a2)
    assert klv.mu(t2, "1", "1.2.1") == 0  # gap 2 is even
    with pytest.raises(DatumError):
        klv.mu(t, "wt", "wt")


def test_c_expansion_examples():
    d = dm.builtin_datum("sl2-T")
    s = d.coxeter.generator(0)
    assert {k: render_poly(v) for k, v in klv.c_expansion(d, s, "p0").items()} == {
        "wt": "1"
    }
    assert {k: render_poly(v) for k, v in klv.c_expansion(d, s, "wt").items()} == {
        "wt": "1+q"
    }
    assert klv.c_expansion(d, s, "ws") == {}
    assert klv.c_expansion(d, d.coxeter.identity, "ws") == {"ws": ONE}


def test_c_expansion_accepts_words():
    d = dm.builtin_datum("hecke-regular:A2")
    assert klv.c_expansion(d, [0], "e") == klv.c_expansion(d, d.coxeter.generator(0), "e")


@pytest.mark.parametrize("name", ["hecke-regular:A3", "sl2-N"])
def test_c_expansion_reconstructs_the_product(name):
    d = dm.builtin_datum(name)
    t = klv.klv_table(d)
    for w in d.coxeter.elements():
        cols = hm.c_matrix_columns(d, w)
        for p in d.params:
            total = hm.ModuleVector(d)
            for gamma, c in klv.c_expansion(d, w, p.id).items():
                total = total + t.column(gamma).scale(c)
            assert total == hm.matrix_apply(cols, t.column(p.id)), (w, p.id)


def _dense_c_expansion(d, table, w, tau):
    """Reference C_w . L_tau: the dense C_w columns applied to L_tau, then
    L_top subtracted from the highest basis position down."""
    residual = hm.matrix_apply(hm.c_matrix_columns(d, w), table.column(tau))
    index = d.basis_index
    out = {}
    while not residual.is_zero():
        top = max(residual.coords, key=index.__getitem__)
        c = residual.coords[top]
        out[top] = c
        residual = residual - table.column(top).scale(c)
    return out


def _assert_matches_dense(d, pairs):
    table = klv.klv_table(d)
    for w, tau in pairs:
        got = klv.c_expansion(d, w, tau)
        expected = _dense_c_expansion(d, table, w, tau)
        assert list(got.items()) == list(expected.items()), (
            d.coxeter.element_token(w), tau
        )


@pytest.mark.parametrize("name", ["sl2-T", "sl2-N", "hecke-regular:A3", "hecke-regular:C3"])
def test_generator_expansions_match_the_dense_columns(name):
    # (T_s + 1) L_tau through the action table against the dense C_s columns,
    # solved back through the table the way _dense_expand solved them
    d = dm.builtin_datum(name)
    sys = d.coxeter
    table = klv.klv_table(d)
    for w in (sys.identity, *(sys.generator(s) for s in range(sys.rank))):
        for p in d.params:
            residual = hm.matrix_apply(hm.c_matrix_columns(d, w), table.column(p.id))
            acc = {pid: c._c for pid, c in residual.terms.items()}
            expected = hm.unitriangular_coords(d, acc, lambda pid: table.columns[pid].terms)
            got = klv._dense_expand(d, w, p.id)
            assert list(got.items()) == list(expected.items()), (sys.element_token(w), p.id)


@pytest.mark.parametrize(
    "name", [*dm.BUILTIN_NAMES, "hecke-regular:G2", "hecke-regular:C3"]
)
def test_wgraph_expansion_matches_dense_product(name):
    d = dm.builtin_datum(name)
    _assert_matches_dense(d, [(w, p.id) for w in d.coxeter.elements() for p in d.params])


def test_wgraph_expansion_matches_dense_product_on_a_d4_sample(d4):
    d = d4
    rng = random.Random(20)
    els = d.coxeter.elements()
    # each dense C_w matrix costs about 0.2 s here, so 50 pairs share five
    # elements, w0 among them
    sample = rng.sample(els[:-1], 4) + [els[-1]]
    _assert_matches_dense(
        d, [(w, p.id) for w in sample for p in rng.sample(d.params, 10)]
    )


def test_tables_are_memoized_per_owner():
    d = dm.builtin_datum("hecke-regular:A2")
    assert klv.klv_table(d) is klv.klv_table(d)
    assert hecke.kl_basis(d.coxeter) is hecke.kl_basis(d.coxeter)
    other = dm.builtin_datum("hecke-regular:A2")
    assert other.coxeter is not d.coxeter
    assert klv.klv_table(other) is not klv.klv_table(d)
    assert hecke.kl_basis(other.coxeter) is not hecke.kl_basis(d.coxeter)


def test_c_expansion_result_does_not_alias_the_memo():
    d = dm.builtin_datum("sl2-T")
    s = d.coxeter.generator(0)
    first = klv.c_expansion(d, s, "wt")
    expected = dict(first)
    first["p0"] = ONE
    del first["wt"]
    assert klv.c_expansion(d, s, "wt") == expected


def _expansion_suites_oracle(d):
    """The selfdual-basis, positivity and integer-powers suites as separate
    walks over c_expansion, w-major, then d.params, then descending basis
    order: the reference for klv.expansion_report.  integer-powers holds by
    construction, and only its count is walked."""
    sys = d.coxeter
    table = klv.klv_table(d)
    unstable = []
    for w in sys.elements():
        for p in d.params:
            twist = w.length + p.dim
            for gamma, c in klv.c_expansion(d, w, p.id).items():
                if c.bar().shift(twist - d.param_by_id[gamma].dim) != c:
                    unstable.append(f"C[{sys.element_token(w)}] L[{p.id}] not self-dual")
                    break
    negative = []
    count = 0
    for w in sys.elements():
        for p in d.params:
            for gamma, c in klv.c_expansion(d, w, p.id).items():
                count += 1
                if not c.is_nonnegative():
                    negative.append(
                        f"c[{sys.element_token(w)},{p.id},{gamma}] has a negative coefficient"
                    )
    rows = sum(1 for _ in table.rows())
    return (
        dm.CheckResult.of(
            "selfdual-basis",
            klv.verify_klv_table(table, d) or unstable,
            f"{len(d.params)} columns verified",
        ),
        dm.CheckResult.of("positivity", negative, f"{count} coefficients checked"),
        dm.CheckResult("integer-powers", True, f"{rows + count} polynomials"),
    )


# (reduced word of w, tau) -> {gamma: (exponent, coefficient)} added to
# C_w . L_tau; on sl2-T, params order (wt before ws) is not basis order
_PLANTED = {
    "sl2-T": {
        ((0,), "wt"): {"ws": (2, -1), "wt": (3, -1)},
        ((0,), "ws"): {"ws": (2, 1), "p0": (4, 1)},
        ((), "ws"): {"ws": (1, -1)},
        ((), "p0"): {"pInf": (-1, 2)},
    },
    "hecke-regular:A3": {
        ((0,), "1"): {"1": (3, 1)},
        ((1,), "e"): {"2": (5, -1)},
        ((), "2.1"): {"2.1": (2, 1)},
    },
}


@pytest.mark.parametrize("name", sorted(_PLANTED))
def test_planted_expansion_faults_match_the_three_walks(monkeypatch, name):
    faults = _PLANTED[name]
    dense = klv._dense_expand

    def planted(d, w, tau):
        out = dense(d, w, tau)
        extra = faults.get((d.coxeter.reduced_word(w), tau))
        if extra is None:
            return out
        out = dict(out)
        for gamma, (exp, coeff) in extra.items():
            c = dict(out[gamma]._c) if gamma in out else {}
            c[exp] = c.get(exp, 0) + coeff
            out[gamma] = LaurentPoly._raw(c)
        return out

    monkeypatch.setattr(klv, "_dense_expand", planted)
    d = dm.builtin_datum(name)
    report = {c.name: c for c in checks.run_check_suites(d).checks}
    selfdual, positivity, integer = _expansion_suites_oracle(d)
    assert report["selfdual-basis"] == selfdual
    assert report["positivity"] == positivity
    assert klv.parity_check(d).checks[0] == integer
    assert f"integer-powers ({integer.detail})" in report["parity"].detail
    # two or more faults of each kind, in different (w, tau)
    assert len(set(selfdual.detail.split("; "))) >= 2
    pairs = {line.split("[")[1].rsplit(",", 1)[0] for line in positivity.detail.split("; ")}
    assert len(pairs) >= 2, positivity
    assert integer.passed


def _planting(faults):
    """_dense_expand with integer terms added: faults maps (reduced word of
    w, tau) to {gamma: {exponent: coefficient}}; terms that cancel drop."""
    dense = klv._dense_expand

    def planted(d, w, tau):
        out = dense(d, w, tau)
        extra = faults.get((d.coxeter.reduced_word(w), tau))
        if extra is None:
            return out
        out = dict(out)
        for gamma, terms in extra.items():
            c = dict(out[gamma]._c) if gamma in out else {}
            for e, v in terms.items():
                c[e] = c.get(e, 0) + v
            c = {e: v for e, v in c.items() if v}
            if c:
                out[gamma] = LaurentPoly._raw(c)
            else:
                out.pop(gamma, None)
        return out

    return planted


def _report_and_path(d, faults):
    """The three suites' results from expansion_report with faults planted
    (_planting), their oracle, and whether the packed pass ran."""
    ran = []
    packed = klv._packed_report

    def spy(*args):
        ran.append(True)
        return packed(*args)

    with (
        mock.patch.object(klv, "_dense_expand", _planting(faults)),
        mock.patch.object(klv, "_packed_report", spy),
    ):
        got = (checks._selfdual_suite(d), checks._positivity_suite(d), klv.parity_check(d).checks[0])
        expected = _expansion_suites_oracle(d)
    return got, expected, bool(ran)


_GENERATOR_FAULT_DATUMS = ["sl2-T", "sl2-N", "hecke-regular:A2", "hecke-regular:B2"]


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_packed_pass_matches_the_three_walks_on_planted_generator_faults(data):
    # coefficients -3..3 at exponents 0..k, k = 1 + dim tau - dim gamma, in
    # C_s L_tau.  Mirrored to k - e, a term keeps stability and the packed
    # pass runs; one unmirrored nonzero term breaks it and the kernel pass runs.
    d = dm.builtin_datum(data.draw(st.sampled_from(_GENERATOR_FAULT_DATUMS)))
    dims = {p.id: p.dim for p in d.params}
    mirrored = data.draw(st.booleans())
    faults: dict = {}
    for n in range(data.draw(st.integers(1, 3))):
        unmirrored = n == 0 and not mirrored
        s = data.draw(st.integers(0, d.coxeter.rank - 1))
        tau = data.draw(st.sampled_from(sorted(dims)))
        # the one unmirrored term is nonzero and off the centre, so k >= 1
        top = dims[tau] + (not unmirrored)
        gamma = data.draw(st.sampled_from(sorted(g for g in dims if dims[g] <= top)))
        k = 1 + dims[tau] - dims[gamma]
        if unmirrored:
            e = data.draw(st.sampled_from([e for e in range(k + 1) if 2 * e != k]))
            v = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        else:
            e = data.draw(st.integers(0, k))
            v = data.draw(st.integers(-3, 3))
        terms = faults.setdefault(((s,), tau), {}).setdefault(gamma, {})
        terms[e] = terms.get(e, 0) + v
        if not unmirrored and 2 * e != k:
            terms[k - e] = terms.get(k - e, 0) + v
    got, expected, packed = _report_and_path(d, faults)
    assert got == expected
    assert packed == mirrored


@pytest.mark.parametrize(
    "terms, detail",
    [
        ({0: 1, 1: -3, 2: 1}, "c[1,wt,p0] has a negative coefficient"),
        ({1: 5}, "8 coefficients checked"),
    ],
)
def test_packed_signs_at_the_digit_limits(terms, detail):
    # C_s L_wt of sl2-T is (1 + q) L_wt, and its p0 entry has k = 2.  With
    # 1 - 3q + q^2 there, the entry packs to a positive int, and only the
    # top bit of its q^1 digit shows the -3.  With 5q, one coefficient is 5
    # of the column's bound 7, so it needs the spare bit of B = 4.
    d = dm.builtin_datum("sl2-T")
    got, expected, packed = _report_and_path(d, {((0,), "wt"): {"p0": terms}})
    assert packed and got == expected
    assert got[1].detail == detail


@pytest.mark.parametrize("name", _GENERATOR_FAULT_DATUMS)
def test_a_packed_pass_too_wide_falls_back_to_the_kernel_pass(monkeypatch, name):
    # expansion_report is memoized per datum, so each run gets its own
    wide, narrow = dm.builtin_datum(name), dm.builtin_datum(name)
    tau = wide.basis[0].id
    # -1 - q in C_s L_tau at tau, where k = 1: negative and still stable
    faults = {((0,), tau): {tau: {0: -1, 1: -1}}}
    assert _report_and_path(wide, faults)[2]
    monkeypatch.setattr(klv, "MAX_PACKED_BITS", 8)
    got, expected, packed = _report_and_path(narrow, faults)
    assert got == expected and not packed
    assert "has a negative coefficient" in got[1].detail


def _expansion_keys(d):
    """Keys of d's memo that hold an expansion of C_w . L_tau."""
    fns = (klv._dense_expand.__wrapped__, klv._row_memo.__wrapped__)
    return [key for key in d._cache if key[0] in fns]


def test_check_keeps_only_the_generator_expansions():
    d = dm.builtin_datum("hecke-regular:C3")
    assert checks.run_check_suites(d).ok
    keys = _expansion_keys(d)
    assert 0 < len(keys) <= (d.coxeter.rank + 1) * len(d.params)
    assert all(key[0] is klv._dense_expand.__wrapped__ for key in keys)
    assert not any(
        getattr(arg, "length", 0) >= 2 for key in d._cache for arg in key[1:]
    )


def test_is_cuspidal_reads_the_generator_memo_only():
    d = dm.builtin_datum("hecke-regular:C3")
    assert [p.id for p in d.params if klv.is_cuspidal(d, p.id)] == ["e"]
    keys = _expansion_keys(d)
    assert keys and all(key[0] is klv._dense_expand.__wrapped__ for key in keys)


def test_c_expansion_fills_only_the_row_entries_it_reads():
    d = dm.builtin_datum("hecke-regular:C3")
    sys = d.coxeter
    w0 = sys.elements()[-1]
    klv.c_expansion(d, w0, "e")
    row = klv._row_memo(d, "e")
    assert sys.index(w0) in row and len(row) < sys.order()
    full = klv.expansion_row(d, "e")
    assert all(row[i] == full[i] for i in row)


@pytest.mark.parametrize("name", ["sl2-T", "hecke-regular:A2"])
def test_selfdual_suite_catches_a_non_self_dual_action(monkeypatch, name):
    # T_s is not bar-invariant, so acting by T_s in place of C_s = T_s + 1,
    # the generator expansions without their + L_tau seed, breaks stability
    def t_expand(d, w, tau):
        table = klv.klv_table(d)
        terms = {pid: c._c for pid, c in table.column(tau).terms.items()}
        if w.length:
            terms = hm.build_action_table(d).apply_terms(d.coxeter.reduced_word(w)[0], terms)
        acc = {pid: dict(c) for pid, c in terms.items()}
        return hm.unitriangular_coords(d, acc, lambda pid: table.columns[pid].terms)

    monkeypatch.setattr(klv, "_dense_expand", t_expand)
    report = checks.run_check_suites(dm.builtin_datum(name))
    result = next(c for c in report.checks if c.name == "selfdual-basis")
    assert not result.passed
    assert re.search(r"C\[[^]]+\] L\[[^]]+\] not self-dual", result.detail)


def test_clean_and_cuspidal():
    d = dm.builtin_datum("sl2-T")
    t = klv.klv_table(d)
    assert klv.is_clean(t, "ws") and klv.is_cuspidal(d, "ws")
    assert not klv.is_clean(t, "wt") and not klv.is_cuspidal(d, "wt")
    assert klv.is_clean(t, "p0") and klv.is_cuspidal(d, "p0")
    n = dm.builtin_datum("sl2-N")
    tn = klv.klv_table(n)
    assert not klv.is_clean(tn, "wp") and not klv.is_cuspidal(n, "wp")
    assert klv.is_clean(tn, "u") and klv.is_cuspidal(n, "u")


def test_cuspidal_implies_clean_over_builtins():
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        t = klv.klv_table(d)
        for p in d.params:
            if klv.is_cuspidal(d, p.id):
                assert klv.is_clean(t, p.id), (name, p.id)


def test_positivity_over_builtins():
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        for w in d.coxeter.elements():
            for p in d.params:
                for gamma, c in klv.c_expansion(d, w, p.id).items():
                    assert c.is_nonnegative(), (name, p.id, gamma)


def test_parity_check_over_builtins():
    for name in dm.BUILTIN_NAMES:
        report = klv.parity_check(dm.builtin_datum(name))
        assert report.ok, (name, report.failed_names())


def single_parity(es, window=10):
    """True iff all nonzero dimensions of es sit in degrees of one parity."""
    return len({deg % 2 for deg in es.dims(window)}) <= 1


def _series_parity_oracle(d, window):
    """The series-parity suite as a sweep that builds, expands and tests
    every Ext and IC series: the reference for klv.parity_check."""
    problems = []
    count = 0
    for tau in d.basis:
        for es in extseries.ext_row(d, tau.id):
            count += 1
            if not single_parity(es, window):
                problems.append(f"Ext({tau.id},{es.gamma}) mixes parities")
        ic = extseries.ic_cohomology(d, tau.id)
        count += 1
        if not single_parity(ic, window):
            problems.append(f"IC({tau.id}) mixes parities")
    return dm.CheckResult.of(
        "series-parity", problems, f"{count} series, window q^0..q^{window}"
    )


def assert_series_parity_matches_the_sweep(d):
    for window in (0, 3, 10):
        got = klv.parity_check(d, window).checks[1]
        assert got == _series_parity_oracle(d, window), (d.name, window)


_SERIES_DATUMS = (*dm.BUILTIN_NAMES, "hecke-regular:G2", "hecke-regular:C3")


# costandard-stripped dumps take the derived path; the sl2 datums cannot
# derive their table, so they appear with theirs only
@pytest.mark.parametrize(
    "name, derived",
    [(name, False) for name in _SERIES_DATUMS]
    + [(name, True) for name in _SERIES_DATUMS if name.startswith("hecke-regular:")],
)
def test_series_parity_matches_the_sweep(name, derived):
    d = dm.builtin_datum(name)
    if derived:
        obj = d.to_jsonable()
        del obj["costandard"]
        d = dm.load_datum(obj)
    assert hm.costandard_table(d)[1] == ("derived" if derived else "given")
    assert_series_parity_matches_the_sweep(d)


def test_wgraph_steps_refuse_an_odd_length_gap():
    # a nonzero mu(z, w') needs l(w') - l(z) odd; plant mu(s1, s2), whose
    # gap is even, so that the step of w = s1 s2 would take q^(1/2)
    sys = coxeter.build_system("A2")
    s1, s2 = (sys.index(sys.generator(s)) for s in range(2))
    hecke.kl_basis(sys).mus[s2].append((s1, 1))
    message = rf"^W-graph edge mu\({s1}, {s2}\) spans odd length gap 1$"
    with pytest.raises(DomainError, match=message):
        klv._wgraph_steps(sys)


def test_check_builds_no_ext_series(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a check suite built an Ext or IC series")

    for fn in ("ext_row", "ext_poincare", "ic_cohomology"):
        monkeypatch.setattr(extseries, fn, unreachable)
    d = dm.builtin_datum("hecke-regular:C3")
    report = checks.run_check_suites(d)
    assert report.ok
    assert "series-parity (2352 series, window q^0..q^10)" in report.checks[-1].detail
    # no _q_rows or other extseries memo was made
    assert not [key for key in d._cache if key[0].__module__ == extseries.__name__]


def test_parity_check_rejects_an_empty_window():
    d = dm.builtin_datum("sl2-T")
    with pytest.raises(DomainError, match="empty expansion window"):
        klv.parity_check(d, -1)


def test_non_geometric_datum_detected(monkeypatch):
    bad = _perturbed("sl2-T", [("ws", "p0", ONE, False)])  # breaks the involution
    assert not dm.validate_datum(bad).ok
    # force the gate open to exercise the solver's own failure detection
    monkeypatch.setattr(dm, "ensure_valid", lambda d: None)
    with pytest.raises(NonGeometricDatum):
        klv.klv_table(bad)


def _perturbed(name, bumps):
    """A fresh builtin datum with each bump (col, row, x, shaped) added to
    column col of its costandard table: x at row, or if shaped,
    (x - q^gap bar(x)) L_row for gap = dim col - dim row, which a solvable
    column absorbs as P[., col] += x L_row.  Entries that cancel are
    dropped."""
    base = dm.builtin_datum(name)
    costd = {k: dict(v) for k, v in base.costandard.items()}
    for col, row, x, shaped in bumps:
        terms = {row: x}
        if shaped:
            gap = base.param_by_id[col].dim - base.param_by_id[row].dim
            r = x - x.bar().shift(gap)
            terms = {t: r * c for t, c in klv.klv_table(base).column(row).coords.items()}
        for t, c in terms.items():
            entry = costd[col].get(t, LaurentPoly.zero()) + c
            if entry.is_zero():
                costd[col].pop(t, None)
            else:
                costd[col][t] = entry
    return dm.OrbitDatum(
        name=base.name,
        coxeter_spec=base.coxeter_spec,
        coxeter=base.coxeter,
        orbits=base.orbits,
        closure_pairs=base.closure_pairs,
        params=base.params,
        actions=base.actions,
        costandard=costd,
        poincare=base.poincare,
    )


def _solve(d):
    """The columns of klv_table(d), or the class and message it raises."""
    try:
        return klv.klv_table(d).columns
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "col, row, bump, message",
    [
        ("u", "wm", "1", "correction support at or above u (datum sl2-N)"),
        ("wm", "u", "2q", "no degree-bounded correction at (u, wm) (datum sl2-N)"),
        ("wm", "u", "-1+2q", "no degree-bounded correction at (u, wm) (datum sl2-N)"),
    ],
)
def test_unseeded_column_errors_match_beta_correction(monkeypatch, col, row, bump, message):
    monkeypatch.setattr(dm, "ensure_valid", lambda d: None)
    bumps = [(col, row, parse_poly(bump), False)]
    got = _solve(_perturbed("sl2-N", bumps))
    monkeypatch.setattr(klv, "_costandard_column", _beta_column)
    assert got == _solve(_perturbed("sl2-N", bumps)) == (NonGeometricDatum, message)


_GATE_BYPASS_DATUMS = ["sl2-T", "sl2-N"] + [
    f"hecke-regular:{label}" for label in ("A1", "A2", "B2")
]


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_unseeded_columns_match_beta_correction_past_the_gate(data):
    name = data.draw(st.sampled_from(_GATE_BYPASS_DATUMS))
    pids = st.sampled_from([p.id for p in dm.builtin_datum(name).basis])
    polys = st.sampled_from(_PERTURBATIONS).map(parse_poly)
    bump = st.tuples(pids, pids, polys, st.booleans())
    bumps = data.draw(st.lists(bump, min_size=1, max_size=2))
    forced = _forced_fallback() if data.draw(st.booleans()) else contextlib.nullcontext()
    with mock.patch.object(dm, "ensure_valid", lambda d: None), forced:
        got = _solve(_perturbed(name, bumps))
        with mock.patch.object(klv, "_costandard_column", _beta_column):
            expected = _solve(_perturbed(name, bumps))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        _same_columns(got, expected)


def _dense_verify_klv_table(table, d):
    """The verifier with self-duality tested by the dense beta on every column."""
    problems = []
    for delta in d.basis:
        col = table.columns[delta.id]
        if hm.beta(col, d).scale(LaurentPoly.monomial(1, delta.dim)) != col:
            problems.append(f"L[{delta.id}] is not self-dual")
        if col.coefficient(delta.id) != ONE:
            problems.append(f"P[{delta.id},{delta.id}] != 1")
        for gamma_id, poly in col.coords.items():
            gamma = d.param_by_id[gamma_id]
            if gamma_id == delta.id:
                continue
            if not d.leq_orbits(gamma.orbit, delta.orbit):
                problems.append(f"P[{gamma_id},{delta.id}] supported outside the closure order")
            lo, hi = poly.degree_window()
            if lo < 0:
                problems.append(f"P[{gamma_id},{delta.id}] has negative exponents")
            if 2 * hi > delta.dim - gamma.dim - 1:
                problems.append(
                    f"P[{gamma_id},{delta.id}] = {render_poly(poly)} exceeds the degree bound"
                )
            if not poly.is_nonnegative():
                problems.append(
                    f"P[{gamma_id},{delta.id}] = {render_poly(poly)} has negative coefficients"
                )
    return problems


@pytest.fixture(scope="module")
def a3():
    d = dm.builtin_datum("hecke-regular:A3")
    return d, klv.klv_table(d)


_PERTURBATIONS = ["1", "-1", "q", "q^2", "q^-1", "1+q", "-q", "2"]


@settings(deadline=None, max_examples=120)
@given(data=st.data())
def test_ascent_verifier_agrees_with_the_dense_one_on_a3(a3, data):
    d, table = a3
    pids = [p.id for p in d.basis]
    delta, gamma = data.draw(st.sampled_from(pids)), data.draw(st.sampled_from(pids))
    bump = parse_poly(data.draw(st.sampled_from(_PERTURBATIONS)))
    cols = dict(table.columns)
    cols[delta] = cols[delta] + hm.ModuleVector(d, {gamma: bump})
    perturbed = klv.KLVTable(d, cols)
    assert klv.verify_klv_table(perturbed, d) == _dense_verify_klv_table(perturbed, d)


def test_planted_ascent_seeded_c3_column_fails():
    d = dm.builtin_datum("hecke-regular:C3")
    table = klv.klv_table(d)
    sources = hm.ascent_sources(d)
    # the first column at least three dimensions above e, where a constant
    # bump at e stays inside the degree bound
    delta = next(p for p in d.basis if p.dim >= 3 and p.id in sources)
    cols = dict(table.columns)
    cols[delta.id] = cols[delta.id] + hm.ModuleVector(d, {"e": ONE})
    perturbed = klv.KLVTable(d, cols)
    problems = klv.verify_klv_table(perturbed, d)
    assert problems == [f"L[{delta.id}] is not self-dual"]
    assert problems == _dense_verify_klv_table(perturbed, d)
