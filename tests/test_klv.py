import re

import pytest

from klvwb import checks
from klvwb import datum as dm
from klvwb import hecke
from klvwb import hmodule as hm
from klvwb import klv
from klvwb.errors import DatumError, NonGeometricDatum
from klvwb.laurent import ONE, parse_poly, render_poly


def table_dict(table):
    return {(g, d): render_poly(p) for g, d, p in table.rows()}


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


def test_c_expansion_result_does_not_alias_the_memo():
    d = dm.builtin_datum("sl2-T")
    s = d.coxeter.generator(0)
    first = klv.c_expansion(d, s, "wt")
    expected = dict(first)
    first["p0"] = ONE
    del first["wt"]
    assert klv.c_expansion(d, s, "wt") == expected


@pytest.mark.parametrize("name", ["sl2-T", "hecke-regular:A2"])
def test_selfdual_suite_catches_a_non_self_dual_action(monkeypatch, name):
    # T_s is not bar-invariant, so acting by T_w in place of C_w breaks stability
    monkeypatch.setattr(hm, "c_matrix_columns", hm.t_matrix_columns)
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


def test_non_geometric_datum_detected():
    base = dm.builtin_datum("sl2-T")
    costd = {k: dict(v) for k, v in base.costandard.items()}
    costd["ws"] = {"ws": ONE, "p0": ONE}  # breaks the involution
    bad = dm.OrbitDatum(
        name="sl2-T-broken",
        coxeter_spec=base.coxeter_spec,
        orbits=base.orbits,
        closure_pairs=base.closure_pairs,
        params=base.params,
        actions=base.actions,
        costandard=costd,
        poincare=base.poincare,
    )
    assert not dm.validate_datum(bad).ok
    # force the gate open to exercise the solver's own failure detection
    bad._cache["validation"] = dm.ValidationReport([])
    with pytest.raises(NonGeometricDatum):
        klv.klv_table(bad)


def test_klv_csv_rendering():
    d = dm.builtin_datum("hecke-regular:A1")
    text = klv.klv_csv(klv.klv_table(d))
    assert text.splitlines() == ["gamma,delta,P", "e,e,1", "e,1,1", "1,1,1"]
