"""Acceptance suite: one test per criterion, printing one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; timing limits are asserted where stated.
"""

import time
from contextlib import contextmanager

from klvwb import datum as dm
from klvwb import extseries as ext
from klvwb import hecke
from klvwb import hmodule as hm
from klvwb import klv
from klvwb.cli import main
from klvwb.coxeter import build_system
from klvwb.laurent import ONE, Q, LaurentPoly, PoincareSeries, parse_poly
from test_klv import single_parity


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {n} PASS: {desc}")


def clone(d, **overrides):
    kwargs = dict(
        name=d.name,
        coxeter_spec=d.coxeter_spec,
        coxeter=d.coxeter,
        orbits=d.orbits,
        closure_pairs=d.closure_pairs,
        params=d.params,
        actions={s: dict(rows) for s, rows in d.actions.items()},
        costandard=d.costandard,
        poincare=d.poincare,
    )
    kwargs.update(overrides)
    return dm.OrbitDatum(**kwargs)


def test_criterion_1_hecke_oracle():
    with criterion(1, "Hecke oracle: quadratic, braid, KL basis for A1 A2 B2 A3"):
        start = time.perf_counter()
        for label in ["A1", "A2", "B2", "A3"]:
            sys = build_system(label)
            for s in range(sys.rank):
                ts = hecke.T(sys, [s])
                quad = hecke.mul_T(
                    ts + hecke.unit(sys), ts - hecke.unit(sys).scale(Q)
                )
                assert quad.is_zero(), (label, s)
            for s in range(sys.rank):
                for t in range(s + 1, sys.rank):
                    m = sys.coxeter_m(s, t)
                    left = right = hecke.unit(sys)
                    for k in range(m):
                        left = hecke.mul_T(left, hecke.T(sys, [s if k % 2 == 0 else t]))
                        right = hecke.mul_T(right, hecke.T(sys, [t if k % 2 == 0 else s]))
                    assert left == right, (label, s, t)
            basis = hecke.kl_basis(sys)
            assert hecke.verify_kl_basis(basis) == [], label
            if label in ("A2", "B2"):
                for w in sys.elements():
                    for x, p in basis.c(w).terms.items():
                        assert p == ONE, (label, "all P must be 1")
            if label == "A3":
                for w in sys.elements():
                    c = basis.c(w)
                    twisted = c.bar().scale(LaurentPoly.monomial(1, w.length))
                    assert twisted == c, "A3 bar re-verification"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_2_cross_oracle():
    with criterion(2, "cross-oracle: module table equals algebra table for A1 A2 B2"):
        start = time.perf_counter()
        for label in ["A1", "A2", "B2"]:
            d = dm.builtin_datum(f"hecke-regular:{label}")
            table = klv.klv_table(d)
            basis = hecke.kl_basis(d.coxeter)
            sys = d.coxeter
            for w in sys.elements():
                expected = {
                    sys.element_token(x): p for x, p in basis.c(w).terms.items()
                }
                got = dict(table.column(sys.element_token(w)).coords)
                assert got == expected, (label, sys.element_token(w))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"


def test_criterion_3_sl2_tables():
    with criterion(3, "rank-one symmetric pairs give the stated self-dual bases"):
        t = dm.builtin_datum("sl2-T")
        tt = klv.klv_table(t)
        assert dict(tt.column("wt").coords) == {"wt": ONE, "p0": ONE, "pInf": ONE}
        assert dict(tt.column("ws").coords) == {"ws": ONE}
        n = dm.builtin_datum("sl2-N")
        tn = klv.klv_table(n)
        assert dict(tn.column("wp").coords) == {"wp": ONE, "u": ONE}
        assert dict(tn.column("wm").coords) == {"wm": ONE, "u": ONE}


def test_criterion_4_cuspidals_are_clean():
    with criterion(4, "cuspidal implies clean on every builtin; ws is the witness"):
        for name in dm.BUILTIN_NAMES:
            d = dm.builtin_datum(name)
            table = klv.klv_table(d)
            for p in d.params:
                if klv.is_cuspidal(d, p.id):
                    assert klv.is_clean(table, p.id), (name, p.id)
        d = dm.builtin_datum("sl2-T")
        table = klv.klv_table(d)
        assert klv.is_cuspidal(d, "ws")
        assert klv.is_clean(table, "ws")
        assert klv.c_expansion(d, d.coxeter.generator(0), "ws") == {}


def test_criterion_5_positivity():
    with criterion(5, "every c-coefficient over every builtin is non-negative"):
        start = time.perf_counter()
        checked = 0
        for name in dm.BUILTIN_NAMES:
            d = dm.builtin_datum(name)
            for w in d.coxeter.elements():
                for p in d.params:
                    for gamma, c in klv.c_expansion(d, w, p.id).items():
                        checked += 1
                        assert c.is_nonnegative(), (name, p.id, gamma)
        elapsed = time.perf_counter() - start
        assert checked > 1000
        assert elapsed < 10.0, f"criterion 5 took {elapsed:.2f}s"


def test_criterion_6_parity():
    with criterion(6, "every Ext and IC series is single-parity in window q^0..q^10"):
        for name in dm.BUILTIN_NAMES:
            d = dm.builtin_datum(name)
            for tau in d.basis:
                for gamma in d.basis:
                    es = ext.ext_poincare(d, tau.id, gamma.id)
                    assert single_parity(es, 10), (name, tau.id, gamma.id)
                ic = ext.ic_cohomology(d, tau.id)
                assert single_parity(ic, 10), (name, tau.id)


def test_criterion_7_ext_exact_values():
    with criterion(7, "exact Ext series match on hecke-regular:A1 and sl2-N"):
        a1 = dm.builtin_datum("hecke-regular:A1")
        one_den = PoincareSeries(parse_poly("1"), [1])
        assert ext.ext_poincare(a1, "e", "e").series == one_den
        assert ext.ext_poincare(a1, "1", "1").series == PoincareSeries(
            parse_poly("1+q"), [1]
        )
        assert ext.ext_poincare(a1, "e", "1").series == PoincareSeries(
            parse_poly("q"), [1]
        )
        n = dm.builtin_datum("sl2-N")
        assert ext.ext_poincare(n, "wp", "wp").series == one_den


def test_criterion_8_involution_suite():
    with criterion(8, "beta is an involution, semilinear; bases re-verified self-dual"):
        qinv = LaurentPoly.monomial(1, -1)
        for name in dm.BUILTIN_NAMES:
            d = dm.builtin_datum(name)
            table = hm.ts_matrix(d)
            for p in d.params:
                x = hm.basis_vector(d, p.id)
                assert hm.beta(hm.beta(x, d), d) == x, (name, p.id)
                for s in range(d.coxeter.rank):
                    lhs = hm.beta(table.apply(s, x), d)
                    bx = hm.beta(x, d)
                    rhs = table.apply(s, bx).scale(qinv) + bx.scale(qinv - ONE)
                    assert lhs == rhs, (name, s, p.id)
            klv_table = klv.klv_table(d)
            for p in d.params:
                col = klv_table.column(p.id)
                twisted = hm.beta(col, d).scale(LaurentPoly.monomial(1, p.dim))
                assert twisted == col, (name, p.id)


def test_criterion_9_validation_catches_structure_damage():
    with criterion(9, "ascent deletions fail check (1); coefficient damage fails check (3)"):
        for name in ["sl2-T", "sl2-N"]:
            base = dm.builtin_datum(name)
            ascent_rows = [
                (s, p.id)
                for s in range(base.coxeter.rank)
                for p in base.params
                if isinstance(base.descriptor(s, p.id), dm.ASCENT_CASES)
            ]
            assert ascent_rows
            for s, pid in ascent_rows:
                actions = {t: dict(rows) for t, rows in base.actions.items()}
                del actions[s][pid]
                report = dm.validate_datum(clone(base, actions=actions))
                assert "thm-order-reachability" in report.failed_names(), (name, pid)

            table = hm.build_action_table(base)
            for s in range(base.coxeter.rank):
                for p in base.params:
                    col = table.columns[s][p.id]
                    for k, (target, coeff) in enumerate(col):
                        new_col = list(col)
                        new_col[k] = (target, coeff + ONE)
                        actions = {t: dict(rows) for t, rows in base.actions.items()}
                        actions[s][p.id] = dm.ExplicitRow(coeffs=tuple(new_col))
                        report = dm.validate_datum(clone(base, actions=actions))
                        assert "quadratic-relation" in report.failed_names(), (
                            name,
                            p.id,
                            target,
                        )


def test_criterion_10_check_determinism(tmp_path):
    with criterion(10, "klvwb check is byte-identical across runs and exits 0"):
        for name in dm.BUILTIN_NAMES:
            outs = []
            for run in (1, 2):
                out = tmp_path / f"{name.replace(':', '_')}_{run}.txt"
                code = main(["check", "--builtin", name, "--out", str(out)])
                assert code == 0, name
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], name
