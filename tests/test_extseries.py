import functools
import json
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klvwb import cli
from klvwb import datum as dm
from klvwb import extseries as ext
from klvwb import hmodule as hm
from klvwb import klv
from klvwb.coxeter import memoized
from klvwb.errors import DatumError, DomainError
from klvwb.laurent import (
    ONE,
    LaurentPoly,
    PoincareSeries,
    paccum,
    parse_poly,
    pbar,
    pnorm,
    ppack,
    punpack,
    render_series,
)
from test_hmodule import _relabelled
from test_klv import (
    _GATE_BYPASS_DATUMS,
    _PERTURBATIONS,
    _perturbed,
    assert_series_parity_matches_the_sweep,
    single_parity,
)


def series(num, den):
    return PoincareSeries(parse_poly(num), den)


def test_hecke_regular_a1_exact_values():
    d = dm.builtin_datum("hecke-regular:A1")
    assert ext.ext_poincare(d, "e", "e").series == series("1", [1])
    assert ext.ext_poincare(d, "1", "1").series == series("1+q", [1])
    assert ext.ext_poincare(d, "e", "1").series == series("q", [1])


def test_hecke_regular_a1_degree_dictionary():
    d = dm.builtin_datum("hecke-regular:A1")
    ee = ext.ext_poincare(d, "e", "e")
    assert ee.dims(4) == {0: 1, 2: 1, 4: 1, 6: 1, 8: 1}
    ss = ext.ext_poincare(d, "1", "1")
    assert ss.dims(3) == {0: 1, 2: 2, 4: 2, 6: 2}
    es = ext.ext_poincare(d, "e", "1")
    assert es.dims(3) == {1: 1, 3: 1, 5: 1}
    assert all(deg % 2 == 1 for deg in es.dims(10))


def test_sl2_n_self_ext():
    d = dm.builtin_datum("sl2-N")
    assert ext.ext_poincare(d, "wp", "wp").series == series("1", [1])
    assert ext.ext_poincare(d, "wm", "wm").series == series("1", [1])


def test_sl2_t_series():
    d = dm.builtin_datum("sl2-T")
    assert ext.ext_poincare(d, "ws", "ws").series == series("1", [])
    assert ext.ext_poincare(d, "wt", "wt").series == series("1+q", [1])
    assert ext.ext_poincare(d, "p0", "wt").series == series("q", [1])
    assert ext.ext_poincare(d, "wt", "p0").series == series("1", [1])


def test_clean_incomparable_pair_vanishes():
    d = dm.builtin_datum("sl2-T")
    assert ext.ext_poincare(d, "p0", "pInf").series.is_zero()
    assert ext.ext_poincare(d, "ws", "wt").series.is_zero()


def test_ic_series_examples():
    a1 = dm.builtin_datum("hecke-regular:A1")
    assert ext.ic_cohomology(a1, "1").series == series("1+q", [1])
    t = dm.builtin_datum("sl2-T")
    assert ext.ic_cohomology(t, "ws").series == series("1", [])
    n = dm.builtin_datum("sl2-N")
    assert ext.ic_cohomology(n, "wp").series == series("1", [1])


def test_self_ext_anchor_over_builtins():
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        for p in d.params:
            es = ext.ext_poincare(d, p.id, p.id)
            assert es.series.coefficient(0) == 1, (name, p.id)
            lo = es.series.num.degree_window()[0]
            assert lo >= 0, (name, p.id)


def test_parity_and_nonnegativity_over_builtins():
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        for tau in d.basis:
            for gamma in d.basis:
                es = ext.ext_poincare(d, tau.id, gamma.id)
                assert single_parity(es, 10), (name, tau.id, gamma.id)
                assert all(c >= 0 for c in es.dims(10).values())
            ic = ext.ic_cohomology(d, tau.id)
            assert single_parity(ic, 10), (name, tau.id)
            assert all(c >= 0 for c in ic.dims(10).values())


def test_parity_matches_dimension_sum():
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        for tau in d.basis:
            for gamma in d.basis:
                es = ext.ext_poincare(d, tau.id, gamma.id)
                want = (tau.dim + gamma.dim) % 2
                assert all(deg % 2 == want for deg in es.dims(10)), (
                    name,
                    tau.id,
                    gamma.id,
                )


def test_series_row_formatting():
    d = dm.builtin_datum("hecke-regular:A1")
    row = ext.series_row(ext.ext_poincare(d, "e", "1"), window=3)
    assert row == ("e", "1", "q/(1-q)", "1:1;3:1;5:1")
    ic_row = ext.series_row(ext.ic_cohomology(d, "e"), window=2)
    assert ic_row == ("e", "", "1/(1-q)", "0:1;2:1;4:1")


def test_unknown_parameter_rejected():
    d = dm.builtin_datum("sl2-T")
    with pytest.raises(DatumError):
        ext.ext_poincare(d, "p0", "nope")
    with pytest.raises(DatumError):
        ext.ic_cohomology(d, "nope")


# --- Q read off P against the triangular solve -----------------------------


@memoized
def _solved_q_columns(d):
    """Oracle: Q by solving each self-dual column over the unitriangular
    costandard table, top down, {gamma: {eps: Q[eps, gamma] kernel dict}}."""
    table = klv.klv_table(d)
    n_cols, _ = hm.costandard_table(d)
    out = {}
    for gamma in d.basis:
        acc = {pid: dict(c._c) for pid, c in table.column(gamma.id).terms.items()}
        coords = hm.unitriangular_coords(d, acc, n_cols.__getitem__)
        out[gamma.id] = {eps: c._c for eps, c in coords.items()}
    return out


def _unpacked_q_columns(d):
    """The _q_rows decoded into {gamma: {eps: Q[eps, gamma] kernel dict}}."""
    bits, _, lo = ext._packing(d)
    out = {p.id: {} for p in d.basis}
    for eps, (indices, packed) in ext._q_rows(d).items():
        assert indices == sorted(set(indices)), eps
        for i, b in zip(indices, packed):
            out[d.basis[i].id][eps] = punpack(b, bits, lo)
    return out


def _solved_packing(d):
    """Oracle: (B, lo_left, lo_q) of the module docstring, with the Q norms
    and exponents read off _solved_q_columns."""
    table = klv.klv_table(d)
    p_cols = [table.column(p.id).coords for p in d.basis]
    q_cols = _solved_q_columns(d).values()
    row_max: dict = {}
    for col in q_cols:
        for eps, c in col.items():
            row_max[eps] = max(row_max.get(eps, 0), pnorm(c))
    ext = max(sum(pnorm(c._c) * row_max[eps] for eps, c in col.items()) for col in p_cols)
    ic = max(sum(map(pnorm, col.values())) for col in q_cols)
    lo_left = min([0, *(-e for col in p_cols for c in col.values() for e in c._c)])
    lo_q = min(e for col in q_cols for c in col.values() for e in c)
    return max(ext, ic).bit_length() + 1, lo_left, lo_q


def _assert_q_matches_the_solve(d):
    assert ext._packing(d) == _solved_packing(d)
    got, want = _unpacked_q_columns(d), _solved_q_columns(d)
    for gamma, col in want.items():
        assert got[gamma] == col, gamma
    # equal entries share one int
    packed = [b for _, row in ext._q_rows(d).values() for b in row]
    assert len({id(b) for b in packed}) == len(set(packed))


_UP_TO_D4 = ["sl2-T", "sl2-N"] + [
    f"hecke-regular:{label}" for label in ("A1", "A2", "B2", "G2", "A3", "C3", "D4")
]


@pytest.mark.parametrize("name", _UP_TO_D4)
def test_q_read_off_p_matches_the_solve_over_builtins(name):
    _assert_q_matches_the_solve(dm.builtin_datum(name))


@pytest.mark.parametrize("name", ["hecke-regular:C3", "hecke-regular:D4"])
def test_q_read_off_p_matches_the_solve_on_a_derived_costandard_table(name):
    obj = dm.builtin_datum(name).to_jsonable()
    del obj["costandard"]
    d = dm.load_datum(obj)
    _assert_q_matches_the_solve(d)
    assert hm.costandard_table(d)[1] == "derived"


def test_q_read_off_p_matches_the_solve_with_a_negative_exponent():
    # c = q^-3 - q^4 satisfies c = -q bar(c), so the table is still
    # self-dual, and P[p0, wt] = q^-3 has a negative exponent
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["costandard"]["wt"]["p0"] = "q^-3-q^4"
    d = dm.load_datum(obj)
    assert klv.klv_table(d).column("wt").coords["p0"]._c == {-3: 1}
    _assert_q_matches_the_solve(d)
    assert _unpacked_q_columns(d)["wt"]["p0"] == {4: 1}


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_q_read_off_p_matches_the_solve_on_perturbed_tables(data):
    # about one perturbed table in ten validates, so draw candidates until
    # one does, rather than filtering whole examples
    for _ in range(40):
        name = data.draw(st.sampled_from(_GATE_BYPASS_DATUMS))
        pids = st.sampled_from([p.id for p in dm.builtin_datum(name).basis])
        polys = st.sampled_from(_PERTURBATIONS).map(parse_poly)
        bump = st.tuples(pids, pids, polys, st.booleans())
        bumps = data.draw(st.lists(bump, min_size=1, max_size=2))
        d = _perturbed(name, bumps)
        if dm.validate_datum(d).ok:
            break
    else:
        assume(False)
    _assert_q_matches_the_solve(d)


@pytest.mark.parametrize("name", ["sl2-T", "sl2-N"] + [
    f"hecke-regular:{label}" for label in ("A1", "A2", "A3", "B2", "G2", "C3")
])
def test_ext_is_symmetric_up_to_the_dimension_shift(name):
    # Ext(gamma, tau) = q^(dim tau - dim gamma) Ext(tau, gamma), see ext_row
    d = dm.builtin_datum(name)
    rows = {tau.id: ext.ext_row(d, tau.id) for tau in d.basis}
    for tau in d.basis:
        for gamma in d.basis:
            shift = LaurentPoly.monomial(1, tau.dim - gamma.dim)
            forward = rows[tau.id][d.basis_index[gamma.id]].series
            assert rows[gamma.id][d.basis_index[tau.id]].series == forward * shift, (
                tau.id, gamma.id,
            )


# --- grouped sum against the term-by-term fold -----------------------------


def _fold(d, weights):
    """Oracle: sum of weight * poincare[eps] in basis order, zero weights
    skipped, each partial sum reduced."""
    total = PoincareSeries.zero()
    for eps, weight in weights:
        if not weight.is_zero():
            total = total + d.poincare[eps] * weight
    return total


def _fold_ext(d, tau, gamma):
    p_col = klv.klv_table(d).column(tau).coords
    q_col = _solved_q_columns(d)[gamma]
    return _fold(d, (
        (eps.id, p_col[eps.id].bar() * LaurentPoly._raw(q_col[eps.id]))
        for eps in d.basis
        if eps.id in p_col and eps.id in q_col
    ))


def _fold_ic(d, tau):
    q_col = _solved_q_columns(d)[tau]
    return _fold(d, (
        (eps.id, LaurentPoly._raw(q_col[eps.id])) for eps in d.basis if eps.id in q_col
    ))


@functools.cache
def _dump(name):
    return dm.builtin_datum(name).to_jsonable()


_numerators = st.dictionaries(st.integers(1, 6), st.integers(-3, 3), max_size=3).map(
    lambda terms: LaurentPoly({0: 1, **terms})
)


@st.composite
def _poincare_tables(draw):
    """(builtin name, {pid: series}, mixed): a pool of one to three series
    shared out over the parameters, over one factor (1-q^a) to powers 0..3,
    or over a factor set that the first series mixes."""
    name = draw(st.sampled_from(
        ["sl2-T", "sl2-N", "hecke-regular:A1", "hecke-regular:A2", "hecke-regular:B2"]
    ))
    pids = sorted(_dump(name)["poincare"])
    mixed = draw(st.booleans())
    if mixed:
        factors = draw(st.sampled_from([[1, 2], [2, 3], [1, 3, 4]]))
        dens = st.lists(st.sampled_from(factors), min_size=1, max_size=4)
    else:
        a = draw(st.integers(1, 4))
        dens = st.integers(0, 3).map(lambda k: [a] * k)
    pool = [[draw(_numerators), draw(dens)] for _ in range(draw(st.integers(1, 3)))]
    if mixed:
        pool[0][1] += factors
        if len(set(PoincareSeries(*pool[0]).den)) < 2:
            pool[0][0] = ONE  # its numerator cancelled a factor and unmixed it
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(pids), max_size=len(pids)))
    table = {pid: PoincareSeries(*pool[i]) for pid, i in zip(pids, picks)}
    table[pids[0]] = PoincareSeries(*pool[0])
    return name, table, mixed


@settings(deadline=None, max_examples=60)
@given(drawn=_poincare_tables())
def test_grouped_sum_renders_as_the_fold(drawn):
    name, table, mixed = drawn
    obj = dict(_dump(name))
    obj["poincare"] = {
        pid: {"num": str(s.num), "den": list(s.den)} for pid, s in table.items()
    }
    d = dm.load_datum(obj)
    assert (ext._slots(d)[0] is d.basis_index) == mixed
    for tau in d.basis:
        row = ext.ext_row(d, tau.id)
        assert [es.gamma for es in row] == [gamma.id for gamma in d.basis]
        for es in row:
            want = _fold_ext(d, tau.id, es.gamma)
            assert render_series(es.series) == render_series(want)
            got = ext.ext_poincare(d, tau.id, es.gamma)
            assert render_series(got.series) == render_series(want)
            assert got.degree_offset == es.degree_offset
            oracle = ext.ExtSeries(tau.id, es.gamma, want, es.degree_offset)
            for window in (0, 3, 10):
                assert ext.series_row(es, window) == ext.series_row(oracle, window)
        got = ext.ic_cohomology(d, tau.id).series
        assert render_series(got) == render_series(_fold_ic(d, tau.id))
    assert_series_parity_matches_the_sweep(d)


def _with_mixed_factors(obj):
    """obj with three Poincare series, two of them over mixed factors,
    dealt out in sorted id order, as the mixed-factor step of CI does."""
    tables = [{"num": "1-3q^3", "den": [2, 2, 3]}, {"num": "1", "den": [2, 2, 2, 2]},
              {"num": "1", "den": []}]
    obj["poincare"] = {pid: tables[i % 3] for i, pid in enumerate(sorted(obj["poincare"]))}
    return obj


@pytest.mark.parametrize("mixed", [False, True])
def test_a3_rows_render_as_the_fold(mixed):
    # A3 is the smallest builtin whose P table has entries that bar moves
    obj = dict(_dump("hecke-regular:A3"))
    if mixed:
        obj = _with_mixed_factors(obj)
    d = dm.load_datum(obj)
    assert (ext._slots(d)[0] is d.basis_index) == mixed
    assert any(p != p.bar() for _, _, p in klv.klv_table(d).rows())
    for tau in d.basis:
        for es in ext.ext_row(d, tau.id):
            want = _fold_ext(d, tau.id, es.gamma)
            oracle = ext.ExtSeries(tau.id, es.gamma, want, es.degree_offset)
            assert ext.series_row(es, 10) == ext.series_row(oracle, 10)


def _mixed_b2():
    obj = dict(_dump("hecke-regular:B2"))
    one = {"num": "1", "den": []}
    mixed = {"num": "1-3q^3", "den": [2, 2, 3]}
    fourth = {"num": "1", "den": [2, 2, 2, 2]}
    obj["poincare"] = {
        "e": mixed, "1": one, "2": mixed, "1.2": mixed, "2.1": fourth,
        "1.2.1": fourth, "2.1.2": one, "1.2.1.2": one,
    }
    return obj


def test_mixed_factor_datum_keeps_the_fold():
    # summing per series here (in the series' first-seen order) would give
    # (1+2q+3q^2-7q^4-5q^5+3q^6+6q^7+2q^8-3q^9+q^11)/(1-q^2)^3(1-q^3)
    # for Ext(1.2.1, 1.2.1); the gate keeps the fold
    d = dm.load_datum(_mixed_b2())
    assert ext._slots(d)[0] is d.basis_index
    got = ext.ext_poincare(d, "1.2.1", "1.2.1").series
    assert str(got) == "(1+2q+2q^2-q^3-8q^4-3q^5+9q^6+3q^7-4q^8+q^10)/(1-q^2)^4"
    assert str(got) == str(_fold_ext(d, "1.2.1", "1.2.1"))


def test_mixed_factor_series_parity_matches_the_sweep():
    assert_series_parity_matches_the_sweep(dm.load_datum(_mixed_b2()))


def test_mixed_factor_sweep_rows_equal_single_pairs(tmp_path, capsys):
    # the same datum through the full klvwb ext sweep, against every single pair
    obj = _mixed_b2()
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    src = ["--datum", str(path), "--format", "csv"]
    assert cli.main(["ext", *src]) == 0
    sweep = capsys.readouterr().out.splitlines()
    pids = [p.id for p in dm.load_datum(obj).basis]
    assert len(sweep) == 1 + len(pids) ** 2 + len(pids)
    pairs = iter(sweep[1:])
    for tau in pids:
        for gamma in pids:
            assert cli.main(["ext", *src, "--tau", tau, "--gamma", gamma]) == 0
            assert capsys.readouterr().out.splitlines()[1] == next(pairs)
    assert "(1+2q+2q^2-q^3-8q^4-3q^5+9q^6+3q^7-4q^8+q^10)/(1-q^2)^4" in (
        sweep[1 + pids.index("1.2.1") * len(pids) + pids.index("1.2.1")]
    )


def test_shared_series_keeps_each_offset():
    # one series object, one shared memo, two offsets: each gamma is rendered
    # with its own degrees, whichever comes first
    s = series("q", [1])
    for order in ((0, 1), (1, 0)):
        memo = {}
        rows = {
            off: ext.ExtSeries("t", f"g{off}", s, off, memo) for off in order
        }
        got = {off: ext.series_row(es, 3) for off, es in rows.items()}
        assert got[0] == ("t", "g0", "q/(1-q)", "2:1;4:1;6:1")
        assert got[1] == ("t", "g1", "q/(1-q)", "1:1;3:1;5:1")
        assert ext.series_row(rows[0], 2) == ("t", "g0", "q/(1-q)", "2:1;4:1")
        assert all(single_parity(es, 3) for es in rows.values())


def test_ext_series_equality_leaves_the_memo_out():
    s = series("q", [1])
    a = ext.ExtSeries("t", "g", s, 1, {"rendered": "x"})
    b = ext.ExtSeries("t", "g", s, 1)
    assert a == b
    assert a.memo == {"rendered": "x"} and b.memo == {}
    # a series built without a table gets one of its own
    assert ext.ExtSeries("t", "g", s, 1).memo is not b.memo
    assert a != ext.ExtSeries("t", "g", s, 2, a.memo)
    assert a != ext.ExtSeries("t", None, s, 1, a.memo)
    assert "memo" not in repr(a)
    with pytest.raises(AttributeError):
        a.memo = {}


def test_row_shares_one_memo_and_equal_series():
    d = dm.builtin_datum("hecke-regular:A3")
    shared = 0
    for tau in d.basis:
        row = ext.ext_row(d, tau.id)
        assert len({id(es.memo) for es in row}) == 1
        shared += len(row) - len({id(es.series) for es in row})
    assert shared > 0
    with pytest.raises(DatumError):
        ext.ext_row(d, "nope")


def test_grouping_changes_the_form_under_mixed_factors():
    s = PoincareSeries(ONE, [2, 3, 4])
    w1 = parse_poly("2q-2q^2-2q^4+2q^5")
    w2 = parse_poly("-2q+2q^4-2q^5+2q^8")
    folded = s * w1 + s * w2
    grouped = s * (w1 + w2)
    assert folded == grouped
    assert str(folded) == "(-2q^2-2q^5)/(1-q^2)(1-q^4)"
    assert str(grouped) == "(-2q^2-2q^4-2q^6)/(1-q^3)(1-q^4)"


def test_slots_gate():
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        slot, series = ext._slots(d)
        assert slot is not d.basis_index, name
        assert set(slot) == set(d.param_by_id), name
        assert list(series) == sorted(set(slot.values())) == list(range(len(series))), name
        assert ext._slots(d)[0] is slot
    assert set(ext._slots(dm.builtin_datum("sl2-T"))[0].values()) == {0, 1}
    obj = _dump("sl2-N")
    obj = {**obj, "poincare": {**obj["poincare"], "u": {"num": "1", "den": [1]},
                               "wp": {"num": "1", "den": [2]}}}
    mixed = dm.load_datum(obj)
    slot, series = ext._slots(mixed)
    assert slot is mixed.basis_index
    assert series == {i: mixed.poincare[p.id] for i, p in enumerate(mixed.basis)}


# --- the packed pairing against the kernel fold ----------------------------


_kernel = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9).filter(bool), max_size=4)


@st.composite
def _packed_sums(draw):
    """(B, [(a, b)]): kernel-dict pairs whose fold has every coefficient
    inside B's signed digit range.  Some pairs are extreme, a coefficient of
    +-(2^(B-1) - 1) times +-q^f, and some are followed by their negation, so
    that parts of the sum, or all of it, cancel to zero."""
    bits = draw(st.integers(2, 80))
    top = (1 << (bits - 1)) - 1
    extreme = st.tuples(
        st.builds(lambda e, s: {e: s * top}, st.integers(-8, 8), st.sampled_from([1, -1])),
        st.builds(lambda f, s: {f: s}, st.integers(-8, 8), st.sampled_from([1, -1])),
    )
    pairs = []
    for a, b in draw(st.lists(st.one_of(st.tuples(_kernel, _kernel), extreme), max_size=6)):
        pairs.append((a, b))
        if draw(st.booleans()):
            pairs.append(({e: -c for e, c in a.items()}, b))
    fold: dict = {}
    for a, b in pairs:
        paccum(fold, a, b)
    assume(all(abs(c) <= top for c in fold.values()))
    return bits, pairs


@settings(deadline=None, max_examples=300)
@given(drawn=_packed_sums())
def test_packed_multiply_accumulate_unpacks_to_the_kernel_fold(drawn):
    bits, pairs = drawn
    lo_a = min((e for a, _ in pairs for e in a), default=0)
    lo_b = min((e for _, b in pairs for e in b), default=0)
    acc = 0
    fold: dict = {}
    for a, b in pairs:
        acc += ppack(a, bits, lo_a) * ppack(b, bits, lo_b)
        paccum(fold, a, b)
    assert punpack(acc, bits, lo_a + lo_b) == fold


@pytest.mark.parametrize("name", ["hecke-regular:B2", "hecke-regular:A3"])
def test_packing_width_bounds_every_weight(name):
    # every Ext and IC weight of the sweep, slot by slot, by the kernel fold
    d = dm.builtin_datum(name)
    bits, _, _ = ext._packing(d)
    slot, _ = ext._slots(d)
    table = klv.klv_table(d)
    q_cols = _solved_q_columns(d)
    top = 0
    for tau in d.basis:
        p_col = table.column(tau.id).coords
        for gamma in d.basis:
            for left, q_col in ((p_col, q_cols[gamma.id]), ({tau.id: ONE}, q_cols[tau.id])):
                weights: dict = {}
                for eps, a in left.items():
                    if eps in q_col:
                        paccum(weights.setdefault(slot[eps], {}), pbar(a._c), q_col[eps])
                top = max([top, *(abs(c) for w in weights.values() for c in w.values())])
    assert 0 < top < 1 << (bits - 1)


def test_series_and_renders_are_shared_per_datum(monkeypatch):
    d = dm.builtin_datum("hecke-regular:A3")
    rendered = []

    def counting(series):
        rendered.append(series)
        return render_series(series)

    monkeypatch.setattr(ext, "render_series", counting)
    rows = list(ext.sweep_rows(d))
    built, renders = ext._tables(d)
    texts = {key for key in renders if isinstance(key, int)}
    # each distinct series object is rendered once, and every pair and IC
    # series of the sweep reads one of the series table's objects
    assert len(rendered) == len({id(s) for s in rendered}) == len(built) == len(texts)
    assert {id(s) for s in rendered} == {id(s) for s in built.values()} == texts
    assert len(rows) > len(renders) - len(texts) > len(built)
    # the API shares the table: another window adds degree lines, no text
    ics = [ext.ic_cohomology(d, tau.id) for tau in d.basis]
    assert {id(es.memo) for es in ics} == {id(renders)}
    api = _api_rows(d, 3)
    assert len(rendered) == len(built)
    # a second sweep, at either window, adds no entry to either table
    before = (len(built), len(renders))
    assert list(ext.sweep_rows(d)) == rows
    assert list(ext.sweep_rows(d, 3)) == api
    assert (len(built), len(renders)) == before
    assert len(rendered) == len(built)
    d._cache.clear()
    assert ext._tables(d) == ({}, {})


_SWEEP_DATUMS = [
    "sl2-T",
    "sl2-N",
    *(f"hecke-regular:{t}" for t in ("A1", "A2", "B2", "G2", "A3", "C3")),
]


def _api_rows(d, window):
    """series_row over ext_row of every tau in basis order, then the IC rows."""
    rows = [ext.series_row(es, window) for tau in d.basis for es in ext.ext_row(d, tau.id)]
    return rows + [ext.series_row(ext.ic_cohomology(d, tau.id), window) for tau in d.basis]


def _sweep_dump(name, seed):
    """The JSON text of a dump of the builtin: relabelled for an int seed,
    with the mixed factors of CI for "mixed", and for "negative" with the
    costandard entry q^-3 - q^4, which puts q^-3 into P."""
    obj = dm.builtin_datum(name).to_jsonable()
    if seed == "mixed":
        obj = _with_mixed_factors(obj)
    elif seed == "negative":
        obj["costandard"]["wt"]["p0"] = "q^-3-q^4"
    else:
        obj = _relabelled(obj, random.Random(seed))
    return json.dumps(obj)


@pytest.mark.parametrize("window", [0, 3, 10])
@pytest.mark.parametrize(
    "name, seed",
    [(name, None) for name in _SWEEP_DATUMS]
    + [("hecke-regular:C3", 5), ("hecke-regular:C3", "mixed"), ("sl2-T", "negative")],
)
def test_the_cli_sweep_matches_the_api(tmp_path, name, seed, window):
    # the sweep pairs only the upper triangle and reads the rest off the
    # shifted keys; the API pairs every full row
    if seed is None:
        source = ["--builtin", name]
        fresh = functools.partial(dm.builtin_datum, name)
    else:
        text = _sweep_dump(name, seed)
        (tmp_path / "dump.json").write_text(text, encoding="utf-8")
        source = ["--datum", str(tmp_path / "dump.json")]
        fresh = functools.partial(dm.load_datum, text)
    out = tmp_path / "ext.csv"
    argv = ["ext", *source, "--format", "csv", "--window", str(window), "--out", str(out)]
    assert cli.main(argv) == 0
    header, *lines = out.read_text(encoding="utf-8").splitlines()
    assert header == "tau,gamma,series,first_degrees"
    want = _api_rows(fresh(), window)
    assert [tuple(line.split(",")) for line in lines] == want
    # on one datum the generator and the API share the tables, in either order
    d = fresh()
    assert list(ext.sweep_rows(d, window)) == want == _api_rows(d, window)
    if seed == "mixed":
        assert ext._slots(d)[0] is d.basis_index
    if seed == "negative":
        assert klv.klv_table(d).column("wt").coords["p0"]._c == {-3: 1}
        assert {p.dim for p in d.basis} != {0}


class _Traced(int):
    """A packed int that logs (its tag, the other factor's tag) on each
    product with another _Traced."""

    def __new__(cls, value, tag, log):
        self = super().__new__(cls, value)
        self.tag, self.log = tag, log
        return self

    def __mul__(self, other):
        self.log.append((self.tag, other.tag))
        return int(self) * int(other)


@pytest.mark.parametrize("name, seed", [("hecke-regular:C3", 5), ("hecke-regular:C3", "mixed")])
def test_the_sweep_multiplies_only_the_upper_triangle(monkeypatch, name, seed):
    # each bar(P[eps, tau_j]) is tagged j and each packed Q[eps, gamma_i] i:
    # the sweep makes exactly the products of the full rows with i >= j
    text = _sweep_dump(name, seed)
    want = list(ext.sweep_rows(dm.load_datum(text)))
    log = []
    q_rows, bar_column = ext._q_rows, ext._bar_column

    def traced_rows(d):
        return {
            eps: (indices, [_Traced(b, i, log) for i, b in zip(indices, packed)])
            for eps, (indices, packed) in q_rows(d).items()
        }

    def traced_column(d, tau):
        j = d.basis_index[tau]
        return {eps: _Traced(a, j, log) for eps, a in bar_column(d, tau).items()}

    monkeypatch.setattr(ext, "_q_rows", traced_rows)
    monkeypatch.setattr(ext, "_bar_column", traced_column)
    d = dm.load_datum(text)
    for tau in d.basis:
        ext.ext_row(d, tau.id)
    full = Counter(log)
    log.clear()
    assert list(ext.sweep_rows(dm.load_datum(text))) == want
    assert Counter(log) == Counter({(j, i): k for (j, i), k in full.items() if i >= j})
    assert any(i < j for j, i in full)


def test_a_weight_too_wide_to_pack_is_refused(tmp_path, capsys):
    # c = q^-999999 - q^1000000 satisfies c = -q bar(c), so the table passes
    # costandard-involution, and P[p0, wt] = q^-999999: one packed weight
    # would take 3 bits for each of 3,000,000 exponents
    obj = dm.builtin_datum("sl2-T").to_jsonable()
    obj["costandard"]["wt"]["p0"] = "q^-999999-q^1000000"
    d = dm.load_datum(obj)
    assert dm.validate_datum(d).ok
    with pytest.raises(DomainError, match=f"more than {ext.MAX_PACKED_BITS}"):
        ext.ext_row(d, "wt")
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert cli.main(["ext", "--datum", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "klvwb: invalid datum: Ext weights would pack into 6000000 bits each, "
        f"more than {ext.MAX_PACKED_BITS}"
    ]
