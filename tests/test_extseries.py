import functools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klvwb import cli
from klvwb import datum as dm
from klvwb import extseries as ext
from klvwb import klv
from klvwb.errors import DatumError, DomainError
from klvwb.laurent import (
    ONE,
    LaurentPoly,
    PoincareSeries,
    paccum,
    parse_poly,
    pbar,
    ppack,
    punpack,
    render_series,
)
from test_klv import assert_series_parity_matches_the_sweep, single_parity


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
    q_col = ext._q_columns(d)[gamma]
    return _fold(d, (
        (eps.id, p_col[eps.id].bar() * LaurentPoly._raw(q_col[eps.id]))
        for eps in d.basis
        if eps.id in p_col and eps.id in q_col
    ))


def _fold_ic(d, tau):
    q_col = ext._q_columns(d)[tau]
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
    assert (ext._series_groups(d) is None) == mixed
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


@pytest.mark.parametrize("mixed", [False, True])
def test_a3_rows_render_as_the_fold(mixed):
    # A3 is the smallest builtin whose P table has entries that bar moves
    obj = dict(_dump("hecke-regular:A3"))
    if mixed:
        tables = [{"num": "1-3q^3", "den": [2, 2, 3]}, {"num": "1", "den": [2, 2, 2, 2]},
                  {"num": "1", "den": []}]
        obj["poincare"] = {pid: tables[i % 3] for i, pid in enumerate(sorted(obj["poincare"]))}
    d = dm.load_datum(obj)
    assert (ext._series_groups(d) is None) == mixed
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
    assert ext._series_groups(d) is None
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


def test_series_groups_gate():
    for name in dm.BUILTIN_NAMES:
        d = dm.builtin_datum(name)
        groups = ext._series_groups(d)
        assert set(groups) == set(d.param_by_id), name
        assert ext._series_groups(d) is groups
    assert set(ext._series_groups(dm.builtin_datum("sl2-T")).values()) == {0, 1}
    obj = _dump("sl2-N")
    obj = {**obj, "poincare": {**obj["poincare"], "u": {"num": "1", "den": [1]},
                               "wp": {"num": "1", "den": [2]}}}
    mixed = dm.load_datum(obj)
    assert ext._series_groups(mixed) is None
    assert mixed._cache[(ext._series_groups.__wrapped__,)] is None


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
    q_cols = ext._q_columns(d)
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


def test_series_and_renders_are_shared_per_datum():
    d = dm.builtin_datum("hecke-regular:A3")
    rows = [ext.ext_row(d, tau.id) for tau in d.basis]
    ics = [ext.ic_cohomology(d, tau.id) for tau in d.basis]
    built, renders = ext._tables(d)
    assert {id(es.memo) for row in rows for es in row} | {id(es.memo) for es in ics} == {
        id(renders)
    }
    owners: dict = {}
    for i, row in enumerate(rows):
        for es in row:
            owners.setdefault(id(es.series), set()).add(i)
    assert len(owners) <= len(built)
    assert max(map(len, owners.values())) > 1  # one series object serves several rows
    for row in rows:
        for es in row:
            ext.series_row(es)
    rendered = len(renders)
    assert rendered == len({(id(es.series), es.degree_offset) for row in rows for es in row})
    for row in rows:
        for es in row:
            ext.series_row(es)
    assert len(renders) == rendered
    d._cache.clear()
    assert ext._tables(d) == ({}, {})


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
