import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klvwb import laurent
from klvwb.errors import DomainError
from klvwb.laurent import (
    MAX_EXPANSION_SPAN,
    LaurentPoly,
    PoincareSeries,
    _den_poly,
    _divide_once,
    _multiset_diff,
    _multiset_max,
    parse_poly,
    parse_series,
    pmul,
    render_poly,
    render_series,
)

ONE = LaurentPoly.one()
Q = LaurentPoly.q()


def rand_poly(rng, span=6, terms=5, coeff=9):
    return LaurentPoly(
        {
            rng.randint(-span, span): rng.randint(-coeff, coeff)
            for _ in range(rng.randint(0, terms))
        }
    )


def test_ring_arithmetic_examples():
    assert (ONE + Q) * (ONE + Q) == parse_poly("1+2q+q^2")
    assert (Q - ONE) + ONE == Q
    assert LaurentPoly.zero() * parse_poly("q^5-q^-5") == LaurentPoly.zero()


def test_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == LaurentPoly.zero()


def test_kernel_keeps_big_integers_exact():
    big = 10 ** 60
    a = {0: big, 3: -big}
    assert pmul(a, a) == {0: big * big, 3: -2 * big * big, 6: big * big}


def test_bar_examples():
    assert parse_poly("q^2-q^-1").bar() == parse_poly("q^-2-q")
    assert (ONE + Q).bar() == parse_poly("1+q^-1")


def test_bar_is_ring_involution():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_degree_window_and_truncate():
    assert parse_poly("q^-1+q^3").degree_window() == (-1, 3)
    assert parse_poly("1+q+q^2").truncate(1) == parse_poly("1+q")
    assert ONE.truncate(-1) == LaurentPoly.zero()
    with pytest.raises(DomainError):
        LaurentPoly.zero().degree_window()


def test_nonnegativity_detector():
    assert parse_poly("1+2q").is_nonnegative()
    assert not parse_poly("1-q^4").is_nonnegative()
    assert LaurentPoly.zero().is_nonnegative()


def test_render_canonical_forms():
    assert render_poly(LaurentPoly.zero()) == "0"
    assert render_poly(parse_poly("q + 1")) == "1+q"
    assert render_poly(parse_poly("-1 + q")) == "-1+q"
    assert render_poly(LaurentPoly({-1: 1, 2: -3})) == "q^-1-3q^2"
    assert render_poly(LaurentPoly({0: -2})) == "-2"
    assert render_poly(LaurentPoly({1: -1})) == "-q"


def test_parse_render_round_trip():
    rng = random.Random(99)
    for _ in range(300):
        a = rand_poly(rng)
        assert parse_poly(render_poly(a)) == a


def test_parse_rejects_garbage():
    for bad in ["", "q^", "1++q", "x", "q2", "1 2"]:
        with pytest.raises(DomainError):
            parse_poly(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPoly({Fraction(1, 2): 1}),
        lambda: LaurentPoly({0.5: 1, 0: 2}),
        lambda: LaurentPoly({0: 1.5}),
        lambda: PoincareSeries(ONE, [1.5]),
    ],
    ids=["half-exponent", "float-exponent", "float-coefficient", "float-denominator"],
)
def test_non_integers_are_refused_at_construction(build):
    # int() would truncate each of these to an integer term
    with pytest.raises(DomainError, match="^non-integer "):
        build()


def test_series_equality_by_cross_multiplication():
    # 1/(1-q) == (1+q)/(1-q^2)
    s1 = PoincareSeries(ONE, [1])
    s2 = PoincareSeries(ONE + Q, [2])
    assert s1 == s2
    assert PoincareSeries(ONE, [1]) != PoincareSeries(ONE, [1, 1])


def test_series_expansion_matches_geometric_series():
    s = PoincareSeries(ONE, [1])
    assert s.expand(0, 5) == {e: 1 for e in range(6)}
    s2 = PoincareSeries(ONE + Q, [1])
    assert s2.expand(0, 4) == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2}
    s3 = PoincareSeries(ONE, [1, 1])
    assert [s3.coefficient(m) for m in range(5)] == [1, 2, 3, 4, 5]


def test_series_addition_reduces_to_common_denominator():
    # q/(1-q) + 1 == 1/(1-q)
    total = PoincareSeries(Q, [1]) + PoincareSeries.one()
    assert total == PoincareSeries(ONE, [1])
    assert render_series(total) == "1/(1-q)"


def test_series_reduction_cancels_exact_factors():
    s = PoincareSeries(ONE - Q, [1])
    assert s.num == ONE and s.den == ()
    t = PoincareSeries(ONE - LaurentPoly.monomial(1, 2), [1, 2])
    assert t == PoincareSeries(ONE, [1])


def test_series_expansion_integrality_random():
    rng = random.Random(4242)
    for _ in range(60):
        num = rand_poly(rng, span=3)
        den = [rng.randint(1, 3) for _ in range(rng.randint(0, 3))]
        s = PoincareSeries(num, den)
        exp = s.expand(-5, 8)
        assert all(isinstance(c, int) for c in exp.values())
        # cross-check: expansion times denominator reproduces the numerator
        prod = LaurentPoly(exp)
        for a in s.den:
            prod = prod * (ONE - LaurentPoly.monomial(1, a))
        lo = min((min(num._c, default=0), -5))
        for e in range(lo, 4):
            assert prod.coefficient(e) == s.num.coefficient(e)


def test_series_equality_agrees_with_expansion():
    rng = random.Random(777)
    for _ in range(80):
        num = rand_poly(rng, span=3)
        den = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        s1 = PoincareSeries(num, den)
        # same value through a redundant factor
        a = rng.randint(1, 3)
        s2 = PoincareSeries(num * (ONE - LaurentPoly.monomial(1, a)), den + [a])
        assert s1 == s2
        assert s1.expand(-10, 12) == s2.expand(-10, 12)
        # a perturbed series must disagree both ways
        s3 = PoincareSeries(num + ONE, den)
        assert (s1 == s3) == (s1.expand(-10, 12) == s3.expand(-10, 12))


def test_series_render_forms():
    assert render_series(PoincareSeries(ONE, [1])) == "1/(1-q)"
    assert render_series(PoincareSeries(ONE + Q, [1])) == "(1+q)/(1-q)"
    assert render_series(PoincareSeries(ONE, [1, 1, 2])) == "1/(1-q)^2(1-q^2)"
    assert render_series(PoincareSeries.of_poly(Q)) == "q"


def test_series_json_round_trip():
    s = parse_series({"num": "1+q", "den": [1, 2]})
    assert s == PoincareSeries(ONE + Q, [1, 2])
    with pytest.raises(DomainError):
        parse_series({"num": "1", "den": "x"})
    with pytest.raises(DomainError):
        parse_series({"num": "1", "den": [0]})


def test_series_reduction_rule_is_greedy_in_increasing_order():
    # equal series, different renderings: each factor is tried once
    assert render_series(PoincareSeries(ONE, [1])) == "1/(1-q)"
    assert render_series(PoincareSeries(ONE + Q, [2])) == "(1+q)/(1-q^2)"
    # (1-q^2) is cancelled by (1-q) first, leaving (1+q) over (1-q^2)
    s = PoincareSeries(ONE - LaurentPoly.monomial(1, 2), [1, 2])
    assert render_series(s) == "(1+q)/(1-q^2)"


def test_series_reduction_cost_follows_the_terms():
    # the reduction must not walk the 10^7 exponents between the two terms
    s = parse_series({"num": "1+q^10000000", "den": [1]})
    assert s.num == parse_poly("1+q^10000000") and s.den == (1,)
    t = parse_series({"num": "1-q^10000000", "den": [10000000]})
    assert t.num == ONE and t.den == ()


def _multiply_back_divide_once(num, a):
    """Reference division: synthesize a quotient over the whole degree range
    from the low end, then multiply it back by (1 - q^a) to test exactness."""
    if num.is_zero():
        return num
    lo, hi = num.degree_window()
    c = dict(num._c)
    h = {}
    for e in range(lo, hi + 1):
        v = c.get(e, 0) + h.get(e - a, 0)
        if v:
            h[e] = v
    quot = LaurentPoly(h)
    if quot * (ONE - LaurentPoly.monomial(1, a)) == num:
        return quot
    return None


def _multiply_back_reduce(num, den):
    out = []
    for a in sorted(den):
        quot = _multiply_back_divide_once(num, a)
        if quot is None:
            out.append(a)
        else:
            num = quot
    return num, tuple(out)


sparse_polys = st.dictionaries(
    st.integers(-40, 40), st.integers(-4, 4), max_size=8
).map(LaurentPoly)
factors = st.integers(1, 6)


@settings(deadline=None)
@given(base=sparse_polys, a=factors, exact=st.booleans())
def test_divide_once_is_exact_division(base, a, exact):
    one_minus = ONE - LaurentPoly.monomial(1, a)
    num = base * one_minus if exact else base
    quot = _divide_once(num, a)
    if exact:
        assert quot == base
    assert (quot is None) == (_multiply_back_divide_once(num, a) is None)
    if quot is not None:
        assert quot * one_minus == num


@settings(deadline=None)
@given(
    num=sparse_polys,
    den=st.lists(factors, max_size=4),
    cancel=st.lists(factors, max_size=3),
    other=sparse_polys,
    other_den=st.lists(factors, max_size=4),
)
def test_series_reduction_matches_multiply_back_oracle(num, den, cancel, other, other_den):
    # multiply in factors that also sit in the denominator, so some cancel
    num = num * _den_poly(cancel)
    den = den + cancel
    s = PoincareSeries(num, den)
    assert (s.num, s.den) == _multiply_back_reduce(num, den)
    for t in (PoincareSeries(other, other_den), PoincareSeries(other, s.den)):
        common = _multiset_max(s.den, t.den)
        total = s.num * _den_poly(_multiset_diff(common, s.den)) + t.num * _den_poly(
            _multiset_diff(common, t.den)
        )
        got = s + t
        assert (got.num, got.den) == _multiply_back_reduce(total, common)


def _try_every_factor(num, den):
    """The reduction that tries every factor of the sorted den, repeats of a
    factor that failed included."""
    out = []
    for a in sorted(den):
        quot = _divide_once(num, a)
        if quot is None:
            out.append(a)
        else:
            num = quot
    return num, tuple(out)


@settings(deadline=None)
@given(
    base=sparse_polys,
    den=st.sampled_from([[1, 1, 1], [2, 2, 3], [1, 2, 2, 2], [3, 1, 3]])
    | st.lists(st.integers(1, 4), max_size=5),
    times=st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
def test_reduction_skipping_failed_repeats_matches_trying_every_factor(base, den, times):
    # each distinct factor divides the numerator zero, one or two times
    # (more where base happens to be divisible too)
    num = base * _den_poly(
        [a for a, k in zip(sorted(set(den)), times) for _ in range(k)]
    )
    s = PoincareSeries(num, den)
    want_num, want_den = _try_every_factor(num, den)
    assert s.num._c == want_num._c
    assert s.den == want_den


def test_a_failed_factor_is_tried_once(monkeypatch):
    calls = []

    def counting(num, a):
        calls.append(a)
        return _divide_once(num, a)

    monkeypatch.setattr(laurent, "_divide_once", counting)
    assert PoincareSeries(ONE, [1, 1, 1]).den == (1, 1, 1)
    assert calls == [1]
    calls.clear()
    # (1-q)^2 divides twice, then the third (1-q) fails once and the q^2 factors once
    s = PoincareSeries(_den_poly([1, 1]), [2, 1, 2, 1, 1])
    assert (s.num, s.den) == (ONE, (1, 2, 2))
    assert calls == [1, 1, 1, 2]


@settings(deadline=None)
@given(
    num=sparse_polys,
    den=st.lists(factors, max_size=4),
    cancel=st.lists(factors, max_size=3),
)
def test_series_reduction_is_idempotent(num, den, cancel):
    s = PoincareSeries(num * _den_poly(cancel), den + cancel)
    again = PoincareSeries(s.num, s.den)
    assert (again.num, again.den) == (s.num, s.den)
    assert render_series(again) == render_series(s)


@settings(deadline=None)
@given(
    num=sparse_polys,
    den=st.lists(factors, max_size=4),
    zero_den=st.lists(factors, max_size=3),
)
def test_adding_zero_renders_as_the_other_operand(num, den, zero_den):
    s = PoincareSeries(num, den)
    for zero in (PoincareSeries.zero(), PoincareSeries(LaurentPoly.zero(), zero_den)):
        assert zero.den == ()
        assert render_series(zero + s) == render_series(s)
        assert render_series(s + zero) == render_series(s)


def _nested_walk_expand(series, lo, hi):
    """Reference expansion: every term walks its chain up to hi, once per
    denominator factor, into a fresh dict."""
    cur = dict(series.num._c)
    for a in series.den:
        nxt = {}
        for e, c in cur.items():
            x = e
            while x <= hi:
                nxt[x] = nxt.get(x, 0) + c
                x += a
        cur = nxt
    return {e: c for e, c in cur.items() if lo <= e <= hi and c}


@settings(deadline=None)
@given(
    num=sparse_polys,
    den=st.lists(factors, max_size=4),
    lo=st.integers(-50, 60),
    width=st.integers(0, 60),
)
def test_expand_matches_nested_walk_oracle(num, den, lo, width):
    s = PoincareSeries(num, den)
    assert s.expand(lo, lo + width) == _nested_walk_expand(s, lo, lo + width)


def test_expand_refuses_a_span_past_the_cap():
    # from q^-1000000000 up to q^10 would be a list of 10^9 coefficients
    s = PoincareSeries(LaurentPoly({-(10**9): 1}), [1])
    message = f"span 1000000010 exponents, more than {MAX_EXPANSION_SPAN}"
    with pytest.raises(DomainError, match=message):
        s.expand(0, 10)
    with pytest.raises(DomainError, match="more than"):
        PoincareSeries.one().expand(-MAX_EXPANSION_SPAN - 1, 0)
    edge = PoincareSeries(LaurentPoly({-MAX_EXPANSION_SPAN: 1}), [1])
    assert len(edge.expand(0, 0)) == 1
    assert PoincareSeries(LaurentPoly({10**9: 1}), [1]).expand(0, 10) == {}


def test_expand_cost_is_linear_in_the_window():
    # the nested walk is quadratic here: after the first factor every
    # exponent up to 100000 is a term, and each term walks to the top
    got = PoincareSeries(ONE, [1, 1, 1]).expand(0, 100_000)
    assert len(got) == 100_001
    assert got[100_000] == 100_001 * 100_002 // 2
