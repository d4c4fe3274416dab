import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klvwb import hecke
from klvwb.coxeter import build_system
from klvwb.errors import SystemMismatch
from klvwb.hecke import (
    HeckeElt,
    KLBasis,
    T,
    kl_basis,
    mul_T,
    parse_token,
    render_token,
    unit,
    verify_kl_basis,
)
from klvwb.laurent import ONE, Q, LaurentPoly, parse_poly, render_poly


def rand_elt(sys, rng, nterms=3):
    els = sys.elements()
    out = HeckeElt(sys)
    for _ in range(rng.randint(1, nterms)):
        w = rng.choice(els)
        c = LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)})
        out = out + HeckeElt(sys, {w: c})
    return out


def test_quadratic_relation():
    sys = build_system("A1")
    ts = T(sys, [0])
    assert mul_T(ts, ts) == ts.scale(Q - ONE) + unit(sys).scale(Q)


def test_braid_move_product():
    sys = build_system("A2")
    assert mul_T(T(sys, [0]), T(sys, [1])) == T(sys, [0, 1])


def test_idempotent_like_product():
    # (T_e + T_s)^2 = (q+1)(T_e + T_s), expanded via the quadratic relation
    sys = build_system("A1")
    a = unit(sys) + T(sys, [0])
    lhs = mul_T(a, a)
    # oracle: expand by hand: T_e + 2T_s + T_s^2 = (q+1)T_e + (q+1)T_s
    assert lhs == a.scale(Q + ONE)
    assert lhs.coefficient(sys.identity) == parse_poly("1+q")


def test_braid_relations_all_pairs():
    for label in ["A2", "B2", "G2", "A3"]:
        sys = build_system(label)
        for s in range(sys.rank):
            for t in range(s + 1, sys.rank):
                m = sys.coxeter_m(s, t)
                left = unit(sys)
                right = unit(sys)
                for k in range(m):
                    left = mul_T(left, T(sys, [s if k % 2 == 0 else t]))
                    right = mul_T(right, T(sys, [t if k % 2 == 0 else s]))
                assert left == right, (label, s, t)


def test_t_products_follow_length_additivity():
    sys = build_system("A3")
    for x in sys.elements():
        for s in range(sys.rank):
            prod = mul_T(T(sys, x), T(sys, [s]))
            xs = x.mul_gen(s)
            if xs.length > x.length:
                assert prod == T(sys, xs)


def test_quadratic_as_left_and_right_operator():
    # T_s (T_s T_w) = (q-1) T_s T_w + q T_w, and the mirror on the right
    for label in ["A2", "B2"]:
        sys = build_system(label)
        for s in range(sys.rank):
            ts = T(sys, [s])
            for w in sys.elements():
                tw = T(sys, w)
                left = mul_T(ts, tw)
                assert mul_T(ts, left) == left.scale(Q - ONE) + tw.scale(Q)
                right = mul_T(tw, ts)
                assert mul_T(right, ts) == right.scale(Q - ONE) + tw.scale(Q)


def test_bar_of_generator():
    # oracle: bar(T_s) must be the two-sided inverse of T_s
    sys = build_system("A1")
    ts = T(sys, [0])
    b = ts.bar()
    assert mul_T(b, ts) == unit(sys)
    assert mul_T(ts, b) == unit(sys)
    expected = HeckeElt(
        sys, {sys.generator(0): parse_poly("q^-1"), sys.identity: parse_poly("-1+q^-1")}
    )
    assert b == expected


def test_bar_fixed_line():
    sys = build_system("A1")
    a = unit(sys) + T(sys, [0])
    assert a.bar() == a.scale(parse_poly("q^-1"))


def test_bar_is_involution_and_multiplicative():
    rng = random.Random(31337)
    for label in ["A2", "B2"]:
        sys = build_system(label)
        for _ in range(25):
            a, b = rand_elt(sys, rng), rand_elt(sys, rng)
            assert a.bar().bar() == a
            assert mul_T(a, b).bar() == mul_T(a.bar(), b.bar())


def test_kl_basis_a1():
    sys = build_system("A1")
    basis = kl_basis(sys)
    cs = basis.c(sys.generator(0))
    assert cs == unit(sys) + T(sys, [0])
    assert verify_kl_basis(basis) == []


def test_kl_basis_a2_all_ones():
    sys = build_system("A2")
    basis = kl_basis(sys)
    assert verify_kl_basis(basis) == []
    w0 = sys.from_word([0, 1, 0])
    c = basis.c(w0)
    assert set(c.terms) == set(sys.elements())
    assert all(p == ONE for p in c.terms.values())
    for w in sys.elements():
        for x in c.terms:
            if sys.leq_bruhat(x, w):
                assert basis.p(x, w) == ONE


def test_kl_basis_b2_all_ones():
    sys = build_system("B2")
    basis = kl_basis(sys)
    assert verify_kl_basis(basis) == []
    for w in sys.elements():
        for x in sys.elements():
            expected = ONE if sys.leq_bruhat(x, w) else None
            got = basis.c(w).terms.get(x)
            assert got == expected


def test_kl_basis_a3_passes_verifier():
    sys = build_system("A3")
    basis = kl_basis(sys)
    assert verify_kl_basis(basis) == []
    # S4 is the smallest symmetric group with a non-constant polynomial
    nontrivial = [
        p for c in basis.table.values() for p in c.terms.values() if p != ONE
    ]
    assert nontrivial and all(p == ONE + Q for p in nontrivial)


def test_cs_squared():
    for label in ["A2", "B2"]:
        sys = build_system(label)
        basis = kl_basis(sys)
        for s in range(sys.rank):
            cs = basis.c(sys.generator(s))
            assert mul_T(cs, cs) == cs.scale(Q + ONE)


def _bar_correction_table(sys):
    """Reference KL basis: start each C_w at T_w and subtract lower C_x until
    bar(C_w) = q^-l(w) C_w, one bar() of the whole element per correction."""
    key = lambda v: (v.length, sys.reduced_word(v))
    els = sorted(sys.elements(), key=key)
    table = {}
    for w in els:
        c = T(sys, w)
        for _ in range(len(els)):
            delta = c.bar().scale(LaurentPoly.monomial(1, w.length)) - c
            if delta.is_zero():
                break
            x = max(delta.terms, key=key)
            p = (-delta.terms[x]).truncate((w.length - x.length - 1) // 2)
            c = c - table[x].scale(p)
        else:
            pytest.fail(f"bar correction did not converge at {sys.element_token(w)}")
        table[w] = c
    return table


# the dense reference is too slow for rank 4, so the list stays at the small types
@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2"])
def test_kl_recursion_matches_bar_correction(label):
    sys = build_system(label)
    basis = kl_basis(sys)
    expected = _bar_correction_table(sys)
    assert list(basis.table) == sys.elements()
    for w in sys.elements():
        assert basis.c(w) == expected[w], sys.element_token(w)


def test_kl_basis_d4_passes_verifier():
    sys = build_system("D4")
    basis = kl_basis(sys)
    assert verify_kl_basis(basis) == []
    polys = [p for c in basis.table.values() for p in c.terms.values()]
    assert len(polys) == 9817
    assert len(set(polys)) == 10


@pytest.mark.parametrize("label", ["A1", "A3", "C3"])
def test_mu_lists_hold_every_nonzero_mu(label):
    sys = build_system(label)
    basis = kl_basis(sys)
    els = sys.elements()
    assert len(basis.mus) == len(els)
    for i, w in enumerate(els):
        expected = []
        for j, z in enumerate(els):
            gap = w.length - z.length
            if z == w or gap % 2 == 0 or not sys.leq_bruhat(z, w):
                continue
            mu = basis.p(z, w).coefficient((gap - 1) // 2)
            if mu:
                expected.append((j, mu))
        assert basis.mus[i] == expected, sys.element_token(w)


def test_mu_lists_give_the_left_multiplication_rule():
    # C_s C_w' = C_sw' + sum_{z < w', sz < z} mu(z, w') q^{(l(w')+1-l(z))/2} C_z
    sys = build_system("A3")
    basis = kl_basis(sys)
    els = sys.elements()
    for i, prev in enumerate(els):
        for s in range(sys.rank):
            gen = sys.generator(s)
            w = gen * prev
            if w.length < prev.length:
                continue
            rhs = basis.c(w)
            for j, mu in basis.mus[i]:
                z = els[j]
                if sys.lengths[sys.left_mul[s][j]] < z.length:
                    shift = (w.length - z.length) // 2
                    rhs = rhs + basis.c(z).scale(LaurentPoly.monomial(mu, shift))
            assert mul_T(basis.c(gen), basis.c(prev)) == rhs, (s, sys.element_token(prev))


def test_verifier_catches_corruption():
    sys = build_system("A2")
    basis = kl_basis(sys)
    table = dict(basis.table)
    w0 = sys.from_word([0, 1, 0])
    table[w0] = table[w0] + T(sys, sys.identity).scale(Q)

    assert verify_kl_basis(KLBasis(sys, table, basis.mus)) != []


def test_tokens():
    sys = build_system("A2")
    w = sys.from_word([0, 1, 0])
    assert render_token(sys, w) == "T[1,2,1]"
    assert parse_token(sys, "T[1,2,1]") == ("T", w)
    assert parse_token(sys, "C[]") == ("C", sys.identity)


def test_system_mismatch():
    a, b = build_system("A1"), build_system("A1")
    with pytest.raises(SystemMismatch):
        mul_T(T(a, [0]), T(b, [0]))


# ------------------------------------------------------------------ oracles


def _product_bar(sys, w):
    """bar(T_w) as the product of bar(T_s) = q^-1 T_s + (q^-1 - 1) T_e along
    the reduced word of w."""
    qinv = LaurentPoly.monomial(1, -1)
    out = unit(sys)
    for s in sys.reduced_word(w):
        out = out * HeckeElt(sys, {sys.generator(s): qinv, sys.identity: qinv - ONE})
    return out


def _dense_verify_kl_basis(basis):
    """The verifier with self-duality tested by bar() on every column."""
    sys = basis.system
    problems = []
    for w, c in basis.table.items():
        if c.bar().scale(LaurentPoly.monomial(1, w.length)) != c:
            problems.append(f"{render_token(sys, w, 'C')}: not bar self-dual")
        if c.coefficient(w) != ONE:
            problems.append(f"{render_token(sys, w, 'C')}: diagonal is not 1")
        for x, p in c.terms.items():
            where = f"P[{render_token(sys, x)},{render_token(sys, w)}]"
            if x != w and not sys.leq_bruhat(x, w):
                problems.append(f"{where}: support outside the Bruhat interval")
            if not p.is_nonnegative():
                problems.append(f"{where}: negative coefficient in {render_poly(p)}")
            lo, hi = p.degree_window()
            if lo < 0:
                problems.append(f"{where}: negative exponent")
            if x != w and hi > (w.length - x.length - 1) // 2:
                problems.append(f"{where}: degree bound exceeded")
    return problems


def _r_table_column(sys, w):
    els = sys.elements()
    col = hecke._bar_table(sys)[sys.index(w)]
    return {els[x]: LaurentPoly._raw(p) for x, p in col.items()}


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C3", "G2"])
def test_r_table_equals_the_product_table(label):
    sys = build_system(label)
    for w in sys.elements():
        expected = _product_bar(sys, w).scale(LaurentPoly.monomial(1, w.length))
        assert _r_table_column(sys, w) == expected.terms, sys.element_token(w)
        assert T(sys, w).bar() == _product_bar(sys, w)


def test_r_table_equals_the_product_table_on_a_d4_sample():
    sys = build_system("D4")
    els = sys.elements()
    for w in els[::16] + [els[-1]]:
        expected = _product_bar(sys, w).scale(LaurentPoly.monomial(1, w.length))
        assert _r_table_column(sys, w) == expected.terms, sys.element_token(w)


@st.composite
def _kl_perturbations(draw):
    """(label, table, mus): one KL table entry or one mu moved by a small
    Laurent polynomial, possibly to zero or off the Bruhat interval."""
    label = draw(st.sampled_from(["A2", "A3", "B2"]))
    sys = build_system(label)
    basis = kl_basis(sys)
    els = sys.elements()
    table, mus = dict(basis.table), list(basis.mus)
    w = draw(st.sampled_from(els))
    if draw(st.booleans()) or not mus[sys.index(w)]:
        x = draw(st.sampled_from(els))
        old = table[w].coefficient(x)
        new = draw(st.sampled_from([
            old + ONE, old - ONE, old + Q, old.shift(1), LaurentPoly.monomial(1, -1),
            LaurentPoly.zero(), old + parse_poly("q^2"), old * (ONE + ONE),
        ]))
        table[w] = table[w] + HeckeElt(sys, {x: new - old})
    else:
        i = sys.index(w)
        k = draw(st.integers(0, len(mus[i]) - 1))
        z, mu = mus[i][k]
        mus[i] = mus[i][:k] + [(z, mu + draw(st.sampled_from([-2, -1, 1, 2])))] + mus[i][k + 1:]
    return sys, table, mus


@settings(deadline=None, max_examples=80)
@given(drawn=_kl_perturbations())
def test_inductive_verifier_agrees_with_the_dense_one(drawn):
    sys, table, mus = drawn
    perturbed = KLBasis(sys, table, mus)
    assert verify_kl_basis(perturbed) == _dense_verify_kl_basis(perturbed)


def test_planted_d4_entry_fails_self_duality():
    sys = build_system("D4")
    basis = kl_basis(sys)
    w0 = sys.elements()[-1]
    table = dict(basis.table)
    table[w0] = table[w0] + T(sys, sys.identity)  # P[e, w0] = 1 + 1, degree 0 allowed
    assert verify_kl_basis(KLBasis(sys, table, basis.mus)) == [
        f"{render_token(sys, w0, 'C')}: not bar self-dual"
    ]


def test_planted_wrong_mu_fails():
    # raise mu(z, w) in P_{z,w} and in the mu list alike: the table's own mu
    # is then wrong, and C_w is no longer self-dual
    sys = build_system("C3")
    basis = kl_basis(sys)
    els = sys.elements()
    i, (z, mu) = next(
        (i, edge) for i, edges in enumerate(basis.mus) for edge in edges
        if els[i].length - els[edge[0]].length >= 3
    )
    w, gap = els[i], els[i].length - els[z].length
    table, mus = dict(basis.table), list(basis.mus)
    table[w] = table[w] + HeckeElt(sys, {els[z]: LaurentPoly.monomial(1, gap // 2)})
    mus[i] = [(y, m + 1 if y == z else m) for y, m in mus[i]]
    problems = verify_kl_basis(KLBasis(sys, table, mus))
    assert problems == [f"{render_token(sys, w, 'C')}: not bar self-dual"]


def test_wrong_mu_list_alone_is_cleared_by_the_dense_check():
    sys = build_system("A3")
    basis = kl_basis(sys)
    mus = [[(z, mu + 1) for z, mu in edges] for edges in basis.mus]
    assert verify_kl_basis(KLBasis(sys, basis.table, mus)) == []
