import itertools

import pytest

from klvwb.coxeter import WEYL_ORDER, build_system
from klvwb.errors import SystemMismatch, UnsupportedType


def all_reduced_words(sys, x):
    """Brute-force: every reduced word of x, by descent recursion."""
    if x.length == 0:
        return [()]
    words = []
    for s in range(sys.rank):
        if x.has_right_descent(s):
            for w in all_reduced_words(sys, x.mul_gen(s)):
                words.append(w + (s,))
    return words


def bruhat_leq_by_subwords(sys, x, y):
    """Oracle: x <= y iff some subword of one reduced word of y equals x."""
    word = sys.reduced_word(y)
    for picks in itertools.combinations(range(len(word)), x.length):
        if sys.from_word([word[i] for i in picks]) == x:
            return True
    return x.length == 0


def test_build_known_orders():
    for label, order in WEYL_ORDER.items():
        sys = build_system(label)
        assert sys.order() == order, label


def test_build_from_cartan_matrix():
    sys = build_system([[2, -1], [-1, 2]])
    assert sys.order() == 6
    assert sys.coxeter_m(0, 1) == 3


def test_build_rejects_bad_specs():
    with pytest.raises(UnsupportedType):
        build_system("E8")
    with pytest.raises(UnsupportedType):
        build_system([[2, -1], [-4, 2]])  # infinite type
    with pytest.raises(UnsupportedType):
        build_system([[2, 0], [-1, 2]])  # asymmetric zero pattern
    with pytest.raises(UnsupportedType):
        build_system([[1]])
    with pytest.raises(UnsupportedType):
        build_system([[2, -1, 0, 0, 0]] * 5)


def test_longest_element_lengths():
    assert max(x.length for x in build_system("A2").elements()) == 3
    assert max(x.length for x in build_system("B2").elements()) == 4
    assert max(x.length for x in build_system("G2").elements()) == 6
    assert max(x.length for x in build_system("A3").elements()) == 6


def test_coxeter_relations_hold():
    for label in ["A2", "B2", "G2", "A3"]:
        sys = build_system(label)
        for s in range(sys.rank):
            assert sys.generator(s).mul_gen(s) == sys.identity
            for t in range(s + 1, sys.rank):
                m = sys.coxeter_m(s, t)
                word_st = [s, t] * m
                word_ts = [t, s] * m
                assert sys.from_word(word_st) == sys.identity
                assert sys.from_word(word_ts) == sys.identity
        # braid form: sts... = tst... with m letters each
        for s in range(sys.rank):
            for t in range(s + 1, sys.rank):
                m = sys.coxeter_m(s, t)
                assert sys.from_word(([s, t] * m)[:m]) == sys.from_word(([t, s] * m)[:m])
    a2 = build_system("A2")
    assert a2.from_word([0, 1, 0]) == a2.from_word([1, 0, 1])


def test_length_is_word_length_and_descent_law():
    for label in ["A2", "B2", "A3"]:
        sys = build_system(label)
        for x in sys.elements():
            assert x.length == len(sys.reduced_word(x))
            for s in range(sys.rank):
                xs = x.mul_gen(s)
                assert abs(xs.length - x.length) == 1
                assert (xs.length == x.length + 1) == (not x.has_right_descent(s))
                assert xs.mul_gen(s) == x


@pytest.mark.parametrize("label", ["A1", "G2", "C3", "D4"])
def test_integer_tables_match_the_permutations(label):
    sys = build_system(label)
    els = sys.elements()
    assert len(sys.right_mul) == len(sys.left_mul) == sys.rank
    assert [sys.index(x) for x in els] == list(range(len(els)))
    assert list(sys.lengths) == [x.length for x in els]
    assert list(sys.lengths) == sorted(sys.lengths)
    for i, x in enumerate(els):
        for s in range(sys.rank):
            assert els[sys.right_mul[s][i]] == x.mul_gen(s)
            assert els[sys.left_mul[s][i]] == sys.generator(s) * x


def test_inverse_and_left_descents():
    sys = build_system("A3")
    for i, x in enumerate(sys.elements()):
        assert x * x.inverse() == sys.identity
        assert x.inverse().length == x.length
        for s in range(sys.rank):
            left_descent = sys.lengths[sys.left_mul[s][i]] < x.length
            assert left_descent == x.inverse().has_right_descent(s)


def test_bruhat_a1():
    sys = build_system("A1")
    e, s = sys.identity, sys.generator(0)
    assert sys.leq_bruhat(e, s)
    assert not sys.leq_bruhat(s, e)


def test_bruhat_a2_examples():
    sys = build_system("A2")
    s1, s2 = sys.generator(0), sys.generator(1)
    assert sys.leq_bruhat(s1, s1 * s2)
    assert sys.leq_bruhat(s1, s2 * s1)
    assert not sys.leq_bruhat(s1, s2)
    assert not sys.leq_bruhat(s2, s1)


def test_bruhat_matches_subword_oracle():
    for label in ["A2", "B2"]:
        sys = build_system(label)
        for x in sys.elements():
            for y in sys.elements():
                assert sys.leq_bruhat(x, y) == bruhat_leq_by_subwords(sys, x, y), (
                    label,
                    sys.element_token(x),
                    sys.element_token(y),
                )


def test_bruhat_poset_laws():
    for label in ["A2", "B2", "A3"]:
        sys = build_system(label)
        els = sys.elements()
        e = sys.identity
        w0 = max(els, key=lambda x: x.length)
        assert all(sys.leq_bruhat(e, x) for x in els)
        assert all(sys.leq_bruhat(x, w0) for x in els)
        assert sum(1 for x in els if sys.leq_bruhat(x, w0)) == len(els)
        for x in els:
            for y in els:
                if sys.leq_bruhat(x, y):
                    assert x.length <= y.length
                    if sys.leq_bruhat(y, x):
                        assert x == y


def test_element_tokens_round_trip():
    sys = build_system("B2")
    for x in sys.elements():
        assert sys.element_from_token(sys.element_token(x)) == x
    assert sys.element_token(sys.identity) == "e"
    assert sys.element_token(sys.from_word([0, 1, 0])) == "1.2.1"


def test_system_mismatch_detected():
    a, b = build_system("A2"), build_system("A2")
    with pytest.raises(SystemMismatch):
        a.generator(0) * b.generator(0)
