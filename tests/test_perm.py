import random

import pytest

from permdesign.io import parse_group_text
from permdesign.perm import (CycleParseError, DegreeMismatchError,
                             Permutation, parse_permutation)


def test_parse_three_cycle():
    p = parse_permutation("(1 2 3)", 3)
    assert p.images == (1, 2, 0)


def test_parse_identity():
    p = parse_permutation("()", 5)
    assert p.is_identity()
    assert p.degree == 5


def test_last_points_swapped_is_not_identity():
    assert Permutation.identity(9).is_identity()
    assert not Permutation(tuple(range(7)) + (8, 7)).is_identity()


def test_parse_repeated_point_rejected():
    with pytest.raises(CycleParseError):
        parse_permutation("(1 2)(1 3)", 3)


def test_parse_point_out_of_range():
    with pytest.raises(CycleParseError):
        parse_permutation("(1 4)", 3)


@pytest.mark.parametrize("text", ["", "(1 2", "1 2 3", "(1 2) x", "(a b)"])
def test_parse_malformed(text):
    with pytest.raises((CycleParseError, ValueError)):
        parse_permutation(text, 5)


def test_parse_accepts_commas_and_multiple_cycles():
    p = parse_permutation("(1,2)(3 4)", 4)
    assert p.images == (1, 0, 3, 2)


def test_right_action_composition():
    a = parse_permutation("(1 2)", 3)
    b = parse_permutation("(2 3)", 3)
    # point^(ab) = (point^a)^b
    assert (a * b).apply(0) == 2
    assert (b * a).apply(0) == 1


def test_identity_is_neutral():
    p = parse_permutation("(1 3 2)", 4)
    e = Permutation.identity(4)
    assert p * e == p
    assert e * p == p


@pytest.mark.parametrize("n", [1, 2, 3, 15, 81, 891])
def test_product_matches_pointwise_composition(n):
    rng = random.Random(n)
    for _ in range(5):
        p = Permutation(rng.sample(range(n), n))
        q = Permutation(rng.sample(range(n), n))
        assert (p * q).images == tuple(q.images[p.images[i]] for i in range(n))


def test_degree_one_product_is_the_identity():
    e = Permutation.identity(1)
    product = Permutation((0,)) * e
    assert product.images == (0,)
    assert product == e and hash(product) == hash(e)


def test_degree_one_group_file():
    g = parse_group_text("degree 1\n()\n")
    assert g.order() == 1
    assert g.contains(Permutation.identity(1))
    e = g.generators[0]
    assert g.contains(e * e)


def test_inverse_of_cycle():
    p = parse_permutation("(1 2 3)", 3)
    assert str(p.inverse()) == "(1 3 2)"
    assert (p * p.inverse()).is_identity()


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        parse_permutation("(1 2)", 2) * parse_permutation("(1 2)", 3)


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_degree_must_be_positive():
    for make in (lambda: Permutation([]), lambda: Permutation.identity(0),
                 lambda: Permutation.from_cycles("(1 2)", 0)):
        with pytest.raises(ValueError, match="degree must be positive"):
            make()


def test_parse_leading_text_rejected():
    with pytest.raises(CycleParseError,
                       match=r"unexpected text in 'x\(1 2\)'"):
        Permutation.from_cycles("x(1 2)", 3)


def test_cycle_formatting_is_canonical():
    p = Permutation((1, 0, 3, 2, 4))
    assert str(p) == "(1 2)(3 4)"
    q = parse_permutation("(4 3)(2 1)", 5)
    assert str(q) == "(1 2)(3 4)"


def test_format_parse_round_trip():
    p = parse_permutation("(1 5 2)(3 7)", 8)
    assert parse_permutation(str(p), 8) == p


def test_order():
    assert parse_permutation("(1 2 3)(4 5)", 5).order() == 6
    assert Permutation.identity(3).order() == 1


def test_conjugation_relabels_cycles():
    p = parse_permutation("(1 2 3)", 4)
    x = parse_permutation("(1 4)", 4)
    assert str(p.conjugated_by(x)) == "(2 3 4)"


def test_power_matches_repeated_product():
    p = parse_permutation("(1 2 3 4 5 6)(7 8)", 9)
    q = Permutation.identity(9)
    for k in range(13):
        assert p ** k == q
        q = q * p
    assert p ** -1 == p.inverse()
    assert p ** p.order() == Permutation.identity(9)
