import random

import pytest

from bruteforce import cycles_by_regex
from permdesign.io import parse_group_text
from permdesign.perm import (TABLE_SIZE, CycleParseError,
                             DegreeMismatchError, Permutation, encoding,
                             parse_permutation)


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


def outcome(parse, text, degree):
    """What parse(text, degree) returns, or the class and message of what
    it raises."""
    try:
        return parse(text, degree)
    except ValueError as exc:
        return type(exc), str(exc)


# pieces of cycle notation and of what surrounds it: separators, extra
# whitespace (Unicode included), empty and one-point cycles, stray text,
# unbalanced parentheses, and digits that are not ASCII or not decimal
SPACES = (" ", "  ", "\t", "\n", "\u2003", "\x1c", "")
STRAYS = ("x", "-", "+", "_", ".", "(", ")", "()", "(1)", ",", "((", "))",
          "\u0663", "\uff17", "\u00b2", "0", "a b")


def fuzzed_cycles(rng, degree):
    """A string near cycle notation on `degree` points: a few cycles of
    points drawn with repeats and out of range, maybe written in Arabic-
    Indic digits, joined by whitespace and commas (maybe before the first
    point), with stray text dropped in at random."""
    parts = []
    for _ in range(rng.randrange(4)):
        points = [str(rng.randrange(degree + 3))
                  for _ in range(rng.randrange(5))]
        if rng.random() < 0.1:
            points = [p.translate({48 + i: 0x660 + i for i in range(10)})
                      for p in points]
        seps = [rng.choice((" ", ",", ", ", " ,", ",,", "\t", "  ", "\u2003"))
                for _ in points]
        body = "".join(p + s for p, s in zip(points, seps))
        if rng.random() < 0.7:
            body = body.rstrip(" ,\t\u2003")
        if rng.random() < 0.1:
            body = rng.choice((",", " ,")) + body
        parts.append(rng.choice(SPACES) + "(" + rng.choice(SPACES) + body
                     + rng.choice(SPACES) + ")")
    for _ in range(rng.choice((0, 0, 1, 2))):
        parts.insert(rng.randrange(len(parts) + 1), rng.choice(STRAYS))
    return rng.choice(SPACES).join(parts) + rng.choice(SPACES)


def test_cycle_parser_matches_the_regex_oracle():
    """Fuzzed strings are accepted or refused as the regular-expression
    reading refuses them: the same permutation, or the same exception
    class and message (the first fault in the text)."""
    rng = random.Random(3)
    seen = set()
    for _ in range(4000):
        degree = rng.choice((1, 2, 5, 9, 12))
        if rng.random() < 0.1:
            text = "".join(rng.choice("()0123456789 ,\t\u0663x")
                           for _ in range(rng.randrange(12)))
        else:
            text = fuzzed_cycles(rng, degree)
        expected = outcome(cycles_by_regex, text, degree)
        assert outcome(Permutation.from_cycles, text, degree) == expected, \
            (text, degree)
        seen.add(expected[1].split(" ")[0] if isinstance(expected, tuple)
                 else "accepted")
    # every kind of outcome was reached: a permutation, stray text, a
    # point out of range or repeated, an empty input, and int()'s refusal
    # of the empty token a comma leaves after the last point
    assert seen == {"accepted", "unexpected", "point", "repeated", "empty",
                    "invalid"}


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


@pytest.mark.parametrize("n", [1, 2, TABLE_SIZE - 1, TABLE_SIZE,
                               TABLE_SIZE + 1])
def test_encoding_composes_like_permutations(n):
    """Up to TABLE_SIZE points a permutation is encoded as a byte table,
    above it as its image tuple; either way compose is the product,
    index the preimage, equality that of the permutations, and decode
    gives the permutation back."""
    rng = random.Random(n)
    code = encoding(n)
    u, a = (Permutation(rng.sample(range(n), n)) for _ in range(2))
    eu, ea = code.encode(u), code.encode(a)
    assert isinstance(eu, bytes) == (n <= TABLE_SIZE)
    assert code.decode(eu) == u
    assert code.decode(code.compose(eu, ea)) == u * a
    assert [ea.index(c) for c in range(n)] == list(a.inverse().images)
    assert (eu == ea) == (u == a)
    assert code.encode(u * Permutation.identity(n)) == eu
