import random

import pytest

from bruteforce import (all_vectors, element_order, every_shift_cosets,
                        field_product, matrix_image, parallel_classes,
                        projective_blocks, projective_matrix_images,
                        symplectic_form, translation_images,
                        transvection_images, vector_images)
from permdesign import geometry
from permdesign import gf as gf_module
from permdesign.geometry import (SizeLimitError, _checked_group,
                                 _gl_generator_matrices, agl_order, build_AG,
                                 build_PG, build_symplectic_subdesign,
                                 classical_group_generators,
                                 enumerate_subspaces, gaussian_coefficient,
                                 gl_order, index_vector, pgl_order, sp_order,
                                 span_vectors, vector_index)
from permdesign.gf import (SUPPORTED_PRIME_POWERS, FiniteField,
                           UnsupportedFieldError, field)
from permdesign.group import StructureContradiction
from permdesign.incidence import (IncidenceStructure, t_design_strength,
                                  verify_design)
from permdesign.perm import Permutation

ALL_Q = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_spot_check(q):
    gf = field(q)
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1


@pytest.mark.parametrize("q", ALL_Q)
def test_negation_and_subtraction_tables_match_digit_arithmetic(q):
    gf = field(q)
    p = gf.p

    def digits(a):
        return [a // p ** j % p for j in range(gf.e)]

    def encode(ds):
        return sum(c * p ** j for j, c in enumerate(ds))

    for a in range(q):
        assert gf.neg(a) == encode([-c % p for c in digits(a)])
        for b in range(q):
            assert gf.sub(a, b) == encode(
                [(x - y) % p for x, y in zip(digits(a), digits(b))])
            assert gf.add(gf.sub(a, b), b) == a


@pytest.mark.parametrize("q", ALL_Q)
def test_multiplicative_group_cyclic(q):
    gf = field(q)
    g = gf.generator
    seen = set()
    x = 1
    for _ in range(q - 1):
        x = gf.mul(x, g)
        seen.add(x)
    assert len(seen) == q - 1  # generator has full order


@pytest.mark.parametrize("q", ALL_Q + (11, 13))
def test_field_tables_match_schoolbook_arithmetic(q):
    gf = field(q)
    assert gf._mul == [[field_product(a, b, q) for b in range(q)]
                       for a in range(q)]
    assert all(field_product(a, gf._inv[a], q) == 1 for a in range(1, q))
    orders = [element_order(a, q) for a in range(1, q)]
    assert gf.generator == 1 + orders.index(q - 1)


def test_unsupported_field():
    with pytest.raises(UnsupportedFieldError):
        FiniteField(6)
    with pytest.raises(UnsupportedFieldError):
        FiniteField(49)  # prime power without a stored polynomial
    assert 49 not in SUPPORTED_PRIME_POWERS
    with pytest.raises(UnsupportedFieldError, match="1 is not a prime power"):
        FiniteField(1)
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        field(5).inv(0)


def test_field_rejects_a_polynomial_that_is_not_primitive(monkeypatch):
    # x^2 + 1 is irreducible over GF(3), but x has order 4, not 8
    monkeypatch.setitem(gf_module._PRIMITIVE_POLYS, 9, (1, 0, 1))
    with pytest.raises(UnsupportedFieldError,
                       match="the powers of 3 miss a nonzero element"):
        FiniteField(9)


def test_gaussian_coefficients():
    assert gaussian_coefficient(3, 1, 2) == 7
    assert gaussian_coefficient(4, 2, 2) == 35
    assert gaussian_coefficient(3, 2, 2) == 7
    assert gaussian_coefficient(5, 0, 3) == 1
    assert gaussian_coefficient(4, 5, 2) == 0
    assert gaussian_coefficient(4, -1, 2) == 0


@pytest.mark.parametrize("d,i,q", [
    (2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 2, 2), (4, 1, 3), (4, 3, 2),
    (3, 2, 3), (5, 2, 2), (5, 3, 2), (4, 2, 3),
])
def test_subspace_counts_match_gaussian(d, i, q):
    subs = enumerate_subspaces(d, q, i)
    assert len(subs.canonical_matrices) == gaussian_coefficient(d, i, q)


def test_subspaces_pairwise_distinct_row_spaces():
    gf = field(2)
    spans = {span_vectors(gf, m)
             for m in enumerate_subspaces(4, 2, 2).canonical_matrices}
    assert len(spans) == 35


def test_whole_space_is_single_subspace():
    assert len(enumerate_subspaces(3, 2, 3).canonical_matrices) == 1


def test_vector_indexing_round_trip():
    for q, d in ((2, 4), (3, 3), (4, 2)):
        for i in range(q ** d):
            assert vector_index(index_vector(i, d, q), q) == i
    assert len(all_vectors(3, 2)) == 8


@pytest.mark.parametrize("family,dim,q,expected", [
    ("GL", 3, 2, 168),
    ("GL", 2, 3, 48),
    ("GL", 4, 2, 20160),
    ("PGL", 3, 2, 168),
    ("PGL", 4, 2, 20160),
    ("PGL", 3, 3, 5616),
    ("AGL", 3, 2, 1344),
    ("AGL", 1, 8, 56),
    ("Sp", 4, 2, 720),
])
def test_classical_group_orders(family, dim, q, expected):
    g = classical_group_generators(family, dim, q)
    assert g.order() == expected
    formula = {"GL": gl_order, "AGL": agl_order, "PGL": pgl_order}.get(family)
    if formula is not None:
        assert formula(dim, q) == expected
    else:
        assert sp_order(dim // 2, q) == expected


def test_sp_order_formula():
    assert sp_order(2, 2) == 2 ** 4 * (2 ** 2 - 1) * (2 ** 4 - 1)


def test_symplectic_form_invariance():
    g = classical_group_generators("Sp", 4, 2)
    rng = random.Random(12)
    for x in g.generators:
        for _ in range(100):
            u = index_vector(rng.randrange(16), 4, 2)
            v = index_vector(rng.randrange(16), 4, 2)
            gu = index_vector(x.images[vector_index(u, 2)], 4, 2)
            gv = index_vector(x.images[vector_index(v, 2)], 4, 2)
            assert symplectic_form(gu, gv, 2) == symplectic_form(u, v, 2)


def test_build_pg_fano(fano_pair):
    structure, g = fano_pair
    params = verify_design(structure)
    assert (params.v, params.k, params.lam) == (7, 3, 1)
    assert g.order() == 168


def test_build_pg_15_3_1(pg132_pair):
    structure, g = pg132_pair
    params = verify_design(structure)
    assert (params.v, params.b, params.r, params.k, params.lam) == \
           (15, 35, 7, 3, 1)
    assert g.order() == 20160


def test_build_pg_15_7_3(pg232_pair):
    structure, g = pg232_pair
    params = verify_design(structure)
    assert (params.v, params.b, params.k, params.lam) == (15, 15, 7, 3)
    assert params.symmetric


def test_build_pg_argument_validation():
    with pytest.raises(ValueError):
        build_PG(1, 2, 1)
    with pytest.raises(ValueError):
        build_PG(3, 2, 3)


def test_build_ag322(ag322_pair):
    structure, g = ag322_pair
    params = verify_design(structure)
    assert (params.v, params.b, params.r, params.k, params.lam) == \
           (8, 14, 7, 4, 3)
    assert g.order() == 1344


def test_build_ag_affine_plane_order_3():
    structure, g = build_AG(2, 3, 1)
    params = verify_design(structure)
    assert (params.v, params.b, params.r, params.k, params.lam) == \
           (9, 12, 4, 3, 1)
    assert g.order() == agl_order(2, 3)


def test_binary_affine_designs_are_3_designs():
    for d, i in ((3, 2), (4, 2), (4, 3)):
        structure, _ = build_AG(d, 2, i)
        t_max, _ = t_design_strength(structure)
        assert t_max >= 3, (d, i)


def test_ag_blocks_through_origin_are_subspaces(ag322_pair):
    structure, _ = ag322_pair
    gf = field(2)
    for block in structure.blocks:
        if 0 not in block:
            continue
        vecs = [index_vector(p, 3, 2) for p in block]
        for u in vecs:
            for v in vecs:
                s = tuple(gf.add(a, b) for a, b in zip(u, v))
                assert vector_index(s, 2) in block
            for c in range(2):
                s = tuple(gf.mul(c, a) for a in u)
                assert vector_index(s, 2) in block


def test_ag_parallelism(ag322_pair):
    structure, _ = ag322_pair
    classes = parallel_classes(structure, 2, 3)
    assert len(classes) == 7
    for cls in classes:
        covered = set()
        for j in cls:
            block = set(structure.blocks[j])
            assert not covered & block
            covered |= block
        assert covered == set(range(8))


def test_build_symplectic_2_2(symplectic_pair):
    structure, g = symplectic_pair
    params = verify_design(structure)
    assert (params.v, params.b, params.r, params.k, params.lam) == \
           (16, 80, 20, 4, 4)
    assert g.order() == 11520


def test_symplectic_blocks_proper_subset_of_affine(symplectic_pair):
    structure, _ = symplectic_pair
    ag, _ = build_AG(4, 2, 2)
    assert set(structure.blocks) < set(ag.blocks)


def test_symplectic_strength_exactly_two(symplectic_pair):
    t_max, _ = t_design_strength(symplectic_pair[0])
    assert t_max == 2


def test_symplectic_argument_validation():
    with pytest.raises(ValueError):
        build_symplectic_subdesign(1, 2)


def test_size_limit():
    with pytest.raises(SizeLimitError):
        enumerate_subspaces(20, 2, 2)
    with pytest.raises(SizeLimitError):
        classical_group_generators("GL", 20, 2)


@pytest.mark.parametrize("build, args", [
    (classical_group_generators, ("PGL", 3, 3)),
    (build_PG, (2, 3, 1)),
    (build_AG, (2, 4, 1)),
    (build_symplectic_subdesign, (2, 2)),
])
def test_builders_read_the_point_limit_before_building_the_field(
        build, args, monkeypatch):
    # GF(q)'s tables take q^2 entries each, so a q past the limit must
    # be refused before they are built
    def no_field(q):
        raise AssertionError(f"GF({q}) built past the point limit")
    monkeypatch.setattr(geometry, "field", no_field)
    monkeypatch.setenv("PERMDESIGN_POINT_LIMIT", "10")
    with pytest.raises(SizeLimitError, match="exceeds the point limit 10"):
        build(*args)


def test_geometry_argument_validation():
    with pytest.raises(ValueError,
                       match="symplectic groups need even dimension"):
        classical_group_generators("Sp", 3, 2)
    with pytest.raises(ValueError, match="unknown family 'SL'"):
        classical_group_generators("SL", 2, 2)
    with pytest.raises(ValueError, match="need d >= 2"):
        build_AG(1, 2, 1)
    with pytest.raises(ValueError, match="need 1 <= i <= d, got i=0, d=3"):
        enumerate_subspaces(3, 2, 0)


@pytest.mark.parametrize("d,q,i", [
    (2, 3, 1), (4, 2, 1), (4, 2, 2), (4, 2, 3),
    (2, 4, 1), (2, 5, 1), (3, 3, 1), (3, 3, 2),
])
def test_projective_design_parameter_formula(d, q, i):
    structure, g = build_PG(d, q, i)
    params = verify_design(structure)
    assert params.v == (q ** (d + 1) - 1) // (q - 1)
    assert params.k == (q ** (i + 1) - 1) // (q - 1)
    assert params.lam == gaussian_coefficient(d - 1, i - 1, q)
    assert params.r == gaussian_coefficient(d, i, q)
    assert params.b == gaussian_coefficient(d + 1, i + 1, q)
    assert g.order() == pgl_order(d + 1, q)


@pytest.mark.parametrize("d,q,i", [
    (3, 2, 1), (4, 2, 2), (2, 3, 1), (3, 3, 1),
    (4, 2, 1), (2, 5, 1), (3, 3, 2), (2, 4, 1),
])
def test_affine_design_parameter_formula(d, q, i):
    structure, g = build_AG(d, q, i)
    params = verify_design(structure)
    assert params.v == q ** d
    assert params.k == q ** i
    expected_lam = gaussian_coefficient(d - 1, i - 1, q) if i >= 2 else 1
    assert params.lam == expected_lam
    assert g.order() == agl_order(d, q)


def _oracle_family(family, args):
    """The blocks in the order a builder forms them and the generator image
    lists, from the brute-force oracles: cosets from every shift, line keys
    as minima over every multiple, transvections from symplectic_form."""
    if family == "AG":
        d, q, i = args
        matrices = enumerate_subspaces(d, q, i).canonical_matrices
        linear = [vector_images(d, q, lambda x, m=m: matrix_image(x, m, q))
                  for m in _gl_generator_matrices(d, q)]
        return (every_shift_cosets(matrices, d, q),
                linear + translation_images(d, q))
    if family == "symplectic":
        m, q = args
        planes = [mat for mat in enumerate_subspaces(2 * m, q, 2)
                  .canonical_matrices if symplectic_form(mat[0], mat[1], q)]
        return (every_shift_cosets(planes, 2 * m, q),
                transvection_images(m, q) + translation_images(2 * m, q))
    d, q, i = args
    matrices = enumerate_subspaces(d + 1, q, i + 1).canonical_matrices
    return (projective_blocks(matrices, d + 1, q),
            [projective_matrix_images(m, d + 1, q)
             for m in _gl_generator_matrices(d + 1, q)])


ORACLE_FAMILIES = (
    ("AG", (2, 3, 1)), ("AG", (2, 4, 1)), ("AG", (2, 9, 1)),
    ("AG", (3, 2, 2)), ("AG", (3, 3, 1)),
    ("symplectic", (2, 2)), ("symplectic", (2, 3)), ("symplectic", (3, 2)),
    ("PG", (2, 4, 1)), ("PG", (2, 7, 1)), ("PG", (2, 8, 1)),
    ("PG", (3, 3, 1)),
)


@pytest.mark.parametrize(
    "family,args", ORACLE_FAMILIES,
    ids=["-".join(map(str, (f,) + a)) for f, a in ORACLE_FAMILIES])
def test_builders_match_brute_force_oracles(monkeypatch, family, args):
    """The blocks each builder hands to IncidenceStructure, in order, and
    its generators' images equal the oracles'."""
    handed = []

    def recording(v, blocks):
        handed.append([list(block) for block in blocks])
        return IncidenceStructure(v=v, blocks=blocks)

    monkeypatch.setattr(geometry, "IncidenceStructure", recording)
    build = {"AG": build_AG, "PG": build_PG,
             "symplectic": build_symplectic_subdesign}[family]
    _, group = build(*args)
    blocks, images = _oracle_family(family, args)
    assert handed == [blocks]
    assert [list(g.images) for g in group.generators] == images


@pytest.mark.parametrize("build,args,expected,translations", [
    (build_symplectic_subdesign, (2, 2), 2 ** 4 * sp_order(2, 2), 4),
    (build_AG, (2, 3, 1), agl_order(2, 3), 2),
], ids=["symplectic-2-2", "AG-2-3-1"])
def test_checked_group_rejects_a_wrong_generator_list(build, args, expected,
                                                      translations):
    """A builder's generators, with a transposition appended (a larger
    group) or the translations dropped (a smaller one), fail the order
    check against the formula."""
    gens = list(build(*args)[1].generators)
    assert _checked_group(gens, expected, "given").order() == expected
    swap = list(range(gens[0].degree))
    swap[0], swap[1] = 1, 0
    with pytest.raises(StructureContradiction):
        _checked_group(gens + [Permutation(swap)], expected, "larger")
    with pytest.raises(StructureContradiction):
        _checked_group(gens[:-translations], expected, "smaller")
