"""Finite geometries over GF(q): subspace enumeration, classical groups as
permutation groups, and the three block-design families built from them
(projective, affine, and the affine subfamily cut out by a symplectic form).

Point indexing is fixed and documented: the vector (v_0, .., v_{d-1}) has
index sum(v_i * q^i), and a projective point is represented by the vector of
smallest index on its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from operator import getitem

from .config import point_limit
from .gf import field, gl_order
from .group import GroupWithChain, StructureContradiction
from .incidence import IncidenceStructure
from .perm import Permutation


class SizeLimitError(RuntimeError):
    """Requested geometry exceeds PERMDESIGN_POINT_LIMIT points."""


def _check_points(what, count):
    limit = point_limit()
    if count > limit:
        raise SizeLimitError(f"{what} = {count} exceeds the point limit "
                             f"{limit} (PERMDESIGN_POINT_LIMIT)")


def gaussian_coefficient(n, k, q):
    """Number of k-subspaces of an n-space over GF(q); exact integers via the
    product formula.  Out-of-range k gives 0 by convention."""
    if k < 0 or k > n:
        return 0
    num = prod(q ** n - q ** j for j in range(k))
    den = prod(q ** k - q ** j for j in range(k))
    if num % den:
        raise StructureContradiction("Gaussian coefficient not integral")
    return num // den


def vector_index(vec, q):
    value = 0
    for c in reversed(vec):
        value = value * q + c
    return value


def index_vector(idx, d, q):
    out = []
    for _ in range(d):
        out.append(idx % q)
        idx //= q
    return tuple(out)


@dataclass(frozen=True)
class SubspaceList:
    """All i-subspaces of GF(q)^d as canonical reduced-row-echelon bases."""

    d: int
    i: int
    q: int
    canonical_matrices: tuple


def enumerate_subspaces(d, q, i):
    """Every i-subspace exactly once, via its unique RREF basis: choose the
    pivot columns, then run over all assignments of the free entries."""
    if not 1 <= i <= d:
        raise ValueError(f"need 1 <= i <= d, got i={i}, d={d}")
    _check_points("q^d", q ** d)
    gf = field(q)
    matrices = []
    for pivots in combinations(range(d), i):
        free = [(r, c) for r in range(i) for c in range(pivots[r] + 1, d)
                if c not in pivots]
        for values in product(range(q), repeat=len(free)):
            mat = [[0] * d for _ in range(i)]
            for r, pc in enumerate(pivots):
                mat[r][pc] = 1
            for (r, c), val in zip(free, values):
                mat[r][c] = val
            matrices.append(tuple(tuple(row) for row in mat))
    expected = gaussian_coefficient(d, i, q)
    if len(matrices) != expected:
        raise StructureContradiction(
            f"subspace count {len(matrices)} != Gaussian coefficient {expected}")
    return SubspaceList(d=d, i=i, q=q, canonical_matrices=tuple(matrices))


def _coordinate_vectors(d, q):
    """The q^d vectors of GF(q)^d as coordinate tuples, in index order."""
    return [vec[::-1] for vec in product(range(q), repeat=d)]


def span_vectors(gf, rows):
    """All vectors in the row space, as a sorted tuple (by index)."""
    out = {_mat_vec(gf, coeffs, rows)
           for coeffs in product(range(gf.q), repeat=len(rows))}
    return tuple(sorted(out, key=lambda v: vector_index(v, gf.q)))


def _mat_vec(gf, vec, mat):
    # row vector times matrix (right action)
    add, mul = gf._add, gf._mul
    out = [0] * len(mat[0])
    for c, row in zip(vec, mat):
        if c:
            times_c = mul[c]
            out = [add[a][times_c[b]] for a, b in zip(out, row)]
    return tuple(out)


def _identity_matrix(d):
    return [[1 if r == c else 0 for c in range(d)] for r in range(d)]


def _gl_generator_matrices(d, q):
    """Elementary transvections I + lam*E_st for lam in a GF(p)-basis of
    GF(q), plus diag(w, 1, .., 1) for a primitive element w when q > 2."""
    gf = field(q)
    basis = [gf.p ** j for j in range(gf.e)]  # 1, x, x^2, ...
    mats = []
    for s in range(d):
        for t in range(d):
            if s == t:
                continue
            for lam in basis:
                m = _identity_matrix(d)
                m[s][t] = lam
                mats.append(tuple(tuple(row) for row in m))
    if q > 2:
        m = _identity_matrix(d)
        m[0][0] = gf.generator
        mats.append(tuple(tuple(row) for row in m))
    return mats


def agl_order(d, q):
    return q ** d * gl_order(d, q)


def pgl_order(d, q):
    return gl_order(d, q) // (q - 1)


def sp_order(m, q):
    return q ** (m * m) * prod(q ** (2 * j) - 1 for j in range(1, m + 1))


def _vector_perm(gf, vectors, image_of):
    """The permutation of the vector indices that image_of induces, given
    the coordinate vectors in index order."""
    return Permutation([vector_index(image_of(x), gf.q) for x in vectors])


def _line_key(gf, vec):
    """Index of the minimal-index vector on the line through a nonzero
    vector: the projective point it spans.  The last nonzero coordinate is
    the top digit of the index, and 1 is the smallest nonzero element, so
    that vector is the multiple whose last nonzero coordinate is 1."""
    top = next(c for c in reversed(vec) if c)
    times_inverse = gf._mul[gf._inv[top]]
    return vector_index([times_inverse[x] for x in vec], gf.q)


def _line_representatives(gf, d):
    """Projective points as minimal-index vector representatives, in index
    order: the indices whose top base-q digit is 1."""
    q = gf.q
    return [i for j in range(d) for i in range(q ** j, 2 * q ** j)]


def _checked_group(perms, expected_order, name):
    """The group generated by perms, with its chain order asserted against
    the closed-form order formula."""
    group = GroupWithChain(tuple(perms))
    if group.order() != expected_order:
        raise StructureContradiction(
            f"{name} chain order {group.order()} != formula {expected_order}")
    return group


def _subspace_cosets(gf, vectors, matrices):
    """Every coset U + t of the row space U of each matrix, as a sorted
    point list: per subspace, in order of the first shift t reaching it.

    Since 0 is in U, that shift is the coset's smallest point, so each
    coset is formed once, from its smallest point, and the shifts it
    covers are skipped."""
    q = gf.q
    # shifted[j][c][a]: coordinate j's share of the index of a + c
    shifted = [[[s * q ** j for s in row] for row in gf._add]
               for j in range(len(vectors[0]))]
    blocks = []
    for mat in matrices:
        base = span_vectors(gf, mat)
        covered = bytearray(len(vectors))
        for t, shift in enumerate(vectors):
            if covered[t]:
                continue
            rows = [share[c] for share, c in zip(shifted, shift)]
            block = [sum(map(getitem, rows, vec)) for vec in base]
            block.sort()
            for point in block:
                covered[point] = 1
            blocks.append(block)
    return blocks


def _symplectic_form(gf, u, v):
    """Alternating form with hyperbolic pairs on coordinates (2j, 2j+1)."""
    add, sub, mul = gf._add, gf._sub, gf._mul
    total = 0
    for j in range(0, len(u), 2):
        total = add[total][sub[mul[u[j]][v[j + 1]]][mul[u[j + 1]][v[j]]]]
    return total


def _sp_generator_maps(gf, vectors):
    """Symplectic transvections x -> x + lam*f(x, v)*v for every nonzero v
    of the given coordinate vectors and lam in a GF(p)-basis; correctness is
    enforced by the order assertion on the generated group."""
    add, mul = gf._add, gf._mul
    basis = [gf.p ** j for j in range(gf.e)]
    maps = []
    for v in vectors[1:]:
        for lam in basis:
            def image(x, v=v, times_lam=mul[lam]):
                c = times_lam[_symplectic_form(gf, x, v)]
                if not c:
                    return x
                times_c = mul[c]
                return tuple(add[a][times_c[b]] for a, b in zip(x, v))
            maps.append(image)
    return maps


def _translations(gf, d):
    """x -> x + e_j for each coordinate j."""
    plus_one = [row[1] for row in gf._add]
    maps = []
    for j in range(d):
        def image(x, j=j):
            return x[:j] + (plus_one[x[j]],) + x[j + 1:]
        maps.append(image)
    return maps


def classical_group_generators(family, dim, q):
    """GL / PGL / AGL / Sp as permutation groups on their natural domains,
    with the chain order asserted against the closed-form order formula.

    GL, AGL and Sp act on all q^dim vectors; PGL acts on projective points.
    GF(q)'s tables take q^2 entries each, so the limit bounds q^2 too,
    which only dim 1 can pass q^dim with.
    """
    _check_points("q^dim", q ** dim)
    _check_points("q^2", q ** 2)
    gf = field(q)
    name = f"{family}({dim},{q})"
    if family == "PGL":
        reps = _line_representatives(gf, dim)
        rep_pos = {r: i for i, r in enumerate(reps)}
        perms = [Permutation([
            rep_pos[_line_key(gf, _mat_vec(gf, index_vector(r, dim, q), m))]
            for r in reps]) for m in _gl_generator_matrices(dim, q)]
        return _checked_group(perms, pgl_order(dim, q), name)
    vectors = _coordinate_vectors(dim, q)
    if family in ("GL", "AGL"):
        maps = [lambda x, m=m: _mat_vec(gf, x, m)
                for m in _gl_generator_matrices(dim, q)]
        expected = gl_order(dim, q)
        if family == "AGL":
            maps += _translations(gf, dim)
            expected = agl_order(dim, q)
    elif family == "Sp":
        if dim % 2:
            raise ValueError("symplectic groups need even dimension")
        maps = _sp_generator_maps(gf, vectors)
        expected = sp_order(dim // 2, q)
    else:
        raise ValueError(f"unknown family {family!r}")
    return _checked_group([_vector_perm(gf, vectors, f) for f in maps],
                          expected, name)


def projective_design(d, q, i):
    """Projective design: points are the 1-subspaces of GF(q)^(d+1), blocks
    the point sets of the (i+1)-subspaces."""
    if d < 2 or not 1 <= i <= d - 1:
        raise ValueError(f"need d >= 2 and 1 <= i <= d-1, got d={d}, i={i}")
    dim = d + 1
    subs = enumerate_subspaces(dim, q, i + 1)
    gf = field(q)
    reps = _line_representatives(gf, dim)
    rep_pos = {r: j for j, r in enumerate(reps)}
    blocks = [sorted({rep_pos[_line_key(gf, vec)]
                      for vec in span_vectors(gf, mat) if any(vec)})
              for mat in subs.canonical_matrices]
    return IncidenceStructure(v=len(reps), blocks=blocks)


def build_PG(d, q, i):
    """projective_design(d, q, i) with its group PGL_{d+1}(q)."""
    structure = projective_design(d, q, i)
    group = classical_group_generators("PGL", d + 1, q)
    return structure, group


def build_AG(d, q, i):
    """Affine design: points are the vectors of GF(q)^d, blocks all cosets
    U + v of all i-subspaces U, group AGL_d(q)."""
    if d < 2 or not 1 <= i <= d - 1:
        raise ValueError(f"need d >= 2 and 1 <= i <= d-1, got d={d}, i={i}")
    subs = enumerate_subspaces(d, q, i)
    gf = field(q)
    blocks = _subspace_cosets(gf, _coordinate_vectors(d, q),
                              subs.canonical_matrices)
    structure = IncidenceStructure(v=q ** d, blocks=blocks)
    group = classical_group_generators("AGL", d, q)
    return structure, group


def build_symplectic_subdesign(m, q):
    """Points are the vectors of GF(q)^(2m); blocks the cosets of the
    non-degenerate 2-subspaces of the standard alternating form; group the
    translations extended by Sp_{2m}(q).

    For m = 2 the design is not locally primitive, for every q: the blocks
    through the origin are the non-degenerate planes W, and W -> W^perp
    pairs them up (W^perp is again such a plane, and differs from W since
    W meets W^perp in 0), so the point stabilizer Sp_4(q) is imprimitive
    on them.  For m = 3, q = 2 the point stabilizer Sp_6(2) is primitive
    on the 336 blocks through the origin (measured)."""
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    d = 2 * m
    subs = enumerate_subspaces(d, q, 2)
    gf = field(q)
    # the non-degenerate planes: the form does not vanish on the basis
    planes = [mat for mat in subs.canonical_matrices
              if _symplectic_form(gf, mat[0], mat[1]) != 0]
    vectors = _coordinate_vectors(d, q)
    structure = IncidenceStructure(v=q ** d,
                                   blocks=_subspace_cosets(gf, vectors, planes))
    maps = _sp_generator_maps(gf, vectors) + _translations(gf, d)
    group = _checked_group([_vector_perm(gf, vectors, f) for f in maps],
                           q ** d * sp_order(m, q),
                           "translation-symplectic group")
    return structure, group
