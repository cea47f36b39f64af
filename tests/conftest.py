import pytest

from permdesign.corpus import bundled_corpus, write_corpus
from permdesign.geometry import build_AG, build_PG, build_symplectic_subdesign
from permdesign.group import GroupWithChain
from permdesign.perm import Permutation


def perm(text, degree):
    return Permutation.from_cycles(text, degree)


def group(degree, *cycle_strings):
    return GroupWithChain(tuple(perm(s, degree) for s in cycle_strings))


def orbit_design(g, block):
    """The structure whose blocks are the images of `block` under g."""
    from permdesign.incidence import IncidenceStructure
    start = tuple(sorted(block))
    seen = {start}
    todo = [start]
    while todo:
        blk = todo.pop()
        for x in g.generators:
            image = tuple(sorted(x.images[p] for p in blk))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return IncidenceStructure(g.degree, seen)


def relabelled(structure, grp, seed):
    """The same design and group with points renamed by a seeded random
    permutation."""
    import random

    from permdesign.incidence import IncidenceStructure
    rng = random.Random(seed)
    v = structure.v
    name = list(range(v))
    rng.shuffle(name)
    gens = []
    for g in grp.generators:
        images = [0] * v
        for x, y in enumerate(g.images):
            images[name[x]] = name[y]
        gens.append(Permutation(images))
    blocks = [sorted(name[p] for p in blk) for blk in structure.blocks]
    return IncidenceStructure(v, blocks), GroupWithChain(gens)


def a5_on_ordered_pairs():
    """A5 on the 20 ordered pairs of distinct points of 0..4, a fresh
    group each call: imprimitive (cells by first point, by second point,
    or by the unordered pair), yet quasiprimitive, since A5 is simple."""
    from itertools import permutations

    from permdesign.group import induced_action
    a5 = group(5, "(1 2 3)", "(3 4 5)")
    return induced_action(a5, list(permutations(range(5), 2)),
                          lambda pair, g: tuple(g.images[x] for x in pair)).image


def quasiprimitive_by_walk(g):
    """Every prime-order class closure of a fresh copy of g transitive:
    every nontrivial normal subgroup contains one, so this is
    quasiprimitivity, decided by the class-representative walk."""
    from permdesign.group import class_closures
    return all(n.is_transitive()
               for n in class_closures(GroupWithChain(g.generators)))


def a5_flag_structure():
    """A5 on 15 points (0..4, then 5 + the index of each 2-subset) with the
    20 blocks {i, 5 + index of {i, j}} for the ordered pairs (i, j): the
    block action is A5 on ordered pairs, and the structure is no 2-design."""
    from itertools import combinations, permutations

    from permdesign.group import induced_action
    from permdesign.incidence import IncidenceStructure
    pairs = [frozenset(c) for c in combinations(range(5), 2)]
    points = list(range(5)) + pairs
    a5 = group(5, "(1 2 3)", "(3 4 5)")
    on_points = induced_action(
        a5, points, lambda x, g: (g.images[x] if isinstance(x, int) else
                                  frozenset(g.images[y] for y in x))).image
    blocks = [[i, 5 + pairs.index(frozenset((i, j)))]
              for i, j in permutations(range(5), 2)]
    return IncidenceStructure(15, blocks), on_points


def full_levels(chain):
    """Everything a chain holds, level by level: base, strong generators,
    orbit insertion order, transversal elements and Schreier cursors.  A
    chain on the points and the sets of a SetAction is read as
    the union's plain chain holds it: each element as its point images
    followed by v + its set images, and set j as v + j."""
    sets = chain.sets

    def read(u):
        if sets is None:
            return u.images
        return u.images + tuple(sets.degree + j for j in sets.perm(u).images)

    def vertex(level, c):  # only a chain on sets has levels of sets
        return c if level.images is None else sets.degree + c
    return [(vertex(level, level.base), [read(g) for g in level.gens],
             [vertex(level, c) for c in level.points],
             [read(u) for u in level.orbit.values()], list(level.checked))
            for level in chain.levels]


def assert_bsgs(chain, plain):
    """Oracle: `chain` is a base and strong generating set of the group of
    `plain`, a chain built plainly from generators of that group with
    chain's base as its hint.  The order and each basic orbit, as a set,
    are the same; each transversal element maps its level's base point to
    its orbit point and lies in the group; each strong generator fixes the
    earlier base points and lies in the group."""
    base = [level.base for level in chain.levels]
    assert [level.base for level in plain.levels] == base
    assert chain.order() == plain.order()
    for i, (level, other) in enumerate(zip(chain.levels, plain.levels)):
        assert set(level.points) == set(other.points) == set(level.orbit), i
        for c, u in level.orbit.items():
            assert u.images[level.base] == c and plain.contains(u), (i, c)
        for g in level.gens:
            assert all(g.images[b] == b for b in base[:i]), i
            assert plain.contains(g), i


def sifted(chain):
    """The number of Schreier pairs sifted while building the chain: each
    strong generator's cursor counts the orbit points it was sifted with."""
    return sum(sum(level.checked) for level in chain.levels)


def skipped(chain):
    """The number of those pairs that are edges of a level's Schreier
    tree, which the build skips: each edge (c, i) whose generator's cursor
    has passed c."""
    count = 0
    for level in chain.levels:
        position = {c: k for k, c in enumerate(level.points)}
        count += sum(position[c] < level.checked[i]
                     for c, i in level.parents.values())
    return count


def design_union(g, structure, block=0):
    """Oracle: the plain chain of g on the points and the blocks, block j at
    vertex v + j, built from the union of g's walk generators and their
    block images, hinted at the vertex of `block`."""
    from permdesign.cosets import union_generators
    from permdesign.group import GroupWithChain, SetAction
    blocks = SetAction(structure.v, structure.blocks)
    walk = g.walk_generators
    return GroupWithChain(
        union_generators(walk, [blocks.perm(x) for x in walk]),
        (structure.v + block,), g.order())


@pytest.fixture
def chain_builds(monkeypatch):
    """The arguments of every stabilizer-chain build made from here on."""
    from permdesign import group as chains
    calls = []
    build = chains._build_chain

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(chains, "_build_chain", counting)
    return calls


@pytest.fixture
def finishes(monkeypatch):
    """(chain order, order bound) as each _Chain.schreier_sims call made
    from here on starts."""
    from permdesign.group import _Chain
    calls = []
    finish = _Chain.schreier_sims

    def recording(self, order_bound=None):
        calls.append((self.order(), order_bound))
        return finish(self, order_bound)
    monkeypatch.setattr(_Chain, "schreier_sims", recording)
    return calls


@pytest.fixture
def random_draws(monkeypatch):
    """One entry per random element drawn from here on."""
    from permdesign.group import GroupWithChain
    draws = []
    draw = GroupWithChain.random_element
    monkeypatch.setattr(GroupWithChain, "random_element",
                        lambda self, rng: draws.append(1) or draw(self, rng))
    return draws


@pytest.fixture(scope="session")
def fano_pair():
    return build_PG(2, 2, 1)


@pytest.fixture(scope="session")
def ag322_pair():
    return build_AG(3, 2, 2)


@pytest.fixture(scope="session")
def pg132_pair():
    return build_PG(3, 2, 1)


@pytest.fixture(scope="session")
def pg232_pair():
    return build_PG(3, 2, 2)


@pytest.fixture(scope="session")
def symplectic_pair():
    return build_symplectic_subdesign(2, 2)


@pytest.fixture(scope="session")
def corpus_instances():
    return bundled_corpus()


@pytest.fixture(scope="session")
def walk_cases(corpus_instances):
    """(name, group) for each corpus group, the symplectic design over GF(3)
    and the lines of PG(4,2), each with its design action's block image and
    the plain point/block union group (design_union)."""
    from permdesign.designgroup import DesignAction
    pairs = [(inst.name, inst.structure, inst.group)
             for inst in corpus_instances]
    pairs.append(("symplectic-2-3", *build_symplectic_subdesign(2, 3)))
    pairs.append(("pg-4-2-1", *build_PG(4, 2, 1)))
    cases = []
    for name, structure, g in pairs:
        action = DesignAction(g, structure)
        cases += [(name, g), (f"{name}/blocks", action.block_action.image),
                  (f"{name}/union", design_union(g, structure))]
    return cases


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus(directory)
    return directory


@pytest.fixture(scope="session")
def a7():
    return group(7, "(1 2 3)", "(1 2 3 4 5 6 7)")


@pytest.fixture(scope="session")
def frobenius21():
    return group(7, "(1 2 3 4 5 6 7)", "(1 2 4)(3 6 5)")


@pytest.fixture(scope="session")
def s4():
    return group(4, "(1 2)", "(1 2 3 4)")
