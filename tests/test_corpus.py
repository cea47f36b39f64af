"""The bundled corpus is pinned: its written files match a committed
SHA-256 manifest, and the explicit subgroups of the alternating group
behind the two 15-point coset designs have the structure their
generators are chosen for."""

import hashlib
import os

from bruteforce import mulclose
from permdesign.corpus import discover_a7_subgroups

MANIFEST = os.path.join(os.path.dirname(__file__), "golden", "corpus.sha256")

# the Fano plane on 1..7 that L preserves
FANO_LINES = ("126", "137", "145", "234", "257", "356", "467")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_corpus_files_match_manifest(corpus_dir):
    """Every file `write_corpus` writes, byte for byte.  The manifest is
    `sha256sum *.group *.design` over a written corpus."""
    expected = {}
    with open(MANIFEST) as fh:
        for line in fh:
            digest, name = line.split()
            expected[name] = digest
    assert len(expected) == 16
    assert sorted(os.listdir(corpus_dir)) == sorted(expected)
    for name, digest in expected.items():
        assert _sha256(os.path.join(corpus_dir, name)) == digest, name


def _line_sets(lines):
    return {frozenset(int(c) - 1 for c in line) for line in lines}


def _maps_sets_to_sets(g, sets):
    return {frozenset(g.images[p] for p in s) for s in sets} == sets


def test_a7_subgroups_have_their_stated_structure():
    a7, left, right, other = discover_a7_subgroups()
    assert a7.order() == 2520
    fano = _line_sets(FANO_LINES)
    assert len(fano) == 7
    assert all(_maps_sets_to_sets(g, fano) for g in left.generators)

    line_137 = {frozenset({0, 2, 6})}
    assert all(_maps_sets_to_sets(g, line_137) for g in right.generators)
    assert all(a7.contains(g) for h in (left, right, other)
               for g in h.generators)

    # orders and intersections from plain closures, not from chains
    elems_l, elems_r, elems_o = (mulclose(h.generators)
                                 for h in (left, right, other))
    assert (len(elems_l), len(elems_r), len(elems_o)) == (168, 72, 168)
    assert len(elems_l & elems_r) == 24
    assert len(elems_l & elems_o) == 24
    assert elems_l != elems_o


def test_corpus_builds_each_classical_group_once(monkeypatch):
    from permdesign import corpus, geometry
    calls = []
    original = geometry.classical_group_generators

    def counting(family, dim, q, **kwargs):
        calls.append((family, dim, q))
        return original(family, dim, q, **kwargs)

    monkeypatch.setattr(geometry, "classical_group_generators", counting)
    instances = corpus.bundled_corpus()
    assert sorted(calls) == [("AGL", 3, 2), ("PGL", 3, 2), ("PGL", 4, 2)]
    groups = {inst.name: inst.group for inst in instances}
    assert groups["pg1-3-2-pgl42"] is groups["pg2-3-2-pgl42"]
