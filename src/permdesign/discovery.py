"""Subgroup discovery helpers: randomized search by target order,
subgroup conjugacy testing, and normalizers of cyclic subgroups.
Everything runs on enumerated elements, so it is meant for desk-scale
groups only.

The bundled corpus does not use this module: its subgroups are written out
by generators.  The helpers remain as a desk tool for finding such
generators, and the benchmark tracer wraps them by name."""

from __future__ import annotations

import random

from .group import GroupWithChain


class DiscoveryError(RuntimeError):
    """The randomized search exhausted its retry budget."""


def random_subgroups_of_order(group, target_order, rng=None, max_rounds=2000,
                              want=1, distinct_from=()):
    """Random subgroups of a prescribed order, by divisor climbing.

    Each round grows a random generating set, only accepting extensions that
    keep the generated order a divisor of the target, and restarts when a
    round stalls.  (Plain two-generator sampling is not enough: some of the
    needed subgroups have no generating pair at all.)"""
    rng = rng or random.Random(0)
    elems = group.elements()
    found = []
    seen = {frozenset(p.images for p in h.elements()) for h in distinct_from}
    for _ in range(max_rounds):
        gens = []
        current = None
        stale = 0
        while stale < 40:
            x = elems[rng.randrange(len(elems))]
            if x.is_identity():
                continue
            cand = GroupWithChain(tuple(gens) + (x,))
            if (target_order % cand.order() != 0
                    or (current is not None
                        and cand.order() == current.order())):
                stale += 1
                continue
            gens.append(x)
            current = cand
            stale = 0
            if current.order() == target_order:
                break
        if current is None or current.order() != target_order:
            continue
        key = frozenset(p.images for p in current.elements())
        if key in seen:
            continue
        seen.add(key)
        found.append(current)
        if len(found) >= want:
            return found
    raise DiscoveryError(
        f"no {want} subgroup(s) of order {target_order} found in "
        f"{max_rounds} rounds")


def conjugate_subgroup(subgroup, x):
    return GroupWithChain(tuple(g.conjugated_by(x) for g in subgroup.generators))


def subgroups_conjugate_in(group, h, k):
    """Whether h and k are conjugate in `group`: the orbit of h's element set
    under conjugation by the group's generators either reaches k's or not."""
    if h.order() != k.order():
        return False
    target = frozenset(p.images for p in k.elements())
    start = frozenset(p.images for p in h.elements())
    if start == target:
        return True
    seen = {start}
    queue = [h]
    while queue:
        current = queue.pop()
        for x in group.generators:
            conj = conjugate_subgroup(current, x)
            key = frozenset(p.images for p in conj.elements())
            if key == target:
                return True
            if key not in seen:
                seen.add(key)
                queue.append(conj)
    return False


def cyclic_normalizer(group, element):
    """Normalizer in `group` of the cyclic subgroup generated by `element`,
    by filtering the enumerated elements."""
    powers = set()
    x = element
    while x.images not in powers:
        powers.add(x.images)
        x = x * element
    members = [g for g in group.elements()
               if element.conjugated_by(g).images in powers]
    non_identity = [g for g in members if not g.is_identity()]
    if not non_identity:
        return GroupWithChain.trivial(group.degree)
    return GroupWithChain(tuple(non_identity))


def first_element_of_order(group, n):
    for g in group.elements():
        if not g.is_identity() and g.order() == n:
            return g
    raise DiscoveryError(f"no element of order {n}")
