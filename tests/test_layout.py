"""The chain engine's classes stay inside group.py: every other module of
the package reads chains through GroupWithChain and the functions of
group.py, and forms no chain or level of its own, nor reads one or what a
group keeps.  Likewise every coset walk goes through the one cache,
cosets._cosets: no other function of the package names
cosets._coset_orbit.  And gf.py is the one home of integer arithmetic."""

import ast
import dataclasses
import os

import permdesign
from permdesign.group import ActionImage, GroupWithChain

ENGINE = {"_Chain", "_Level", "_ReadLevel"}


def _engine_imports(path):
    """The engine class names that the module at `path` imports."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in ENGINE}


def test_only_group_py_imports_the_chain_engine():
    package = os.path.dirname(permdesign.__file__)
    modules = sorted(name for name in os.listdir(package)
                     if name.endswith(".py") and name != "group.py")
    assert "cosets.py" in modules
    offenders = {name: sorted(found) for name in modules
                 if (found := _engine_imports(os.path.join(package, name)))}
    assert offenders == {}


def _referrers(path, name):
    """The functions of the module at `path` that name `name`, each as the
    innermost def around it, or "<module>" outside any; one per use."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if name in (getattr(child, "id", None),
                        getattr(child, "attr", None)):
                found.append(scope)
            visit(child, scope)
    visit(tree, "<module>")
    return found


def test_only_the_walk_cache_walks_cosets():
    package = os.path.dirname(permdesign.__file__)
    found = {name: users for name in sorted(os.listdir(package))
             if name.endswith(".py")
             and (users := _referrers(os.path.join(package, name),
                                      "_coset_orbit"))}
    assert found == {"cosets.py": ["_cosets"]}


def _names(path):
    """Every identifier, attribute, parameter and string constant of the
    module at `path`."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    found = set()
    for node in ast.walk(tree):
        for field in ("id", "attr", "arg", "value"):
            name = getattr(node, field, None)
            if isinstance(name, str):
                found.add(name)
    return found


def test_only_group_py_reads_a_chain_or_a_group_s_private_state():
    """No module but group.py names a chain's levels or a private slot of
    GroupWithChain (its chain, caches and store): the others ask group.py."""
    private = {"levels"} | {name for name in GroupWithChain.__slots__
                            if name.startswith("_")}
    assert {"_chain", "_derived"} <= private
    package = os.path.dirname(permdesign.__file__)
    offenders = {name: sorted(found) for name in sorted(os.listdir(package))
                 if name.endswith(".py") and name != "group.py"
                 and (found := _names(os.path.join(package, name)) & private)}
    assert offenders == {}


def test_a_group_keeps_its_derived_facts_in_one_store():
    """Besides what defines a group (its degree, generators, chain and
    order), GroupWithChain keeps its element list, which the benchmark
    tracer reads, and the one store of every other derived fact."""
    defining = {"degree", "_generators", "walk_generators", "_chain",
                "_order"}
    assert set(GroupWithChain.__slots__) - defining == {"_elements",
                                                        "_derived"}


def test_an_action_image_stores_no_derived_flag():
    """Faithfulness is read off the two orders, not stored beside them."""
    assert [f.name for f in dataclasses.fields(ActionImage)] == [
        "source", "image"]


def test_only_gf_py_defines_integer_arithmetic():
    """Trial division, prime powers and |GL(d, q)| are written once, in
    gf.py; every other module imports them from there."""
    arithmetic = {"is_prime", "prime_power", "prime_divisors", "gl_order"}
    package = os.path.dirname(permdesign.__file__)
    found = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            defined = sorted(node.name for node in ast.walk(tree)
                             if isinstance(node, ast.FunctionDef)
                             and node.name in arithmetic)
            if defined:
                found[name] = defined
    assert found == {"gf.py": sorted(arithmetic)}


def test_only_perm_py_names_the_byte_tables():
    """The byte-table encoding of permutations is perm.py's alone: no other
    module names bytes.translate, bytes.maketrans or TABLE_SIZE."""
    tables = {"translate", "maketrans", "TABLE_SIZE"}
    package = os.path.dirname(permdesign.__file__)
    found = {name: sorted(names) for name in sorted(os.listdir(package))
             if name.endswith(".py")
             and (names := _names(os.path.join(package, name)) & tables)}
    assert found == {"perm.py": ["TABLE_SIZE", "translate"]}
