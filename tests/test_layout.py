"""The chain engine's classes stay inside group.py: every other module of
the package reads chains through GroupWithChain and the functions of
group.py, and forms no chain or level of its own."""

import ast
import os

import permdesign

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
