"""Each resource limit has one source: its PERMDESIGN_* variable."""

import ast
import importlib
import inspect
import json
import os
import pkgutil

import pytest

import permdesign
from permdesign.analyzer import PASS, UNKNOWN, analyze
from permdesign.cli import main


def _functions(obj):
    """The functions and methods defined on a class, unwrapped."""
    for value in vars(obj).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        if inspect.isfunction(value):
            yield value


def test_no_function_takes_a_limit_parameter():
    offenders = []
    for info in pkgutil.iter_modules(permdesign.__path__):
        module = importlib.import_module(f"permdesign.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                functions = _functions(obj)
            elif callable(obj):
                functions = [obj]
            else:
                continue
            for fn in functions:
                if "limit" in inspect.signature(fn).parameters:
                    offenders.append(f"{module.__name__}.{fn.__qualname__}")
    assert offenders == []


# each limit reader and the one module that may import it
READERS = {"element_limit": "group.py", "index_limit": "cosets.py",
           "point_limit": "geometry.py"}


def _limit_imports(path):
    """The limit readers that the module at `path` imports."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in READERS}


def test_each_limit_has_one_reading_module():
    package = os.path.dirname(permdesign.__file__)
    found = {name: _limit_imports(os.path.join(package, name))
             for name in sorted(os.listdir(package)) if name.endswith(".py")}
    for reader, module in READERS.items():
        assert [name for name, readers in found.items()
                if reader in readers] == [module], reader


@pytest.mark.parametrize("index_limit", [1, 5, 10, 30])
@pytest.mark.parametrize("element_limit", [1, 5, 10, 30])
def test_small_limits_give_reports_not_crashes(corpus_instances, monkeypatch,
                                               element_limit, index_limit):
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", str(element_limit))
    monkeypatch.setenv("PERMDESIGN_INDEX_LIMIT", str(index_limit))
    for inst in corpus_instances:
        report = analyze(inst.group, inst.structure, inst.name)
        assert report.exit_code() in (0, 3), inst.name


def test_census_at_a_small_element_limit_writes_its_json(
        corpus_dir, tmp_path, monkeypatch, capsys):
    # limit 10 refuses the walks that type the A7 actions; the origin-blocks
    # check reads the order-16 affine witness of symplectic-2-2 off its
    # chain, so it stays exact
    monkeypatch.setenv("PERMDESIGN_ELEMENT_LIMIT", "10")
    out = tmp_path / "census.json"
    assert main(["census", str(corpus_dir), "--json", str(out)]) == 3
    reports = {r["instance_id"]: r
               for r in json.loads(out.read_text())["instances"]}
    symplectic = reports["symplectic-2-2"]
    assert symplectic["checks"]["origin_blocks_are_subspaces"] == PASS
    assert symplectic["notes"] == []
    for name in ("a7-cos-15-3-1", "a7-cos-15-7-3"):
        assert reports[name]["point_type"] == UNKNOWN
        (note,) = reports[name]["notes"]
        assert ("point type unknown: group order 2520 exceeds enumeration "
                "limit 10 (PERMDESIGN_ELEMENT_LIMIT)") in note
    assert "census by (point type, block action):" in capsys.readouterr().out
