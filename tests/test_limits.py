"""Each resource limit has one source: its PERMDESIGN_* variable."""

import importlib
import inspect
import pkgutil

import permdesign


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
