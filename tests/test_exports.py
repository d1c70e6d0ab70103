import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import ancsim

MODULES = ["ancsim"] + [f"ancsim.{m.name}" for m in pkgutil.iter_modules(ancsim.__path__)]


def test_every_library_module_declares_its_exports():
    # cli is the command-line entry point, not a library surface
    missing = [name for name in MODULES
               if not hasattr(importlib.import_module(name), "__all__")]
    assert missing == ["ancsim.cli"]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "ancsim.cli"])
def test_all_lists_exactly_the_public_definitions(name):
    # every exported name exists, and every public function or class the
    # module itself defines is exported, so a deletion leaves no stale name
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = [n for n, obj in vars(mod).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name]
    assert [n for n in defined if n not in mod.__all__] == []


def test_every_parameter_is_read():
    # a parameter its function never reads is a setting with no effect;
    # monte_carlo keeps ``jobs`` because the benchmark passes it
    unread = []
    for path in sorted(Path(ancsim.__path__[0]).glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if p is not None]
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}({p})" for p in params if p not in read]
    assert unread == ["harness.monte_carlo(jobs)"]
