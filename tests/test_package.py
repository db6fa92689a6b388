import importlib.util
import pathlib
import re

import pytest

import nonlocalsolver

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_star_import_exports_all():
    # a name deleted from the package but left in __all__ fails here
    names = nonlocalsolver.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from nonlocalsolver import *", namespace)
    assert set(names) <= namespace.keys()
    for name in names:
        assert getattr(nonlocalsolver, name) is namespace[name]


def test_public_names_are_documented():
    # __all__ holds the names the README documents, each in backquotes
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    undocumented = [name for name in nonlocalsolver.__all__
                    if not any(re.search(rf"\b{name}\b", s) for s in spans)]
    assert undocumented == []


def test_benchmark_traced_names_resolve():
    # the benchmark wraps these names where their callers look them up; a
    # renamed one would only be reported as absent and drop out of its checks
    path = ROOT / "perfbench" / "tracer.py"
    if not path.exists():
        pytest.skip("perfbench/ is absent")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracer.TRACED
              if attr not in owner.__dict__]
    assert absent == []
