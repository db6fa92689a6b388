import importlib.util
import json
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import nonlocalsolver
from nonlocalsolver import cli

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


@pytest.mark.filterwarnings("ignore:sup")
def test_readme_config_example_runs():
    # the README's config block, without its out line, parses and solves,
    # and so does every step_mode its comment lists
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    text = "\n".join(line for line in block.splitlines() if not line.startswith("out "))
    rc = cli.parse_config(text)
    assert len(cli.run_solve(rc)) == len(rc.ts) == 3
    modes = re.search(r"^step_mode = \S+ +# (.*)$", text, re.M).group(1).split(" | ")
    assert "window" in modes
    for mode in modes:
        rc = cli.parse_config(re.sub(r"^step_mode = .*$", f"step_mode = {mode}",
                                     text, flags=re.M).replace("fixed:H", "fixed:0.25"))
        assert all(np.isfinite(row[4]) for row in cli.run_solve(rc))


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


def test_traced_benchmark_smoke(tmp_path):
    # one traced pass of every workload: each request's output is checked,
    # and a request fails if its traced resolvent count is not N+1 or 2N+1;
    # run on a copy, so that spans and work directories stay out of the tree
    if not (ROOT / "perfbench").exists():
        pytest.skip("perfbench/ is absent")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
         "--trace", "1", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for name, workload in result["workloads"].items():
        assert workload["metrics"]["trace.absent_names"]["value"] == 0, name
