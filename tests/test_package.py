import ast
import dataclasses
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


def test_module_level_names_are_used():
    # every module-level def, class and assignment of the package is read
    # somewhere in src/: as a loaded name, an attribute or a from-import
    trees = {path: ast.parse(path.read_text()) for path in (ROOT / "src").rglob("*.py")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in names
                       if name not in used and name not in ("__all__", "__version__")]
    assert unused == []


def test_result_fields_are_read():
    # no dead diagnostic: every field of the records a solve returns is read
    # as an attribute somewhere in src/ or named in a README backquote span
    read = {node.attr for path in (ROOT / "src").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    dead = [f"{record.__name__}.{f.name}"
            for record in (nonlocalsolver.ConditionReport, nonlocalsolver.SolutionSample)
            for f in dataclasses.fields(record)
            if f.name not in read and not any(re.search(rf"\b{f.name}\b", s) for s in spans)]
    assert dead == []


def test_public_names_are_documented():
    # __all__ holds the names the README documents, each in backquotes
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    undocumented = [name for name in nonlocalsolver.__all__
                    if not any(re.search(rf"\b{name}\b", s) for s in spans)]
    assert undocumented == []


def test_reexports_are_imported():
    # each name __init__.py imports is public, in __all__, or imported from
    # the package by a test, a tool or the benchmark
    imported = set()
    for path in (p for d in ("tests", "tools", "perfbench") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.name == "nonlocalsolver"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "nonlocalsolver":
                imported.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):  # ns.name after import nonlocalsolver as ns
                imported.add(node.attr)
    init = ast.parse((ROOT / "src" / "nonlocalsolver" / "__init__.py").read_text())
    names = [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
             for a in node.names]
    assert [name for name in names if name not in {*nonlocalsolver.__all__, *imported}] == []


@pytest.mark.filterwarnings("ignore:sup")
def test_readme_config_example_runs():
    # the README's config block parses and solves, and so does every
    # step_mode its comment lists
    text = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    rc = cli.parse_config(text)
    assert len(cli.run_solve(rc)) == len(rc.ts) == 3
    modes = re.search(r"^step_mode = \S+ +# (.*)$", text, re.M).group(1).split(" | ")
    assert "window" in modes
    for mode in modes:
        rc = cli.parse_config(re.sub(r"^step_mode = .*$", f"step_mode = {mode}",
                                     text, flags=re.M).replace("fixed:H", "fixed:0.25")
                              .replace("uniform:ALPHA", "uniform:0.3"))
        assert all(np.isfinite(row[4]) for row in cli.run_solve(rc))


def test_readme_command_lines_run(tmp_path, capsys):
    # each command line of the README runs, solve on the README's config
    # block, with the files it names and its optional --out in tmp_path
    text = README.read_text()
    (tmp_path / "problem.cfg").write_text(re.search(r"```ini\n(.*?)```", text, re.S).group(1))
    lines = re.search(r"```sh\n(nonlocalsolver .*?)```", text, re.S).group(1).splitlines()
    assert [line.split()[1] for line in lines] == ["solve", "reproduce", "converge"]
    for line in lines:
        argv = [str(tmp_path / arg) if arg.endswith((".cfg", ".csv")) else arg
                for arg in line.replace("[", "").replace("]", "").split()[1:]]
        (tmp_path / "out.csv").unlink(missing_ok=True)
        assert cli.main(argv) == 0, line
        out = capsys.readouterr().out
        if "--out" in argv:
            assert out == ""
            out = (tmp_path / "out.csv").read_text()
        assert out.startswith("n,N,t,x,value,abs_error\n"), line


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


def _copy_benchmark(tmp_path):
    """Copy the benchmark, the package source and BENCHMARK.json to tmp_path,
    so that the spans and work directories of a run stay out of the tree."""
    if not (ROOT / "perfbench").exists():
        pytest.skip("perfbench/ is absent")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)


def test_benchmark_selftest(tmp_path):
    # the benchmark's own checks: every metric of BENCHMARK.json is emitted
    # with its unit, and corrupted results are flagged
    _copy_benchmark(tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_traced_benchmark_smoke(tmp_path):
    # one traced pass of every workload: each request's output is checked,
    # and a request fails if its traced resolvent count is not N+1 or 2N+1;
    # the seed-1 smoke pools make 648, 195 and 1773 solves in all
    _copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
         "--trace", "1", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    solves = {"fd_plan": 648, "spectral_sweep": 195, "cli_small": 1773}
    assert set(result["workloads"]) == set(solves)
    for name, workload in result["workloads"].items():
        assert workload["metrics"]["trace.absent_names"]["value"] == 0, name
        assert workload["metrics"]["operators.resolvent_calls"]["value"] == solves[name], name


def test_refusal_digest_runs():
    # tools/fingerprint.py --refusals loads the rows of tests/test_inputs.py
    # and prints one line for each, then one for each of the 20 CLI forms and
    # the digest; a row that it fails to load or that is accepted fails here
    spec = importlib.util.spec_from_file_location("_input_rows", ROOT / "tests" / "test_inputs.py")
    rows = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rows)
    proc = subprocess.run([sys.executable, "tools/fingerprint.py", "--refusals", "src"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.endswith(" -> accepted")] == []
    library = (len(rows.COUNTS) * len(rows.BAD_COUNTS) + len(rows.DATA) * len(rows.COMPLEX)
               + len(rows.EMPTY) + len(rows.VALUES))
    assert len(lines) == library + 20 + 1 and lines[-1].startswith("sha256 ")


def test_readme_python_blocks_run(capsys):
    # the library example prints one line per time, its error below 1e-5; the
    # custom-operator recipe solves folded and full to the same values
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    exec(blocks[0], namespace)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert float(line.split()[1]) < 1e-5
    exec(blocks[1], namespace)
    problem = nonlocalsolver.NonlocalProblem(
        op=namespace["Dense"]([[3, 1], [1, 5]]), T=0.5,
        w=nonlocalsolver.WeightFunction.cos(), u0=np.array([1.0, -0.5]))
    folded, full = [nonlocalsolver.solve_many(
        problem, nonlocalsolver.SolverConfig(use_symmetry=use_symmetry), [0.1, 1.0])
        for use_symmetry in (True, False)]
    for a, b in zip(folded, full):
        assert np.max(np.abs(a.value - b.value)) <= 1e-13
