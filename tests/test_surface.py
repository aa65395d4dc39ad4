"""Guards on the size of the package's surface.

Every public top-level function and class in ``src/uniseq`` must have a
caller in the package or in the benchmark modules that import it
(``perfbench/run.py`` and ``perfbench/trace.py``), and every defaulted
parameter of a public function must be passed by some call there, so code
and knobs that only tests use do not accumulate in ``src/``; the package
namespace holds exactly the API the README documents, and the README's
library example runs as written.  Records are plain tuples, so no module
imports ``dataclasses``, and importing the CLI loads neither it nor
``inspect``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import uniseq

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "uniseq").glob("*.py"))
# The other perfbench modules import nothing from uniseq, so a name they
# define or use is never a caller of the package.
CALLERS = SOURCES + [REPO / "perfbench" / "run.py", REPO / "perfbench" / "trace.py"]


def _used_names(node):
    """Names, attributes and identifier-like strings used inside ``node``;
    strings count because the benchmark looks functions up by name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value


def test_every_public_definition_has_a_caller_outside_the_tests():
    defined = {}
    used = set()
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            name = getattr(node, "name", None)  # set on def and class statements
            if path in SOURCES and name and not name.startswith("_"):
                defined[name] = path.name
            used.update(n for n in _used_names(node) if n != name)
    assert len(defined) >= 50, sorted(defined)
    uncalled = sorted(f"{path}:{name}" for name, path in defined.items() if name not in used)
    assert not uncalled, f"public names nothing in src/ or the benchmark uses: {uncalled}"


def _defaulted_parameters(tree):
    """(function, parameter, position) for each defaulted parameter of a
    public top-level function; keyword-only parameters have no position."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for k in range(first, len(positional)):
                yield node.name, positional[k].arg, k
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _passes(call, name, param, position):
    """Does ``call`` call ``name`` and pass ``param``, by position or by
    keyword (``*args`` and ``**kwargs`` count as passing)?"""
    func = call.func
    if getattr(func, "id", getattr(func, "attr", None)) != name:
        return False
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    defaulted = []
    calls = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path in SOURCES:
            defaulted.extend(_defaulted_parameters(tree))
        calls.extend(node for node in ast.walk(tree) if isinstance(node, ast.Call))
    assert defaulted
    unpassed = sorted(
        f"{name}({param})"
        for name, param, position in defaulted
        if not any(_passes(call, name, param, position) for call in calls)
    )
    assert not unpassed, f"defaulted parameters no call in src/ or the benchmark passes: {unpassed}"


def test_every_exported_name_resolves():
    assert uniseq.__all__
    for name in uniseq.__all__:
        assert getattr(uniseq, name) is not None, name


def test_the_readme_library_example_runs(capsys):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "('ab',)"
    assert printed[-1].startswith("True ")


def test_no_module_imports_dataclasses():
    importers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert not importers, importers


def _loaded(statement):
    """Which of dataclasses and inspect a fresh interpreter has loaded
    after running ``statement``."""
    code = f"{statement}\nimport sys\nprint(*{{'dataclasses', 'inspect'}} & set(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Compared against a bare interpreter, whose ``site`` may preload some.
    assert _loaded("import uniseq.cli") <= _loaded("pass")
