"""Guards on the size of the package's surface.

Every public top-level function and class in ``src/uniseq`` must have a
caller in the package or in the benchmark modules that import it
(``perfbench/run.py`` and ``perfbench/trace.py``), so code that only tests
use does not accumulate in ``src/``; the package namespace holds exactly
the API the README documents, and the README's library example runs as
written.
"""

import ast
import re
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
