"""Every name a `src/kslab` module exports has a caller outside the tests.

A name in a module's `__all__` must be referred to by another module of
the package or by the benchmark under `perfbench/`; an export that only
the tests reach is API that no measurement needs.  And every name the
benchmark's tracer patches must still exist.
"""

import ast
from pathlib import Path

import tracing  # perfbench/tracing.py, on the path through conftest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kslab"


def _references(path: Path) -> set:
    """Names, attributes and imported names in a file, and identifier strings.

    Strings count because the benchmark patches functions by name.
    """

    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def _exports(path: Path) -> list:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_export_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    refs = {module: _references(module) for module in modules}
    bench = set().union(*(_references(path) for path in (ROOT / "perfbench").glob("*.py")))
    unused = [
        f"{module.stem}.{name}"
        for module in modules
        for name in _exports(module)
        if not any(name in names for other, names in refs.items() if other != module) and name not in bench
    ]
    assert unused == []


def test_the_benchmark_tracer_installs_and_uninstalls():
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._originals)
    finally:
        tracer.uninstall()
    assert patched and all(getattr(owner, attr) is original for owner, attr, original in patched)
