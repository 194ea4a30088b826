"""Every name a `src/kslab` module exports has a caller outside the tests.

A name in a module's `__all__` must be referred to by another module of
the package or by the benchmark under `perfbench/`; an export that only
the tests reach is API that no measurement needs.  Likewise every public
method or property of a class in `src/kslab` must be read somewhere in
`src/kslab`, `perfbench/` or `tools/`.  And every name the benchmark's
tracer patches must still exist.  No module imports another's
underscore name, save the one shared private loop.
"""

import ast
from pathlib import Path

import tracing  # perfbench/tracing.py, on the path through conftest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kslab"


def _references(path: Path, bare_names: bool = True) -> set:
    """Attributes read in a file and identifier strings; with bare_names,
    also names and imported names.

    Strings count because the benchmark patches functions by name.  A
    method is looked up without bare names, so that a local variable does
    not stand in for a method of the same name.
    """

    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
        elif bare_names and isinstance(node, ast.Name):
            out.add(node.id)
        elif bare_names and isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
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


def test_every_public_method_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    callers = [*modules, *(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    read = set().union(*(_references(path, bare_names=False) for path in callers))
    unused = [
        f"{module.stem}.{cls.name}.{fn.name}"
        for module in modules
        for cls in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        and fn.name not in read
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


def test_no_module_imports_another_modules_private_name():
    # The one shared private name is the machine's run loop, which the
    # halting deciders drive directly.
    imported = {
        (module.stem, node.module, alias.name)
        for module in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert imported == {("halting", "machine", "_execute")}
