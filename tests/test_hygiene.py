"""Source hygiene: every name the package, the scripts and the tests import
is used, every name a module exports in ``__all__`` is defined in it,
every function and class of the package is referred to, one package
module binds pocketfft, and importing the package starts no thread. The
repo has no linter, so these stdlib checks are the gate."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench/ is left out: it is the benchmark and changes only with it.
CHECKED = sorted([*ROOT.glob("src/ove/*.py"), *ROOT.glob("scripts/*.py"),
                  *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that is neither read as a name
    (annotations count) nor listed in the module's ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def undefined_exports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each ``__all__`` entry that names nothing the
    module defines, assigns or imports at top level."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
    return [(e.lineno, e.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for e in ast.walk(node.value)
            if isinstance(e, ast.Constant) and e.value not in bound]


def test_checker_flags_only_unused_names():
    source = textwrap.dedent("""
        from __future__ import annotations
        import os, os.path
        import numpy as np
        from math import inf, pi as half_turn, tau
        from json import dumps
        __all__ = ["dumps"]
        def f(x: np.ndarray) -> float:
            return inf
    """)
    assert unused_imports(source) == [(3, "os"), (3, "os"), (5, "half_turn"), (5, "tau")]


def test_no_unused_imports():
    hits = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in CHECKED
            for line, name in unused_imports(path.read_text())]
    assert not hits, "unused imports:\n" + "\n".join(hits)


def test_export_checker_flags_only_undefined_names():
    source = textwrap.dedent("""
        import os.path
        from math import pi as half_turn
        LIMIT: int = 3
        Pair = tuple[int, int]
        def f(): pass
        class C: pass
        __all__ = ["os", "half_turn", "LIMIT", "Pair", "f", "C", "pi", "deleted"]
    """)
    assert undefined_exports(source) == [(8, "pi"), (8, "deleted")]


def test_every_export_is_defined():
    hits = [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in CHECKED
            for line, name in undefined_exports(path.read_text())]
    assert not hits, "__all__ names nothing defined:\n" + "\n".join(hits)


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statement_references(source: str) -> list[tuple[str | None, set[str]]]:
    """For each top-level statement, the function or class it defines
    (None for any other statement) and every name it refers to: read as a
    name or an attribute, imported from a module, or listed in
    ``__all__``."""
    out = []
    for node in ast.parse(source).body:
        refs = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                refs |= {a.name for a in n.names}
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            refs |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
        out.append((node.name if isinstance(node, DEFINITIONS) else None, refs))
    return out


def unreferenced_definitions(package: list[str], program: dict[str, str],
                             tests: dict[str, str]) -> list[tuple[str, int, str]]:
    """(path, line, name) of each top-level function or class of the
    ``package`` paths (keys of ``program``) that no statement but its own
    definition refers to. A public name may be referred to from
    ``program`` or ``tests``; a private one (leading underscore) only
    counts as used from ``program``."""
    def refs(sources):
        return [(path, own, names) for path, source in sources.items()
                for own, names in statement_references(source)]
    in_program, in_tests = refs(program), refs(tests)
    hits = []
    for path in package:
        for node in ast.parse(program[path]).body:
            if not isinstance(node, DEFINITIONS):
                continue
            seen = in_program if node.name.startswith("_") else in_program + in_tests
            if not any(node.name in names for where, own, names in seen
                       if (where, own) != (path, node.name)):
                hits.append((path, node.lineno, node.name))
    return hits


def test_reference_checker_flags_dead_and_test_only_helpers():
    package = textwrap.dedent("""
        __all__ = ["exported"]
        def exported(): pass
        def tested(): pass
        def _helper(): pass
        def _tested_helper(): pass
        def _recursive(n): return _recursive(n - 1)
        class Unused: pass
        class _Used: pass
        def caller(): return _helper() + pkg.missing
    """)
    script = "import pkg\nprint(pkg._Used)\n"
    tests = "from pkg import tested, _tested_helper\ndef test(): tested(); _tested_helper()\n"
    hits = unreferenced_definitions(["pkg.py"], {"pkg.py": package, "run.py": script},
                                    {"test_pkg.py": tests})
    assert hits == [("pkg.py", 6, "_tested_helper"), ("pkg.py", 7, "_recursive"),
                    ("pkg.py", 8, "Unused"), ("pkg.py", 10, "caller")]


def test_every_package_definition_is_referenced():
    # A replaced helper must go, not live on as dead code or as a fork
    # that only the tests still call.
    package = sorted(ROOT.glob("src/ove/*.py"))
    program = {str(p.relative_to(ROOT)): p.read_text()
               for p in [*package, *ROOT.glob("scripts/*.py")]}
    tests = {str(p.relative_to(ROOT)): p.read_text() for p in ROOT.glob("tests/*.py")}
    hits = [f"{path}:{line}: {name}" for path, line, name in unreferenced_definitions(
        [str(p.relative_to(ROOT)) for p in package], program, tests)]
    assert not hits, "defined but never referred to:\n" + "\n".join(hits)


def imported_modules(source: str) -> set[str]:
    """Dotted names of every module an import statement names, each
    ``from a import b`` counted as both ``a`` and ``a.b``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return names


def test_one_module_binds_pocketfft():
    # Every transform of a pass goes through propagation's one binding;
    # a second module importing pocketfft would be a second FFT path.
    private = "scipy.fft._pocketfft"
    binders = [path.name for path in sorted(ROOT.glob("src/ove/*.py"))
               if any(name == private or name.startswith(private + ".")
                      for name in imported_modules(path.read_text()))]
    assert binders == ["propagation.py"]
    assert private in imported_modules("from scipy.fft import _pocketfft")


def test_import_starts_no_thread():
    # Threads belong to the calls that use them (propagate joins its
    # worker before it returns), never to the import.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c",
                          "import threading, ove; print(threading.active_count())"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1"], out.stdout + out.stderr
