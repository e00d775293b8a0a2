"""Source hygiene: every name the package, the scripts and the tests import
is used, every name a module exports in ``__all__`` is defined in it, and
importing the package starts no thread. The repo has no linter, so these
stdlib checks are the gate."""

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


def test_import_starts_no_thread():
    # Threads belong to the calls that use them (propagate joins its
    # worker before it returns), never to the import.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c",
                          "import threading, ove; print(threading.active_count())"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1"], out.stdout + out.stderr
