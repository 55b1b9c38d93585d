"""Every module-level private name in the package has a user in the package.

A private helper that only its own definition mentions is dead code; tests
import some helpers, but they do not count as users here.  Dunder names are
exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import spinlab

PACKAGE = Path(spinlab.__file__).parent


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def _used_names(stmt: ast.stmt) -> Counter:
    """Names a statement reads, as bare names or as attributes."""
    used = Counter()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def test_every_private_module_name_is_used_in_the_package():
    # (file, statement index) -> names that statement defines and reads
    defined, used = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for k, stmt in enumerate(ast.parse(path.read_text()).body):
            defined[path.name, k] = _defined_names(stmt)
            used[path.name, k] = _used_names(stmt)
    unused = []
    for where, names in defined.items():
        for name in names:
            if not name.startswith("_") or name.startswith("__"):
                continue
            # a use inside the defining statement (recursion) does not count
            if not any(used[other][name] for other in used if other != where):
                unused.append(f"{where[0]}: {name}")
    assert not unused, f"private names with no user: {unused}"
