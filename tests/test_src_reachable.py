"""src holds what src uses.

Every function, class and non-dunder method defined under src/georoots
must be referenced by src code other than its own body.  The exceptions
are the names the benchmark reads from outside (its tracer's BOUNDARY
and its `from georoots... import` lines) and the short allowlist below,
each entry with its reason.  The check is by name, so a reference to any
attribute or variable of the same name counts: it can miss dead code,
but it never flags live code.
"""

import ast
from pathlib import Path

from test_benchmark_hooks import BOUNDARY

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "georoots"

# name -> why src keeps it though no src code references it
ALLOWED = {
    "stabilizer_generator": "the stated and proved form of the Gamma_0(n) "
                            "stabilizer that _symmetry computes, checked "
                            "against the oracle's generator search",
    "RootSequence.head": "how the million-root acceptance pools are cut "
                         "to their first N roots",
    "RootSequence.subset": "how the acceptance and first-N tests split a "
                           "pool into its order classes",
}


def _benchmark_names():
    names = {name for _, layer_names in BOUNDARY for name in layer_names}
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("georoots")):
                names.update(alias.name for alias in node.names)
    return names


def _definitions(tree):
    """(qualified name, is method, node) of every class, function and
    non-dunder method of one module."""
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name, False, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods.add(item)
                    if not (item.name.startswith("__")
                            and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", True, item
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node not in methods:
            yield node.name, False, node


def _unreferenced():
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    # (path, line, name, by attribute) of every read of a name
    refs = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                refs.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr, True))
    out = set()
    for path, tree in trees.items():
        for qualname, is_method, node in _definitions(tree):
            # a method is read as an attribute; its own body does not count
            body = range(node.lineno, node.end_lineno + 1)
            if not any(n == node.name and (by_attr or not is_method)
                       and not (p == path and line in body)
                       for p, line, n, by_attr in refs):
                out.add(qualname)
    return out


def test_src_defines_nothing_it_does_not_use():
    unused = _unreferenced()
    dead = sorted(unused - _benchmark_names() - set(ALLOWED))
    assert not dead, f"defined in src, referenced by no src code: {dead}"
    stale = sorted(set(ALLOWED) - unused)
    assert not stale, f"allowlisted but referenced by src: {stale}"
