"""The module layering of plval, read from the source with ast.

Every import points down one stack, and a module reads no private name
of another.  The one call up the stack is plfunction.join and meet into
overlay, which users call on plfunction.
"""

import ast
import pathlib

import plval

SRC = pathlib.Path(plval.__file__).parent
# the stack, bottom first: a module imports only modules before it
ORDER = ("errors", "stats", "serialize", "convex", "polytope", "plfunction", "integration", "overlay",
         "valuation", "verify", "cli")
# (module, function) pairs allowed to import a plval module in their body
UPWARD = {("plfunction", "join"), ("plfunction", "meet")}


def _walk(node, function=None):
    """(node, enclosing function name or None) for every node under node,
    skipping `if TYPE_CHECKING:` blocks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and isinstance(child.test, ast.Name) and child.test.id == "TYPE_CHECKING":
            continue
        yield child, function
        yield from _walk(child, child.name if isinstance(child, ast.FunctionDef) else function)


def _plval_targets(node):
    """[(module, name, local)]: the plval modules an import node reads,
    the name it takes from each, and the local name it binds; name is
    None for a whole module."""
    if isinstance(node, ast.Import):
        return [(a.name.split(".")[1], None, a.asname) for a in node.names if a.name.startswith("plval.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level == 0:
        if not base.startswith("plval"):
            return []
        base = base[len("plval"):].lstrip(".")
    if base:
        return [(base, a.name, a.asname or a.name) for a in node.names]
    return [(a.name, None, a.asname or a.name) for a in node.names]  # from . import module


def _private(name) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _modules():
    return sorted(p for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))


def _scan():
    """(inner imports, private reads, upward imports), each a list of
    strings naming where."""
    inner, private, upward = [], [], []
    for path in _modules():
        me = path.stem
        aliases = {}  # local name -> the plval module it is bound to
        for node, function in _walk(ast.parse(path.read_text(), str(path))):
            targets = _plval_targets(node)
            if targets and function is not None and (me, function) not in UPWARD:
                inner.append("%s:%d imports %s inside %s" % (path.name, node.lineno, targets[0][0], function))
            for module, name, local in targets:
                if name is None:
                    aliases[local] = module
                elif _private(name):
                    private.append("%s:%d imports %s.%s" % (path.name, node.lineno, module, name))
                if function is None and ORDER.index(module) >= ORDER.index(me):
                    upward.append("%s:%d imports %s" % (path.name, node.lineno, module))
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and aliases.get(node.value.id, me) != me and _private(node.attr)):
                private.append("%s:%d reads %s.%s" % (path.name, node.lineno, aliases[node.value.id], node.attr))
    return inner, private, upward


def test_the_stack_names_every_module():
    assert sorted(ORDER) == sorted(p.stem for p in _modules())


def test_no_function_imports_a_plval_module_but_join_and_meet():
    assert _scan()[0] == []


def test_no_module_reads_a_private_name_of_another():
    assert _scan()[1] == []


def test_every_module_level_import_points_down_the_stack():
    assert _scan()[2] == []


def test_the_scan_sees_the_one_upward_call():
    # join and meet import overlay in their bodies, and the scan finds
    # exactly those two once the exception is lifted
    tree = ast.parse((SRC / "plfunction.py").read_text())
    found = [f for node, f in _walk(tree) if f is not None and _plval_targets(node)]
    assert found == ["join", "meet"]
