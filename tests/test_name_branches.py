"""Group facts come from root data: no module outside the catalog lookup
``groups._raw_group`` branches on a group's name.

The check parses every module of the package and looks for comparisons
(``==``, ``!=``, ``in``, ``match``) against a string that names a group or a
group family.
"""

import ast
import re
from pathlib import Path

import wrapkit

GROUP_NAME = re.compile(r"(torus|su|so)[0-9]*(x(torus|su|so)[0-9]*)*")


def _strings(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for elt in node.elts:
            yield from _strings(elt)


def _name_comparisons(tree):
    """(enclosing function, line, string) of each comparison against a
    group-name string."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        operands = []
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        for operand in operands:
            found.extend((func, node.lineno, text) for text in _strings(operand)
                         if GROUP_NAME.fullmatch(text))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_catalog_lookup_compares_group_names():
    files = sorted(Path(wrapkit.__file__).parent.glob("*.py"))
    assert len(files) >= 6
    offenders = [f"{path.name}:{line} in {func}: {text!r}"
                 for path in files
                 for func, line, text in _name_comparisons(ast.parse(path.read_text()))
                 if func != "_raw_group"]
    assert offenders == []


def test_the_guard_sees_name_branches():
    code = (
        'def f(g):\n'
        '    if g.name == "su3" or "torus" != g.name:\n'
        '        return 1\n'
        '    return g.name in ("so3", "su2xsu2", "kernel")\n'
        'def h(name):\n'
        '    match name:\n'
        '        case "su4":\n'
        '            return 2\n'
        'x = "su2" == "command"\n'
    )
    assert [(f, t) for f, _, t in _name_comparisons(ast.parse(code))] == [
        ("f", "su3"), ("f", "torus"), ("f", "so3"), ("f", "su2xsu2"),
        ("h", "su4"), (None, "su2")]
