"""Static checks on the package source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lovelock_mass"


def _einsum_calls(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"):
            yield node


def test_multi_operand_einsums_are_planned():
    # an einsum with three or more operands and no optimize=True runs one
    # loop nest over all its indices instead of pairwise products
    unplanned, total = [], 0
    for path in sorted(SRC.glob("*.py")):
        for call in _einsum_calls(ast.parse(path.read_text())):
            if len(call.args) - 1 < 3:
                continue
            total += 1
            planned = any(kw.arg == "optimize"
                          and isinstance(kw.value, ast.Constant)
                          and kw.value.value is True for kw in call.keywords)
            if not planned:
                unplanned.append(f"{path.name}:{call.lineno}")
    assert total, "no multi-operand einsum found; is the scan broken?"
    assert not unplanned, unplanned


# the one place each builds a rank-4 tensor from a pair matrix: the full
# P_(k), the Kulkarni-Nomizu product and the graph's P . R_ijkl
_UNPAIR_CALLERS = {("curvature.py", "p_tensor_general"),
                   ("curvature.py", "kulkarni_nomizu"),
                   ("graphcase.py", "graph_L2")}


def _unpair_callers(tree):
    """(outermost enclosing function or None, line) of each unpair call."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = func or child.name
            else:
                inner = func
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name == "unpair":
                    yield inner, child.lineno
            yield from visit(child, inner)

    yield from visit(tree, None)


def test_rank4_tensors_built_only_where_read():
    # the bundle and the flux path stay on pair matrices: a call of
    # multiindex.unpair anywhere else brings a rank-4 tensor back
    stray, found = [], set()
    for path in sorted(SRC.glob("*.py")):
        for func, line in _unpair_callers(ast.parse(path.read_text())):
            if (path.name, func) in _UNPAIR_CALLERS:
                found.add((path.name, func))
            else:
                stray.append(f"{path.name}:{line} in {func}")
    assert not stray, stray
    assert found == _UNPAIR_CALLERS, "a known caller is missing; scan broken?"
