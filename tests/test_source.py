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
