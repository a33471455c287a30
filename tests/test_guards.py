"""Guards: how a refused value is written, and a source check that no
guard builds q^e before comparing it."""

import ast
from pathlib import Path

import pytest

import sumrank
from sumrank.guards import GuardError, require_within

# Every module but guards.py, where require_power_within builds q^e only
# once e is below the limit's bit length.
SOURCES = sorted(path for path in Path(sumrank.__file__).parent.glob("*.py")
                 if path.name != "guards.py")


def test_a_value_past_the_str_digit_limit_is_written_as_a_power_of_ten():
    # 3^10000 has 4,772 digits, past the interpreter's int-to-str limit
    with pytest.raises(GuardError) as exc:
        require_within(3 ** 10000, 2 ** 20, "shift count")
    assert str(exc.value) == ("shift count ~ 10^4771.2 exceeds the "
                              "enumeration limit 1048576")


def _variable_powers(node):
    """The ** nodes under node whose exponent is not a literal."""
    return [n for n in ast.walk(node) if isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Pow)
            and not isinstance(n.right, ast.Constant)]


def powers_built_before_a_guard(tree):
    """Lines of the require_within calls whose value holds a ** with a
    variable exponent, written in the call or bound to a name in the same
    function; such a value belongs in require_power_within."""
    lines = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        powered = {target.id for node in ast.walk(scope)
                   if isinstance(node, ast.Assign)
                   and _variable_powers(node.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        for call in ast.walk(scope):
            if not (isinstance(call, ast.Call) and "require_within" in (
                    getattr(call.func, "id", None),
                    getattr(call.func, "attr", None))):
                continue
            value = call.args[0] if call.args else next(
                k.value for k in call.keywords if k.arg == "value")
            if _variable_powers(value) or any(
                    isinstance(n, ast.Name) and n.id in powered
                    for n in ast.walk(value)):
                lines.add(call.lineno)
    return sorted(lines)


@pytest.mark.parametrize("source, lines", [
    ("require_within(q ** e, 8, 'x')", [1]),
    ("guards.require_within(value=2 * q ** (m * n), limit=8, what='x')", [1]),
    ("def f(q, e):\n    n = q ** e\n    require_within(n + 1, 8, 'x')", [3]),
    ("require_within(k * g ** 2, 8, 'x')", []),
    ("require_power_within(q, e, 8, 'x')", []),
])
def test_the_power_check_finds_what_it_looks_for(source, lines):
    assert powers_built_before_a_guard(ast.parse(source)) == lines


def test_no_guard_builds_a_power_before_comparing_it():
    assert len(SOURCES) > 5
    found = {path.name: powers_built_before_a_guard(ast.parse(
        path.read_text(), str(path))) for path in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}
