"""Guards: how a refused value is written, the price of one sampler draw,
and source checks: every cap lives in guards.py, no guard builds q^e before
comparing it, every function of the package is named by the package or by
perfbench, only metric decodes a code, the CLI prices no draw itself, the
bound formulas build no Fraction, and every public cache of several
arguments is typed."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import sumrank
from sumrank import linalg, metric
from sumrank.counting import SpaceParams
from sumrank.galois import field_from_order
from sumrank.guards import (MAX_ENTRIES, MAX_MATRIX_WORK, GuardError,
                            require_draw_within, require_within)

PACKAGE = sorted(Path(sumrank.__file__).parent.glob("*.py"))
# Every module but guards.py, which holds every cap, and where
# require_power_within builds q^e only once e is below the limit's bit length.
SOURCES = [path for path in PACKAGE if path.name != "guards.py"]
PERFBENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


def test_a_value_past_the_str_digit_limit_is_written_as_a_power_of_ten():
    # 3^10000 has 4,772 digits, past the interpreter's int-to-str limit
    with pytest.raises(GuardError) as exc:
        require_within(3 ** 10000, 2 ** 20, "shift count")
    assert str(exc.value) == ("shift count ~ 10^4771.2 exceeds the "
                              "enumeration limit 1048576")


def line(ell):
    return SpaceParams(field=field_from_order(2), m=1, eta=1, ell=ell)


# Each draw price at a cap, and one step past it with the refusal.
DRAW_PRICES = [
    pytest.param(require_draw_within, (MAX_ENTRIES, MAX_MATRIX_WORK),
                 (MAX_ENTRIES + 1, 0), "entries per draw = 2097153",
                 id="draw-entries"),
    pytest.param(require_draw_within, (0, MAX_MATRIX_WORK),
                 (0, MAX_MATRIX_WORK + 1), "matrix work per draw = 33554433",
                 id="draw-work"),
    # 2^20 entries and 2^19 rank-1 blocks of two factor entries each
    pytest.param(metric.require_ball_draw_within, (line(2 ** 20), 2 ** 19),
                 (line(2 ** 20 + 1), 2 ** 19), "entries per draw = 2097153",
                 id="ball"),
    pytest.param(metric.require_rank_matrix_within, (1, MAX_ENTRIES, 0),
                 (1, MAX_ENTRIES + 1, 0), "entries per draw = 2097153",
                 id="rank-matrix-entries"),
    # (32 + 16368) x 32 factor entries and 32 x 16368 product entries make
    # 2^20, each worked 32 times
    pytest.param(metric.require_rank_matrix_within, (32, 16368, 32),
                 (32, 16369, 32), "matrix work per draw = 33556480",
                 id="rank-matrix-work"),
    pytest.param(linalg.require_full_rank_within, (1, MAX_ENTRIES),
                 (1, MAX_ENTRIES + 1), "entries per draw = 2097153",
                 id="full-rank-entries"),
    pytest.param(linalg.require_full_rank_within, (32, 2 ** 15),
                 (32, 2 ** 15 + 1), "matrix work per draw = 33555456",
                 id="full-rank-work"),
    pytest.param(linalg.require_full_rank_within, (2 ** 15, 32),
                 (2 ** 15 + 1, 32), "matrix work per draw = 33555456",
                 id="full-rank-work-tall"),
    pytest.param(linalg.require_subspace_within, (MAX_ENTRIES, 1),
                 (MAX_ENTRIES + 1, 1), "entries per draw = 2097153",
                 id="subspace-entries"),
    pytest.param(linalg.require_subspace_within, (2 ** 16, 16),
                 (2 ** 16 + 1, 16), "matrix work per draw = 33554944",
                 id="subspace-work"),
]


@pytest.mark.parametrize("check, at_cap, past, refused", DRAW_PRICES)
def test_a_draw_at_its_cap_passes_and_one_step_past_is_refused(
        check, at_cap, past, refused):
    assert check(*at_cap) is None
    with pytest.raises(GuardError) as exc:
        check(*past)
    limit = MAX_ENTRIES if refused.startswith("entries") else MAX_MATRIX_WORK
    assert str(exc.value) == f"{refused} exceeds the enumeration limit {limit}"


@pytest.mark.parametrize("check, shape", [
    (metric.require_rank_matrix_within, (10 ** 6, 10 ** 6, 10 ** 6 + 1)),
    (metric.require_rank_matrix_within, (10 ** 6, 10 ** 6, -1)),
    (linalg.require_subspace_within, (10 ** 6, 10 ** 6 + 1)),
    (linalg.require_subspace_within, (10 ** 6, -1)),
])
def test_a_rank_or_dimension_out_of_range_is_left_to_the_sampler(check,
                                                                  shape):
    assert check(*shape) is None


def test_a_ball_radius_out_of_range_is_refused_as_the_sampler_would():
    for check in (metric.require_ball_draw_within,
                  lambda params, r: metric.sample_ball_uniform(params, r,
                                                               None)):
        with pytest.raises(ValueError) as exc:
            check(line(2), 3)
        assert str(exc.value) == "radius r = 3 outside [0, 2]"


def caps_assigned(tree):
    """The MAX_* names that module-level statements of tree assign."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets.append(node.target)
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and n.id.startswith("MAX_")]


@pytest.mark.parametrize("source, names", [
    ("MAX_X = 1", ["MAX_X"]),
    ("A, MAX_Y = MAX_Z = 1, 2", ["MAX_Y", "MAX_Z"]),
    ("MAX_W: int = 1\nMAX_W += 1", ["MAX_W", "MAX_W"]),
    ("from .guards import MAX_SWEEP\nLIMIT = MAX_SWEEP", []),
    ("def f():\n    MAX_V = 1", []),
])
def test_the_cap_check_finds_what_it_looks_for(source, names):
    assert caps_assigned(ast.parse(source)) == names


def test_every_cap_lives_in_guards():
    assert len(SOURCES) > 5
    found = {path.name: caps_assigned(ast.parse(path.read_text(), str(path)))
             for path in SOURCES}
    assert {name: caps for name, caps in found.items() if caps} == {}


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


# Functions of the package that nothing in it or in perfbench names, each
# kept for a reason of its own.
KEPT = {
    "linalg.enumerate_subspaces":
        "the enumerator of the exact linear-ensemble law, ROADMAP item 7",
    "galois.FieldSpec.coeffs":
        "the one statement of the element encoding: an index is its "
        "polynomial's coefficients read as base-p digits",
}

# perfbench names what it traces as "module.Class.method" strings.
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(node):
    """Every name, attribute and dotted-string part under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and DOTTED.fullmatch(n.value)):
            yield from n.value.split(".")


def _functions(module, tree):
    """(qualified name, node) of every function and method, dunders aside."""
    for node in tree.body:
        owner, members = ((f"{module}.{node.name}", node.body)
                          if isinstance(node, ast.ClassDef) else (module, [node]))
        for sub in members:
            if (isinstance(sub, ast.FunctionDef)
                    and not re.fullmatch(r"__\w+__", sub.name)):
                yield f"{owner}.{sub.name}", sub


def unreached(package, others=()):
    """Qualified names of the functions in `package` (module name -> tree)
    that no code in it or in `others` names outside their own body.  A
    function named only inside unreached ones is unreached too, so the walk
    repeats until nothing more drops out."""
    found = {name: node for module, tree in package.items()
             for name, node in _functions(module, tree)}
    named = Counter()
    for tree in (*package.values(), *others):
        named.update(_names(tree))
    dead = set()
    while True:
        new = {name for name, node in found.items() if name not in dead
               and named[node.name] == Counter(_names(node))[node.name]}
        if not new:
            return sorted(dead)
        for name in new:
            named.subtract(_names(found[name]))
        dead |= new


@pytest.mark.parametrize("source, found", [
    ("def f():\n    return f()", ["mod.f"]),
    ("def f():\n    pass\ndef g():\n    return f()", ["mod.f", "mod.g"]),
    ("def f():\n    pass\nALIAS = f", []),
    ("class C:\n    def m(self):\n        pass", ["mod.C.m"]),
    ("class C:\n    def __eq__(self, other):\n        pass\n"
     "    def m(self):\n        pass\nTRACED = ('mod.C.m',)", []),
])
def test_the_reach_check_finds_what_it_looks_for(source, found):
    assert unreached({"mod": ast.parse(source)}) == found


def test_every_function_is_named_where_the_program_runs():
    assert len(PACKAGE) > 5 and len(PERFBENCH) > 3
    package = {path.stem: ast.parse(path.read_text(), str(path))
               for path in PACKAGE}
    others = [ast.parse(path.read_text(), str(path)) for path in PERFBENCH]
    found = unreached(package, others)
    unnamed = [name for name in found if name not in KEPT]
    assert not unnamed, f"named nowhere the program runs: {unnamed}"
    assert found == sorted(KEPT)


# The functions that may decode a code into its entries: the CLI/JSON edge,
# and the chunk cuts of a code set, both in metric.
DECODERS = {"metric.tuple_from_code", "metric.code_set"}
# Decoders and encoders that enumerated codes no longer pass through.
RETIRED = {"matrix_from_code", "encode"}


def decoding(module, tree):
    """Qualified names of the functions and methods in tree, vector_from_code
    itself aside, that name vector_from_code."""
    return [name for name, node in _functions(module, tree)
            if node.name != "vector_from_code"
            and "vector_from_code" in _names(node)]


@pytest.mark.parametrize("source, found", [
    ("def f(c):\n    return metric.vector_from_code(2, 3, c)", ["mod.f"]),
    ("class C:\n    def m(self):\n"
     "        return partial(vector_from_code, 2, 3)", ["mod.C.m"]),
    ("def vector_from_code(q, n, c):\n    return vector_from_code(q, 1, c)",
     []),
    ("from .metric import vector_from_code\ndef f(c):\n    return c", []),
])
def test_the_decoding_check_finds_what_it_looks_for(source, found):
    assert decoding("mod", ast.parse(source)) == found


def test_only_the_edge_and_the_chunk_cuts_decode_codes():
    assert len(PACKAGE) > 5
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in PACKAGE}
    found = [name for module, tree in trees.items()
             for name in decoding(module, tree)]
    assert found and [name for name in found if name not in DECODERS] == []
    defined = [name for module, tree in trees.items()
               for name, node in _functions(module, tree)
               if node.name in RETIRED]
    assert defined == []


def test_only_metric_reads_the_chunk_tables():
    assert len(PACKAGE) > 5
    found = [path.stem for path in PACKAGE
             if "_chunk_tables" in _names(ast.parse(path.read_text(),
                                                    str(path)))]
    assert found == ["metric"]


def test_the_cli_prices_no_draw_itself():
    cli = Path(sumrank.__file__).parent / "cli.py"
    found = set(_names(ast.parse(cli.read_text(), str(cli))))
    assert found & {"MAX_ENTRIES", "MAX_MATRIX_WORK"} == set()
    assert "require_draw_within" not in found


# The bound formulas, which take each exponent as an unreduced integer pair:
# a Fraction there would cost a gcd per case of every bounds sweep.
INTEGER_BOUNDS = ("_volume_exponent", "_volume_bounds_logq",
                  "decomposable_bounds_logq")


def fraction_builders(tree, names):
    """The module-level functions of tree named in names that call
    Fraction, by name or as an attribute."""
    return sorted(node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in names
                  and any(isinstance(n, ast.Call) and "Fraction" in (
                      getattr(n.func, "id", None),
                      getattr(n.func, "attr", None))
                      for n in ast.walk(node)))


@pytest.mark.parametrize("source, found", [
    ("def f(a):\n    return Fraction(a, 2)", ["f"]),
    ("def f(a):\n    return [fractions.Fraction(x) for x in a]", ["f"]),
    ("def f(a):\n    return a * 2, 2\ndef g(a):\n    return Fraction(a)", []),
    ("def f(a):\n    return isinstance(a, Fraction)", []),
])
def test_the_fraction_check_finds_what_it_looks_for(source, found):
    assert fraction_builders(ast.parse(source), {"f"}) == found


def test_the_bound_formulas_build_no_fraction():
    counting = Path(sumrank.__file__).parent / "counting.py"
    tree = ast.parse(counting.read_text(), str(counting))
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert set(INTEGER_BOUNDS) <= defined
    assert fraction_builders(tree, INTEGER_BOUNDS) == []


def public_caches(tree):
    """{name: typed} of the module-level public functions of tree that have
    two or more parameters and an lru_cache decorator, typed when it passes
    typed=True.  A cache of one parameter needs no typing: CPython keys a
    lone exact int by the int itself, so field_from_order(4) and
    field_from_order(4.0) already use different keys."""
    found = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        if len(args.posonlyargs + args.args + args.kwonlyargs) < 2:
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            func = call.func if call else decorator
            if "lru_cache" in (getattr(func, "id", None),
                               getattr(func, "attr", None)):
                found[node.name] = any(
                    k.arg == "typed" and isinstance(k.value, ast.Constant)
                    and k.value.value is True
                    for k in (call.keywords if call else ()))
    return found


@pytest.mark.parametrize("source, found", [
    ("@lru_cache\ndef f(a, b):\n    pass", {"f": False}),
    ("@functools.lru_cache(maxsize=None)\ndef f(a, b):\n    pass",
     {"f": False}),
    ("@functools.lru_cache(maxsize=None, typed=True)\ndef f(a, *, b):\n"
     "    pass", {"f": True}),
    ("@lru_cache(maxsize=None)\ndef _f(a, b):\n    pass", {}),
    ("@lru_cache(maxsize=None)\ndef f(a):\n    pass", {}),
    ("def f(a, b):\n    pass", {}),
])
def test_the_typed_cache_check_finds_what_it_looks_for(source, found):
    assert public_caches(ast.parse(source)) == found


def test_every_public_cache_of_several_arguments_is_typed():
    # an untyped key takes 2.0, Fraction(2) and 2 as one, so a float would
    # read the int's entry past the body's require_int
    found = {f"{path.stem}.{name}": typed for path in PACKAGE
             for name, typed in public_caches(ast.parse(
                 path.read_text(), str(path))).items()}
    assert len(found) >= 7
    assert [name for name, typed in found.items() if not typed] == []


def test_the_package_parses_as_its_oldest_admitted_python():
    # requires-python admits 3.10, so newer syntax would pass every check run
    # on a newer interpreter and fail on 3.10
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    oldest = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                      pyproject).groups()))
    assert oldest == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass",
                  feature_version=oldest)
    assert len(PACKAGE) > 5
    for path in PACKAGE:
        ast.parse(path.read_text(), str(path), feature_version=oldest)
