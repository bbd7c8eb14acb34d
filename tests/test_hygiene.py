"""Source hygiene that needs no linter: no unused imports in the package,
no linear combination grown term by term with `x = x + ...` in a loop
(each step copies the whole sum; `core.collect_terms` merges in one pass),
no package import inside a function (the package has no import cycle
that would need one, and a module's dependencies belong at its top), and
no true division outside `linalg` (`/` on two ints is a float, the one
operator that silently breaks the exact coefficient contract; `linalg`
holds the one exact pivot inversion), no write into a matrix's
`entries` outside `linalg` (a matrix stores sparse rows, and `entries`
is a dense view built on each read; others build with
`RationalMatrix.from_rows` and read with `row_items`), and no
top-level re-export that the benchmark does not read (the modules are the
public surface; `operadkit` itself re-exports exactly what `perfbench/`
takes from it), and no use of `TreeMonomial._assembled` outside `core`
(it builds a tree without checking it; other modules assemble through
`core._graft_word` and `core._element_of_shapes`), and no JSON written
outside `serialize` (it owns every file format, and its `dumps` is the one
writer; others may still read with `json.load`)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "operadkit"
# __init__.py imports names only to re-export them; the last check below
# holds those names to the ones the benchmark reads.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names a module imports but never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # An attribute chain such as `json.dumps` starts at the Name `json`.
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = "import os\nimport os.path as p\nfrom x import y, z\nprint(y, p)\n"
    assert unused_imports(source) == ["os", "z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_self_sum(node):
    """`x = x + ...` or `x = x - ...`, also with further terms chained on."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return False
    target = node.targets[0]
    if not isinstance(target, ast.Name):
        return False
    value = node.value
    while isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub)):
        value = value.left
    return value is not node.value and isinstance(value, ast.Name) and value.id == target.id


def loop_self_sums(source: str):
    """Line numbers of `x = x +/- ...` assignments inside a for/while body."""
    found = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, (ast.For, ast.While)):
            for stmt in loop.body:
                found.update(n.lineno for n in ast.walk(stmt) if _is_self_sum(n))
    return sorted(found)


def test_checker_finds_loop_self_sums():
    source = (
        "out = zero\n"
        "out = out + first\n"
        "for t in terms:\n"
        "    n += 1\n"
        "    total = other + t\n"
        "    if t:\n"
        "        out = out - t + t\n"
    )
    assert loop_self_sums(source) == [7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_sums_grown_in_loops(path):
    assert loop_self_sums(path.read_text()) == []


def local_package_imports(source: str):
    """Line numbers of `from .x import ...` statements inside a function body."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in fn.body:
                found.update(n.lineno for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom) and n.level)
    return sorted(found)


def test_checker_finds_local_package_imports():
    source = (
        "from .core import a\n"
        "def f():\n"
        "    import os\n"
        "    from os import path\n"
        "    if a:\n"
        "        from .core import b\n"
        "    def g():\n"
        "        from ..x import c\n"
    )
    assert local_package_imports(source) == [6, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_package_imports(path):
    assert local_package_imports(path.read_text()) == []


def true_divisions(source: str):
    """Line numbers of `/` and `/=` operations."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.add(node.lineno)
    return sorted(found)


def test_checker_finds_true_divisions():
    source = (
        "half = Fraction(1, 2)\n"
        "q = a // b\n"
        "r = a / b\n"
        "text = '1/2'  # a / b\n"
        "c /= 2\n"
        "c //= 2\n"
    )
    assert true_divisions(source) == [3, 5]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_no_true_division_outside_linalg(path):
    assert true_divisions(path.read_text()) == []


def _writes_entries(target):
    """Is `target` `<expr>.entries[...]`, possibly subscripted further, or a
    tuple or list holding one?"""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_entries(t) for t in target.elts)
    while isinstance(target, ast.Subscript):
        target = target.value
        if isinstance(target, ast.Attribute) and target.attr == "entries":
            return True
    return False


def entries_writes(source: str):
    """Line numbers of assignments into `<expr>.entries[...]`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        if any(_writes_entries(t) for t in targets):
            found.add(node.lineno)
    return sorted(found)


def test_checker_finds_entries_writes():
    source = (
        "m.entries[0][1] = x\n"
        "a.b.entries[i] = row\n"
        "m.entries[0][0] += 1\n"
        "y, m.entries[1][2] = 1, 2\n"
        "x = m.entries[0][1]\n"
        "rows[m.entries[0][0]] = 1\n"
        "report.entries = []\n"
        "entries[0] = 1\n"
    )
    assert entries_writes(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name)
def test_no_entries_writes_outside_linalg(path):
    assert entries_writes(path.read_text()) == []


def reexported_names(source: str):
    """The names an ``__init__`` imports from its own package, sorted."""
    return sorted(
        a.asname or a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
    )


def top_level_reads(source: str, submodules):
    """The names a script reads from the top-level ``operadkit`` package: the
    ``from operadkit import ...`` names and the ``operadkit.<name>``
    attributes that are not submodules."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "operadkit" and not node.level:
            found.update(a.name for a in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "operadkit"
            and node.attr not in submodules
        ):
            found.add(node.attr)
    return found


def test_checker_finds_reexports_and_top_level_reads():
    init = "from .core import A, B as C\nfrom . import sub\nimport os\n__version__ = '1'\n"
    assert reexported_names(init) == ["A", "C", "sub"]
    script = (
        "import operadkit\n"
        "import operadkit.cli as cli\n"
        "from operadkit import a, b as c\n"
        "from operadkit.core import d\n"
        "x = operadkit.e(operadkit.tails.f, cli.g, c)\n"
    )
    assert top_level_reads(script, {"cli", "tails"}) == {"a", "b", "e"}


def test_top_level_reexports_are_what_the_benchmark_reads():
    submodules = {p.stem for p in MODULES}
    read = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read |= top_level_reads(path.read_text(), submodules)
    assert reexported_names((SRC / "__init__.py").read_text()) == sorted(read)


def assembled_reads(source: str):
    """Line numbers that read `<expr>._assembled`, to call it or to alias it."""
    return sorted(
        {n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute) and n.attr == "_assembled"}
    )


def test_checker_finds_assembled_reads():
    source = (
        "m = TreeMonomial._assembled(gens, shape, sig, 0, 1)\n"
        "make = core.TreeMonomial._assembled\n"
        "_assembled = 1\n"
        "x = mono.assembled\n"
        "y = _graft_word(outer, inners)  # TreeMonomial._assembled\n"
    )
    assert assembled_reads(source) == [1, 2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_trusted_assembly_outside_core(path):
    assert assembled_reads(path.read_text()) == []


def json_writes(source: str):
    """Line numbers that call `json.dump` or `json.dumps`, or import either
    from `json`."""
    writers = {"dump", "dumps"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if writers.intersection(a.name for a in node.names):
                found.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in writers
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            found.add(node.lineno)
    return sorted(found)


def test_checker_finds_json_writes():
    source = (
        "import json\n"
        "text = json.dumps(obj, indent=2)\n"
        "json.dump(obj, fh)\n"
        "obj = json.load(fh)\n"
        "from json import dumps\n"
        "from json import JSONDecodeError, loads\n"
        "text = serialize.dumps(obj)\n"
    )
    assert json_writes(source) == [2, 3, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "serialize.py"], ids=lambda p: p.name)
def test_no_json_written_outside_serialize(path):
    assert json_writes(path.read_text()) == []
