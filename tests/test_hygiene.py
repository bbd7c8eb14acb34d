"""Source hygiene that needs no linter: no unused imports in the package,
no linear combination grown term by term with `x = x + ...` or
`x = x.add(...)` in a loop (each step copies the whole sum;
`core.collect_terms` merges terms in one pass, and `reps._bump` adds each
matrix block into its own key),
no package import inside a function (the package has no import cycle
that would need one, and a module's dependencies belong at its top), and
no true division outside `linalg` (`/` on two ints is a float, the one
operator that silently breaks the exact coefficient contract; `linalg`
holds the one exact division, in back-substitution), no write into a matrix's
`entries` outside `linalg` (a matrix stores sparse rows, and `entries`
is a dense view built on each read; others build with
`RationalMatrix.from_rows` and read with `row_items`), and no
top-level re-export that the benchmark does not read (the modules are the
public surface; `operadkit` itself re-exports exactly what `perfbench/`
takes from it), and no use of `TreeMonomial._assembled` outside `core`
(it builds a tree without checking it; other modules assemble through
`core._element_of_shapes`), and no `DerivationDifferential._replace`
outside `tails` (a differential's images are set only by the tail builders,
before they return the model), and no JSON written or
read outside `serialize` (it owns every file format: its `dump` is the one
writer, `dumps` its string form, and its `load` the one reader; reaching the
stdlib encoder through `json.encoder` or `JSONEncoder` counts as writing),
no `serialize.dumps` in `cli` (every document the CLI writes is streamed
with `dump`, so none has its whole text built), no `model_to_json` or
`tails_to_json` in `cli` (they build every tree as dicts; the CLI dumps
`model_document` and `tails_document`, whose elements `dump` writes from
the trees' shapes), no use of `core._plug` or `core._checked_over` outside
`core`, `differentials` and `forests` (they are the parts of the grafting
rule; the tailed builders graft through `forests.compose_forests`), and no
`Fraction(<int constant>)` in the package (the `core.exact` normal form of
an integral value is the int itself, and a matrix stores every entry in
that normal form), and no parameter default that no call in the package or
the benchmark overrides (an option with one value in use is a constant;
calls from tests do not count), and no generator name (a string starting
`mu_`, `nu_` or `f_`) spelled in `transfer` outside `ExtensionState` and
`extension_step` (the extension equations are read off the model, so the
rest of `transfer` serves any model), and no `--model` name spelled in
`cli` outside `_models` (the one table of each model's builder, bound and
check, which the parser's choices and every command read), and no public
function, class, method or property that nothing in the package or the
benchmark reads (a name that only tests call is API that no user of the
package reaches; a test's oracle or fixture lives in the tests, and
`UNREAD_ALLOWED` names each exception with its reason)."""

import ast
from pathlib import Path

import pytest

from operadkit.cli import _models

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "operadkit"
# __init__.py imports names only to re-export them; the last check below
# holds those names to the ones the benchmark reads.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# The benchmark's scripts call the package as a user does; its tests do not.
BENCH_SCRIPTS = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]


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
    """`x = x + ...`, `x = x - ...`, `x = x.add(...)` or `x = x.sub(...)`,
    also with further terms chained on."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return False
    target = node.targets[0]
    if not isinstance(target, ast.Name):
        return False
    value = node.value
    while True:
        if isinstance(value, ast.BinOp) and isinstance(value.op, (ast.Add, ast.Sub)):
            value = value.left
        elif isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute) and value.func.attr in ("add", "sub"):
            value = value.func.value
        else:
            break
    return value is not node.value and isinstance(value, ast.Name) and value.id == target.id


def loop_self_sums(source: str):
    """Line numbers of `x = x +/- ...` and `x = x.add/sub(...)` assignments
    inside a for/while body."""
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
        "    total = total.add(t.scale(2))\n"
        "    total = total.sub(t).add(t)\n"
        "    total = other.add(total)\n"
        "    blocks[k] = blocks[k].add(t)\n"
        "    seen = seen.union(t)\n"
    )
    assert loop_self_sums(source) == [7, 8, 9]


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


def attribute_reads(source: str, attr: str):
    """Line numbers that read `<expr>.<attr>`, to call it or to alias it."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute) and n.attr == attr})


def test_checker_finds_assembled_reads():
    source = (
        "m = TreeMonomial._assembled(gens, shape, sig, 0, 1)\n"
        "make = core.TreeMonomial._assembled\n"
        "_assembled = 1\n"
        "x = mono.assembled\n"
        "y = _graft_word(outer, inners)  # TreeMonomial._assembled\n"
    )
    assert attribute_reads(source, "_assembled") == [1, 2]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_trusted_assembly_outside_core(path):
    assert attribute_reads(path.read_text(), "_assembled") == []


def test_checker_finds_replace_calls():
    source = (
        "self._replace(name, principal + omega)\n"
        "def _replace(self, name, image):\n"
        "    return replace(state, k=1)\n"
        "set_image = model._replace\n"
    )
    assert attribute_reads(source, "_replace") == [1, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "tails.py"], ids=lambda p: p.name)
def test_no_image_replaced_outside_tails(path):
    assert attribute_reads(path.read_text(), "_replace") == []


def json_calls(source: str, names):
    """Line numbers that call `json.<name>` for one of `names`, or import
    one of them from `json`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            if set(names).intersection(a.name for a in node.names):
                found.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            found.add(node.lineno)
    return sorted(found)


def json_encoder_uses(source: str):
    """Line numbers that reach the stdlib encoder: an import of `json.encoder`
    or of a name in it, an import of `encoder` or `JSONEncoder` from `json`,
    or the attribute `json.encoder` or `json.JSONEncoder`."""
    names = {"encoder", "JSONEncoder"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name == "json.encoder" for a in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "json.encoder" or (
                node.module == "json" and names.intersection(a.name for a in node.names)
            ):
                found.add(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            found.add(node.lineno)
    return sorted(found)


def json_writes(source: str):
    """Line numbers that call `json.dump` or `json.dumps`, import either
    from `json`, or reach the stdlib encoder (`json_encoder_uses`)."""
    return sorted(set(json_calls(source, ("dump", "dumps"))) | set(json_encoder_uses(source)))


def json_reads(source: str):
    """Line numbers that call `json.load` or `json.loads`, or import either
    from `json`."""
    return json_calls(source, ("load", "loads"))


def test_checker_finds_json_writes():
    source = (
        "import json\n"
        "text = json.dumps(obj, indent=2)\n"
        "json.dump(obj, fh)\n"
        "obj = json.load(fh)\n"
        "from json import dumps\n"
        "from json import JSONDecodeError, loads\n"
        "text = serialize.dumps(obj)\n"
        "import json.encoder\n"
        "import json.encoder as enc\n"
        "from json.encoder import encode_basestring_ascii\n"
        "from json import encoder\n"
        "from json import JSONEncoder\n"
        "text = json.encoder.encode_basestring_ascii(s)\n"
        "text = json.JSONEncoder(indent=2).encode(obj)\n"
        "error = json.JSONDecodeError\n"
        "text = self.encoder.encode(obj)\n"
    )
    assert json_writes(source) == [2, 3, 5, 8, 9, 10, 11, 12, 13, 14]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "serialize.py"], ids=lambda p: p.name)
def test_no_json_written_outside_serialize(path):
    assert json_writes(path.read_text()) == []


def test_checker_finds_json_reads():
    source = (
        "import json\n"
        "obj = json.load(fh)\n"
        "obj = json.loads(text)\n"
        "text = json.dumps(obj)\n"
        "from json import load\n"
        "from json import JSONDecodeError, loads\n"
        "error = json.JSONDecodeError\n"
        "obj = serialize.load(path)\n"
    )
    assert json_reads(source) == [2, 3, 5, 6]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "serialize.py"], ids=lambda p: p.name)
def test_no_json_read_outside_serialize(path):
    assert json_reads(path.read_text()) == []


def dumps_uses(source: str):
    """Line numbers that import `dumps` from a `serialize` module or read an
    attribute `dumps`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "serialize":
            if any(a.name == "dumps" for a in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "dumps":
            found.add(node.lineno)
    return sorted(found)


def test_checker_finds_dumps_uses():
    source = (
        "from .serialize import dump, load\n"
        "from .serialize import (\n"
        "    dumps,\n"
        ")\n"
        "from operadkit.serialize import dumps as text_of\n"
        "text = serialize.dumps(doc)\n"
        "dump(doc, out)\n"
        "from json import dumps\n"
        "dumps = 1\n"
    )
    assert dumps_uses(source) == [2, 5, 6]


def test_no_document_text_built_in_the_cli():
    assert dumps_uses((SRC / "cli.py").read_text()) == []


def name_uses(source: str, names):
    """Line numbers that import, read or call one of `names`, as a bare name
    or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(a.name in names for a in node.names):
                found.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in names:
            found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.lineno)
    return sorted(found)


def test_checker_finds_name_uses():
    source = (
        "from .serialize import dump, model_document\n"
        "from .serialize import (\n"
        "    model_to_json,\n"
        ")\n"
        "dump(serialize.tails_to_json(bw), out)\n"
        "write = model_to_json\n"
        "dump(model_document(model), out)\n"
        "text = 'model_to_json'  # tails_to_json\n"
        "from operadkit.serialize import tails_to_json as tails\n"
    )
    assert name_uses(source, ("model_to_json", "tails_to_json")) == [2, 5, 6, 9]


def test_no_tree_built_as_dicts_in_the_cli():
    assert name_uses((SRC / "cli.py").read_text(), ("model_to_json", "tails_to_json")) == []


# `core._plug` and `core._checked_over` are the grafting rule's parts: a
# module that uses them writes a grafting rule of its own.
GRAFTING_MODULES = ("core.py", "differentials.py", "forests.py")


def test_checker_finds_grafting_parts():
    source = (
        "from .core import (\n"
        "    _checked_over,\n"
        ")\n"
        "shape = core._plug(outer, iter(pieces))\n"
        "from .core import _plug as plug\n"
        "note = '_plug'  # _checked_over\n"
        "tree = _checked_over(gens, t)\n"
    )
    assert name_uses(source, ("_plug", "_checked_over")) == [1, 4, 5, 7]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in GRAFTING_MODULES], ids=lambda p: p.name)
def test_only_the_grafting_modules_plug_trees(path):
    assert name_uses(path.read_text(), ("_plug", "_checked_over")) == []


def _is_int_constant(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def integral_fraction_literals(source: str):
    """Line numbers that call `Fraction` with one argument, an int constant."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords and _is_int_constant(node.args[0]):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "Fraction") or (
                isinstance(func, ast.Attribute) and func.attr == "Fraction"
            ):
                found.add(node.lineno)
    return sorted(found)


def test_checker_finds_integral_fraction_literals():
    source = (
        "zero = Fraction(0)\n"
        "half = Fraction(1, 2)\n"
        "rows = [{0: Fraction(1)}]\n"
        "w = Fraction(1, factorial(width))\n"
        "m = fractions.Fraction(-3)\n"
        "x = Fraction(n)\n"
        "y = Fraction('1/2')\n"
        "z = 1  # Fraction(1)\n"
        "flag = Fraction(True)\n"
    )
    assert integral_fraction_literals(source) == [1, 3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_integral_fraction_literals(path):
    assert integral_fraction_literals(path.read_text()) == []


def _defaults(tree):
    """(function, class or None, parameter, index) for each parameter
    default of a function or method.  The index is the parameter's position
    in a call, after the self or cls that a call to a method does not
    spell, and None for a keyword-only parameter."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    found.append((child.name, cls, positional[i].arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((child.name, cls, arg.arg, None))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def _overrides(call, param, index):
    """Does `call` pass `param`, by keyword, at `index`, or through *args or **kwargs?"""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def unused_defaults(sources: dict, callers):
    """The parameter defaults in `sources` (name -> text), as
    "name:[Class.]function.parameter", that no call in the `callers` texts
    overrides.  Calls are matched by the name they call: the function, the
    attribute for a method, and for `__init__` also the class, `cls(...)`
    and `self.__class__(...)`."""
    calls = [n for text in callers for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Call)]
    by_name = {}
    for call in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        by_name.setdefault(name, []).append(call)
    found = []
    for source_name, text in sources.items():
        for fn, cls, param, index in _defaults(ast.parse(text)):
            names = (fn, cls, "cls", "__class__") if fn == "__init__" else (fn,)
            if not any(_overrides(c, param, index) for name in names for c in by_name.get(name, ())):
                found.append(f"{source_name}:{cls + '.' if cls else ''}{fn}.{param}")
    return sorted(found)


def test_checker_finds_unused_defaults():
    source = (
        "def f(a, b=1, *, c=2):\n"
        "    def inner(q=0):\n"
        "        pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0, z=0):\n"
        "        self.__class__(z=1)\n"
        "    def m(self, u=0, w=0):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(v=0):\n"
        "        pass\n"
        "    @classmethod\n"
        "    def make(cls, t=0):\n"
        "        return cls(t)\n"
    )
    callers = [source, "f(0, 5)\nK(y=1)\nk.m(1)\nK.s(*args)\nother.make(**kw)\n"]
    assert unused_defaults({"mod": source}, callers) == ["mod:K.m.w", "mod:f.c", "mod:inner.q"]


def test_every_default_is_overridden_by_a_caller():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    bench = [p.read_text() for p in BENCH_SCRIPTS]
    assert unused_defaults(sources, [*sources.values(), *bench]) == []


def string_spellings(source: str, match, allowed):
    """Line numbers of the string constants, f-string parts included, that
    `match` accepts, outside the top-level definitions whose names are in
    `allowed`."""
    found = set()
    for top in ast.parse(source).body:
        if getattr(top, "name", None) in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and match(node.value):
                found.add(node.lineno)
    return sorted(found)


GENERATOR_PREFIXES = ("mu_", "nu_", "f_")


def generator_name_spellings(source: str, allowed):
    """`string_spellings` of the strings that start with a generator prefix."""
    return string_spellings(source, lambda s: s.startswith(GENERATOR_PREFIXES), allowed)


def test_checker_finds_generator_name_spellings():
    source = (
        "class ExtensionState:\n"
        "    def representation(self):\n"
        "        return 'mu_2', f'nu_{k}'\n"
        "def extension_step(state):\n"
        "    return [f'nu_{k}', 'f_1']\n"
        "def extend_layer(rep, unknowns):\n"
        "    return rep.image('f_1'), f'{x}_f_{k}', 'nu', 'mu', 'xf_1'\n"
        "NAME = f'mu_{k}_bar'\n"
        "def other():\n"
        "    '''Reads f_1 from a docstring that starts with other text.'''\n"
        "    def inner():\n"
        "        return 'nu_3'\n"
    )
    assert generator_name_spellings(source, ("ExtensionState", "extension_step")) == [7, 8, 12]


def test_transfer_spells_generator_names_only_for_the_morphism_model():
    source = (SRC / "transfer.py").read_text()
    assert generator_name_spellings(source, ("ExtensionState", "extension_step")) == []


# Read from the table itself, so that a new model is held to it too.
MODEL_NAMES = tuple(_models())


def model_name_spellings(source: str):
    """`string_spellings` of the strings that are a `--model` name, outside
    `_models`."""
    return string_spellings(source, MODEL_NAMES.__contains__, ("_models",))


def test_checker_finds_model_name_spellings():
    source = (
        "def _models():\n"
        "    return {'ainf': 1, 'iso': 2}\n"
        "CHOICES = ('ainf', 'ainf-morphism')\n"
        "def cmd(args):\n"
        "    if args.model == 'homotopy':\n"
        "        return f'the {args.model} model', 'iso model', 'isomorphism'\n"
        "    return {'iso': 3}\n"
        "class Models:\n"
        "    NAME = 'ainf'\n"
    )
    assert model_name_spellings(source) == [3, 5, 7, 9]


def test_the_cli_spells_each_model_name_only_in_its_table():
    assert model_name_spellings((SRC / "cli.py").read_text()) == []


# Public names that no code in the package or the benchmark reads yet, each
# with the reason it stays.
UNREAD_ALLOWED = {
    # A paper feature (the iso model with a principal part); ROADMAP item 12's
    # `solve-tail --base` is its reader.
    "tails.build_model_iso_principal",
}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(module: str, tree):
    """(name, node, read by a bare name?) for each public top-level function
    and class of `tree`, and each public method or property of its
    top-level classes."""
    for top in tree.body:
        if isinstance(top, DEFINITIONS) and not top.name.startswith("_"):
            yield f"{module}.{top.name}", top, True
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                    yield f"{module}.{top.name}.{node.name}", node, False


def reader_findings(sources: dict, bench: list, allowed):
    """The public names of `sources` (module -> text) that nothing reads,
    as "unread: <name>" unless `allowed`, and the `allowed` names that are
    read or gone, as "stale: <name>".  A name is read by a loaded Name or
    Attribute of it, in `sources` or in the `bench` texts, outside its own
    definition; a method only by an Attribute.  A string constant in `bench`
    equal to the name reads it too, because the tracer patches functions by
    name.  An import alone reads nothing."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    bench_trees = [ast.parse(text) for text in bench]
    names, attrs, strings = {}, {}, set()
    for tree in [*trees.values(), *bench_trees]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.setdefault(node.attr, []).append(node)
    for tree in bench_trees:
        strings.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    unread = set()
    for module, tree in trees.items():
        for name, node, by_name in _public_definitions(module, tree):
            reads = [*attrs.get(node.name, ()), *(names.get(node.name, ()) if by_name else ())]
            own = {id(n) for n in ast.walk(node)}
            if node.name not in strings and all(id(r) in own for r in reads):
                unread.add(name)
    return sorted(
        [f"unread: {name}" for name in unread - set(allowed)]
        + [f"stale: {name}" for name in set(allowed) - unread]
    )


def test_checker_finds_public_names_without_readers():
    core = (
        "def used():\n"
        "    return Kept().size\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def traced():\n"
        "    pass\n"
        "def only_imported():\n"
        "    pass\n"
        "def allowed():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "class Kept:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def own(self):\n"
        "        return self.own()\n"
        "    def named(self):\n"
        "        pass\n"
        "    def stored(self):\n"
        "        pass\n"
        "    def _hidden(self):\n"
        "        pass\n"
        "class Dead:\n"
        "    pass\n"
    )
    other = "from .core import only_imported, Dead\nnamed = used()\nprint(named)\nx.stored = 1\n"
    bench = "SPANS = {'core': ('traced',)}\n"
    assert reader_findings({"core": core, "other": other}, [bench], {"core.allowed", "core.used", "core.gone"}) == [
        "stale: core.gone",
        "stale: core.used",
        "unread: core.Dead",
        "unread: core.Kept.named",
        "unread: core.Kept.own",
        "unread: core.Kept.stored",
        "unread: core.only_imported",
        "unread: core.recursive",
    ]


def test_every_public_name_has_a_reader():
    sources = {p.stem: p.read_text() for p in MODULES}
    bench = [p.read_text() for p in BENCH_SCRIPTS]
    assert reader_findings(sources, bench, UNREAD_ALLOWED) == []
