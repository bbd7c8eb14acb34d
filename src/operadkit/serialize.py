"""Every file format of the package, with its one reader, `load`, and its
one writer, `dump`, which streams a document to a text stream in bounded
batches (`dumps` is its string form): no other module reads or writes
JSON.  The documents are models and solved tails, which are only written,
representations, which `check-rep` reads, and transfer setups, which
`extend` reads and writes.

A model or tail document (`model_document`, `tails_document`) holds its
elements as `OperadElement`s, and `dump` writes each one term by term from
its trees' shapes, so no tree is ever built as dicts: the memory a write
needs is bounded by the model, not by the document.  `model_to_json` is the
same document as plain dicts, the reference form of those bytes for
`json.dumps`.

All rationals are serialized as strings ("p/q"), so round trips are
bit-exact; term order inside elements and key order inside objects are
fixed, so emitting the same object twice gives identical bytes.

A document is read whole or not at all:

- a key repeated within one object raises ValueError (`load`);
- each object has its required keys, its optional ones and an optional
  `schema`: a missing required key raises KeyError, any other key raises
  ValueError naming it, and a `schema` other than `SCHEMA` raises
  ValueError (a missing one is read as 1);
- an integer key (a degree, an arity, a block's multidegree) must be
  written as `str(n)`: "01" or "+1" raise ValueError, so that no two keys
  name one integer;
- a matrix is a JSON array of rows, each a JSON array of entries, and a
  complex's `degrees`, when given, equal its sorted `dims` keys;
- an entry is an int or an exact string: a float or a bool raises
  TypeError and a zero denominator ValueError (see `core.exact`); an
  integer field (a dimension, a degree, the state's `k`) that holds a
  float or a bool raises TypeError (see `core.integer`).
"""

from __future__ import annotations

import json
from io import StringIO
from itertools import count
from json.encoder import encode_basestring_ascii as _escape
from math import prod

from .core import OperadElement, TreeMonomial, exact, integer
from .differentials import DerivationDifferential
from .linalg import ChainComplex, RationalMatrix
from .reps import MultilinearMap, Representation
from .tails import TailedModel
from .transfer import ExtensionState

SCHEMA = 1


def dump(obj, fp) -> None:
    """Write the JSON document `obj` to the text stream `fp`, as the package
    writes it to a file.

    The bytes are those of `json.dumps(obj, indent=2)` plus a newline.  That
    call is not made because with an indent the stdlib drops its C encoder
    for a pure-Python one; `_write` escapes with the same C string escaper.
    The text goes out in batches of about `_BATCH` chunks (a chunk is a few
    lines at most), so the document's whole text is never held.  A document
    holds dicts with str keys, lists, strs, ints, bools and None (rationals
    are "p/q" strings), and `OperadElement`s of that exact class, each
    written as its `element_to_json` object would be: anything else, a
    float, a tuple, a non-str key or a subclass of `OperadElement` included,
    raises TypeError naming its type, after the batches before it were
    written.
    """
    chunks = []
    _write(obj, chunks, "\n", fp)
    chunks.append("\n")
    fp.write("".join(chunks))


def dumps(obj) -> str:
    """The text that `dump` writes for `obj`."""
    out = StringIO()
    dump(obj, out)
    return out.getvalue()


# Pending chunks written as one batch: about 200 KB of text at the 53 bytes
# a chunk averages in the model document of `build_ainf_morphism(10)`, and
# about 100 KB at the 24 bytes a chunk of plain dicts and lists averages.
_BATCH = 4096


def _scalar(obj):
    """The text of a JSON scalar, or None for a dict, a list or an element."""
    cls = obj.__class__
    if cls is str:
        return _escape(obj)
    if cls is int:
        return int.__repr__(obj)
    if cls is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if cls is dict or cls is list or cls is OperadElement:
        return None
    raise TypeError(f"cannot write a {cls.__name__} as JSON")


def _write(obj, chunks, newline, fp):
    """Append the text of `obj` to `chunks`; `newline` is a line break and
    the indent of the line on which `obj` starts.  After each member of a
    dict or a list and each term of an element, `_BATCH` pending chunks are
    written to `fp` and dropped, so no more than `_BATCH` plus one tree's
    chunks and the nesting depth are pending.
    A module-level function, not a closure: a closure that calls itself is
    a reference cycle, which keeps `chunks` alive until the next garbage
    collection."""
    cls = obj.__class__
    if cls is dict:
        brackets = "{}"
    elif cls is list:
        brackets = "[]"
    elif cls is OperadElement:
        _write_element(obj, chunks, newline, fp)
        return
    else:
        chunks.append(_scalar(obj))
        return
    if not obj:
        chunks.append(brackets)
        return
    inner = newline + "  "
    comma = "," + inner
    sep = brackets[0] + inner
    keyed = cls is dict
    for member in obj.items() if keyed else obj:
        if keyed:
            key, value = member
            if key.__class__ is not str:
                raise TypeError(f"cannot write a {key.__class__.__name__} key as JSON")
            head = sep + _escape(key) + ": "
        else:
            head, value = sep, member
        text = _scalar(value)
        if text is None:
            chunks.append(head)
            _write(value, chunks, inner, fp)
        else:
            chunks.append(head + text)
        if len(chunks) >= _BATCH:
            fp.write("".join(chunks))
            chunks.clear()
        sep = comma
    chunks.append(newline + brackets[1])


def _write_element(elem, chunks, newline, fp):
    """Append the text of `element_to_json(elem)` without building it: each
    term is written from its tree's shape, and `_BATCH` pending chunks are
    written to `fp` after each term, as `_write` does after each member."""
    inner = newline + "  "
    term = inner + "  "
    field = term + "  "
    comma = "," + term
    sep = "{" + inner + '"terms": [' + term
    for mono, coeff in elem.items():
        # The text of an int or a Fraction needs no escaping.
        chunks.append(f'{sep}{{{field}"coeff": "{coeff}",{field}"tree": ')
        _write_tree(mono.shape, chunks, field, count(1))
        chunks.append(term + "}")
        if len(chunks) >= _BATCH:
            fp.write("".join(chunks))
            chunks.clear()
        sep = comma
    sig = elem.signature
    chunks.append((inner + "]," if elem.terms else "{" + inner + '"terms": [],') + inner + '"signature": ')
    _write({"output": sig.output, "inputs": list(sig.inputs)}, chunks, inner, fp)
    chunks.append(f',{inner}"degree": {_scalar(elem.degree)}{newline}}}')


def _write_tree(shape, chunks, newline, leaves):
    """Append the text of the `tree_to_json` object of `shape`, whose leaves
    are numbered by the iterator `leaves`.  Every vertex has a child, since
    every generator has an input."""
    inner = newline + "  "
    if shape.__class__ is str:
        chunks.append(f'{{{inner}"leaf": {next(leaves)},{inner}"color": {_escape(shape)}{newline}}}')
        return
    child = inner + "  "
    chunks.append(f'{{{inner}"gen": {_escape(shape[0])},{inner}"children": [{child}')
    _write_tree(shape[1], chunks, child, leaves)
    for c in shape[2:]:
        chunks.append("," + child)
        _write_tree(c, chunks, child, leaves)
    chunks.append(f"{inner}]{newline}}}")


def load(path):
    """The JSON document in the file at `path`, as the package reads it.

    A key repeated within one object raises ValueError naming it; plain
    `json.load` would keep the last value and drop the others unseen.
    """
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _object(obj) -> dict:
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _array(obj) -> list:
    if not isinstance(obj, list):
        raise TypeError(f"expected a JSON array, got {obj!r}")
    return obj


def _fields(obj, required, optional) -> list:
    """The values of the JSON object `obj` under the keys `required`, then
    under the keys of `optional`, a dict that maps each to its default.

    A missing required key raises KeyError; a key outside these and
    `schema` raises ValueError naming it; a `schema` other than SCHEMA
    raises ValueError, and a missing one is read as SCHEMA.
    """
    unknown = set(_object(obj)).difference(required, optional, ("schema",))
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, sorted(unknown)))}")
    schema = obj.get("schema", SCHEMA)
    if type(schema) is not int or schema != SCHEMA:
        raise ValueError(f"unsupported schema {schema!r}, expected {SCHEMA}")
    return [obj[key] for key in required] + [obj.get(key, default) for key, default in optional.items()]


def _int_key(key: str) -> int:
    """The integer that a JSON key spells.  Only the canonical spelling
    `str(n)` is accepted, so that no two keys ("1", "01", "+1") name one
    integer."""
    try:
        canonical = str(int(key)) == key
    except ValueError:
        canonical = False
    if not canonical:
        raise ValueError(f"key {key!r} is not an integer in canonical form")
    return int(key)


def _int_keyed(obj) -> dict:
    return {_int_key(key): value for key, value in _object(obj).items()}


def _matrix_to_json(mat: RationalMatrix):
    return [[str(x) for x in row] for row in mat.entries]


def _entry(x):
    if isinstance(x, bool):
        raise TypeError(f"expected a matrix entry, got {x!r}")
    return exact(x)


def _matrix_from_json(rows, ncols):
    """A matrix from its JSON array of rows, each a JSON array of entries."""
    return RationalMatrix([[_entry(x) for x in _array(row)] for row in _array(rows)], cols=ncols)


# ---------------------------------------------------------------------------
# Trees and elements


def tree_to_json(mono: TreeMonomial):
    leaves = count(1)

    def enc(shape):
        if isinstance(shape, str):
            return {"leaf": next(leaves), "color": shape}
        return {"gen": shape[0], "children": [enc(c) for c in shape[1:]]}

    return enc(mono.shape)


def element_to_json(elem: OperadElement):
    return {
        "terms": [
            {"coeff": str(c), "tree": tree_to_json(m)} for m, c in elem.items()
        ],
        "signature": {"output": elem.signature.output, "inputs": list(elem.signature.inputs)},
        "degree": elem.degree,
    }


# ---------------------------------------------------------------------------
# Models


def model_document(model: DerivationDifferential) -> dict:
    """The model's document as `dump` writes it: each image is left an
    `OperadElement`, which `dump` writes term by term from its trees' shapes."""
    gens = model.base
    return {
        "schema": SCHEMA,
        "colors": list(gens.colors),
        "generators": [
            {
                "name": g.name,
                "output": g.signature.output,
                "inputs": list(g.signature.inputs),
                "degree": g.degree,
            }
            for g in gens.generators
        ],
        "images": {g.name: model.of(g.name) for g in gens.generators},
    }


def model_to_json(model: DerivationDifferential) -> dict:
    """`model_document` as plain dicts, for `json.dumps`: the reference form
    of what `dump(model_document(model), fp)` writes."""
    doc = model_document(model)
    doc["images"] = {name: element_to_json(image) for name, image in doc["images"].items()}
    return doc


def model_to_text(model: DerivationDifferential) -> str:
    lines = []
    for g in model.base.generators:
        sig = g.signature
        lines.append(
            f"generator {g.name}: ({','.join(sig.inputs)}) -> {sig.output}, degree {g.degree}"
        )
    for g in model.base.generators:
        lines.append(f"D({g.name}) = {model.of(g.name).text()}")
    return "\n".join(lines) + "\n"


def tails_document(bw: TailedModel) -> dict:
    """The solved tails omega(x_bar) of a morphism model, in the order
    solved, as `dump` writes them: each tail is left an `OperadElement`."""
    return {"schema": SCHEMA, "tails": dict(bw.tails)}


# ---------------------------------------------------------------------------
# Representations


def complex_to_json(c: ChainComplex) -> dict:
    return {
        "degrees": c.degrees(),
        "dims": {str(k): c.dim(k) for k in c.degrees()},
        "d": {str(k): _matrix_to_json(m) for k, m in sorted(c.d.items())},
    }


def complex_from_json(obj: dict) -> ChainComplex:
    dims, degrees, d = _fields(obj, ("dims",), {"degrees": None, "d": {}})
    dims = {k: integer(n) for k, n in _int_keyed(dims).items()}
    if degrees is not None and [integer(k) for k in _array(degrees)] != sorted(dims):
        raise ValueError(f"degrees {degrees} differ from the dims keys {sorted(dims)}")
    d = {k: _matrix_from_json(rows, ncols=dims.get(k, 0)) for k, rows in _int_keyed(d).items()}
    return ChainComplex(dims, d)


def map_to_json(m: MultilinearMap) -> dict:
    return {
        "degree": m.degree,
        "blocks": {
            ",".join(str(k) for k in key): _matrix_to_json(mat)
            for key, mat in sorted(m.blocks.items())
        },
    }


def map_from_json(obj: dict, sources, target) -> MultilinearMap:
    degree, blocks = _fields(obj, ("degree",), {"blocks": {}})
    decoded = {}
    for key_s, rows in _object(blocks).items():
        key = tuple(_int_key(k) for k in key_s.split(","))
        cols = prod(c.dim(k) for c, k in zip(sources, key))
        decoded[key] = _matrix_from_json(rows, ncols=cols)
    return MultilinearMap(sources, target, degree, decoded)


def representation_from_json(obj: dict, model: DerivationDifferential) -> Representation:
    complexes, images = _fields(obj, ("complexes", "images"), {})
    complexes = {color: complex_from_json(c) for color, c in _object(complexes).items()}
    decoded = {}
    for name, entry in _object(images).items():
        # A name that is not a generator stays undecoded: Representation
        # rejects it, with every other such name.
        if name in model.base:
            sig = model.base.spec(name).signature
            sources = tuple(complexes[c] for c in sig.inputs)
            entry = map_from_json(entry, sources, complexes[sig.output])
        decoded[name] = entry
    return Representation(model, complexes, decoded)


# ---------------------------------------------------------------------------
# Transfer setups and states


def state_to_json(state: ExtensionState) -> dict:
    return {
        "schema": SCHEMA,
        "v": complex_to_json(state.v),
        "w": complex_to_json(state.w),
        "m": {str(i): map_to_json(m) for i, m in sorted(state.m.items())},
        "n": {str(i): map_to_json(m) for i, m in sorted(state.n.items())},
        "f": {str(i): map_to_json(m) for i, m in sorted(state.f.items())},
        "k": state.k,
    }


def state_from_json(obj: dict) -> ExtensionState:
    v, w, k, m, n, f = _fields(obj, ("v", "w", "k"), {"m": {}, "n": {}, "f": {}})
    v = complex_from_json(v)
    w = complex_from_json(w)

    def maps(table, source, target):
        return {i: map_from_json(e, (source,) * i, target) for i, e in _int_keyed(table).items()}

    return ExtensionState(v=v, w=w, m=maps(m, v, v), n=maps(n, w, w), f=maps(f, v, w), k=integer(k))
