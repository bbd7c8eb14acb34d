"""Every file format of the package, with its one reader, `load`, and its
one writer, `dumps`: no other module reads or writes JSON.  The documents
are models and solved tails, which are only written, representations,
which `check-rep` reads, and transfer setups, which `extend` reads and
writes.

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
from itertools import count
from math import prod

from .core import OperadElement, TreeMonomial, exact, integer
from .differentials import DerivationDifferential
from .linalg import ChainComplex, RationalMatrix
from .reps import MultilinearMap, Representation
from .tails import TailedModel
from .transfer import ExtensionState

SCHEMA = 1


def dumps(obj) -> str:
    """The text of a JSON document as the package writes it to a file."""
    return json.dumps(obj, indent=2) + "\n"


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
        "signature": None
        if elem.signature is None
        else {"output": elem.signature.output, "inputs": list(elem.signature.inputs)},
        "degree": elem.degree,
    }


# ---------------------------------------------------------------------------
# Models


def model_to_json(model: DerivationDifferential) -> dict:
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
        "images": {g.name: element_to_json(model.of(g.name)) for g in gens.generators},
    }


def model_to_text(model: DerivationDifferential) -> str:
    lines = []
    for g in model.base.generators:
        sig = g.signature
        lines.append(
            f"generator {g.name}: ({','.join(sig.inputs)}) -> {sig.output}, degree {g.degree}"
        )
    for g in model.base.generators:
        lines.append(f"D({g.name}) = {model.of(g.name).text(compact=True)}")
    return "\n".join(lines) + "\n"


def tails_to_json(bw: TailedModel) -> dict:
    """The solved tails omega(x_bar) of a morphism model, in generator order."""
    return {
        "schema": SCHEMA,
        "tails": {f"{x}_bar": element_to_json(bw.tails[f"{x}_bar"]) for x in bw.generator_order},
    }


# ---------------------------------------------------------------------------
# Representations


def complex_to_json(c: ChainComplex) -> dict:
    return {
        "degrees": c.degrees(),
        "dims": {str(k): c.dim(k) for k in c.degrees()},
        "d": {str(k): _matrix_to_json(m) for k, m in sorted(c.d.items())},
    }


def complex_from_json(obj: dict, color=None) -> ChainComplex:
    dims, degrees, d = _fields(obj, ("dims",), {"degrees": None, "d": {}})
    dims = {k: integer(n) for k, n in _int_keyed(dims).items()}
    if degrees is not None and [integer(k) for k in _array(degrees)] != sorted(dims):
        raise ValueError(f"degrees {degrees} differ from the dims keys {sorted(dims)}")
    d = {k: _matrix_from_json(rows, ncols=dims.get(k, 0)) for k, rows in _int_keyed(d).items()}
    return ChainComplex(dims, d, color)


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
    complexes = {color: complex_from_json(c, color) for color, c in _object(complexes).items()}
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
    v = complex_from_json(v, "B")
    w = complex_from_json(w, "W")

    def maps(table, source, target):
        return {i: map_from_json(e, (source,) * i, target) for i, e in _int_keyed(table).items()}

    return ExtensionState(v=v, w=w, m=maps(m, v, v), n=maps(n, w, w), f=maps(f, v, w), k=integer(k))
