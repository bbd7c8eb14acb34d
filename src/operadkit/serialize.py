"""Every file format of the package: the JSON documents for trees and
elements, models, solved tails, representations and transfer setups, and
the one writer, `dumps`.

All rationals are serialized as strings ("p/q"), so round trips are
bit-exact; term order inside elements and key order inside objects are
fixed, so emitting the same object twice gives identical bytes.  Loading
also accepts ints, and rejects a float coefficient or matrix entry with
TypeError (see `core.exact`); an integer field (a dimension, a degree, the
state's arity) that holds a float or a bool raises TypeError too (see
`core.integer`, which the constructors apply to the fields they store).
A top-level document whose `schema` is present and is not `SCHEMA` raises
ValueError; a missing `schema` is read as 1.
"""

from __future__ import annotations

import json
from itertools import count

from .core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    TreeMonomial,
    collect_terms,
    exact,
    integer,
)
from .differentials import DerivationDifferential
from .linalg import ChainComplex, RationalMatrix
from .reps import MultilinearMap, Representation
from .tails import TailedModel
from .transfer import ExtensionState

SCHEMA = 1


def dumps(obj) -> str:
    """The text of a JSON document as the package writes it to a file."""
    return json.dumps(obj, indent=2) + "\n"


def _check_schema(obj):
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    schema = obj.get("schema", SCHEMA)
    if type(schema) is not int or schema != SCHEMA:
        raise ValueError(f"unsupported schema {schema!r}, expected {SCHEMA}")


def _matrix_to_json(mat: RationalMatrix):
    return [[str(x) for x in row] for row in mat.entries]


def _matrix_from_json(rows, ncols=None):
    return RationalMatrix([[exact(x) for x in row] for row in rows], cols=ncols)


# ---------------------------------------------------------------------------
# Trees and elements


def tree_to_json(mono: TreeMonomial):
    leaves = count(1)

    def enc(shape):
        if isinstance(shape, str):
            return {"leaf": next(leaves), "color": shape}
        return {"gen": shape[0], "children": [enc(c) for c in shape[1:]]}

    return enc(mono.shape)


def tree_from_json(obj, gens: GeneratorSet) -> TreeMonomial:
    def dec(o):
        if "leaf" in o:
            return o["color"]
        return (o["gen"],) + tuple(dec(c) for c in o["children"])

    return TreeMonomial(gens, dec(obj))


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


def element_from_json(obj, gens: GeneratorSet) -> OperadElement:
    sig = None
    if obj.get("signature"):
        sig = Signature(obj["signature"]["output"], tuple(obj["signature"]["inputs"]))
    terms = collect_terms((tree_from_json(t["tree"], gens), exact(t["coeff"])) for t in obj["terms"])
    return OperadElement(gens, terms, signature=sig, degree=obj.get("degree"))


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


def model_from_json(obj: dict) -> DerivationDifferential:
    _check_schema(obj)
    specs = [
        GeneratorSpec(g["name"], Signature(g["output"], tuple(g["inputs"])), g["degree"])
        for g in obj["generators"]
    ]
    gens = GeneratorSet(tuple(obj["colors"]), specs)
    images = {}
    for name, elem in obj["images"].items():
        spec = gens.spec(name)
        images[name] = element_from_json(elem, gens)
        if images[name].is_zero():
            images[name] = OperadElement.zero(gens, spec.signature, spec.degree - 1)
    return DerivationDifferential(gens, images)


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
    dims = {int(k): integer(v) for k, v in obj["dims"].items()}
    d = {}
    for k, rows in obj.get("d", {}).items():
        k = int(k)
        cols = dims.get(k, 0)
        d[k] = _matrix_from_json(rows, ncols=cols)
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
    blocks = {}
    for key_s, rows in obj.get("blocks", {}).items():
        key = tuple(int(k) for k in key_s.split(","))
        cols = 1
        for c, k in zip(sources, key):
            cols *= c.dim(k)
        blocks[key] = _matrix_from_json(rows, ncols=cols)
    return MultilinearMap(sources, target, obj["degree"], blocks)


def representation_to_json(rep: Representation) -> dict:
    return {
        "schema": SCHEMA,
        "complexes": {color: complex_to_json(c) for color, c in sorted(rep.complexes.items())},
        "images": {name: map_to_json(m) for name, m in sorted(rep.images.items())},
    }


def representation_from_json(obj: dict, model: DerivationDifferential) -> Representation:
    _check_schema(obj)
    complexes = {
        color: complex_from_json(c, color) for color, c in obj["complexes"].items()
    }
    images = {}
    for name, entry in obj["images"].items():
        # A name that is not a generator stays undecoded: Representation
        # rejects it, with every other such name.
        if name in model.base:
            sig = model.base.spec(name).signature
            sources = tuple(complexes[c] for c in sig.inputs)
            entry = map_from_json(entry, sources, complexes[sig.output])
        images[name] = entry
    return Representation(model, complexes, images)


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
    _check_schema(obj)
    v = complex_from_json(obj["v"], "B")
    w = complex_from_json(obj["w"], "W")
    m = {int(i): map_from_json(e, (v,) * int(i), v) for i, e in obj.get("m", {}).items()}
    n = {int(i): map_from_json(e, (w,) * int(i), w) for i, e in obj.get("n", {}).items()}
    f = {int(i): map_from_json(e, (v,) * int(i), w) for i, e in obj.get("f", {}).items()}
    return ExtensionState(v=v, w=w, m=m, n=n, f=f, k=integer(obj["k"]))
