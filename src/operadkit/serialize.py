"""JSON and text forms for models, representations and transfer setups.

All rationals are serialized as strings ("p/q"), so round trips are
bit-exact; term order inside elements and key order inside objects are
fixed, so emitting the same object twice gives identical bytes.  Loading
also accepts ints, and rejects a float coefficient or matrix entry with
TypeError (see `core.exact`); an integer field (a dimension, a degree, the
state's arity) that holds a float or a bool raises TypeError too (see
`core.integer`, which the constructors apply to the fields they store).
"""

from __future__ import annotations

from .core import (
    GeneratorSet,
    GeneratorSpec,
    OperadElement,
    Signature,
    element_from_json,
    element_to_json,
    exact,
    integer,
)
from .differentials import DerivationDifferential
from .linalg import ChainComplex, RationalMatrix
from .reps import MultilinearMap, Representation
from .transfer import ExtensionState

SCHEMA = 1


def _matrix_to_json(mat: RationalMatrix):
    return [[str(x) for x in row] for row in mat.entries]


def _matrix_from_json(rows, ncols=None):
    return RationalMatrix([[exact(x) for x in row] for row in rows], cols=ncols)


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
    complexes = {
        color: complex_from_json(c, color) for color, c in obj["complexes"].items()
    }
    images = {}
    for g in model.base.generators:
        entry = obj["images"].get(g.name)
        if entry is None:
            continue
        sources = tuple(complexes[c] for c in g.signature.inputs)
        images[g.name] = map_from_json(entry, sources, complexes[g.signature.output])
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
    v = complex_from_json(obj["v"], "B")
    w = complex_from_json(obj["w"], "W")
    m = {int(i): map_from_json(e, (v,) * int(i), v) for i, e in obj.get("m", {}).items()}
    n = {int(i): map_from_json(e, (w,) * int(i), w) for i, e in obj.get("n", {}).items()}
    f = {int(i): map_from_json(e, (v,) * int(i), w) for i, e in obj.get("f", {}).items()}
    return ExtensionState(v=v, w=w, m=m, n=n, f=f, k=integer(obj["k"]))
