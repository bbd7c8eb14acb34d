"""The one writer, `serialize.dump`, and its string form `dumps`, against
the stdlib: both must write the bytes of `json.dumps(obj, indent=2)` plus a
newline, for every document the package writes and for any JSON value of
the types it accepts, and reject every other type instead of converting
it.  `dump` streams: it writes in bounded batches and never holds a
document's whole text."""

import gc
import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadkit.differentials import (
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
)
from operadkit.serialize import dump, dumps, model_to_json, state_to_json, tails_to_json
from operadkit.tails import build_model_btow
from operadkit.transfer import extend_to_arity, scenario_symmetrization

from test_transfer import koszul_dga


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def dumped(obj) -> str:
    out = io.StringIO()
    dump(obj, out)
    return out.getvalue()


DOCUMENTS = {
    "ainf": lambda: model_to_json(build_ainf(5)),
    "ainf-morphism": lambda: model_to_json(build_ainf_morphism(4)),
    "homotopy": lambda: model_to_json(build_homotopy_model(4)),
    "iso": lambda: model_to_json(build_iso_resolution(6)),
    "tails": lambda: tails_to_json(build_model_btow(build_ainf(5), 5)),
    "koszul-state": lambda: state_to_json(extend_to_arity(scenario_symmetrization(*koszul_dga(), 2), 4)),
}


def json_types(obj, found=None):
    """The names of the types in `obj`, keys under "key:"."""
    found = set() if found is None else found
    found.add(type(obj).__name__)
    if isinstance(obj, dict):
        for key, value in obj.items():
            found.add("key:" + type(key).__name__)
            json_types(value, found)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            json_types(value, found)
    return found


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_every_document_kind_is_written_as_the_stdlib_writes_it(kind):
    doc = DOCUMENTS[kind]()
    # No package writer hands `dumps` a type it rejects: no tuple, no float
    # and no non-str key, which the stdlib would have converted silently.
    assert json_types(doc) <= {"dict", "list", "str", "int", "bool", "NoneType", "key:str"}
    assert dumped(doc) == dumps(doc) == reference(doc)


_STRINGS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t é€😀'), st.characters()))
_LEAVES = st.one_of(
    _STRINGS,
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
    st.booleans(),
    st.none(),
    st.just({}),
    st.just([]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(_STRINGS, inner, max_size=5)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_dumps_writes_the_stdlib_indent_2_bytes(obj):
    assert dumped(obj) == dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj, name",
    [
        ({"coeff": 0.5}, "float"),
        ([1, (2, 3)], "tuple"),
        ({"images": {1: "mu_2"}}, "int key"),
        ([Fraction(1, 2)], "Fraction"),
        ({"blocks": {"0": {1, 2}}}, "set"),
    ],
    ids=["float", "tuple", "int-key", "fraction", "set"],
)
def test_dumps_rejects_a_type_outside_the_contract(obj, name):
    with pytest.raises(TypeError, match=f"cannot write a {name}"):
        dumps(obj)
    with pytest.raises(TypeError, match=f"cannot write a {name}"):
        dump(obj, io.StringIO())


def test_dumps_leaves_no_garbage():
    # A writer that refers to itself through a closure is a reference
    # cycle: its chunk list would outlive the call until the next collection.
    doc = model_to_json(build_ainf_morphism(4))
    gc.disable()
    try:
        gc.collect()
        dumps(doc)
        assert gc.collect() == 0
        dump(doc, io.StringIO())
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def morphism10():
    """The 2.2 MB document of the largest model the benchmark writes."""
    return model_to_json(build_ainf_morphism(10))


class Recording:
    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))


class Discarding:
    def write(self, text):
        pass


def test_dump_writes_in_bounded_batches(morphism10):
    out = Recording()
    dump(morphism10, out)
    assert sum(out.sizes) == len(dumps(morphism10))
    assert len(out.sizes) > 1
    assert max(out.sizes) <= 512 * 1024


def test_dump_holds_no_whole_text(morphism10):
    # `dumps`, which holds the whole text, traces 4.4 MB over this document.
    tracemalloc.start()
    try:
        dump(morphism10, Discarding())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
