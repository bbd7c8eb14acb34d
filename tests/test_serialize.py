"""The one writer, `serialize.dump`, and its string form `dumps`, against
the stdlib: both must write the bytes of `json.dumps(obj, indent=2)` plus a
newline, for every document the package writes and for any JSON value of
the types it accepts, and reject every other type instead of converting
it.  `dump` streams: it writes in bounded batches and never holds a
document's whole text.  A model or tail document holds its elements as
`OperadElement`s, which `dump` writes from the trees' shapes: its bytes
must equal those of the plain-dict reference forms, `model_to_json` and
`tails_to_json` below, and no tree may be held as dicts."""

import gc
import io
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadkit.core import GeneratorSet, GeneratorSpec, OperadElement, Signature, TreeMonomial, enumerate_basis
from operadkit.differentials import (
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
)
from operadkit.serialize import (
    SCHEMA,
    dump,
    dumps,
    element_to_json,
    model_document,
    model_to_json,
    state_to_json,
    tails_document,
)
from operadkit.tails import build_model_btow, build_model_homotopy
from operadkit.transfer import extend_to_arity, scenario_symmetrization

from test_coefficients import rescaled_ainf
from test_transfer import koszul_dga


def reference(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def tails_to_json(bw) -> dict:
    """`tails_document` as plain dicts: the reference form of the
    `solve-tail --format json` payload."""
    return {"schema": SCHEMA, "tails": {bar: element_to_json(omega) for bar, omega in bw.tails.items()}}


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
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    @property
    def sizes(self):
        return [len(text) for text in self.writes]


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


# ---------------------------------------------------------------------------
# Model and tail documents, written from the trees' shapes


def _tailed_homotopy():
    return build_model_homotopy(build_model_btow(build_ainf(4), 4), 4)


MODELS = {
    "ainf": lambda: build_ainf(6),
    "ainf-morphism": lambda: build_ainf_morphism(5),
    "homotopy": lambda: build_homotopy_model(4),
    "iso": lambda: build_iso_resolution(5),
    "tailed-btow": lambda: build_model_btow(build_ainf(5), 5),
    "tailed-homotopy": _tailed_homotopy,
    # Solved over a base whose structure maps carry rational scalars, so the
    # tails have Fraction coefficients.
    "rescaled": lambda: build_model_btow(rescaled_ainf(4, seed=3), 4),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_a_model_document_is_written_as_its_reference(kind):
    model = MODELS[kind]()
    assert dumped(model_document(model)) == dumps(model_document(model)) == reference(model_to_json(model))


@pytest.mark.parametrize("kind", ["tailed-btow", "tailed-homotopy"])
def test_a_tails_document_is_written_as_its_reference(kind):
    bw = MODELS[kind]()
    assert bw.tails
    assert dumped(tails_document(bw)) == dumps(tails_document(bw)) == reference(tails_to_json(bw))


def test_fraction_coefficients_are_written_as_their_reference():
    bw = MODELS["rescaled"]()
    fractions = [c for omega in bw.tails.values() for c in omega.terms.values() if type(c) is Fraction]
    assert fractions
    text = dumps(tails_document(bw))
    assert text == reference(tails_to_json(bw))
    assert f'"coeff": "{fractions[0]}"' in text


def test_a_zero_image_is_written_as_its_reference():
    model = build_ainf(3)
    zero = model.of("mu_2")
    assert zero.is_zero()
    assert dumps(zero) == reference(element_to_json(zero))
    assert '"terms": []' in dumps(model_document(model))


def test_an_identity_strand_is_written_as_its_reference():
    # D(f_1) = g_0(f_0) - 1, and the unit is the tree with no vertex.
    image = build_iso_resolution(2).of("f_1")
    assert any(mono.shape.__class__ is str for mono in image.terms)
    assert dumps(image) == reference(element_to_json(image))


def test_names_that_need_escaping_are_written_as_their_reference():
    name, colour = 'mu "2"\\\té\x7f😀', 'B\n"'
    gens = GeneratorSet((colour,), [GeneratorSpec(name, Signature(colour, (colour, colour)), 0)])
    left = TreeMonomial(gens, (name, (name, colour, colour), colour))
    right = TreeMonomial(gens, (name, colour, (name, colour, colour)))
    elem = OperadElement(gens, {left: Fraction(-3, 7), right: 2}, left.signature, 0)
    assert dumps([elem, {"x": elem}]) == reference([element_to_json(elem), {"x": element_to_json(elem)}])


_MORPHISM = build_ainf_morphism(4)
_COMPONENTS = sorted({(g.signature, g.degree - 1) for g in _MORPHISM.base.generators}, key=str)


@st.composite
def morphism_elements(draw):
    """A random combination, possibly zero, in the component of one of the
    images of the arity-4 morphism model."""
    signature, degree = draw(st.sampled_from(_COMPONENTS))
    basis = enumerate_basis(_MORPHISM.base, signature, degree)
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = draw(st.dictionaries(st.sampled_from(basis), coefficients, max_size=6)) if basis else {}
    return OperadElement(_MORPHISM.base, terms, signature, degree)


@settings(max_examples=100, deadline=None)
@given(morphism_elements())
def test_an_element_is_written_as_its_reference(elem):
    assert dumped(elem) == dumps(elem) == reference(element_to_json(elem))


def test_an_element_subclass_is_rejected():
    class Tagged(OperadElement):
        pass

    image = _MORPHISM.of("f_2")
    tagged = Tagged(image.gens, image.terms, image.signature, image.degree)
    with pytest.raises(TypeError, match="cannot write a Tagged"):
        dumps({"images": {"f_2": tagged}})


def test_a_model_document_longer_than_a_batch_is_written_in_bounded_batches():
    model = build_ainf_morphism(10)
    out = Recording()
    dump(model_document(model), out)
    assert "".join(out.writes) == reference(model_to_json(model))
    assert len(out.writes) > 1
    assert max(out.sizes) <= 512 * 1024
    # f_10's 556 terms are more than one batch of chunks: a batch is written
    # between the terms of one element, not only between elements.
    image = model.of("f_10")
    assert len(image.terms) == 556
    out = Recording()
    dump(image, out)
    assert len(out.writes) > 1
    assert "".join(out.writes) == reference(element_to_json(image))


def test_writing_a_model_holds_no_tree_as_dicts():
    # `dump(model_to_json(model))` builds every tree as dicts first.
    model = build_ainf_morphism(10)
    tracemalloc.start()
    try:
        dump(model_document(model), Discarding())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
