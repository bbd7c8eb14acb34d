import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadkit.cli import main
from operadkit.differentials import build_ainf, build_ainf_morphism
from operadkit.reps import MultilinearMap
from operadkit.serialize import (
    SCHEMA,
    complex_to_json,
    load,
    map_to_json,
    model_to_json,
    representation_from_json,
    state_from_json,
    state_to_json,
)

from test_differentials import model_from_json


def representation_to_json(rep):
    """The document `check-rep` reads; the package only reads it."""
    return {
        "schema": SCHEMA,
        "complexes": {color: complex_to_json(c) for color, c in sorted(rep.complexes.items())},
        "images": {name: map_to_json(m) for name, m in sorted(rep.images.items())},
    }


def run(argv):
    return main(argv)


def test_emit_model_text_contains_pinned_line(capsys):
    assert run(["emit-model", "--model", "ainf-morphism", "--max-arity", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "D(f_2) = -1 * nu_2(f_1, f_1) + 1 * f_1(mu_2)" in out.splitlines()


def test_emit_model_json_round_trip(tmp_path, capsys):
    path = tmp_path / "model.json"
    assert run(["emit-model", "--model", "ainf-morphism", "--max-arity", "3", "-o", str(path)]) == 0
    obj = json.loads(path.read_text())
    assert obj["schema"] == 1
    back = model_from_json(obj)
    assert model_to_json(back) == model_to_json(build_ainf_morphism(3))
    # byte-exact re-emission
    assert json.dumps(model_to_json(back), indent=2) + "\n" == path.read_text()


def test_verify_dsq_exit_codes(capsys):
    assert run(["verify-dsq", "--model", "ainf", "--max-arity", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert run(["verify-dsq", "--model", "iso", "--max-index", "6"]) == 0


def test_verify_dsq_usage_error():
    assert run(["verify-dsq", "--model", "iso"]) == 2  # missing --max-index
    assert run(["verify-dsq", "--model", "ainf"]) == 2  # missing --max-arity


def test_solve_tail_text(capsys):
    assert run(["solve-tail", "--max-arity", "3", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "omega(mu_2_bar) = 0" in out
    assert "omega(mu_3_bar) = " in out


def test_check_rep_pass_and_fail(tmp_path, capsys):
    from operadkit.differentials import build_ainf
    from operadkit.linalg import RationalMatrix
    from operadkit.reps import ChainComplex, MultilinearMap, Representation

    model = build_ainf(3)
    u = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix([[0], [1]])}, "B")
    mu = MultilinearMap(
        (u, u), u, 0,
        {
            (0, 0): RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]]),
            (0, 1): RationalMatrix([[1, 0]]),
            (1, 0): RationalMatrix([[0, 0]]),
        },
    )
    rep = Representation(model, {"B": u}, {"mu_2": mu})
    good = tmp_path / "dga.json"
    good.write_text(json.dumps(representation_to_json(rep)))
    assert run(["check-rep", "--model", "ainf", "--max-arity", "3", "--rep", str(good)]) == 0

    broken = Representation(
        model, {"B": u},
        {"mu_2": MultilinearMap((u, u), u, 0, {(1, 0): RationalMatrix([[1, 0]])})},
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(representation_to_json(broken)))
    assert run(["check-rep", "--model", "ainf", "--max-arity", "3", "--rep", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


GOOD_PRODUCT = {(0, 0): [[1, 0, 0, 0], [0, 1, 0, 0]], (0, 1): [[1, 0]], (1, 0): [[0, 0]]}
BROKEN_PRODUCT = {(1, 0): [[1, 0]]}


def _dga_json(product):
    """A representation of build_ainf(3) with mu_2 given by its blocks."""
    from operadkit.linalg import RationalMatrix
    from operadkit.reps import ChainComplex, MultilinearMap, Representation

    u = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix([[0], [1]])}, "B")
    mu = MultilinearMap((u, u), u, 0, product)
    return representation_to_json(Representation(build_ainf(3), {"B": u}, {"mu_2": mu}))


def _broken_dga_json():
    return _dga_json(BROKEN_PRODUCT)


@pytest.mark.parametrize("name", ["mu2", "mu_4"], ids=["misspelled", "above-max-arity"])
def test_check_rep_rejects_images_that_are_not_generators(tmp_path, capsys, name):
    # Under a name that is not a generator of the model, the broken mu_2 was
    # dropped, mu_2 read as zero, and the check printed PASS.
    obj = _broken_dga_json()
    obj["images"][name] = obj["images"].pop("mu_2")
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(obj))
    assert run(["check-rep", "--model", "ainf", "--max-arity", "3", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"ValueError: images for names that are not generators: {name}" in captured.err


def test_check_rep_parse_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    code = run(["check-rep", "--model", "ainf", "--max-arity", "2", "--rep", str(bad)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_extend_cli_round_trip(tmp_path, capsys):
    from operadkit.linalg import RationalMatrix
    from operadkit.reps import ChainComplex, MultilinearMap, identity_map, zero_map
    from operadkit.transfer import ExtensionState

    u = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix([[0], [1]])}, "B")
    mu = MultilinearMap(
        (u, u), u, 0,
        {
            (0, 0): RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0]]),
            (0, 1): RationalMatrix([[1, 0]]),
            (1, 0): RationalMatrix([[0, 0]]),
        },
    )
    state = ExtensionState(
        v=u, w=u, m={2: mu}, n={2: mu},
        f={1: identity_map(u), 2: zero_map((u, u), u, 1)}, k=2,
    )
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(state_to_json(state)))
    out = tmp_path / "extended.json"
    assert run(["extend", "--setup", str(setup), "--target-arity", "4", "-o", str(out)]) == 0
    final = state_from_json(json.loads(out.read_text()))
    assert final.k == 4
    assert final.check().ok
    assert out.read_text() == json.dumps(state_to_json(final), indent=2) + "\n"


def test_polarization_cli(capsys):
    assert run(["polarization", "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "<f.>[0] = 1 * f_0 (x) f_0" in out
    # the symmetrized family genuinely fails the coupled equations, which is
    # a mathematical failure, not a usage error
    assert run(["polarization", "--max-degree", "3", "--symmetrize"]) == 1


def test_polarization_family_goes_to_output_file(tmp_path, capsys):
    path = tmp_path / "family.txt"
    assert run(["polarization", "--max-degree", "3", "-o", str(path)]) == 0
    assert "<f.>[0] = 1 * f_0 (x) f_0" in path.read_text().splitlines()
    out = capsys.readouterr().out
    assert "<f.>[0]" not in out and "PASS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["polarization", "--max-degree", "2", "--format", "json"],
        ["solve-tail", "--max-arity", "3", "--max-vertices", "6"],
        # a skipped generator printed SKIP while the report still said PASS
        ["verify-dsq", "--model", "ainf", "--max-arity", "4", "--max-vertices", "0"],
    ],
    ids=["polarization-format", "solve-tail-max-vertices", "verify-dsq-max-vertices"],
)
def test_removed_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_representation_json_round_trip(tmp_path):
    from operadkit.differentials import build_ainf
    from operadkit.linalg import RationalMatrix
    from operadkit.reps import ChainComplex, MultilinearMap, Representation

    model = build_ainf(2)
    u = ChainComplex({0: 1, 1: 1}, {1: RationalMatrix([[1]])}, "B")
    rep = Representation(
        model, {"B": u},
        {"mu_2": MultilinearMap((u, u), u, 0, {(0, 0): [["1/2"]]})},
    )
    blob = json.dumps(representation_to_json(rep))
    back = representation_from_json(json.loads(blob), model)
    assert back.images["mu_2"] == rep.images["mu_2"]
    assert json.dumps(representation_to_json(back)) == blob


def _setup_json():
    from operadkit.reps import ChainComplex, identity_map
    from operadkit.transfer import ExtensionState

    u = ChainComplex({0: 1}, {}, "B")
    return state_to_json(ExtensionState(v=u, w=u, m={}, n={}, f={1: identity_map(u)}, k=1))


def test_malformed_input_is_usage_error(tmp_path, capsys):
    obj = _setup_json()
    del obj["k"]
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(obj))
    assert run(["extend", "--setup", str(setup), "--target-arity", "2"]) == 2
    assert "KeyError" in capsys.readouterr().err
    assert run(["verify-dsq", "--model", "ainf", "--max-arity", "1"]) == 2


def _setup_without_f1():
    obj = _setup_json()
    del obj["f"]["1"]
    return obj


def _setup_with(field, value):
    def make():
        obj = _setup_json()
        obj[field] = value
        return obj

    return make


@pytest.mark.parametrize(
    "obj, shown",
    [
        (_setup_without_f1, "f has no arity-1 map F_1"),
        (_setup_with("k", 0), "truncation level k = 0, expected k >= 1"),
        (_setup_with("n", {"2": {"degree": 0}}), "n has arities [2] outside 2..1"),
        (_setup_with("f", {"1": _setup_json()["f"]["1"], "2": {"degree": 1}}), "f has arities [2] outside 1..1"),
    ],
    ids=["no-f1", "k-zero", "n-above-k", "f-above-k"],
)
def test_malformed_setup_is_usage_error(tmp_path, capsys, obj, shown):
    # A missing F_1 and k = 0 ended in a KeyError traceback with exit 1, which
    # reads as a failed check; data above K was overwritten without a word.
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(obj()))
    assert run(["extend", "--setup", str(setup), "--target-arity", "2"]) == 2
    assert f"ValueError: {shown}" in capsys.readouterr().err


def test_internal_error_is_not_a_usage_error(tmp_path, monkeypatch):
    import operadkit.cli as cli

    def broken(state, target):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "extend_to_arity", broken)
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(_setup_json()))
    with pytest.raises(ValueError, match="internal"):
        run(["extend", "--setup", str(setup), "--target-arity", "2"])


@pytest.mark.parametrize(
    "model_args, dim, images",
    [
        (["ainf-morphism", "--max-arity", "1"], 1, {"f_1": {"degree": 0, "blocks": {"0,0": [["1"]]}}}),
        (["ainf", "--max-arity", "2"], 1, {"mu_2": {"degree": 0, "blocks": {"0": [["1"]]}}}),
        (["ainf", "--max-arity", "2"], -1, {}),
    ],
    ids=["key-too-long", "key-too-short", "negative-dimension"],
)
def test_malformed_representation_is_usage_error(tmp_path, capsys, model_args, dim, images):
    complex_ = {"dims": {"0": dim}}
    obj = {"schema": 1, "complexes": {"B": complex_, "W": complex_}, "images": images}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(obj))
    assert run(["check-rep", "--model"] + model_args + ["--rep", str(path)]) == 2
    assert "ValueError" in capsys.readouterr().err


def _float_rep_json():
    from operadkit.differentials import build_ainf
    from operadkit.reps import ChainComplex, MultilinearMap, Representation

    u = ChainComplex({0: 1}, {}, "B")
    rep = Representation(build_ainf(2), {"B": u}, {"mu_2": MultilinearMap((u, u), u, 0, {(0, 0): [["1"]]})})
    obj = representation_to_json(rep)
    obj["images"]["mu_2"]["blocks"]["0,0"] = [[0.25]]
    return obj


def _float_setup_json():
    obj = _setup_json()
    obj["f"]["1"]["blocks"]["0"] = [[0.25]]
    return obj


@pytest.mark.parametrize(
    "argv, obj",
    [
        (["check-rep", "--model", "ainf", "--max-arity", "2", "--rep"], _float_rep_json),
        (["extend", "--target-arity", "2", "--setup"], _float_setup_json),
    ],
    ids=["check-rep", "extend"],
)
def test_float_coefficient_is_usage_error(tmp_path, capsys, argv, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj()))
    assert run(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "TypeError" in err and "inexact coefficient 0.25" in err


def _rep_json(dim, degree):
    return {
        "complexes": {"B": {"dims": {"0": dim}}},
        "images": {"mu_2": {"degree": degree, "blocks": {"0,0": [["1"]]}}},
    }


def _setup_json_with_k(k):
    obj = _setup_json()
    obj["k"] = k
    return obj


@pytest.mark.parametrize(
    "argv, obj, shown",
    [
        (["check-rep", "--model", "ainf", "--max-arity", "2", "--rep"], _rep_json(1.7, 0), "1.7"),
        (["check-rep", "--model", "ainf", "--max-arity", "2", "--rep"], _rep_json(1, 0.4), "0.4"),
        (["check-rep", "--model", "ainf", "--max-arity", "2", "--rep"], _rep_json(True, 0), "True"),
        (["extend", "--target-arity", "2", "--setup"], _setup_json_with_k(2.5), "2.5"),
    ],
    ids=["float-dim", "float-degree", "bool-dim", "float-k"],
)
def test_float_integer_field_is_usage_error(tmp_path, capsys, argv, obj, shown):
    # int() would truncate these to a valid-looking input and a PASS.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert run(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert "TypeError" in err and f"expected an integer, got {shown}" in err


@pytest.mark.parametrize(
    "load, obj",
    [
        (model_from_json, lambda: model_to_json(build_ainf_morphism(2))),
        (lambda obj: representation_from_json(obj, build_ainf(3)), _broken_dga_json),
        (state_from_json, _setup_json),
    ],
    ids=["model", "representation", "state"],
)
def test_loaders_check_the_schema(load, obj):
    document = obj()
    del document["schema"]
    load(document)  # a missing schema is read as 1
    for foreign in (7, "1", 1.0, True):
        document["schema"] = foreign
        with pytest.raises(ValueError, match=f"unsupported schema {foreign!r}, expected 1"):
            load(document)
    with pytest.raises(TypeError, match="expected a JSON object, got list"):
        load([document])


@pytest.mark.parametrize(
    "argv, obj",
    [
        (["check-rep", "--model", "ainf", "--max-arity", "3", "--rep"], lambda: _dga_json(GOOD_PRODUCT)),
        (["extend", "--target-arity", "2", "--setup"], _setup_json),
    ],
    ids=["check-rep", "extend"],
)
def test_foreign_schema_is_usage_error(tmp_path, capsys, argv, obj):
    # Both were read as schema 1: check-rep printed PASS and extend ran.
    document = obj()
    document["schema"] = 7
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    assert run(argv + [str(path)]) == 2
    assert "ValueError: unsupported schema 7, expected 1" in capsys.readouterr().err


def test_float_generator_degree_is_rejected():
    obj = model_to_json(build_ainf_morphism(2))
    obj["generators"][0]["degree"] = 0.5
    with pytest.raises(TypeError, match="expected an integer, got 0.5"):
        model_from_json(obj)


class Pairs(list):
    """A JSON object as its list of (key, value) pairs, which may repeat a key."""


def as_pairs(doc):
    if isinstance(doc, dict):
        return Pairs((key, as_pairs(value)) for key, value in doc.items())
    if isinstance(doc, list):
        return [as_pairs(value) for value in doc]
    return doc


def json_text(doc):
    """The JSON text of `doc`, whose objects are dicts or `Pairs`."""
    if isinstance(doc, dict):
        doc = Pairs(doc.items())
    if isinstance(doc, Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {json_text(value)}" for key, value in doc) + "}"
    if isinstance(doc, list):
        return "[" + ", ".join(map(json_text, doc)) + "]"
    return json.dumps(doc)


def _rename_blocks(obj):
    mu = obj["images"]["mu_2"]
    mu["Blocks"] = mu.pop("blocks")
    return obj


def _alias_block_key(obj):
    obj["images"]["mu_2"]["blocks"]["01,0"] = [["0", "0"]]
    return obj


def _repeat_mu_2_as_zero(obj):
    obj["images"] = Pairs([("mu_2", obj["images"]["mu_2"]), ("mu_2", {"degree": 0, "blocks": {}})])
    return obj


def _block_rows(rows):
    def mutate(obj):
        obj["images"]["mu_2"]["blocks"]["1,0"] = rows
        return obj

    return mutate


def _other_degrees(obj):
    obj["complexes"]["B"]["degrees"] = [0, 2]
    return obj


@pytest.mark.parametrize(
    "mutate, shown",
    [
        (_rename_blocks, "unknown key 'Blocks'"),
        (_alias_block_key, "key '01' is not an integer in canonical form"),
        (_repeat_mu_2_as_zero, "repeated key 'mu_2'"),
        (_block_rows([["1/0", "0"]]), "zero denominator in '1/0'"),
        (_block_rows(["10"]), "expected a JSON array, got '10'"),
        (_block_rows([{"1": "0", "0": "1"}]), "expected a JSON array, got {'1': '0', '0': '1'}"),
        (_other_degrees, "degrees [0, 2] differ from the dims keys [0, 1]"),
        (_block_rows([["1e400000000", "0"]]), "'1e400000000' is not an exact number"),
        (_block_rows([["1_0", "0"]]), "'1_0' is not an exact number"),
    ],
    ids=["renamed-blocks", "aliased-block-key", "repeated-image", "zero-denominator", "string-row",
         "object-row", "degrees-not-dims", "exponent", "underscore"],
)
def test_check_rep_reads_the_file_whole(tmp_path, capsys, mutate, shown):
    # Each of these printed PASS or FAIL from a part of the file (the
    # renamed, aliased or repeated entry read as zero or dropped, a row read
    # from its characters or keys), or ended in a traceback with exit 1.
    path = tmp_path / "rep.json"
    path.write_text(json_text(mutate(_broken_dga_json())))
    assert run(["check-rep", "--model", "ainf", "--max-arity", "3", "--rep", str(path)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert shown in captured.err


def test_check_rep_reads_plain_decimals_and_fractions(tmp_path, capsys):
    # Only exponents and underscores are refused: these entries are read,
    # and the broken product still fails its check.
    path = tmp_path / "rep.json"
    path.write_text(json_text(_block_rows([["0.25", "-1/2"]])(_broken_dga_json())))
    assert run(["check-rep", "--model", "ainf", "--max-arity", "3", "--rep", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out
    rep = representation_from_json(load(path), build_ainf(3))
    assert rep.images["mu_2"].blocks[(1, 0)].entries == [[Fraction(1, 4), Fraction(-1, 2)]]


@pytest.mark.parametrize(
    "argv",
    [["check-rep", "--model", "ainf", "--max-arity", "3", "--rep"], ["extend", "--target-arity", "3", "--setup"]],
    ids=["rep", "setup"],
)
def test_unreadable_input_is_usage_error(tmp_path, capsys, argv):
    # A directory ended in an IsADirectoryError traceback with exit 1, the
    # code of a failed check.
    assert run(argv + [str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: cannot read {tmp_path}" in err and "Is a directory" in err
    assert run(argv + [str(tmp_path / "missing.json")]) == 2
    assert "No such file or directory" in capsys.readouterr().err


def _number(leaf):
    """The rational a JSON int or string spells; None for any other value."""
    if type(leaf) is int:
        return Fraction(leaf)
    if type(leaf) is str:
        try:
            return Fraction(leaf)
        except (ValueError, ZeroDivisionError):
            return None
    return None


def _is_zero(doc):
    """Do all numbers in `doc` read as zero?"""
    if isinstance(doc, Pairs):
        return all(_is_zero(value) for _, value in doc)
    if isinstance(doc, list):
        return all(map(_is_zero, doc))
    return _number(doc) == 0


def read_whole(doc, back):
    """Is every key and value of `doc` (objects as `Pairs`) in `back`, the
    document that was loaded from it, written back?

    Numbers compare by value.  A key missing from `back` is allowed only
    with a zero value, as a zero block is not written; `schema` is checked
    by the loader.
    """
    if isinstance(doc, Pairs):
        keys = [key for key, _ in doc]
        return (
            isinstance(back, dict)
            and len(set(keys)) == len(keys)
            and all(
                key == "schema" or (read_whole(value, back[key]) if key in back else _is_zero(value))
                for key, value in doc
            )
        )
    if isinstance(doc, list):
        return isinstance(back, list) and len(doc) == len(back) and all(map(read_whole, doc, back))
    return _number(doc) is not None and _number(doc) == _number(back)


def _positions(doc):
    """(container, index) of every value below the root of `doc`."""
    found = []

    def walk(node):
        if isinstance(node, list):
            for i, item in enumerate(node):
                found.append((node, i))
                walk(item[1] if isinstance(node, Pairs) else item)

    walk(doc)
    return found


def _retyped(value):
    """`value` as another JSON type: an object as the array of its values,
    an array as an object, an int as a string and a string as an int."""
    if isinstance(value, Pairs):
        return [item for _, item in value]
    if isinstance(value, list):
        return Pairs((str(i), item) for i, item in enumerate(value))
    if isinstance(value, str):
        return int(value) if value.lstrip("-").isdigit() else [value]
    return str(value)


KEY_MUTATIONS = ("drop", "rename", "repeat", "alias")
NEW_VALUES = {"1/0": "1/0", "float": 0.5, "bool": True, "object": {"x": "1"}}
VALUE_MUTATIONS = ("retype",) + tuple(NEW_VALUES)


def _mutated(data, doc):
    """`doc` in `Pairs` form with one key or one value mutated."""
    doc = as_pairs(doc)
    kind = data.draw(st.sampled_from(KEY_MUTATIONS + VALUE_MUTATIONS))
    positions = [p for p in _positions(doc) if kind in VALUE_MUTATIONS or isinstance(p[0], Pairs)]
    node, i = data.draw(st.sampled_from(positions))
    if kind in KEY_MUTATIONS:
        key, value = node[i]
        if kind == "drop":
            del node[i]
        elif kind == "rename":
            node[i] = (key.capitalize() if key != key.capitalize() else key + "0", value)
        elif kind == "repeat":
            node.insert(i + 1, (key, value))
        else:  # "1" and "01", "1,0" and "01,0"
            node.insert(i + 1, ("0" + key, value))
        return doc
    value = node[i][1] if isinstance(node, Pairs) else node[i]
    new = _retyped(value) if kind == "retype" else as_pairs(NEW_VALUES[kind])
    node[i] = (node[i][0], new) if isinstance(node, Pairs) else new
    return doc


def _extend_setup_json():
    """The setup of `test_extend_cli_round_trip`."""
    from operadkit.linalg import RationalMatrix
    from operadkit.reps import ChainComplex, identity_map, zero_map
    from operadkit.transfer import ExtensionState

    u = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix([[0], [1]])}, "B")
    mu = MultilinearMap((u, u), u, 0, GOOD_PRODUCT)
    f = {1: identity_map(u), 2: zero_map((u, u), u, 1)}
    return state_to_json(ExtensionState(v=u, w=u, m={2: mu}, n={2: mu}, f=f, k=2))


LOADERS = {
    "check-rep": (
        ["check-rep", "--model", "ainf", "--max-arity", "3", "--rep"],
        (_dga_json(GOOD_PRODUCT), _broken_dga_json()),
        lambda doc: representation_to_json(representation_from_json(doc, build_ainf(3))),
    ),
    "extend": (
        ["extend", "--target-arity", "3", "--setup"],
        (_extend_setup_json(),),
        lambda doc: state_to_json(state_from_json(doc)),
    ),
}


@pytest.mark.filterwarnings("ignore:F_1 is not a quasi-isomorphism")
@pytest.mark.parametrize("command", sorted(LOADERS))
def test_a_mutated_input_is_read_whole_or_refused(tmp_path_factory, command):
    # One structural mutation of a valid document: the command refuses it
    # with exit 2, or it reads every key and value of it.  It never ends in a
    # traceback, and exit 1 comes with a FAIL line.
    argv, documents, round_trip = LOADERS[command]
    path = tmp_path_factory.mktemp(command) / "input.json"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def check(data):
        doc = _mutated(data, data.draw(st.sampled_from(documents)))
        path.write_text(json_text(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv + [str(path)])
        assert code in (0, 1, 2), code
        if code == 1:
            assert "FAIL" in out.getvalue()
        if code != 2:
            assert read_whole(doc, round_trip(load(path))), json_text(doc)

    check()
