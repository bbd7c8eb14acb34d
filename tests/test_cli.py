import hashlib
import io
import json
import os
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
    dumps,
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


# Each model with the bound it reads and the one it does not.
MODEL_BOUNDS = [
    ("ainf", "--max-arity", "--max-index"),
    ("ainf-morphism", "--max-arity", "--max-index"),
    ("homotopy", "--max-arity", "--max-index"),
    ("iso", "--max-index", "--max-arity"),
]


@pytest.mark.parametrize("command", ["emit-model", "verify-dsq", "check-rep"])
@pytest.mark.parametrize("model, reads, other", MODEL_BOUNDS, ids=[f"{m}-{o[2:]}" for m, _, o in MODEL_BOUNDS])
def test_a_bound_the_model_does_not_read_is_a_usage_error(tmp_path, capsys, command, model, reads, other):
    # verify-dsq checked the bound it reads, ignored the other and printed PASS.
    rep = ["--rep", str(tmp_path / "rep.json")] if command == "check-rep" else []
    assert run([command, "--model", model, reads, "2", other, "9", *rep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {other} does not apply to the {model} model, which reads {reads}\n"


@pytest.mark.parametrize("command", ["emit-model", "verify-dsq", "check-rep"])
@pytest.mark.parametrize("model, reads, other", MODEL_BOUNDS, ids=[f"{m}-{r[2:]}" for m, r, _ in MODEL_BOUNDS])
def test_a_missing_bound_is_a_usage_error(tmp_path, capsys, command, model, reads, other):
    rep = ["--rep", str(tmp_path / "rep.json")] if command == "check-rep" else []
    assert run([command, "--model", model, *rep]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {reads} is required for the {model} model\n"


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


def test_check_rep_names_a_colour_without_a_complex(tmp_path, capsys):
    # This exited 2 with "KeyError: 'W'", which names no rule of the file.
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"schema": 1, "complexes": {"B": {"dims": {"0": 1}}}, "images": {}}))
    assert run(["check-rep", "--model", "ainf-morphism", "--max-arity", "2", "--rep", str(path)]) == 2
    assert "ValueError: no complex for colors of the model: W" in capsys.readouterr().err


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


def _identity_rep_json(model_args, identities):
    """The identity of the three-dimensional dga as a representation of a
    two-coloured model: the images named in `identities` are identity maps,
    the products are the dga's own, and every other image is zero.  That is
    a strict morphism, the zero homotopy from it to itself, or a strict
    equivalence."""
    from operadkit.differentials import build_homotopy_model, build_iso_resolution
    from operadkit.linalg import RationalMatrix
    from operadkit.reps import ChainComplex, Representation, identity_map

    builders = {"ainf-morphism": build_ainf_morphism, "homotopy": build_homotopy_model, "iso": build_iso_resolution}
    model = builders[model_args[1]](int(model_args[3]))
    u = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix([[0], [1]])}, "B")
    w = ChainComplex(dict(u.dims), dict(u.d), "W")
    images = {}
    if "mu_2" in model.base:
        images["mu_2"] = MultilinearMap((u, u), u, 0, GOOD_PRODUCT)
        images["nu_2"] = MultilinearMap((w, w), w, 0, GOOD_PRODUCT)
    for name in identities:
        source, target = (w, u) if name == "g_0" else (u, w)
        images[name] = MultilinearMap((source,), target, 0, identity_map(u).blocks)
    return representation_to_json(Representation(model, {"B": u, "W": w}, images))


@pytest.mark.parametrize(
    "model_args, identities, title",
    [
        (["--model", "ainf-morphism", "--max-arity", "3"], ["f_1"], "sh-morphism axioms"),
        (["--model", "homotopy", "--max-arity", "3"], ["p_1", "q_1"], "homotopy axioms"),
        (["--model", "iso", "--max-index", "2"], ["f_0", "g_0"], "sh-equivalence axioms"),
    ],
    ids=["ainf-morphism", "homotopy", "iso"],
)
def test_check_rep_on_two_coloured_models(tmp_path, capsys, model_args, identities, title):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_identity_rep_json(model_args, identities)))
    assert run(["check-rep", *model_args, "--rep", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == title and out[-1] == "  => PASS"


def test_solve_tail_json(tmp_path, capsys):
    assert run(["solve-tail", "--max-arity", "4", "--format", "json"]) == 0
    text = capsys.readouterr().out
    obj = json.loads(text)
    assert list(obj) == ["schema", "tails"] and obj["schema"] == SCHEMA
    assert list(obj["tails"]) == ["mu_2_bar", "mu_3_bar", "mu_4_bar"]
    assert obj["tails"]["mu_2_bar"]["terms"] == []
    path = tmp_path / "tails.json"
    path.write_text(text)
    assert load(path) == obj


def test_solve_tail_output_is_pinned(capsys):
    # SHA-256 of the whole stdout in both formats: the tails in solve order
    for fmt, digest in (
        ("text", "811ea1d0d587b91cab3306dac7634fdb100525c4ebbdbeb1b810c829ef29ab4a"),
        ("json", "9cbd84899010dc4154dba35ed2dedfedef03e97a94668ee8b817cc64a109f7e7"),
    ):
        assert run(["solve-tail", "--max-arity", "5", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_extend_cli_reports_an_obstruction(tmp_path, capsys):
    # F_1 = 0 kills the homology of V, and the F_2 pairing leaves the
    # arity-3 system infeasible.
    from operadkit.reps import ChainComplex, zero_map
    from operadkit.transfer import ExtensionState

    v = ChainComplex({0: 2}, {}, "B")
    w = ChainComplex({0: 1, 1: 1}, {}, "W")
    state = ExtensionState(
        v=v, w=w,
        m={2: MultilinearMap((v, v), v, 0, {(0, 0): [[1, 0, 0, 0], [0, 1, 0, 0]]})},
        n={2: MultilinearMap((w, w), w, 0, {(0, 0): [[1]]})},
        f={1: zero_map((v,), w, 0), 2: MultilinearMap((v, v), w, 1, {(0, 0): [[0, 0, 0, 1]]})},
        k=2,
    )
    setup = tmp_path / "setup.json"
    setup.write_text(json.dumps(state_to_json(state)))
    with pytest.warns(UserWarning, match="not a quasi-isomorphism"):
        assert run(["extend", "--setup", str(setup), "--target-arity", "3"]) == 1
    assert any(line.startswith("FAIL  extension obstruction") for line in capsys.readouterr().out.splitlines())


def test_module_entry_point_runs_the_cli():
    import subprocess
    import sys
    from pathlib import Path

    import operadkit

    env = {**os.environ, "PYTHONPATH": str(Path(operadkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "operadkit", "verify-dsq", "--model", "ainf", "--max-arity", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "  => PASS"


def test_polarization_cli(capsys):
    assert run(["polarization", "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "<f.>[0] = 1 * f_0 (x) f_0" in out
    # the symmetrized family genuinely fails the coupled equations, which is
    # a mathematical failure, not a usage error
    assert run(["polarization", "--max-degree", "3", "--symmetrize"]) == 1
    capsys.readouterr()
    # SHA-256 of the whole stdout: the forest families in their display
    # order, then the report, whose FAIL lines print the residual forests
    for flags, code, digest in (
        ([], 0, "7970f2ae03f56f5efb8a864eacb6585243ab89d2b292847fff8df17c8b99d54a"),
        (["--symmetrize"], 1, "4a4437fef88078a3b8ce0aa4b34af800211c65e85a2d1a45b15ca5ba3b965e2f"),
    ):
        assert run(["polarization", "--max-degree", "5", *flags]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("degree", ["-1", "-2"])
def test_polarization_refuses_a_negative_max_degree(capsys, degree):
    # -1 checked only degree 0 and printed PASS; -2 named max_index.
    assert run(["polarization", "--max-degree", degree]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"invalid --max-degree: ValueError: --max-degree must be >= 0, got {degree}" in captured.err


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


def _setup_with_a_zero_f2_of_degree_2():
    obj = _extend_setup_json()
    obj["f"]["2"]["degree"] = 2
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
        (_setup_with("m", {"1": _setup_json()["f"]["1"]}), "m has arities [1] outside 2..inf"),
        (_setup_with_a_zero_f2_of_degree_2, "f_2 is not a degree-1 map from v^2 to w"),
    ],
    ids=["no-f1", "k-zero", "n-above-k", "f-above-k", "m-below-2", "f2-degree-2"],
)
def test_malformed_setup_is_usage_error(tmp_path, capsys, obj, shown):
    # A missing F_1 and k = 0 ended in a KeyError traceback with exit 1, which
    # reads as a failed check; data above K was overwritten without a word;
    # an m_1, which no generator takes, was dropped and the check passed; a
    # zero f_2 of degree 2 passed the loader and extend ended in a traceback.
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
        # ainf has no colour W: its complex was read and ignored, and PASS
        (["ainf", "--max-arity", "2"], 1, {}),
    ],
    ids=["key-too-long", "key-too-short", "negative-dimension", "colour-the-model-lacks"],
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


OUTPUT_COMMANDS = {
    "emit-model": ["emit-model", "--model", "ainf", "--max-arity", "2"],
    "solve-tail": ["solve-tail", "--max-arity", "3"],
    "extend": ["extend", "--target-arity", "2", "--setup"],
    "polarization": ["polarization", "--max-degree", "2"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_an_unwritable_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command):
    # A directory as -o ended in an IsADirectoryError traceback with exit 1,
    # the code of a failed check, and `extend` ran the whole extension first.
    import operadkit.cli as cli

    def no_work(*args):
        raise AssertionError("the command did its work before checking -o")

    for builder in ("build_ainf", "build_model_btow", "extend_to_arity", "build_iso_resolution"):
        monkeypatch.setattr(cli, builder, no_work)
    argv = list(OUTPUT_COMMANDS[command])
    if command == "extend":
        setup = tmp_path / "setup.json"
        setup.write_text(json.dumps(_setup_json()))
        argv.append(str(setup))
    for target, shown in ((tmp_path, "it is a directory"), (tmp_path / "missing" / "out", "no directory")):
        assert run(argv + ["-o", str(target)]) == 2
        err = capsys.readouterr().err
        assert f"usage error: cannot write {target}: {shown}" in err


def test_a_failed_write_is_a_usage_error(tmp_path, capsys, monkeypatch):
    import operadkit.cli as cli

    def refused(path, mode):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refused, raising=False)
    path = tmp_path / "model.json"
    assert run(["emit-model", "--model", "ainf", "--max-arity", "2", "-o", str(path)]) == 2
    assert f"usage error: cannot write {path}: [Errno 13] Permission denied" in capsys.readouterr().err


class FullDisk(io.StringIO):
    """A file that takes one write and fails the next as a full disk does."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == 2:
            raise OSError(28, "No space left on device")
        return super().write(text)


class FullOnClose(io.StringIO):
    """A file that takes every write and fails as a full disk when closed."""

    def close(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("file", [FullDisk, FullOnClose], ids=["second-write", "close"])
def test_a_write_that_fails_midway_is_a_usage_error(tmp_path, capsys, monkeypatch, file):
    # The model is written in three batches, so the second write comes in
    # the middle of the document.
    import operadkit.cli as cli

    opened = []

    def open_file(path, mode):
        opened.append(file())
        return opened[-1]

    monkeypatch.setattr(cli, "open", open_file, raising=False)
    path = tmp_path / "model.json"
    assert run(["emit-model", "--model", "ainf-morphism", "--max-arity", "8", "-o", str(path)]) == 2
    assert capsys.readouterr().err == f"usage error: cannot write {path}: [Errno 28] No space left on device\n"
    assert len(opened) == 1 and (file is FullOnClose or opened[0].writes == 2)


class BrokenStdout:
    """A standard output whose `write` or `flush` fails as a full disk does."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(28, "No space left on device")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "argv, failing",
    [
        (["emit-model", "--model", "ainf-morphism", "--max-arity", "8"], "write"),
        (["solve-tail", "--max-arity", "3", "--format", "json"], "write"),
        (["verify-dsq", "--model", "ainf", "--max-arity", "3"], "write"),
        (["verify-dsq", "--model", "ainf", "--max-arity", "3"], "flush"),
    ],
    ids=["emit-model", "solve-tail", "report", "flush"],
)
def test_a_failed_write_to_standard_output_is_a_usage_error(capsys, argv, failing):
    # It ended in an OSError traceback with exit 1, the code of a failed check.
    with redirect_stdout(BrokenStdout(failing)):
        assert run(argv) == 2
    assert capsys.readouterr().err == "usage error: cannot write standard output: [Errno 28] No space left on device\n"


def test_a_type_error_while_writing_is_not_a_usage_error(tmp_path, monkeypatch):
    import operadkit.cli as cli

    monkeypatch.setattr(cli, "model_document", lambda model: {"coeff": 0.5})
    with pytest.raises(TypeError, match="cannot write a float"):
        run(["emit-model", "--model", "ainf", "--max-arity", "2", "-o", str(tmp_path / "model.json")])


@pytest.mark.parametrize(
    "argv",
    [
        ["emit-model", "--model", "ainf-morphism", "--max-arity", "10"],
        ["verify-dsq", "--model", "ainf", "--max-arity", "3"],
    ],
    ids=["model", "report"],
)
def test_a_closed_pipe_on_standard_output_is_a_usage_error(argv):
    # The reader is gone before anything is written.  The 2.2 MB model ended
    # in a BrokenPipeError traceback with exit 1.  The short report stays in
    # the stream's buffer after the failed flush, and the interpreter's
    # flush at exit failed on it again, with a second message and exit 120;
    # the stream is buffered only without PYTHONUNBUFFERED.
    import subprocess
    import sys
    from pathlib import Path

    import operadkit

    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(operadkit.__file__).parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "operadkit", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "usage error: cannot write standard output: [Errno 32] Broken pipe\n"


def test_emit_model_writes_the_same_bytes_to_standard_output_and_to_a_file(tmp_path, capsys):
    argv = ["emit-model", "--model", "ainf-morphism", "--max-arity", "8"]
    assert run(argv) == 0
    out = capsys.readouterr().out.encode()
    path = tmp_path / "model.json"
    assert run(argv + ["-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out == dumps(model_to_json(build_ainf_morphism(8))).encode()


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
VALUE_MUTATIONS = ("retype", "bump") + tuple(NEW_VALUES)


def _value(node, i):
    return node[i][1] if isinstance(node, Pairs) else node[i]


def _mutated(data, doc):
    """`doc` in `Pairs` form with one key or one value mutated.  A "bump"
    adds 1 to an int value: a degree, a dimension, `k` or the schema."""
    doc = as_pairs(doc)
    kind = data.draw(st.sampled_from(KEY_MUTATIONS + VALUE_MUTATIONS))
    positions = _positions(doc)
    if kind in KEY_MUTATIONS:
        positions = [p for p in positions if isinstance(p[0], Pairs)]
    elif kind == "bump":
        positions = [p for p in positions if type(_value(*p)) is int]
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
    value = _value(node, i)
    if kind == "retype":
        new = _retyped(value)
    elif kind == "bump":
        new = value + 1
    else:
        new = as_pairs(NEW_VALUES[kind])
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
