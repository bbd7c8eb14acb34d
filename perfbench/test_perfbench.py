"""Small-size tests of the benchmark's own code: generators, tracer, gate."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import operadkit  # noqa: E402
import operadkit.cli  # noqa: E402,F401  (the tracer patches these modules too)
import operadkit.serialize  # noqa: E402,F401
from operadkit import build_ainf, verify_d_squared  # noqa: E402

import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracer import SPAN_NAMES, Tracer, package_modules, summarize  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_scaled_base_is_valid_and_seeded(seed):
    model = gen.scaled_ainf(seed, 4)
    assert verify_d_squared(model).ok
    plain = build_ainf(4)
    assert model.of("mu_4") != plain.of("mu_4")
    assert model.of("mu_4") != gen.scaled_ainf(seed + 1, 4).of("mu_4")


@pytest.mark.parametrize("seed", [1, 2])
def test_koszul_dga_is_valid_and_seeded(seed):
    u, mu = gen.koszul_dga(seed)
    assert {k: u.dim(k) for k in u.degrees()} == {0: 1, -2: 2, -3: 1, -4: 1, -5: 2, -7: 1}
    assert operadkit.hom_differential(mu).is_zero()
    one = operadkit.identity_map(u)
    assoc = operadkit.compose_maps(mu, [mu, one]).sub(operadkit.compose_maps(mu, [one, mu]))
    assert assoc.is_zero()
    _, other = gen.koszul_dga(seed + 1)
    assert mu.blocks != other.blocks


def _patchable_state():
    """Every module attribute and traced class method, by identity."""
    state = {}
    for mod in package_modules():
        for name, value in vars(mod).items():
            state[(mod.__name__, name)] = value
    for cls in (operadkit.OperadElement, operadkit.TreeMonomial, operadkit.RationalMatrix):
        for name, value in vars(cls).items():
            state[(cls.__qualname__, name)] = value
    return state


def _traced_btow3():
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.begin("cli.job.test")
        model = operadkit.tails.build_model_btow(build_ainf(3), 3)
        tracer.end(root)
    finally:
        tracer.uninstall()
    return model, summarize(tracer.spans, tracer.counters)


def test_tracer_wraps_rebound_names_and_restores_everything():
    before = _patchable_state()
    tracer = Tracer()
    tracer.install()
    try:
        import operadkit.linalg as linalg
        import operadkit.tails as tails

        assert tails.solve_linear is linalg.solve_linear
        assert tails.solve_linear is not before[("operadkit.tails", "solve_linear")]
        assert operadkit.OperadElement.__add__ is not before[("OperadElement", "__add__")]
    finally:
        tracer.uninstall()
    after = _patchable_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_counts_repeat_exactly():
    model, first = _traced_btow3()
    _, second = _traced_btow3()
    assert model.tails["mu_3_bar"] is not None
    assert set(k.rsplit(".", 1)[0] for k in first if k.endswith(".self_s")) <= set(SPAN_NAMES)
    assert first["tails.solve_tail.calls"] == 2
    assert first["linalg.solve_linear.calls"] >= 1
    assert first["tails.candidates"] == first["linalg.solve_linear.cols"]
    for key in first:
        if not key.endswith("_s"):
            assert first[key] == second[key], key


def test_polar6_sym_exit_1_is_success_and_a_flipped_byte_is_a_failure(tmp_path):
    call, finish = jobs.prepare("polar6_sym", jobs.PINNED_SEED, tmp_path)
    ok, data = finish(1, "report\n")
    assert ok
    ok, _ = finish(0, "report\n")
    assert not ok

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = call()
    ok, data = finish(code, out.getvalue())
    assert code == 1 and ok
    assert jobs.check_digest("polar6_sym", 7, data)
    flipped = bytes([data[0] ^ 1]) + data[1:]
    assert not jobs.check_digest("polar6_sym", 7, flipped)
    result = {"error": None, "verdict_ok": True, "digest_ok": False}
    assert run.job_failed(result)
    assert not run.job_failed(dict(result, digest_ok=True))


def test_benchmark_json_matches_the_metrics_printed():
    assert len(run.PER_LAYER) == len(set(run.PER_LAYER)) <= 128
    for span in SPAN_NAMES:
        assert f"{span}.self_s" in run.PER_LAYER
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(jobs.WORKLOADS)
    assert [m["name"] for m in doc["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in doc["per_layer"])
