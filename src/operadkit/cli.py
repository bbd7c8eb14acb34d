"""Batch front door: model emission, verification, tail solving, axiom checks.

Exit codes are a stable contract: 0 all checks pass, 1 a mathematical check
failed (nonzero residual, failed axiom, unsolvable system), 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .differentials import (
    build_ainf,
    build_ainf_morphism,
    build_homotopy_model,
    build_iso_resolution,
    verify_d_squared,
)
from .forests import polarization_iso_m2, symmetrize_forest, verify_polarization
from .reports import Report
from .reps import check_homotopy, check_representation, check_sh_equivalence, check_sh_morphism
from .serialize import (
    dumps,
    load,
    model_to_json,
    model_to_text,
    representation_from_json,
    state_from_json,
    state_to_json,
    tails_to_json,
)
from .tails import build_model_btow
from .transfer import ExtensionObstructionError, extend_to_arity

PASS, MATH_FAIL, USAGE = 0, 1, 2

MODEL_CHOICES = ("ainf", "ainf-morphism", "homotopy", "iso")


def _build_model(args):
    # Looked up per call, so that a rebound module-level builder is the one run.
    builders = {
        "ainf": build_ainf,
        "ainf-morphism": build_ainf_morphism,
        "homotopy": build_homotopy_model,
        "iso": build_iso_resolution,
    }
    if args.model == "iso":
        if args.max_index is None:
            raise UsageError("--max-index is required for the iso model")
        bound = args.max_index
    else:
        if args.max_arity is None:
            raise UsageError("--max-arity is required for this model")
        bound = args.max_arity
    with _reading("model arguments"):
        return builders[args.model](bound)


class UsageError(Exception):
    pass


@contextmanager
def _reading(what):
    """Input that fails to parse or validate is a usage error (exit 2).

    Only the loading and validation of a command's input runs under this;
    an error raised later is an internal error and propagates.
    """
    try:
        yield
    except OSError as exc:  # a missing file, a directory, no permission
        raise UsageError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"parse error in {what}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid {what}: {type(exc).__name__}: {exc}") from exc


def _write_output(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report: Report):
    print(str(report))
    return PASS if report.ok else MATH_FAIL


def cmd_emit_model(args):
    model = _build_model(args)
    if args.format == "text":
        _write_output(args, model_to_text(model))
    else:
        _write_output(args, dumps(model_to_json(model)))
    return PASS


def cmd_verify_dsq(args):
    model = _build_model(args)
    return _emit_report(verify_d_squared(model))


def cmd_solve_tail(args):
    with _reading("--max-arity"):
        base = build_ainf(args.max_arity)
    bw = build_model_btow(base, args.max_arity)
    if args.format == "text":
        lines = []
        for x in bw.generator_order:
            bar = f"{x}_bar"
            lines.append(f"omega({bar}) = {bw.tails[bar].text(compact=True)}")
        _write_output(args, "\n".join(lines) + "\n")
    else:
        _write_output(args, dumps(tails_to_json(bw)))
    return PASS


def cmd_check_rep(args):
    model = _build_model(args)
    with _reading(args.rep):
        rep = representation_from_json(load(args.rep), model)
    if args.model == "ainf-morphism":
        report = check_sh_morphism(rep)
    elif args.model == "homotopy":
        report = check_homotopy(rep)
    elif args.model == "iso":
        report = check_sh_equivalence(rep)
    else:
        report = check_representation(rep)
    return _emit_report(report)


def cmd_extend(args):
    with _reading(args.setup):
        state = state_from_json(load(args.setup))
    try:
        final = extend_to_arity(state, args.target_arity)
    except ExtensionObstructionError as exc:
        print(f"FAIL  {exc}")
        return MATH_FAIL
    report = final.check()
    if args.output:
        _write_output(args, dumps(state_to_json(final)))
    print(str(report))
    return PASS if report.ok else MATH_FAIL


def cmd_polarization(args):
    with _reading("--max-degree"):
        iso = build_iso_resolution(args.max_degree + 1)
    fams = polarization_iso_m2(iso, args.max_degree + 1)
    if args.symmetrize:
        fams = {k: {d: symmetrize_forest(v) for d, v in tab.items()} for k, tab in fams.items()}
    report = verify_polarization(fams, args.max_degree + 1, iso)
    lines = []
    for kind in ("f", "g", "h", "l"):
        for deg in sorted(fams[kind]):
            lines.append(f"<{kind}.>[{deg}] = {fams[kind][deg].text()}")
    _write_output(args, "\n".join(lines) + "\n")
    return _emit_report(report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="operadkit",
        description="Exact calculus for colored dg operads: models, tails, representations, transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p, iso_too=True):
        p.add_argument("--model", choices=MODEL_CHOICES, required=True)
        p.add_argument("--max-arity", type=int, default=None)
        if iso_too:
            p.add_argument("--max-index", type=int, default=None)

    p = sub.add_parser("emit-model", help="serialize a built model (JSON or text)")
    add_model_args(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_emit_model)

    p = sub.add_parser("verify-dsq", help="check D^2 = 0 generator by generator")
    add_model_args(p)
    p.set_defaults(func=cmd_verify_dsq)

    p = sub.add_parser("solve-tail", help="solve the morphism-model tails over the structure-map base")
    p.add_argument("--max-arity", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_solve_tail)

    p = sub.add_parser("check-rep", help="check a representation JSON against a model")
    add_model_args(p)
    p.add_argument("--rep", required=True)
    p.set_defaults(func=cmd_check_rep)

    p = sub.add_parser("extend", help="run the transfer extension on a setup JSON")
    p.add_argument("--setup", required=True)
    p.add_argument("--target-arity", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("polarization", help="emit and verify the width-2 polarization family")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_polarization)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
