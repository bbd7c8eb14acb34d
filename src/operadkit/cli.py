"""Batch front door: model emission, verification, tail solving, axiom checks.

Exit codes are a stable contract: 0 all checks pass, 1 a mathematical check
failed (nonzero residual, failed axiom, unsolvable system), 2 usage or
parse errors, and a failed write to the `-o` file or to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
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
    dump,
    load,
    model_document,
    model_to_text,
    representation_from_json,
    state_from_json,
    state_to_json,
    tails_document,
)
from .tails import build_model_btow
from .transfer import ExtensionObstructionError, extend_to_arity

PASS, MATH_FAIL, USAGE = 0, 1, 2


def _models():
    """For each --model: its builder, the bound it reads and its axiom check.
    Built on each call, so that a rebound module-level builder is the one run."""
    return {
        "ainf": (build_ainf, "max_arity", check_representation),
        "ainf-morphism": (build_ainf_morphism, "max_arity", check_sh_morphism),
        "homotopy": (build_homotopy_model, "max_arity", check_homotopy),
        "iso": (build_iso_resolution, "max_index", check_sh_equivalence),
    }


def _build_model(args):
    models = _models()
    build, bound, _ = models[args.model]
    flag = "--" + bound.replace("_", "-")
    # A bound the model does not read would be ignored, and its check would
    # still print PASS.
    for _, other, _ in models.values():
        if other != bound and getattr(args, other) is not None:
            raise UsageError(f"--{other.replace('_', '-')} does not apply to the {args.model} model, which reads {flag}")
    if getattr(args, bound) is None:
        raise UsageError(f"{flag} is required for the {args.model} model")
    with _reading("model arguments"):
        return build(getattr(args, bound))


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


def _check_output(path):
    """Refuse an output path that cannot be a file before any work is done:
    a directory, or a file in a directory that does not exist."""
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise UsageError(f"cannot write {path}: no directory {directory}")


@contextmanager
def _writing(path):
    """The stream for a command's output: the file at `path`, or standard
    output when no path is given.  A write that fails (`OSError`: no
    permission, a full disk, a closed pipe), on opening, on any write or on
    closing, is a usage error (exit 2)."""
    try:
        if not path:
            yield sys.stdout
        else:
            with open(path, "w") as fh:
                yield fh
    except OSError as exc:
        if not path:
            _discard_stdout()
        raise UsageError(f"cannot write {path or 'standard output'}: {exc}") from exc


def _discard_stdout():
    """Point standard output's descriptor at the null device, so that the
    text still buffered after a failed write does not fail a second time,
    with a second message, when the interpreter flushes it at exit.  A
    stream with no descriptor (a capture in the same process) is left as it
    is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _print(text):
    with _writing(None) as out:
        print(text, file=out)


def _emit_report(report: Report):
    _print(str(report))
    return PASS if report.ok else MATH_FAIL


def cmd_emit_model(args):
    model = _build_model(args)
    with _writing(args.output) as out:
        if args.format == "text":
            out.write(model_to_text(model))
        else:
            dump(model_document(model), out)
    return PASS


def cmd_verify_dsq(args):
    model = _build_model(args)
    return _emit_report(verify_d_squared(model))


def cmd_solve_tail(args):
    with _reading("--max-arity"):
        base = build_ainf(args.max_arity)
    bw = build_model_btow(base, args.max_arity)
    with _writing(args.output) as out:
        if args.format == "text":
            lines = []
            for bar, omega in bw.tails.items():
                lines.append(f"omega({bar}) = {omega.text()}")
            out.write("\n".join(lines) + "\n")
        else:
            dump(tails_document(bw), out)
    return PASS


def cmd_check_rep(args):
    model = _build_model(args)
    with _reading(args.rep):
        rep = representation_from_json(load(args.rep), model)
    _, _, check = _models()[args.model]
    return _emit_report(check(rep))


def cmd_extend(args):
    with _reading(args.setup):
        state = state_from_json(load(args.setup))
    try:
        final = extend_to_arity(state, args.target_arity)
    except ExtensionObstructionError as exc:
        _print(f"FAIL  {exc}")
        return MATH_FAIL
    report = final.check()
    if args.output:
        with _writing(args.output) as out:
            dump(state_to_json(final), out)
    return _emit_report(report)


def cmd_polarization(args):
    with _reading("--max-degree"):
        if args.max_degree < 0:
            raise ValueError(f"--max-degree must be >= 0, got {args.max_degree}")
        iso = build_iso_resolution(args.max_degree + 1)
    fams = polarization_iso_m2(iso.base, args.max_degree + 1)
    if args.symmetrize:
        fams = {k: {d: symmetrize_forest(v) for d, v in tab.items()} for k, tab in fams.items()}
    report = verify_polarization(fams, args.max_degree + 1, iso)
    lines = []
    for kind in ("f", "g", "h", "l"):
        for deg in sorted(fams[kind]):
            lines.append(f"<{kind}.>[{deg}] = {fams[kind][deg].text()}")
    with _writing(args.output) as out:
        out.write("\n".join(lines) + "\n")
    return _emit_report(report)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="operadkit",
        description="Exact calculus for colored dg operads: models, tails, representations, transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", choices=_models(), required=True)
        p.add_argument("--max-arity", type=int, default=None)
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
        if getattr(args, "output", None):
            _check_output(args.output)
        code = args.func(args)
        with _writing(None) as out:
            out.flush()
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
