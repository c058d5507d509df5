"""Command-line surface: build, resistance, kirchhoff, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 precondition violation.  JSON output is rendered by a small deterministic
emitter (17 significant digits for floats, fixed key order) so identical
inputs produce byte-identical files.  Float arrays, in JSON and CSV alike,
go through one row kernel: finiteness is checked once per array, and each
distinct value is formatted once, however often it repeats.  The bytes are
the same as formatting every entry with ``format_float``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import CoronaKitError, EdgeListError, PreconditionError, SingularMatrixError
from .graphs import CoronaLayout, corona, format_edge_list, parse_edge_list
from .linalg import ENTRY_TOL, RESIDUAL_TOL
from .metrics import (
    KIRCHHOFF_NEEDS_CONNECTED,
    RESISTANCE_NEEDS_CONNECTED,
    closed_form_resistance_matrix,
    kf_edge_corona_regular,
    kf_vertex_corona,
    kf_vertex_corona_regular,
    kirchhoff_oracle,
    require_connected_product,
    resistance_oracle,
)
from .verify import builtin_pairs, report_to_dict, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def format_float(x) -> str:
    v = float(x)
    if not math.isfinite(v):
        raise ValueError("non-finite value in output")
    return format(v, ".17g")


# entries per block of _float_rows: gathering a large matrix in one step
# would hold an object pointer per entry on top of its text
_BLOCK_ENTRIES = 1 << 16


def _float_rows(a: np.ndarray, sep: str, head: str = "", tail: str = "") -> list[str]:
    """Rows of a 2-D float array as text, each value as ``format_float`` writes it.

    Each distinct value is formatted once, in one ``%`` call; the rows are
    then gathered from those strings, a block of rows at a time.  Distinct
    means distinct bit patterns, so ``-0.0`` and ``0.0`` keep their own text.
    """
    if not np.isfinite(a).all():
        raise ValueError("non-finite value in output")
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.int64)
    keys, index = np.unique(bits.ravel(), return_inverse=True)
    text = "%.17g\n" * keys.size % tuple(keys.view(np.float64).tolist())
    words = np.array(text.splitlines(), dtype=object)
    index = index.reshape(bits.shape)
    step = max(1, _BLOCK_ENTRIES // max(1, bits.shape[1]))
    rows: list[str] = []
    for start in range(0, bits.shape[0], step):
        rows += [head + sep.join(row) + tail for row in words[index[start:start + step]].tolist()]
    return rows


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str, np.integer, np.floating))


def _render(value, parts: list[str], indent: int) -> None:
    pad = "  " * indent
    if value is None:
        parts.append("null")
    elif isinstance(value, (bool, np.bool_)):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        parts.append(format_float(value))
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, np.ndarray):
        if value.dtype.kind != "f" or value.ndim not in (1, 2) or not value.size:
            _render(value.tolist(), parts, indent)
        elif value.ndim == 1:
            parts += _float_rows(value[None, :], ", ", "[", "]")
        else:
            rows = _float_rows(value, ", ", "  " * (indent + 1) + "[", "]")
            parts += ("[\n", ",\n".join(rows), "\n" + pad + "]")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            parts.append("[]")
        elif all(_is_scalar(v) for v in items):
            parts.append("[")
            for i, v in enumerate(items):
                if i:
                    parts.append(", ")
                _render(v, parts, indent)
            parts.append("]")
        else:
            parts.append("[\n")
            for i, v in enumerate(items):
                parts.append("  " * (indent + 1))
                _render(v, parts, indent + 1)
                parts.append(",\n" if i < len(items) - 1 else "\n")
            parts.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
        else:
            parts.append("{\n")
            keys = list(value)
            for i, k in enumerate(keys):
                if not isinstance(k, str):
                    raise TypeError(f"JSON keys must be strings, got {type(k).__name__}")
                parts.append("  " * (indent + 1))
                parts.append(json.dumps(k))
                parts.append(": ")
                _render(value[k], parts, indent + 1)
                parts.append(",\n" if i < len(keys) - 1 else "\n")
            parts.append(pad + "}")
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(value) -> str:
    parts: list[str] = []
    _render(value, parts, 0)
    parts.append("\n")
    return "".join(parts)


def render_csv(matrix) -> str:
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"CSV output needs a 2-D matrix, got shape {a.shape}")
    return "\n".join(_float_rows(a, ",")) + "\n"


def _load_layout(args, kind: str) -> CoronaLayout:
    factors = []
    for path in (args.g1, args.g2):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            factors.append(parse_edge_list(text))
        except EdgeListError as exc:
            raise EdgeListError(None, f"{path}: {exc}") from None
    return corona(*factors, kind)


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def layout_manifest(layout: CoronaLayout) -> dict:
    classes = []
    for v in range(layout.n):
        cls, local, owner = layout.classify(v)
        classes.append({"vertex": v, "class": cls, "local": local, "copy": owner})
    return {
        "kind": layout.kind,
        "n": layout.n,
        "n1": layout.n1,
        "n2": layout.n2,
        "m2": layout.m2,
        "classes": classes,
    }


def cmd_build(args) -> int:
    layout = _load_layout(args, args.kind)
    # the manifest is rendered only when written: to --manifest, else beside a file --out
    out = args.out if args.out not in ("", "-") else None
    _write_text(format_edge_list(layout.product), out)
    if args.manifest or out:
        _write_text(render_json(layout_manifest(layout)), args.manifest or out + ".manifest.json")
    return EXIT_OK


def cmd_resistance(args) -> int:
    if args.method == "both" and args.format == "csv":
        print("error: --method both requires --format json", file=sys.stderr)
        return EXIT_USAGE
    layout = _load_layout(args, args.kind)
    payload: dict = {
        "command": "resistance",
        "kind": args.kind,
        "method": args.method,
        "n": layout.n,
    }
    exit_code = EXIT_OK
    if args.method == "oracle":
        require_connected_product(layout, RESISTANCE_NEEDS_CONNECTED)
        payload["matrix"] = resistance_oracle(layout.product)
    elif args.method == "closed-form":
        payload["matrix"] = closed_form_resistance_matrix(layout.g1, layout.g2, args.kind)
    else:
        closed = closed_form_resistance_matrix(layout.g1, layout.g2, args.kind)
        oracle = resistance_oracle(layout.product)
        deviation = float(np.abs(closed - oracle).max()) if closed.size else 0.0
        bound = args.tolerance or ENTRY_TOL * max(1.0, float(oracle.max()))
        payload["closed_form"] = closed
        payload["oracle"] = oracle
        payload["max_deviation"] = deviation
        payload["tolerance"] = bound
        if deviation > bound:
            exit_code = EXIT_VERIFY_FAILED

    if args.format == "csv":
        _write_text(render_csv(payload["matrix"]), args.out)
    else:
        _write_text(render_json(payload), args.out)
    return exit_code


# --formula -> (product kind, closed form); the oracle takes its kind from --kind
_FORMULAS = {
    "thm4.1": ("vertex", kf_vertex_corona),
    "cor4.2": ("vertex", kf_vertex_corona_regular),
    "thm4.3": ("edge", kf_edge_corona_regular),
    "oracle": (None, None),
}


def cmd_kirchhoff(args) -> int:
    kind, closed_form = _FORMULAS[args.formula]
    if closed_form is None:
        if args.kind is None:
            print("error: --formula oracle requires --kind", file=sys.stderr)
            return EXIT_USAGE
        kind = args.kind
    elif args.kind is not None and args.kind != kind:
        print(f"error: --formula {args.formula} applies to the {kind} product", file=sys.stderr)
        return EXIT_USAGE
    layout = _load_layout(args, kind)
    # a formula's preconditions imply a connected product; the oracle alone
    # tests the product's connectivity on the factors before it builds it
    if closed_form is None:
        require_connected_product(layout, KIRCHHOFF_NEEDS_CONNECTED)
        result = oracle = kirchhoff_oracle(layout.product)
    else:
        result = closed_form(layout.g1, layout.g2)
        oracle = kirchhoff_oracle(layout.product)
    deviation = abs(result.value - oracle.value)
    bound = args.tolerance or RESIDUAL_TOL * (1.0 + abs(oracle.value))
    payload = {
        "command": "kirchhoff",
        "formula": args.formula,
        "kind": kind,
        "value": result.value,
        "method": result.method,
        "oracle": oracle.value,
        "deviation": deviation,
    }
    _write_text(render_json(payload), args.out)
    return EXIT_OK if deviation <= bound else EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    pairs: list[tuple[str, str]] = []
    if args.corpus == "builtin":
        pairs.extend(builtin_pairs())
    if args.pair:
        pairs.extend((a, b) for a, b in args.pair)
    if not pairs:
        print("error: --corpus none needs at least one --pair", file=sys.stderr)
        return EXIT_USAGE
    report = run_verification(
        pairs=pairs,
        tolerance=args.tolerance,
        include_instances=args.corpus == "builtin",
    )
    payload = {"command": "verify"}
    payload.update(report_to_dict(report))
    _write_text(render_json(payload), args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError("tolerance must be a positive finite number")
    return value


@functools.cache  # parsing leaves the parser unchanged, so in-process callers share one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coronakit",
        description="Corona products of graphs: construction, resistance distances, Kirchhoff indices and self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a product and write edge list plus layout manifest")
    b.add_argument("--kind", choices=("vertex", "edge"), required=True)
    b.add_argument("--g1", required=True, help="edge-list file for the first factor")
    b.add_argument("--g2", required=True, help="edge-list file for the second factor")
    b.add_argument("--out", help="edge-list output path (default stdout)")
    b.add_argument(
        "--manifest",
        help="manifest path; defaults to OUT.manifest.json when --out is given, '-' for stdout",
    )
    b.set_defaults(func=cmd_build)

    r = sub.add_parser("resistance", help="pairwise effective resistances of a product")
    r.add_argument("--kind", choices=("vertex", "edge"), required=True)
    r.add_argument("--g1", required=True)
    r.add_argument("--g2", required=True)
    r.add_argument("--method", choices=("oracle", "closed-form", "both"), default="oracle")
    r.add_argument("--format", choices=("json", "csv"), default="json")
    r.add_argument("--tolerance", type=_positive_float, help="bound for --method both agreement")
    r.add_argument("--out")
    r.set_defaults(func=cmd_resistance)

    k = sub.add_parser("kirchhoff", help="Kirchhoff index of a product")
    k.add_argument("--formula", choices=tuple(_FORMULAS), required=True)
    k.add_argument("--g1", required=True)
    k.add_argument("--g2", required=True)
    k.add_argument("--kind", choices=("vertex", "edge"), help="product kind (needed with --formula oracle)")
    k.add_argument("--tolerance", type=_positive_float, help="bound for closed-form vs oracle agreement")
    k.add_argument("--out")
    k.set_defaults(func=cmd_kirchhoff)

    v = sub.add_parser("verify", help="run the self-verification suite and emit a JSON report")
    v.add_argument("--corpus", choices=("builtin", "none"), default="builtin")
    v.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("G1", "G2"),
        help="extra factor pair by catalog name (K<n>, P<n>, C<n>, S<n>); repeatable",
    )
    v.add_argument("--tolerance", type=_positive_float, help="override every pass/fail bound")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (EdgeListError, OSError, ValueError) as exc:
        error, code = exc, EXIT_USAGE
    except (PreconditionError, SingularMatrixError, MemoryError) as exc:
        error, code = exc, EXIT_PRECONDITION
    except CoronaKitError as exc:
        error, code = exc, EXIT_VERIFY_FAILED
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
