"""Command-line front end: construct, verify, cross-validate, enumerate.

Commands
--------
field-info   print the arithmetic context for q
puncture     basis of P(C) by one or both methods, optional minimum weight
construct    run one of the named polynomial families (or a custom g)
verify       recheck a serialized code record independently of its origin
sweep        per-k summary table of P(C) minimum weights for one field

Output is UTF-8 JSON (schema 1) or CSV; diagnostics go to stderr only.
JSON is the indent=2 form of the ``json`` module, written by ``_dumps``
through the C encoder, and integer arrays (a P(C) basis, a generator) from
a table of tokens, so the output bytes are those ``json`` writes.  The text
goes out as a stream of pieces, one per row of an array, each made as it is
written and never joined.
Exit codes: 0 success, 2 validation refusal (a math-level precondition),
3 enumeration cap exceeded, 4 malformed input file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone

import numpy as np

from . import constructions, grscode, linalg, puncture
from .errors import CapExceeded, MalformedInput, ValidationRefused
from .field import MAX_Q, FieldCtx, _prime_factors, make_field
from .poly import Poly

SCHEMA = 1

# the counts and caps a negative value would switch off; 0 is legal
_NONNEGATIVE_OPTIONS = ("g_samples", "min_weight_cap", "distribution_cap", "direct_cap_q", "mds_cap", "enum_cap")

SWEEP_COLUMNS = [
    "p", "h", "q", "k", "dim", "formula", "witness_weight",
    "exhaustive_weight", "mode", "agrees",
]


def _resolve_field(args: argparse.Namespace) -> FieldCtx:
    q = args.q
    if q > MAX_Q:  # before the trial division, which would run up to sqrt(q)
        raise ValidationRefused(f"q={q} exceeds the supported cap {MAX_Q}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValidationRefused(f"q={q} is not a prime power")
    return make_field(primes[0], round(math.log(q, primes[0])))


def integer(text: str) -> int:
    """The integer ``text`` spells in ASCII digits with an optional leading
    minus, and nothing else: no sign '+', no '_', no spaces, no other digits.
    As an argparse ``type=`` its name reads "invalid integer value" in a refusal."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _int_list(text: str) -> list[int]:
    if not text:
        return []
    items = text.split(",")
    if "" in items:
        raise ValidationRefused(f"empty item in the integer list {text!r}")
    try:
        return [integer(item) for item in items]
    except ValueError as exc:
        raise ValidationRefused(f"expected a comma-separated integer list, got {text!r}") from exc


def _envelope(command: str, config: dict, result: dict | list) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "config": config,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "result": result,
    }


def _emit(args: argparse.Namespace, pieces: Iterable[str]) -> None:
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.writelines(pieces)


@functools.cache
def _tokens(level: int, bound: int) -> np.ndarray:
    """',\\n' and the padding of ``level`` before each i < bound, as an object array."""
    lead = ",\n" + "  " * level
    return np.array([lead + str(i) for i in range(bound)], dtype=object)


def _int_row(tokens: np.ndarray, row: np.ndarray, level: int) -> str:
    """The JSON text of a 1-D array at ``level``: one ``join`` of its tokens."""
    if not len(row):
        return "[]"
    return f"[{''.join(tokens[row].tolist())[1:]}\n{'  ' * level}]"


def _int_array(a: np.ndarray, level: int) -> list[str] | Iterator[str]:
    """``_dumps`` of a 1-D or 2-D array of integers in 0..MAX_Q**2, one piece
    per row: a checked array's rows are made as they are written."""
    if a.dtype.kind not in "iu" or a.ndim not in (1, 2):
        raise TypeError(f"a {a.ndim}-D array of {a.dtype} is not written")
    low, top = (int(a.min()), int(a.max())) if a.size else (0, 0)
    if low < 0 or top > MAX_Q**2:
        raise TypeError(f"array entries must lie in 0..{MAX_Q**2}, got {low}..{top}")
    # a table per power-of-two bound, so the tables stay few and none passes MAX_Q**2
    bound = min(1 << top.bit_length(), MAX_Q**2 + 1)
    if a.ndim == 1:
        return [_int_row(_tokens(level + 1, bound), a, level)]
    if not len(a):
        return ["[]"]
    return _int_rows(a, level, bound)


def _int_rows(a: np.ndarray, level: int, bound: int) -> Iterator[str]:
    tokens, pad = _tokens(level + 2, bound), "  " * (level + 1)
    for i, row in enumerate(a):
        yield f"{',' if i else '['}\n{pad}{_int_row(tokens, row, level + 1)}"
    yield f"\n{pad[2:]}]"


def _dumps(obj, level: int = 0) -> str | Iterable[str]:
    """The JSON text of obj indented by two spaces: one string, or pieces to
    be written in order if obj holds a numpy array.

    The text is byte for byte what ``json`` writes with ``indent=2`` (of
    ``a.tolist()`` for an array ``a``), but any ``indent`` sends ``json`` to
    its pure-Python encoder.  Here a container whose items are all scalars
    has its body written by one C encoder call whose item separator carries
    the newline and padding; other containers recurse.  An array of
    integers in 0..MAX_Q**2 is written from a cached table of tokens
    (separator, padding and digits), one ``join`` and one piece per row,
    each row made only as the pieces are read, so a large basis is never
    held as text.  Other arrays and unsupported types raise ``TypeError``
    from this call, before any piece is read.
    """
    if isinstance(obj, dict):
        items, open_, close = obj.values(), "{", "}"
    elif isinstance(obj, (list, tuple)):
        items, open_, close = obj, "[", "]"
    elif isinstance(obj, np.ndarray):
        return _int_array(obj, level)
    else:
        return json.dumps(obj)
    if not obj:
        return open_ + close
    pad = "  " * (level + 1)
    sep = ",\n" + pad
    if {str, int, float, bool, type(None)}.issuperset(map(type, items)):
        return f"{open_}\n{pad}{json.dumps(obj, separators=(sep, ': '))[1:-1]}\n{pad[2:]}{close}"
    parts = [_dumps(item, level + 1) for item in items]
    # json.dumps({key: 0}) is '{<key as json writes it>: 0}'
    heads = [json.dumps({key: 0})[1:-4] + ": " for key in obj] if open_ == "{" else [""] * len(parts)
    if all(isinstance(part, str) for part in parts):
        return f"{open_}\n{pad}{sep.join(map(str.__add__, heads, parts))}\n{pad[2:]}{close}"
    return _container_pieces(f"{open_}\n{pad}", sep, heads, parts, f"\n{pad[2:]}{close}")


def _container_pieces(first: str, sep: str, heads: list[str], parts: list, last: str) -> Iterator[str]:
    """The pieces of a container whose items are strings or pieces."""
    yield first
    for i, (head, part) in enumerate(zip(heads, parts)):
        yield f"{sep if i else ''}{head}"
        yield from [part] if isinstance(part, str) else part
    yield last


def _emit_json(args: argparse.Namespace, command: str, config: dict, result: dict | list) -> None:
    text = _dumps(_envelope(command, config, result))
    _emit(args, [text + "\n"] if isinstance(text, str) else itertools.chain(text, ["\n"]))


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_field_info(args: argparse.Namespace) -> int:
    ctx = _resolve_field(args)
    result = {
        "p": ctx.p,
        "h": ctx.h,
        "q": ctx.q,
        "q2": ctx.q2,
        "modulus": list(ctx.modulus),
        "primitive": ctx.w.index,
        "subfield_size": ctx.q,
        "element_count": ctx.q2,
    }
    config = {"p": ctx.p, "h": ctx.h}
    _emit_json(args, "field-info", config, result)
    return 0


def cmd_puncture(args: argparse.Namespace) -> int:
    ctx = _resolve_field(args)
    k = args.k
    config = {
        "p": ctx.p, "h": ctx.h, "k": k, "method": args.method,
        "check_min_weight": args.check_min_weight, "min_weight_cap": args.min_weight_cap,
        "direct_cap_q": args.direct_cap_q, "g_samples": args.g_samples,
        "distribution": args.distribution, "distribution_cap": args.distribution_cap,
        "seed": args.seed, "threads": args.threads,
    }
    bases = {}
    if args.method in ("direct", "all"):
        bases["direct"] = puncture.puncture_direct(ctx, k, max_q=args.direct_cap_q)
    if args.method in ("u-space", "all"):
        bases["u_space"] = puncture.u_space_basis(ctx, k)
    primary = bases.get("direct") or bases["u_space"]
    result: dict = {
        "q": ctx.q,
        "k": k,
        "method": args.method,
        "dim": primary.dim,
        "expected_dim": puncture.dim_formula(ctx.q, k),
        # indices below q^2 <= 4096: a uint16 copy of the table keeps the
        # written array at 2 bytes an entry
        "basis": ctx.fq.idx_of_compact.astype(np.uint16)[primary.matrix],
    }
    if len(bases) == 2:
        result["methods_agree"] = bases["direct"].row_space_equals(bases["u_space"])
    if args.check_min_weight:
        r = puncture.min_weight_pc(ctx, k, cap=args.min_weight_cap, basis=primary)
        result["min_weight"] = {
            "value": r.weight,
            "mode": r.mode,
            "witness": r.witness.serialized() if r.witness is not None else None,
            "scanned": r.scanned,
            "note": r.note,
        }
        result["formula_value"] = r.formula
        result["agrees"] = r.agrees
    if args.distribution:
        counts = puncture.weight_distribution(ctx, k, cap=args.distribution_cap, basis=primary)
        result["weight_distribution"] = {
            str(w): int(c) for w, c in enumerate(counts) if c
        }
    if args.g_samples:
        if k > ctx.q:
            result["g_form_samples"] = {"count": 0, "all_members": True,
                                        "note": "P(C) is trivial for k > q"}
        else:
            ok = puncture.sample_g_forms(primary, args.g_samples, args.seed)
            result["g_form_samples"] = {"count": args.g_samples, "all_members": ok}
    _emit_json(args, "puncture", config, result)
    return 0


def _parse_poly(ctx: FieldCtx, text: str) -> Poly:
    return Poly.from_indices(ctx, _int_list(text))


def _parse_felts(ctx: FieldCtx, text: str | None):
    return None if text is None else [ctx.felt(i) for i in _int_list(text)]


# construct families: the builder, called with (ctx, args), and the flags as
# name -> (type, required, help), in the order the record's config echoes them
FAMILIES = {
    "example1": (
        lambda ctx, a: constructions.build_example1(ctx, a.k, a.t, _parse_poly(ctx, a.f)),
        {"k": (integer, True, "code dimension"),
         "t": (integer, True, "divisor of q+1"),
         "f": (str, True, "coefficients of f over GF(q), low degree first, as element indices")},
    ),
    "example2": (
        lambda ctx, a: constructions.build_example2(ctx, a.k, a.t, _parse_felts(ctx, a.r)),
        {"k": (integer, True, "code dimension"),
         "t": (integer, True, "divisor of q+1"),
         "r": (str, True, "elements r of GF(q)* as element indices")},
    ),
    "example3": (
        lambda ctx, a: constructions.build_example3(ctx, a.k, a.t, _parse_felts(ctx, a.r)),
        {"k": (integer, True, "code dimension"),
         "t": (integer, True, "t; t-|R| must divide q+1"),
         "r": (str, True, "inversion-closed (q+1)-st roots of unity as element indices")},
    ),
    "even-min": (
        lambda ctx, a: constructions.build_even_q_min(ctx, a.k, _parse_felts(ctx, a.r)),
        {"k": (integer, True, "code dimension, q/2 <= k <= q-1"),
         "r": (str, False, "trace-one elements (defaults to the first q-k-1)")},
    ),
    "odd-min": (
        lambda ctx, a: constructions.build_odd_q_min(ctx, a.k, _parse_felts(ctx, a.r)),
        {"k": (integer, True, "code dimension, (q+1)/2 <= k <= q-1"),
         "r": (str, False, "nonzero squares (defaults to the first q-k-1)")},
    ),
    "qsq-plus-one": (
        lambda ctx, a: constructions.build_qsq_plus_one(ctx, None if a.e is None else ctx.felt(a.e)),
        {"e": (integer, False, "element index of e (defaults to the canonical choice)")},
    ),
    "custom": (
        lambda ctx, a: constructions.build_custom(ctx, a.k, _parse_poly(ctx, a.g), ctx.felt(a.c)),
        {"k": (integer, True, "code dimension"),
         "g": (str, True, "coefficients of g, low degree first, as element indices"),
         "c": (integer, True, "element index of c in GF(q)")},
    ),
}


def cmd_construct(args: argparse.Namespace) -> int:
    ctx = _resolve_field(args)
    build, flags = FAMILIES[args.family]
    report = build(ctx, args)
    config = {"p": ctx.p, "h": ctx.h, "family": args.family}
    config.update((name, getattr(args, name)) for name in flags if getattr(args, name) is not None)
    _emit_json(args, "construct", config, report.to_dict())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.code_file, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read {args.code_file}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # also arrays nested past the recursion limit and over-long integer literals
        raise MalformedInput(f"{args.code_file} is not readable JSON: {exc}") from exc
    record = obj.get("result", obj) if isinstance(obj, dict) else None
    if not isinstance(record, dict):
        raise MalformedInput("no code record found in the file")
    code = grscode.code_from_dict(record)
    self_orth = grscode.is_hermitian_self_orthogonal(code)
    mds = grscode.mds_status(code, mds_cap=args.mds_cap, enum_cap=args.enum_cap)
    params = grscode.CodeParams.of_self_orthogonal(code) if self_orth else None
    checked = grscode.code_to_dict(code, params=params, mds=mds)
    result = {
        "q": code.ctx.q,
        "n": code.n,
        "k": code.k,
        "self_orthogonal": self_orth,
        "mds": mds,
        "params": checked["params"],
        "quantum": checked["quantum"],
    }
    claims = {}
    if "self_orthogonal" in record:
        claims["self_orthogonal"] = record["self_orthogonal"] == self_orth
    if record.get("quantum") is not None:
        claims["quantum"] = record["quantum"] == result["quantum"]
    result["matches_file"] = claims
    if args.include_generator:
        result["generator"] = code.gen
    config = {"code_file": args.code_file, "mds_cap": args.mds_cap, "enum_cap": args.enum_cap}
    _emit_json(args, "verify", config, result)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    ctx = _resolve_field(args)
    config = {
        "p": ctx.p, "h": ctx.h, "min_weight_cap": args.min_weight_cap,
        "threads": args.threads, "format": args.format,
    }
    rows = []
    for k in range(1, ctx.q + 1):
        r = puncture.min_weight_pc(ctx, k, cap=args.min_weight_cap)
        rows.append(
            {
                "p": ctx.p,
                "h": ctx.h,
                "q": ctx.q,
                "k": k,
                "dim": r.dim,
                "formula": r.formula,
                "witness_weight": r.witness_weight,
                "exhaustive_weight": r.weight if r.mode == "exhaustive" else None,
                "mode": r.mode,
                "agrees": r.agrees,
            }
        )
    if args.format == "json":
        _emit_json(args, "sweep", config, rows)
        return 0
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA}\n")
    buf.write(f"# command: sweep\n# config: {json.dumps(config)}\n")
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)  # None is written as an empty field
    _emit(args, [buf.getvalue()])
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=integer, required=True, help="q as a prime power")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one, so
    no caller may modify it; ``parse_args`` does not."""
    parser = argparse.ArgumentParser(
        prog="hermgrs",
        allow_abbrev=False,
        description="Hermitian self-orthogonal truncated generalised Reed-Solomon codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("field-info", allow_abbrev=False, help="describe the GF(q^2) arithmetic context")
    _add_field_args(p_info)
    p_info.set_defaults(func=cmd_field_info)

    p_punc = sub.add_parser("puncture", allow_abbrev=False, help="basis and minimum weight of the puncture code")
    _add_field_args(p_punc)
    p_punc.add_argument("--k", type=integer, required=True, help="dimension of the Reed-Solomon code")
    p_punc.add_argument("--method", choices=["direct", "u-space", "all"], default="all")
    p_punc.add_argument("--check-min-weight", action="store_true")
    p_punc.add_argument("--min-weight-cap", type=integer, default=linalg.SCAN_CAP)
    p_punc.add_argument("--direct-cap-q", type=integer, default=puncture.DIRECT_MAX_Q)
    p_punc.add_argument("--g-samples", type=integer, default=0,
                        help="membership-check this many random (g, c) pairs")
    p_punc.add_argument("--distribution", action="store_true",
                        help="emit the full weight distribution of P(C)")
    p_punc.add_argument("--distribution-cap", type=integer, default=linalg.DISTRIBUTION_CAP)
    p_punc.add_argument("--seed", type=integer, default=0, help="seed of the --g-samples draws")
    p_punc.set_defaults(func=cmd_puncture)

    p_cons = sub.add_parser("construct", allow_abbrev=False, help="run a polynomial construction family")
    fam = p_cons.add_subparsers(dest="family", required=True)

    for name, (_, flags) in FAMILIES.items():
        fp = fam.add_parser(name, allow_abbrev=False)
        _add_field_args(fp)
        for flag, (ftype, required, helptext) in flags.items():
            fp.add_argument(f"--{flag}", type=ftype, required=required, help=helptext)
        fp.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", allow_abbrev=False, help="recheck a serialized code record")
    p_ver.add_argument("code_file", help="JSON file produced by construct (or a bare code record)")
    p_ver.add_argument("--mds-cap", type=integer, default=grscode.MDS_CAP)
    p_ver.add_argument("--enum-cap", type=integer, default=grscode.ENUM_CAP)
    p_ver.add_argument("--include-generator", action="store_true",
                       help="embed the generator matrix (row-major element indices)")
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", allow_abbrev=False, help="P(C) minimum-weight table for k = 1..q")
    _add_field_args(p_sweep)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--min-weight-cap", type=integer, default=linalg.SCAN_CAP)
    p_sweep.set_defaults(func=cmd_sweep)

    for leaf in (p_info, p_punc, *fam.choices.values(), p_ver, p_sweep):
        leaf.add_argument("--output", default="-", help="output path, '-' for stdout")
    for leaf in (p_punc, p_ver, p_sweep):
        leaf.add_argument("--threads", type=integer, default=1,
                          help="at least 1; changes no work, as every enumeration runs on one thread")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValidationRefused(f"--threads must be at least 1, got {args.threads}")
        for name in _NONNEGATIVE_OPTIONS:
            if getattr(args, name, 0) < 0:
                flag = "--" + name.replace("_", "-")
                raise ValidationRefused(f"{flag} must be at least 0, got {getattr(args, name)}")
        return args.func(args)
    except ValidationRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MalformedInput as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
