"""Batch command line front end with file-based I/O.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Data goes to stdout (or --output); diagnostics go to stderr.  All JSON
is canonical (sorted keys, round-trip float formatting), and verify
output is byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import plfunction as pf
from . import polytope as pt
from . import stats, verify
from .errors import PLValError
from .integration import grad_p_norm, lq_norm, sobolev_norm
from .serialize import dumps_canonical
from .valuation import (
    CProfile,
    apply,
    c_profile,
    growth_check,
    kernel_from_json_dict,
    recover_kernel,
)


def _finite(text: str) -> float:
    """A finite number; anything else is a usage error naming the option."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text) from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError("must be finite, got %r" % text)
    return x


def _tolerance(text: str) -> float:
    x = _finite(text)
    if x < 0.0:
        raise argparse.ArgumentTypeError("must be >= 0, got %r" % text)
    return x


def _dimension(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %r" % text)
    return n


def _parse_q_list(text: str) -> tuple:
    return tuple(_finite(x) for x in text.split(",") if x.strip())


def _parse_s_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("must be start:stop:step, got %r" % text)
    start, stop, step = (_finite(x) for x in parts)
    if step <= 0 or stop <= start:
        raise argparse.ArgumentTypeError("needs stop > start and step > 0, got %r" % text)
    return start, stop, step


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(text: str, path: str = None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands, each called with the parsed options of its own subparser
# ---------------------------------------------------------------------------


def cmd_polytope(args: argparse.Namespace) -> int:
    """Polytope JSON in, enriched JSON (facets, volume, polar volume,
    p-surface areas for the requested exponents) out."""
    P = pt.from_json_dict(_read_json(args.input))
    out = P.to_json_dict()
    out["volume"] = pt.volume(P)
    if P.origin_interior:
        out["polar_volume"] = pt.volume(pt.polar(P))
        exps = args.q_list if args.q_list else (1.0, 2.0)
        out["p_surface_areas"] = [
            {"p": p, "value": pt.p_surface_area(P, p)} for p in exps
        ]
    else:
        sys.stderr.write("origin not interior: no polar volume or p-surface areas\n")
    _emit(dumps_canonical(out), args.output)
    return 0


def cmd_norms(args: argparse.Namespace) -> int:
    """Function JSON in, the q-norms, gradient p-norm, and Sobolev norm out."""
    f = pf.from_json_dict(_read_json(args.input))
    p = 1.0 if args.p is None else args.p
    qs = args.q_list if args.q_list else (p,)
    out = {
        "p": p,
        "q_norms": [{"q": q, "value": lq_norm(f, q)} for q in qs],
        "grad_norm": grad_p_norm(f, p),
        "sobolev_norm": sobolev_norm(f, p),
    }
    _emit(dumps_canonical(out), args.output)
    return 0


def cmd_valuate(args: argparse.Namespace) -> int:
    """Kernel JSON + function JSON in, z(f) out; with --s-grid also the
    cone profile as CSV, which then needs --output."""
    kernel = kernel_from_json_dict(_read_json(args.kernel))
    f = pf.from_json_dict(_read_json(args.input))
    z = {"z": apply(kernel, f)}
    if args.s_grid is not None:
        if not args.output:
            raise ValueError("--s-grid profile output needs --output")
        n = f.dim if args.n is None else args.n
        start, stop, step = args.s_grid
        grid = np.arange(start, stop + 0.5 * step, step)
        prof = c_profile(kernel, pt.cube(n), grid)
        _emit(prof.to_csv(), args.output)
        sys.stdout.write(dumps_canonical(z))
    else:
        _emit(dumps_canonical(z), args.output)
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Profile CSV in, tabulated kernel JSON out; growth report on stderr
    when --p is given."""
    if args.p is not None and not args.p < args.n:
        raise ValueError("need p < n, got p=%g n=%d" % (args.p, args.n))
    with open(args.input) as fh:
        prof = CProfile.from_csv(fh.read(), args.n)
    kern = recover_kernel(prof, args.n)
    if args.p is not None:
        report = growth_check(prof, args.p)
        sys.stderr.write("growth: " + dumps_canonical(report.to_json_dict()))
    _emit(dumps_canonical(kern.to_json_dict()), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the selected suite or the full battery; JSONL to --output (or
    stdout) plus a CSV summary, which with --timing ends in each suite's
    wall seconds, work counts, stage seconds and overlay check margins
    (plval.stats); exit 0 only with zero failures."""
    battery = verify.default_battery(args.seed)
    if args.suite is not None:
        battery = [(name, thunk) for name, thunk in battery if name == args.suite]
        if not battery:
            raise ValueError(
                "unknown suite %r; known: %s"
                % (args.suite, ", ".join(name for name, _ in verify.default_battery(args.seed)))
            )

    reports, timing = [], {}
    for name, thunk in battery:
        stats.clear()
        t0 = time.perf_counter()
        reports += thunk()
        timing[name] = [time.perf_counter() - t0] + stats.row()

    if args.tolerance is not None:
        # override: re-judge every relative comparison against the new
        # tolerance; skips and other verdicts (decay, growth) stand
        reports = [r.rejudged(args.tolerance) for r in reports]

    jsonl = verify.reports_to_jsonl(reports)
    csv = verify.summarize_csv(reports, timing if args.timing else None)
    if args.output:
        _emit(jsonl, args.output)
        _emit(csv, args.output + ".csv")
        sys.stdout.write(csv)
    else:
        sys.stdout.write(jsonl)
        sys.stderr.write(csv)
    failures = sum(1 for r in reports if r.status == "fail")
    sys.stderr.write(
        "%d cases, %d passed, %d skipped, %d failed\n"
        % (
            len(reports),
            sum(1 for r in reports if r.status == "pass"),
            sum(1 for r in reports if r.status == "skip"),
            failures,
        )
    )
    return 1 if failures else 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, so main() reuses it."""
    ap = argparse.ArgumentParser(
        prog="plval",
        description="Valuations on piecewise-affine functions: compute and verify.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("polytope", help="enrich a polytope JSON file")
    sp.set_defaults(command=cmd_polytope)
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    sp.add_argument(
        "--q-list", dest="q_list", type=_parse_q_list, help="p-surface area exponents, comma separated"
    )

    sp = sub.add_parser("norms", help="q-norms, gradient norm, Sobolev norm of a function")
    sp.set_defaults(command=cmd_norms)
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    sp.add_argument("--p", type=_finite)
    sp.add_argument("--q-list", dest="q_list", type=_parse_q_list, help="norm exponents, comma separated")

    sp = sub.add_parser("valuate", help="apply a kernel to a function")
    sp.set_defaults(command=cmd_valuate)
    sp.add_argument("--input", required=True)
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--output")
    sp.add_argument("--n", type=_dimension)
    sp.add_argument("--s-grid", dest="s_grid", type=_parse_s_grid, help="profile grid start:stop:step")

    sp = sub.add_parser("recover", help="recover a kernel from a profile CSV")
    sp.set_defaults(command=cmd_recover)
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    sp.add_argument("--n", type=_dimension, required=True)
    sp.add_argument("--p", type=_finite)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.set_defaults(command=cmd_verify)
    sp.add_argument("--output")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--suite")
    sp.add_argument("--tolerance", type=_tolerance)
    sp.add_argument(
        "--timing",
        action="store_true",
        help="add each suite's wall seconds, work counts, overlay stage seconds and overlay check margins "
        "(largest value over bound, at most 1 passes; plval.stats) to the CSV summary as last columns: %s; "
        "the JSONL is the same either way" % ", ".join(stats.COLUMNS),
    )

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.command(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, PLValError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def entry() -> None:
    sys.exit(main())
