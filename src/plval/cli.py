"""Batch command line front end with file-based I/O.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Data goes to stdout (or --output); diagnostics go to stderr.  All JSON
is canonical (sorted keys, round-trip float formatting), and verify
output is byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import plfunction as pf
from . import polytope as pt
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


@dataclass
class RunConfig:
    """Parsed invocation; unknown fields are rejected, p < n enforced."""

    subcommand: str
    input: str = None
    kernel: str = None
    output: str = None
    n: int = None
    p: float = None
    q_list: tuple = None
    s_grid: tuple = None
    seed: int = 0
    suite: str = None
    tolerance: float = None
    timing: bool = False

    def __post_init__(self):
        if self.p is not None and self.n is not None and not self.p < self.n:
            raise ValueError("need p < n, got p=%g n=%d" % (self.p, self.n))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ValueError("unknown config fields: %s" % ", ".join(unknown))
        return cls(**data)


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


def _parse_q_list(text: str) -> tuple:
    return tuple(_finite(x) for x in text.split(",") if x.strip())


def _parse_s_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("s-grid must be start:stop:step, got %r" % text)
    start, stop, step = (float(x) for x in parts)
    if step <= 0 or stop <= start:
        raise ValueError("s-grid needs stop > start and step > 0")
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
# Subcommands
# ---------------------------------------------------------------------------


def cmd_polytope(config: RunConfig) -> int:
    """Polytope JSON in, enriched JSON (facets, volume, polar volume,
    p-surface areas for the requested exponents) out."""
    P = pt.from_json_dict(_read_json(config.input))
    out = P.to_json_dict()
    out["volume"] = pt.volume(P)
    if P.origin_interior:
        out["polar_volume"] = pt.volume(pt.polar(P))
        exps = config.q_list if config.q_list else (1.0, 2.0)
        out["p_surface_areas"] = [
            {"p": p, "value": pt.p_surface_area(P, p)} for p in exps
        ]
    else:
        sys.stderr.write("origin not interior: no polar volume or p-surface areas\n")
    _emit(dumps_canonical(out), config.output)
    return 0


def cmd_norms(config: RunConfig) -> int:
    """Function JSON in, the q-norms, gradient p-norm, and Sobolev norm out."""
    f = pf.from_json_dict(_read_json(config.input))
    p = 1.0 if config.p is None else config.p
    qs = config.q_list if config.q_list else (p,)
    out = {
        "p": p,
        "q_norms": [{"q": q, "value": lq_norm(f, q)} for q in qs],
        "grad_norm": grad_p_norm(f, p),
        "sobolev_norm": sobolev_norm(f, p),
    }
    _emit(dumps_canonical(out), config.output)
    return 0


def cmd_valuate(config: RunConfig) -> int:
    """Kernel JSON + function JSON in, z(f) out; with --s-grid also the
    cone profile as CSV, which then needs --output."""
    kernel = kernel_from_json_dict(_read_json(config.kernel))
    f = pf.from_json_dict(_read_json(config.input))
    z = {"z": apply(kernel, f)}
    if config.s_grid is not None:
        if not config.output:
            raise ValueError("--s-grid profile output needs --output")
        n = f.dim if config.n is None else config.n
        start, stop, step = config.s_grid
        grid = np.arange(start, stop + 0.5 * step, step)
        prof = c_profile(kernel, pt.cube(n), grid)
        _emit(prof.to_csv(), config.output)
        sys.stdout.write(dumps_canonical(z))
    else:
        _emit(dumps_canonical(z), config.output)
    return 0


def cmd_recover(config: RunConfig) -> int:
    """Profile CSV in, tabulated kernel JSON out; growth report on stderr
    when --p is given."""
    if config.n is None:
        raise ValueError("--n (profile dimension) is required")
    with open(config.input) as fh:
        prof = CProfile.from_csv(fh.read(), config.n)
    kern = recover_kernel(prof, config.n)
    if config.p is not None:
        report = growth_check(prof, config.p)
        sys.stderr.write("growth: " + dumps_canonical(report.to_json_dict()))
    _emit(dumps_canonical(kern.to_json_dict()), config.output)
    return 0


def cmd_verify(config: RunConfig) -> int:
    """Run the selected suite or the full battery; JSONL to --output (or
    stdout) plus a CSV summary; exit 0 only with zero failures."""
    from .verify import default_battery, reports_to_jsonl, summarize_csv

    battery = default_battery(config.seed)
    if config.suite is not None:
        battery = [(name, thunk) for name, thunk in battery if name == config.suite]
        if not battery:
            raise ValueError(
                "unknown suite %r; known: %s"
                % (config.suite, ", ".join(name for name, _ in default_battery(config.seed)))
            )

    reports = [r for _, thunk in battery for r in thunk()]

    if config.tolerance is not None:
        # override: re-judge every relative comparison against the new
        # tolerance; skips and other verdicts (decay, growth) stand
        reports = [r.rejudged(config.tolerance) for r in reports]

    jsonl = reports_to_jsonl(reports, include_timing=config.timing)
    csv = summarize_csv(reports)
    if config.output:
        _emit(jsonl, config.output)
        _emit(csv, config.output + ".csv")
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


COMMANDS = {
    "polytope": cmd_polytope,
    "norms": cmd_norms,
    "valuate": cmd_valuate,
    "recover": cmd_recover,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plval",
        description="Valuations on piecewise-affine functions: compute and verify.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("polytope", help="enrich a polytope JSON file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    sp.add_argument(
        "--q-list", dest="q_list", type=_parse_q_list, help="p-surface area exponents, comma separated"
    )

    sp = sub.add_parser("norms", help="q-norms, gradient norm, Sobolev norm of a function")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    sp.add_argument("--p", type=_finite)
    sp.add_argument("--q-list", dest="q_list", type=_parse_q_list, help="norm exponents, comma separated")

    sp = sub.add_parser("valuate", help="apply a kernel to a function")
    sp.add_argument("--input", required=True)
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--output")
    sp.add_argument("--n", type=int)
    sp.add_argument("--s-grid", dest="s_grid", help="profile grid start:stop:step")

    sp = sub.add_parser("recover", help="recover a kernel from a profile CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=_finite)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--output")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--suite")
    sp.add_argument("--tolerance", type=_tolerance)
    sp.add_argument(
        "--timing",
        action="store_true",
        help="write each case's wall time (the default writes 0.0, so output is byte-identical); "
        "a case integrated in a batch takes its input's build plus an equal share of the batch",
    )

    return ap


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    data = vars(ns)
    try:
        if data.get("s_grid"):
            data["s_grid"] = _parse_s_grid(data["s_grid"])
        config = RunConfig.from_dict(data)
        return COMMANDS[config.subcommand](config)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, PLValError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def entry() -> None:
    sys.exit(main())
