"""Command-line front end.

Exit codes: 0 all requested checks passed, 1 a mathematical check
failed (the JSON lists every failed check), 2 bad input or usage.
Exact values serialize as "num/den" strings; floats appear only in zero
and deviation fields.  JSON output is deterministic for identical
configs apart from the version header.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import __version__
from .acceptance import run_all
from .algebra import RationalFunction, parse_rational
from .curve import CurveData, curve_from_json, curve_to_json, zeta_special_residue
from .errors import CapabilityError, DomainError, NumericError
from .groupzeta import (
    UniformityMatch,
    edge_residue,
    fe_check_group,
    group_zeta,
    group_zeta_zeros,
    uniformity_match,
)
from .numfield import ks_identity_probe, volume_table
from .purezeta import (
    MASS_DIGITS_SLACK,
    PureZetaInputs,
    bundle_counts,
    elliptic_rank2_inputs,
    fe_check_pure,
    mass_digits_estimate,
    mass_reformulated,
    mixed_numerator,
    mixed_zeta_rank2,
    partial_rank3_bracket,
    partial_rank3_identity_check,
    pure_zeta,
    rank1_inputs,
    rh_report,
    zagier_beta,
)
from .residues import residue_route_equivalence
from .rootsys import build_root_system, enumerate_weyl, parabolic_data

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INPUT = 2


def _atomic_write(path: str, data: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _emit_json(payload: dict, path: str | None) -> None:
    payload = {"version": __version__, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def emit_zero_plot_data(zeros, path: str) -> None:
    """CSV with header re_s,im_s,modulus_u,deviation, ordered rows.

    ``zeros`` holds (re_s, im_s, modulus_u, deviation) tuples; rows are
    sorted by (im_s, re_s) for deterministic output.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["re_s", "im_s", "modulus_u", "deviation"])
    for row in sorted(zeros, key=lambda r: (r[1], r[0])):
        writer.writerow([repr(x) for x in row])
    _atomic_write(path, buf.getvalue())


def _zero_rows(report) -> list[tuple[float, float, float, float]]:
    return [
        (re_s, im_s, abs(z), dev)
        for (re_s, im_s), z, dev in zip(
            report.s_coordinates, report.zeros_u, report.deviations
        )
    ]


def _rf_json(f: RationalFunction) -> dict:
    return {
        "num": [str(c) for c in f.num.coeffs],
        "den": [str(c) for c in f.den.coeffs],
        "variable": f.var,
    }


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not (UTF-8) JSON
        raise DomainError(f"cannot read {what} {path}: {exc}") from exc


def _load_curve(args) -> CurveData:
    return curve_from_json(_read_json(args.curve, "curve file"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_curve_validate(args) -> int:
    curve = _load_curve(args)
    payload = {
        "curve": curve_to_json(curve),
        "weil_check": curve.weil_numbers_check(),
        "point_counts": curve.point_counts(curve.g + 2),
        "special_value_at_1": str(zeta_special_residue(curve)),
    }
    _emit_json(payload, args.json_out)
    return EXIT_OK if payload["weil_check"] else EXIT_MATH_FAIL


def _pure_inputs(args, curve) -> PureZetaInputs:
    if args.alphas:
        if args.beta0 is None:
            raise DomainError("--beta0 required when --alphas is given")
        return PureZetaInputs.make(args.r, args.alphas, args.beta0)
    if curve.g == 1 and args.r == 2:
        return elliptic_rank2_inputs(curve)
    if curve.g == 1 and args.r == 1:
        return rank1_inputs(curve)
    raise DomainError(
        "no built-in alpha provider for this curve/rank; pass --alphas/--beta0"
    )


def cmd_pure(args) -> int:
    curve = _load_curve(args)
    inputs = _pure_inputs(args, curve)
    alpha0 = inputs.alphas[0]
    if alpha0 == 0:
        raise DomainError("alpha(0) must be nonzero")
    result = pure_zeta(curve, inputs)
    ok_fe, cert = fe_check_pure(result.zeta, curve.g, curve.q, inputs.r)
    report = rh_report(result.numerator.scale(1 / alpha0), result.Q)
    counts = bundle_counts(result.zeta, alpha0, result.Q, 2 * curve.g)
    payload = {
        "zeta_T": _rf_json(result.zeta),
        "completed_t": _rf_json(result.completed),
        "numerator": [str(c) for c in result.numerator.coeffs],
        "Q": str(result.Q),
        "fe": ok_fe,
        "fe_certificate": cert.to_json(),
        "rh": report.to_json(),
        "bundle_counts": [str(x) for x in counts],
    }
    _emit_json(payload, args.json_out)
    if args.csv_out:
        ln_q = math.log(curve.q**inputs.r)
        rows = [
            (
                -(math.log(abs(z)) / ln_q),
                math.atan2(z.imag, z.real) / ln_q,
                abs(z),
                dev,
            )
            for z, dev in zip(report.roots, report.deviations)
        ]
        emit_zero_plot_data(rows, args.csv_out)
    return EXIT_OK if ok_fe and report.verdict else EXIT_MATH_FAIL


def cmd_mass(args) -> int:
    curve = _load_curve(args)
    # refuse only a mass surely too long to print; a mass near the limit
    # is computed, and printing it refuses it if it is too long after all
    limit = sys.get_int_max_str_digits()
    if limit and mass_digits_estimate(curve, args.r) > MASS_DIGITS_SLACK * limit:
        raise CapabilityError(
            f"the rank-{args.r} mass of this curve would have more than "
            f"{limit} digits, too many to print"
        )
    zb = zagier_beta(curve, args.r, 0)
    composition_sum = str(zb)  # too long to print: refused before the second route
    mr = mass_reformulated(curve, args.r)
    payload = {
        "rank": args.r,
        "composition_sum": composition_sum,
        "reformulation": str(mr),
        "agree": zb == mr,
    }
    _emit_json(payload, args.json_out)
    return EXIT_OK if zb == mr else EXIT_MATH_FAIL


def cmd_mixed(args) -> int:
    q, n = args.q, args.N
    f = mixed_zeta_rank2(q, n)
    numer = mixed_numerator(q, n)
    identity = partial_rank3_identity_check(q, n)
    rep_mixed = rh_report(numer, q)
    rep_partial = rh_report(partial_rank3_bracket(q), q)
    payload = {
        "mixed": _rf_json(f),
        "mixed_numerator_over_alpha0": [str(c) for c in numer.coeffs],
        "mixed_rh": rep_mixed.to_json(),
        "partial_identity_exact": identity,
        "partial_bracket": [str(c) for c in partial_rank3_bracket(q).coeffs],
        "partial_rh": rep_partial.to_json(),
    }
    _emit_json(payload, args.json_out)
    return EXIT_OK if identity else EXIT_MATH_FAIL


def _group_data(type_label: str, rank: int, p: int):
    rs = build_root_system(type_label, rank)
    W = enumerate_weyl(rs)
    return rs, W, parabolic_data(rs, W, p)


def cmd_group(args) -> int:
    curve = _load_curve(args)
    rs, W, pd = _group_data(args.type, args.rank, args.p)
    z = group_zeta(curve, rs, W, pd)
    ok_fe, _ = fe_check_group(z)
    zeros = group_zeta_zeros(z)
    er = edge_residue(z)
    payload = {
        "zeta": _rf_json(z.zeta),
        "c_p": str(z.c_p),
        "normalization": [
            [k, h, m] for (k, h), m in sorted(z.normalization.items())
        ],
        "fe": ok_fe,
        "zeros": zeros.to_json(),
        "edge_residue": (
            str(er.value) if er.value is not None else
            {"order": er.order, "principal": [str(x) for x in er.principal]}
        ),
    }
    if args.type == "A":
        # inspection row: the edge residue against the bundle mass of the
        # matching rank (no equality asserted, conjectural content)
        payload["mass_for_inspection"] = str(
            zagier_beta(curve, args.rank + 1, 0)
        )
    _emit_json(payload, args.json_out)
    if args.csv_out:
        emit_zero_plot_data(_zero_rows(zeros), args.csv_out)
    return EXIT_OK if ok_fe else EXIT_MATH_FAIL


def cmd_residue_compare(args) -> int:
    curve = _load_curve(args)
    rs, W, pd = _group_data(args.type, args.rank, args.p)
    cert = residue_route_equivalence(curve, rs, W, pd)
    _emit_json({"certificate": cert.to_json()}, args.json_out)
    return EXIT_OK if cert.passed else EXIT_MATH_FAIL


def cmd_uniformity(args) -> int:
    curve = _load_curve(args)
    if args.r != 2:
        raise DomainError("uniformity matching is wired for r = 2 (A_1 pair)")
    z = group_zeta(curve, *_group_data("A", 1, 1))
    pz = pure_zeta(curve, _pure_inputs(args, curve))
    match = uniformity_match(pz.completed.retag("u"), z)
    if isinstance(match, UniformityMatch):
        _emit_json({"status": "verified", "match": match.to_json()}, args.json_out)
        return EXIT_OK
    _emit_json(
        {
            "status": "inconclusive",
            "tried": [[str(a), str(b)] for a, b in match.tried],
            "skipped_irrational": [
                [str(a), str(b)] for a, b in match.skipped
            ],
        },
        args.json_out,
    )
    return EXIT_MATH_FAIL


def cmd_numfield(args) -> int:
    payload = {
        "volumes": volume_table(args.r).to_json(),
        "reduction_probe": [
            ks_identity_probe(r) for r in range(1, min(args.r, 5) + 1)
        ],
    }
    _emit_json(payload, args.json_out)
    return EXIT_OK


def cmd_report_all(args) -> int:
    results = run_all()
    payload = {
        "criteria": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }
    _emit_json(payload, args.json_out)
    for r in results:
        sys.stderr.write(r.render() + "\n")
    return EXIT_OK if payload["passed"] else EXIT_MATH_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _flag_type(convert, expected: str, accept=lambda value: True):
    """An argparse type: ``convert`` the text and require ``accept``."""

    def parse(text: str):
        try:
            value = convert(text)
            ok = accept(value)
        except DomainError as exc:  # a value the library refuses, say too large
            raise argparse.ArgumentTypeError(str(exc)) from None
        except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


_POSITIVE_INT = _flag_type(int, "a positive integer", lambda v: v >= 1)
_RATIONAL = _flag_type(parse_rational, "a rational number")
_RATIONALS = _flag_type(
    lambda text: [parse_rational(x) for x in text.split(",")],
    "comma-separated rationals",
)

FLAGS = {
    "curve": dict(required=True, help="curve spec JSON file"),
    "type": dict(required=True, help="root system type (A, B, C, G2)"),
    "rank": dict(required=True, type=int),
    "p": dict(required=True, type=int, help="removed simple root (1-based)"),
    "r": dict(type=_POSITIVE_INT, default=2, help="bundle rank (numfield: 4)"),
    "q": dict(
        required=True, type=_flag_type(int, "a field size q >= 2", lambda v: v >= 2)
    ),
    "N": dict(required=True, type=_POSITIVE_INT, help="rational point count"),
    "alphas": dict(type=_RATIONALS, help="comma-separated rationals"),
    "beta0": dict(type=_RATIONAL, help="rational mass value"),
    "json-out": {},
    "csv-out": {},
}

# subcommand -> (handler, the flags it reads besides --config)
COMMANDS = {
    "curve-validate": (cmd_curve_validate, "curve json-out"),
    "pure": (cmd_pure, "curve r alphas beta0 json-out csv-out"),
    "mass": (cmd_mass, "curve r json-out"),
    "mixed": (cmd_mixed, "q N json-out"),
    "group": (cmd_group, "curve type rank p json-out csv-out"),
    "residue-compare": (cmd_residue_compare, "curve type rank p json-out"),
    "uniformity": (cmd_uniformity, "curve r alphas beta0 json-out"),
    "numfield": (cmd_numfield, "r json-out"),
    "report-all": (cmd_report_all, "json-out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nazeta",
        description="Exact zeta functions of curves over finite fields "
        "and their group-theoretic companions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON file of flag values")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(handler=handler)
    sub.choices["numfield"].set_defaults(r=4)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; --config keys act as flags put before the explicit ones.

    argparse keeps the last value of a repeated flag, so explicit flags win.
    """
    find_config = argparse.ArgumentParser("nazeta", add_help=False, allow_abbrev=False)
    find_config.add_argument("--config")
    config = find_config.parse_known_args(argv)[0].config
    if config:
        cfg = _read_json(config, "config file")
        if not isinstance(cfg, dict) or "config" in cfg or not all(
            type(value) in (str, int, float) for value in cfg.values()
        ):
            raise DomainError("config must map flags (not config) to strings or numbers")
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in cfg.items()]
        argv = argv[:1] + flags + argv[1:]
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.handler(args)
    except SystemExit as exc:  # from argparse: --help (0) or bad usage (2)
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except NumericError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_MATH_FAIL
    except ValueError as exc:
        # str() of an exact value past sys.get_int_max_str_digits()
        if "integer string conversion" not in str(exc):
            raise
        sys.stderr.write(f"input error: a result is too large to print: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
