"""Command-line surface: curve generation, variant comparison, Monte Carlo
outage runs and the verify battery, with JSON/CSV output for plotting."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .core import AntennaConfig, ConfigurationError, DomainError
# outage_probability is unused here but stays importable: perfbench/tracing.py
# wraps the library entry points by their names on this module
from .simulate import (  # noqa: F401
    InsufficientDataError,
    diversity_fit,
    outage_probabilities,
    outage_probability,
)
from .solvers import SolverRefusal, VARIANTS, dmt_curve, solve_two_var
from .verify import run_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_SOLVER_REFUSED = 3
EXIT_INSUFFICIENT_DATA = 4


def _parse_grid(text: str) -> list:
    """Parse 'start:stop:step' (stop inclusive) or a comma list of reals."""
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} is not start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        values = []
        i = 0
        # start + i*step, not a running sum, so long grids do not drift
        while start + i * step <= stop + 1e-9:
            values.append(round(start + i * step, 12))
            i += 1
        return values
    return [float(p) for p in text.split(",") if p.strip()]


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".relaydmt-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args: argparse.Namespace, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _summary(args: argparse.Namespace, line: str) -> None:
    """Print a human summary line; it goes to stderr when the machine output
    takes stdout, so that stdout stays parseable."""
    print(line, file=sys.stdout if args.out else sys.stderr)


def _curves_to_json(curves) -> str:
    return json.dumps([c.to_record() for c in curves], indent=2)


def _curves_to_csv(curves) -> str:
    rows = ["r,d,variant,m,k,n"]
    for c in curves:
        cfg = c.config
        for p in c.points:
            rows.append(f"{p.r:.12g},{p.d:.12g},{c.variant},{cfg.m},{cfg.k},{cfg.n}")
    return "\n".join(rows)


def cmd_curve(args: argparse.Namespace) -> int:
    config = AntennaConfig(args.m, args.k, args.n)
    if not args.variants:
        raise ConfigurationError("no variants requested")
    curves = [dmt_curve(config, v, args.r) for v in args.variants]
    text = _curves_to_json(curves) if args.format == "json" else _curves_to_csv(curves)
    _emit(args, text)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config = AntennaConfig(args.m, args.k, args.n)
    if len(args.variants) < 2:
        raise ConfigurationError("compare needs at least two variants")
    curves = {v: dmt_curve(config, v, args.r) for v in args.variants}
    values = {v: [p.d for p in c.points] for v, c in curves.items()}
    gaps = {}
    names = list(args.variants)
    for i, va in enumerate(names):
        for vb in names[i + 1 :]:
            gaps[f"{va}|{vb}"] = max(
                abs(x - y) for x, y in zip(values[va], values[vb])
            )
    if args.format == "json":
        text = json.dumps(
            {
                "config": {"m": args.m, "k": args.k, "n": args.n},
                "r_grid": args.r,
                "values": values,
                "max_gaps": gaps,
            },
            indent=2,
        )
    else:
        rows = ["r," + ",".join(names)]
        for i, r in enumerate(args.r):
            rows.append(
                f"{r:.12g}," + ",".join(f"{values[v][i]:.12g}" for v in names)
            )
        text = "\n".join(rows)
    _emit(args, text)
    for pair, gap in gaps.items():
        _summary(args, f"max gap {pair}: {gap:.6g}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = AntennaConfig(args.m, args.k, args.n)
    if len(args.r) != 1:
        raise DomainError("simulate needs exactly one --r value")
    r = args.r[0]
    rhos = [10.0 ** (db / 10.0) for db in args.snr_db]
    estimates = outage_probabilities(config, rhos, r, args.samples, args.seed, args.workers)
    fit = diversity_fit(estimates)
    analytic = solve_two_var(config, r).d
    record = {
        "config": {"m": args.m, "k": args.k, "n": args.n},
        "r": r,
        "seed": args.seed,
        "estimates": [
            {
                "snr_db": db,
                "rho": e.rho,
                "p_out": e.p_out,
                "n_samples": e.n_samples,
                "ci_half_width": e.ci_half_width,
            }
            for db, e in zip(args.snr_db, estimates)
        ],
        "slope": {"slope": fit.slope, "stderr": fit.stderr},
        "analytic_d": analytic,
    }
    if args.format == "json":
        text = json.dumps(record, indent=2)
    else:
        rows = ["snr_db,rho,r,p_out,n_samples,ci_half_width"]
        for db, e in zip(args.snr_db, estimates):
            rows.append(
                f"{db:.12g},{e.rho:.12g},{r:.12g},{e.p_out:.12g},"
                f"{e.n_samples},{e.ci_half_width:.12g}"
            )
        text = "\n".join(rows)
    _emit(args, text)
    _summary(
        args,
        f"fitted slope {fit.slope:.4f} (stderr {fit.stderr:.4f}), "
        f"analytic d {analytic:.4f}",
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    ok, lines = run_verify(conjectures=args.conjectures)
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaydmt",
        description="Diversity-multiplexing tradeoff curves and outage "
        "simulation for MIMO half-duplex relay channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def antenna_flags(p):
        p.add_argument("--m", type=int, default=1, help="source antennas")
        p.add_argument("--k", type=int, default=1, help="relay antennas")
        p.add_argument("--n", type=int, default=1, help="destination antennas")

    def output_flags(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default="", help="output path (default stdout)")

    p_curve = sub.add_parser("curve", help="emit tradeoff curves")
    antenna_flags(p_curve)
    output_flags(p_curve)
    p_curve.add_argument("--variants", default="hd-dynamic",
                         help="comma list from: " + ",".join(VARIANTS))
    p_curve.add_argument("--r", default="", help="r grid, start:stop:step or comma list")

    p_cmp = sub.add_parser("compare", help="tabulate several variants side by side")
    antenna_flags(p_cmp)
    output_flags(p_cmp)
    p_cmp.add_argument("--variants", default="")
    p_cmp.add_argument("--r", default="")

    p_sim = sub.add_parser("simulate", help="Monte Carlo outage and slope fit")
    antenna_flags(p_sim)
    output_flags(p_sim)
    p_sim.add_argument("--r", default="", help="single multiplexing gain")
    p_sim.add_argument("--snr-db", default="15:35:5", dest="snr_db")
    p_sim.add_argument("--samples", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="positive integer; changes neither results nor speed")

    p_ver = sub.add_parser("verify", help="run the cross-check battery")
    p_ver.add_argument("--conjectures", action="store_true",
                       help="extend the numeric-conjecture diagnostics")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # grids are parsed here, not by argparse, so that a bad one exits 2
        for name in ("r", "snr_db"):
            if hasattr(args, name):
                setattr(args, name, _parse_grid(getattr(args, name)))
        if hasattr(args, "variants"):
            args.variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        if not 0 <= getattr(args, "seed", 0) < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {args.seed}")
        handler = {
            "curve": cmd_curve,
            "compare": cmd_compare,
            "simulate": cmd_simulate,
            "verify": cmd_verify,
        }[args.command]
        return handler(args)
    except (ConfigurationError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SolverRefusal as exc:
        print(f"solver refused: {exc}", file=sys.stderr)
        return EXIT_SOLVER_REFUSED
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
