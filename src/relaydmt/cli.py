"""Command-line surface: curve generation, variant comparison, Monte Carlo
outage runs and the verify battery, with JSON/CSV output for plotting."""

from __future__ import annotations

import argparse
import itertools
import json
import math
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
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} is not start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"grid {text!r} has a non-finite start, stop or step")
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        last = (stop + 1e-9 - start) / step  # the grid is sized before it is built
        if last >= 1e6:
            raise ValueError(f"grid {text!r} has more than 1,000,000 points")
        # start + i*step, not a running sum, so long grids do not drift
        return [round(start + i * step, 12) for i in range(math.floor(last) + 1)]
    return [float(p) for p in text.split(",") if p.strip()]


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = ""
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".relaydmt-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        # name the requested path, not the hidden temp file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(args: argparse.Namespace, record, header: str, rows) -> None:
    """Write the machine output, the one place that turns a result into text:
    ``record`` as indented JSON, or ``header`` and then one CSV line per row
    (floats to 12 significant digits).  ``rows`` is only read for CSV."""
    if args.format == "json":
        text = json.dumps(record, indent=2)
    else:
        lines = (",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row)
                 for row in rows)
        text = "\n".join([header, *lines])
    text += "\n"
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _summary(args: argparse.Namespace, line: str) -> None:
    """Print a human summary line; it goes to stderr when the machine output
    takes stdout, so that stdout stays parseable."""
    print(line, file=sys.stdout if args.out else sys.stderr)


def cmd_curve(args: argparse.Namespace) -> int:
    config = AntennaConfig(args.m, args.k, args.n)
    if not args.variants:
        raise ConfigurationError("no variants requested")
    curves = [dmt_curve(config, v, args.r) for v in args.variants]
    rows = ((p.r, p.d, c.variant, config.m, config.k, config.n)
            for c in curves for p in c.points)
    _emit(args, [c.to_record() for c in curves], "r,d,variant,m,k,n", rows)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config = AntennaConfig(args.m, args.k, args.n)
    if len(args.variants) < 2:
        raise ConfigurationError("compare needs at least two variants")
    values = {v: [p.d for p in dmt_curve(config, v, args.r).points] for v in args.variants}
    gaps = {
        f"{va}|{vb}": max(abs(x - y) for x, y in zip(values[va], values[vb]))
        for va, vb in itertools.combinations(args.variants, 2)
    }
    record = {
        "config": {"m": args.m, "k": args.k, "n": args.n},
        "r_grid": args.r,
        "values": values,
        "max_gaps": gaps,
    }
    rows = zip(args.r, *(values[v] for v in args.variants))
    _emit(args, record, ",".join(["r", *args.variants]), rows)
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
    rows = ((db, e.rho, r, e.p_out, e.n_samples, e.ci_half_width)
            for db, e in zip(args.snr_db, estimates))
    _emit(args, record, "snr_db,rho,r,p_out,n_samples,ci_half_width", rows)
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

    def curve_flags(p, variants):
        antenna_flags(p)
        output_flags(p)
        p.add_argument("--variants", default=variants,
                       help="comma list from: " + ",".join(VARIANTS))
        p.add_argument("--r", default="", help="r grid, start:stop:step or comma list")

    curve_flags(sub.add_parser("curve", help="emit tradeoff curves"), "hd-dynamic")
    curve_flags(sub.add_parser("compare", help="tabulate several variants side by side"), "")

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
