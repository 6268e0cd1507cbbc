"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public relaydmt functions, in every relaydmt
module that binds them, with wrappers that count calls and accumulate wall
time (and, where asked, process CPU time).  Nothing under ``src/`` is edited;
the wrappers live only in the traced worker process.
"""

from __future__ import annotations

import statistics
import time


class Span:
    __slots__ = ("calls", "wall", "cpu", "durations", "samples", "evaluations", "inner_calls")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.durations = []
        self.samples = 0
        self.evaluations = 0
        self.inner_calls = 0


CHECK_PREFIX = "verify.check_s."


class Tracer:
    def __init__(self):
        self.spans = {}

    def span(self, key: str) -> Span:
        return self.spans.setdefault(key, Span())

    def wrap(self, key, fn, *, cpu=False, per_call=False, after=None):
        """Wrapper of ``fn`` that records into span ``key``.  ``after(span,
        args, result, calls_before)`` sees the call's result."""
        span = self.span(key)
        clock = time.perf_counter
        cpu_clock = time.process_time
        profile = self.span("core.exponent_profile")

        def traced(*args, **kwargs):
            inner0 = profile.calls
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                span.calls += 1
                span.wall += dt
                if cpu:
                    span.cpu += cpu_clock() - c0
                if per_call:
                    span.durations.append(dt)
            if after is not None:
                after(span, args, return_value, inner0)
            return return_value

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        """Wrap the public functions named below wherever ``modules`` bind them."""
        core, solvers, simulate, verify, cli = (
            modules[name] for name in ("core", "solvers", "simulate", "verify", "cli")
        )
        profile = self.span("core.exponent_profile")

        def solve_after(span, args, result, inner0):
            span.evaluations += result.evaluations
            span.inner_calls += profile.calls - inner0

        def outage_after(span, args, result, inner0):
            span.samples += result.n_samples

        targets = (
            (core, "exponent_profile", {}),
            (core, "diversity_objective", {}),
            (core, "density_exponent", {}),
            (solvers, "dmt_curve", {}),
            (solvers, "solve_two_var", {"per_call": True, "after": solve_after}),
            (solvers, "solve_general_grid", {}),
            (solvers, "solve_static_n1n", {}),
            (simulate, "outage_probability", {"cpu": True, "after": outage_after}),
            (simulate, "diversity_fit", {}),
            (simulate, "cutset_terms", {}),
            (verify, "conjecture_diagnostics", {}),
        )
        every = (core, solvers, simulate, verify, cli)
        for home, name, options in targets:
            original = getattr(home, name)
            wrapped = self.wrap(home.__name__.rsplit(".", 1)[1] + "." + name, original, **options)
            for module in every:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)

        verify.HARD_CHECKS = tuple(
            (label, self.wrap(CHECK_PREFIX + fn.__name__.removeprefix("check_"), fn))
            for label, fn in verify.HARD_CHECKS
        )
        # library calls made directly by cli.main, for cli.self_s
        for name in ("dmt_curve", "solve_two_var", "outage_probability",
                     "diversity_fit", "run_verify"):
            setattr(cli, name, self.wrap("cli.lib", getattr(cli, name)))
        cli.main = self.wrap("cli.main", cli.main)

    def metrics(self, ops: int, out_bytes: float) -> dict:
        """Per-layer figures; ``_s`` is seconds per op unless noted."""
        s = self.spans

        def per_op(key):
            return s[key].wall / ops

        def ratio(num, den):
            return num / den if den else 0.0

        solve = s["solvers.solve_two_var"]
        outage = s["simulate.outage_probability"]
        out = {
            "cli.main_s": per_op("cli.main"),
            "cli.self_s": (s["cli.main"].wall - s["cli.lib"].wall) / ops,
            "cli.out_bytes": out_bytes,
            "solvers.dmt_curve_s": per_op("solvers.dmt_curve"),
            "solvers.solve_two_var_s": statistics.median(solve.durations) if solve.durations else 0.0,
            "solvers.solve_two_var_calls": solve.calls / ops,
            "solvers.evaluations_per_solve": ratio(solve.evaluations, solve.calls),
            "solvers.solve_general_grid_s": per_op("solvers.solve_general_grid"),
            "solvers.solve_static_n1n_s": per_op("solvers.solve_static_n1n"),
            "core.exponent_profile_calls": ratio(solve.inner_calls, solve.calls),
            "core.exponent_profile_s": per_op("core.exponent_profile"),
            "core.diversity_objective_s": per_op("core.diversity_objective"),
            "core.density_exponent_s": per_op("core.density_exponent"),
            "simulate.outage_probability_s": per_op("simulate.outage_probability"),
            "simulate.samples_per_s": ratio(outage.samples, outage.wall),
            "simulate.cpu_per_wall": ratio(outage.cpu, outage.wall),
            "simulate.diversity_fit_s": per_op("simulate.diversity_fit"),
            "simulate.cutset_terms_s": per_op("simulate.cutset_terms"),
            "simulate.cutset_terms_calls": s["simulate.cutset_terms"].calls / ops,
            "verify.conjecture_diagnostics_s": per_op("verify.conjecture_diagnostics"),
        }
        for key in s:
            if key.startswith(CHECK_PREFIX):
                out[key] = per_op(key)
        return out
