"""Tradeoff curves for the single-antenna-endpoint relay channels.

Walks the (1,k,1) family against its closed form, shows how the decode-and-
forward curve peels off above r = 1/2 and the fixed-schedule curve below it,
and checks that a single-antenna relay between n-antenna endpoints behaves
exactly like one extra transmit antenna.
"""

import numpy as np

from relaydmt import (
    AntennaConfig,
    dmt_1k1,
    dmt_ddf_1k1,
    dmt_n1n,
    dmt_static_1k1,
    ptp_dmt,
    solve_static_n1n,
    solve_two_var,
)


def main():
    print("=== (1,k,1): solver vs closed form, and what the relay buys ===\n")
    grid = np.linspace(0.0, 1.0, 11)
    for k in (2, 4):
        c = AntennaConfig(1, k, 1)
        print(f"(1,{k},1)   r      solver   closed   ddf      static   ptp")
        for r in grid:
            d = solve_two_var(c, float(r)).d
            closed = dmt_1k1(k, float(r))
            ddf = dmt_ddf_1k1(k, float(r))
            static = dmt_static_1k1(k, float(r))
            print(
                f"         {r:4.1f}   {d:7.4f}  {closed:7.4f}  {ddf:7.4f}"
                f"  {static:7.4f}  {ptp_dmt(1, 1, float(r)):5.2f}"
            )
        print(
            f"  max |solver - closed| = "
            f"{max(abs(solve_two_var(c, float(r)).d - dmt_1k1(k, float(r))) for r in grid):.2e}\n"
        )

    print("note: decode-and-forward matches the optimum up to r = 1/2, then")
    print("decays as (1-r)/r. A fixed half-time schedule costs nothing above")
    print("r = 1/2 but loses below it: at (1,2,1), r = 0.25, the static curve")
    print(f"gives {dmt_static_1k1(2, 0.25):.2f} against {dmt_1k1(2, 0.25):.2f}.\n")

    print("=== (n,1,n): a single-antenna relay = one extra source antenna ===\n")
    for n in (2, 3):
        grid = np.linspace(0.0, n, 2 * n + 1)
        worst_dyn = max(
            abs(solve_two_var(AntennaConfig(n, 1, n), float(r)).d - dmt_n1n(n, float(r)))
            for r in grid
        )
        worst_stat = max(
            abs(solve_static_n1n(n, float(r)).d - dmt_n1n(n, float(r))) for r in grid
        )
        corners = ", ".join(
            f"d({j})={dmt_n1n(n, float(j)):.0f}" for j in range(n + 1)
        )
        print(f"({n},1,{n}): corner points {corners}")
        print(f"  dynamic solver gap {worst_dyn:.2e}; fixed-schedule gap {worst_stat:.2e}")
        print(f"  (both equal the {n + 1}x{n} point-to-point curve)\n")


if __name__ == "__main__":
    main()
