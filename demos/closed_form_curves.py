"""Tradeoff curves for the single-antenna-endpoint relay channels.

Walks the (1,k,1) family against its closed form, shows how the decode-and-
forward curve peels off above r = 1/2 and the fixed-schedule curve below it,
and checks that a single-antenna relay between n-antenna endpoints behaves
exactly like one extra transmit antenna.
"""

import numpy as np

from relaydmt import AntennaConfig, dmt_curve


def column(config, variant, grid):
    """d of one tradeoff variant on the r grid."""
    return np.array([p.d for p in dmt_curve(config, variant, grid).points])


def main():
    print("=== (1,k,1): solver vs closed form, and what the relay buys ===\n")
    grid = np.linspace(0.0, 1.0, 11).tolist()
    for k in (2, 4):
        c = AntennaConfig(1, k, 1)
        d, closed, ddf, static, ptp = (
            column(c, v, grid)
            for v in ("hd-dynamic", "closed-1k1", "ddf-1k1", "static-1k1", "ptp")
        )
        print(f"(1,{k},1)   r      solver   closed   ddf      static   ptp")
        for row in zip(grid, d, closed, ddf, static, ptp):
            print("         {:4.1f}   {:7.4f}  {:7.4f}  {:7.4f}  {:7.4f}  {:5.2f}".format(*row))
        print(f"  max |solver - closed| = {np.abs(d - closed).max():.2e}\n")

    static, optimum = (column(AntennaConfig(1, 2, 1), v, [0.25])[0]
                       for v in ("static-1k1", "closed-1k1"))
    print("note: decode-and-forward matches the optimum up to r = 1/2, then")
    print("decays as (1-r)/r. A fixed half-time schedule costs nothing above")
    print("r = 1/2 but loses below it: at (1,2,1), r = 0.25, the static curve")
    print(f"gives {static:.2f} against {optimum:.2f}.\n")

    print("=== (n,1,n): a single-antenna relay = one extra source antenna ===\n")
    for n in (2, 3):
        c = AntennaConfig(n, 1, n)
        grid = np.linspace(0.0, n, 2 * n + 1).tolist()
        closed = column(c, "closed-n1n", grid)
        worst_dyn, worst_stat = (
            np.abs(column(c, v, grid) - closed).max() for v in ("hd-dynamic", "hd-static")
        )
        # the grid steps by 1/2, so every other point is an integer corner
        corners = ", ".join(f"d({j})={d:.0f}" for j, d in enumerate(closed[::2]))
        print(f"({n},1,{n}): corner points {corners}")
        print(f"  dynamic solver gap {worst_dyn:.2e}; fixed-schedule gap {worst_stat:.2e}")
        print(f"  (both equal the {n + 1}x{n} point-to-point curve)\n")


if __name__ == "__main__":
    main()
