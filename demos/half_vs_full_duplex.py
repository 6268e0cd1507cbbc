"""When does the half-duplex constraint actually cost diversity?

Three experiments: a config class where half duplex is free (m > n >= k),
one where it visibly is not (strong relay between symmetric endpoints), and
the saturation effect where extra relay antennas stop helping a half-duplex
relay at high multiplexing gains while they always help a full-duplex one.
"""

import numpy as np

from relaydmt import AntennaConfig, dmt_curve


def column(mkn, variant, grid):
    """d of one tradeoff variant of (m,k,n) on the r grid."""
    return np.array([p.d for p in dmt_curve(AntennaConfig(*mkn), variant, grid).points])


def main():
    print("=== half duplex is free when m > n >= k ===\n")
    grid = np.linspace(0, 2, 9).tolist()
    for mkn in [(3, 2, 2), (3, 1, 2)]:
        worst = np.abs(column(mkn, "hd-dynamic", grid) - column(mkn, "fd", grid)).max()
        print(f"{mkn}: max |hd - fd| over the grid = {worst:.2e}")
    print()

    print("=== ... and visibly not when the relay is strong ===\n")
    print("(2,3,2)    r     half-duplex  full-duplex   penalty")
    hd, fd = (column((2, 3, 2), v, grid) for v in ("hd-dynamic", "fd"))
    for r, h, f in zip(grid, hd, fd):
        print(f"        {r:5.2f}   {h:10.4f}   {f:10.4f}   {f - h:8.4f}")
    print()

    print("=== relay antennas saturate under the half-duplex constraint ===\n")
    print("   r    hd(2,3,2)  hd(2,4,2)  fd(2,3,2)  fd(2,4,2)")
    grid = np.linspace(0.5, 2.0, 7).tolist()
    rows = zip(grid, *(column(mkn, v, grid) for v in ("hd-dynamic", "fd")
                       for mkn in ((2, 3, 2), (2, 4, 2))))
    for row in rows:
        print("  {:4.2f}  {:9.4f}  {:9.4f}  {:9.4f}  {:9.4f}".format(*row))
    print("\nabove r = 1 the fourth relay antenna moves the full-duplex curve")
    print("but not the half-duplex one.\n")

    print("=== pinned-level bound vs the solver on symmetric configs ===\n")
    for mkn in [(2, 2, 2), (2, 3, 2)]:
        grid = np.linspace(0, mkn[0], 17).tolist()
        worst = np.abs(
            column(mkn, "symmetric-upper", grid) - column(mkn, "hd-dynamic", grid)
        ).max()
        print("({},{},{}): max |bound - solver| = {:.2e}  (numerically tight)".format(*mkn, worst))


if __name__ == "__main__":
    main()
