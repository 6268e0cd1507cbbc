"""Empirics behind the exponent machinery.

Shows the cut-set rate ceiling converging to the rate level of the sampled
eigenvalue exponents as SNR grows, the support inequalities becoming binding,
and the two relay-hop eigenvalues decorrelating once the direct-link
eigenvalue is conditioned on finely enough.

The samples are one block of the simulator's batched kernels (the first block
of seed 42), so every SNR sees the same channel draws.
"""

import math

import numpy as np

from relaydmt import (
    AntennaConfig,
    ExponentTriple,
    conditional_independence_check,
    in_support,
    rate_exponent,
)
from relaydmt.simulate import _blocks, _cut_log2dets, _eigen_exponent_rows, _switch_and_rate


def main():
    config = AntennaConfig(1, 1, 1)
    n_samples = 4000
    (channels,) = _blocks(config, 42, n_samples)

    print("=== rate ceiling vs exponent rate level ===\n")
    print("      rho    median |R/log2(rho) - level|   support violations")
    for rho in (1e2, 1e4, 1e6, 1e8):
        _, rates = _switch_and_rate(*_cut_log2dets(rho, *channels))
        rows = zip(*(e.tolist() for e in _eigen_exponent_rows(rho, *channels)))
        triples = [ExponentTriple(*map(tuple, row)) for row in rows]
        devs = np.abs(rates / math.log2(rho) - [rate_exponent(t) for t in triples])
        violations = sum(not in_support(config, t, slack=0.1) for t in triples)
        print(
            f"  {rho:9.0e}        {np.median(devs):.4f}"
            f"                      {violations / n_samples:6.1%}"
        )
    print("\nboth columns shrink with SNR: the finite-SNR rate ceiling and the")
    print("support inequalities are asymptotic statements.\n")

    print("=== conditional decorrelation of the two relay hops ===\n")
    print("  samples    bins    max within-bin |corr|    shuffled control")
    reports = []
    for n, bins in [(100_000, 20), (1_000_000, 200)]:
        rep = conditional_independence_check(config, 100.0, n, bins, seed=7)
        reports.append(rep)
        print(
            f"  {n:8d}    {rep.n_bins:4d}          {rep.max_abs_corr:.4f}"
            f"               {rep.control_max_abs_corr:.4f}"
        )
    print(f"\nunconditional correlation of the two hops: {reports[0].unconditional_corr:.3f}")
    print("coarse bins leave residual correlation in the extreme bins (the")
    print("shared 1/(1+rho*lambda) factor still varies inside them); thin bins")
    print("push the paired statistic down to the shuffled-control noise floor.")


if __name__ == "__main__":
    main()
