"""Monte Carlo outage curve against the analytic diversity order.

Estimates the outage probability of the cut-set rate ceiling over an SNR
sweep, fits the log-log slope, and compares it with the solver's diversity
order.  Sample counts are kept modest so the demo runs in seconds; expect
the fitted slope to sit a little below the asymptotic value at these SNRs.
"""

from relaydmt import AntennaConfig, diversity_fit, outage_probabilities, solve_two_var


def main():
    config = AntennaConfig(1, 2, 1)
    r = 0.75
    samples = 200_000
    seed = 7

    print(f"config (1,2,1), multiplexing gain r = {r}, {samples} samples/point\n")
    print("  SNR(dB)      rho        p_out      95% CI     events")
    snr_db = (15, 20, 25, 30, 35)
    rhos = [10 ** (db / 10) for db in snr_db]
    estimates = outage_probabilities(config, rhos, r, samples, seed=seed)
    for db, est in zip(snr_db, estimates):
        print(
            f"   {db:5.1f}  {est.rho:9.1f}  {est.p_out:.3e}  "
            f"±{est.ci_half_width:.1e}  {est.events:7d}"
        )

    fit = diversity_fit(estimates)
    analytic = solve_two_var(config, r).d
    print(f"\nfitted slope : {fit.slope:.3f}  (stderr {fit.stderr:.3f})")
    print(f"analytic d   : {analytic:.3f}")
    print("\nthe slope approaches the analytic order from below as the SNR")
    print("window moves up; rerun with more samples and higher SNR to tighten.")


if __name__ == "__main__":
    main()
