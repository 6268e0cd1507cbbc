"""One owner per input rule: every antenna count goes through AntennaConfig's
check, channel_rng owns the seed and stream range, simulate._check_rho owns
the SNR range and core._check_r the multiplexing gain; core._check_number
refuses a bool for both."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from relaydmt import (
    AntennaConfig,
    ConfigurationError,
    DomainError,
    VARIANTS,
    channel_rng,
    conditional_independence_check,
    cutset_terms,
    dmt_1k1,
    dmt_curve,
    dmt_ddf_1k1,
    dmt_n1n,
    dmt_static_1k1,
    dmt_symmetric_upper,
    eigen_exponents,
    exponent_profile,
    fd_dmt,
    outage_probabilities,
    outage_probability,
    ptp_dmt,
    sample_channel,
    solve_general_grid,
    solve_static,
    solve_static_n1n,
    solve_two_var,
)

# entry point -> (name of the count it is called with, call with that count)
COUNT_ENTRY_POINTS = {
    "AntennaConfig": ("k", lambda x: AntennaConfig(1, x, 1)),
    "ptp_dmt": ("nr", lambda x: ptp_dmt(2, x, 0.5)),
    "dmt_1k1": ("k", lambda x: dmt_1k1(x, 0.3)),
    "dmt_ddf_1k1": ("k", lambda x: dmt_ddf_1k1(x, 0.3)),
    "dmt_static_1k1": ("k", lambda x: dmt_static_1k1(x, 0.3)),
    "dmt_n1n": ("n", lambda x: dmt_n1n(x, 0.5)),
    "dmt_symmetric_upper": ("k", lambda x: dmt_symmetric_upper(2, x, 0.5)),
    "solve_static_n1n": ("n", lambda x: solve_static_n1n(x, 0.5)),
}


@pytest.mark.parametrize("bad", [0, 2.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_bad_count_is_a_configuration_error_naming_it(entry, bad):
    name, call = COUNT_ENTRY_POINTS[entry]
    message = f"{name} must be a positive integer, got {bad!r}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_numpy_integer_count_is_accepted(entry):
    _, call = COUNT_ENTRY_POINTS[entry]
    assert call(np.int64(2)) == call(2)


def test_config_stores_numpy_integers_as_int():
    c = AntennaConfig(np.int64(2), np.int32(3), np.uint8(2))
    assert c == AntennaConfig(2, 3, 2)
    assert all(type(x) is int for x in (c.m, c.k, c.n))


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0], ids=repr)
def test_channel_rng_refuses_seed_outside_64_bits(seed):
    with pytest.raises(DomainError, match="^seed must fit in 64 bits, got "):
        channel_rng(seed)


@pytest.mark.parametrize("stream", [1.5, -1, 2**64, True], ids=repr)
def test_channel_rng_refuses_stream_outside_64_bits(stream):
    # 1.5 used to give stream 1's generator, -1 and 2**64 a bare OverflowError
    with pytest.raises(DomainError, match=f"^stream must fit in 64 bits, got {re.escape(str(stream))}$"):
        channel_rng(0, stream)


def test_channel_rng_takes_the_whole_64_bit_stream_range():
    for stream in (0, 2**32, 2**64 - 1, np.uint64(2**64 - 1)):
        channel_rng(0, stream).standard_normal()


def test_channel_rng_takes_the_whole_64_bit_range():
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        channel_rng(seed).standard_normal()


def test_outage_probability_refuses_an_aliased_seed():
    # a masked seed 2**64 used to repeat seed 0's outage events silently
    with pytest.raises(DomainError, match="seed must fit in 64 bits"):
        outage_probability(AntennaConfig(1, 1, 1), 100.0, 0.5, 20_000, seed=2**64)


ONE = AntennaConfig(1, 1, 1)
# argument name -> call with that count (every other argument valid)
SIMULATION_COUNTS = {
    "outage n_samples": ("n_samples", lambda x: outage_probability(ONE, 100.0, 0.5, x, 1)),
    "outage workers": ("workers", lambda x: outage_probability(ONE, 100.0, 0.5, 2000, 1, workers=x)),
    "sweep n_samples": ("n_samples", lambda x: outage_probabilities(ONE, [10.0], 0.5, x, 1)),
    "independence n_samples": (
        "n_samples", lambda x: conditional_independence_check(ONE, 100.0, x, 5, 1)
    ),
    "independence n_bins": ("n_bins", lambda x: conditional_independence_check(ONE, 100.0, 5000, x, 1)),
}


@pytest.mark.parametrize("bad", [5000.5, 5000.0, 2.5, True, "5000"], ids=repr)
@pytest.mark.parametrize("entry", SIMULATION_COUNTS)
def test_bad_simulation_count_is_a_domain_error_naming_it(entry, bad):
    # 5000.5 used to raise a bare TypeError, n_bins=2.5 gave a report of 2
    # bins and workers=1.5 or True was taken silently
    name, call = SIMULATION_COUNTS[entry]
    message = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("entry", SIMULATION_COUNTS)
def test_numpy_integer_simulation_count_is_accepted(entry):
    _, call = SIMULATION_COUNTS[entry]
    value = 5 if entry == "independence n_bins" else 2 if entry == "outage workers" else 5000
    result = call(np.int64(value))
    assert result == call(value)
    # the counts are stored as int, so the result's fields serialise
    for item in result if isinstance(result, list) else [result]:
        fields = dataclasses.asdict(item)
        assert all(type(fields[key]) is int for key in ("n_samples", "n_bins") if key in fields)
        json.dumps(fields)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, 0, -1, "2"], ids=repr)
def test_bad_profile_length_is_a_domain_error_naming_it(bad):
    # 2.5 used to raise a bare TypeError and True to give the profile (0.0,)
    message = f"profile length must be a positive integer, got {bad!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        exponent_profile(1.0, bad)


def test_numpy_integer_profile_length_is_accepted():
    assert exponent_profile(1.5, np.int64(2)) == exponent_profile(1.5, 2) == (0.0, 0.5)


SAMPLE = sample_channel(ONE, channel_rng(3))
# entry point -> (its range rule, call with that SNR, every other argument valid)
SNR_ENTRY_POINTS = {
    "cutset_terms": ("be positive and finite", lambda rho: cutset_terms(SAMPLE, rho)),
    "eigen_exponents": ("exceed 1 and be finite", lambda rho: eigen_exponents(SAMPLE, rho)),
    "outage_probability": (
        "exceed 1 and be finite", lambda rho: outage_probability(ONE, rho, 0.5, 2000, 1)
    ),
    "outage_probabilities": (
        "exceed 1 and be finite", lambda rho: outage_probabilities(ONE, [10.0, rho], 0.5, 2000, 1)
    ),
    "conditional_independence_check": (
        "be positive and finite", lambda rho: conditional_independence_check(ONE, rho, 1000, 2, 1)
    ),
}


@pytest.mark.parametrize("bad", [True, False, np.True_], ids=repr)
@pytest.mark.parametrize("entry", SNR_ENTRY_POINTS)
def test_bool_snr_is_a_domain_error_naming_rho(entry, bad):
    # cutset_terms(sample, True) used to return CutsetTerms(rho=True), and
    # conditional_independence_check ran at rho = 1
    message = f"rho must be a number, not a bool, got {bad!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        SNR_ENTRY_POINTS[entry][1](bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("entry", SNR_ENTRY_POINTS)
def test_bad_snr_keeps_its_range_message(entry, bad):
    rule, call = SNR_ENTRY_POINTS[entry]
    message = f"rho must {rule}, got {bad}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_numeric_snr_types_are_accepted():
    assert cutset_terms(SAMPLE, np.float64(100.0)) == cutset_terms(SAMPLE, 100.0)
    assert cutset_terms(SAMPLE, 100).rho == 100
    assert eigen_exponents(SAMPLE, np.int64(100)) == eigen_exponents(SAMPLE, 100.0)


TWO = AntennaConfig(2, 2, 2)
# entry point -> call with that multiplexing gain, every other argument valid
R_ENTRY_POINTS = {
    "solve_two_var": lambda r: solve_two_var(TWO, r),
    "solve_static": lambda r: solve_static(TWO, r),
    "solve_general_grid": lambda r: solve_general_grid(ONE, r, 0.25),
    "solve_static_n1n": lambda r: solve_static_n1n(2, r),
    "dmt_1k1": lambda r: dmt_1k1(2, r),
    "dmt_ddf_1k1": lambda r: dmt_ddf_1k1(2, r),
    "dmt_static_1k1": lambda r: dmt_static_1k1(2, r),
    "dmt_n1n": lambda r: dmt_n1n(2, r),
    "dmt_symmetric_upper": lambda r: dmt_symmetric_upper(2, 2, r),
    "ptp_dmt": lambda r: ptp_dmt(2, 2, r),
    "fd_dmt": lambda r: fd_dmt(TWO, r),
    "dmt_curve": lambda r: dmt_curve(TWO, "fd", [0.0, r]),
    "outage_probability": lambda r: outage_probability(TWO, 100.0, r, 1000, 1),
}


@pytest.mark.parametrize("bad", [True, False, np.True_], ids=repr)
@pytest.mark.parametrize("entry", R_ENTRY_POINTS)
def test_bool_r_is_a_domain_error_naming_r(entry, bad):
    # solve_two_var(c, True) used to give the r = 1 value, dmt_curve a point
    # at r = 1.0 and outage_probability an estimate with r = True
    message = f"r must be a number, not a bool, got {bad!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        R_ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", R_ENTRY_POINTS)
def test_numeric_r_types_are_accepted(entry):
    call = R_ENTRY_POINTS[entry]
    assert call(np.float64(1.0)) == call(1) == call(1.0)


def _defined_on(config, variant) -> bool:
    try:
        dmt_curve(config, variant, [0.0])
    except ConfigurationError:
        return False
    return True


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_words_the_r_range_alike(variant):
    # hd-dynamic and hd-static used to say [0, 2.0] where the rest say [0, 2];
    # (2, 2, 2) where the variant is defined, else its (n, 1, n) or (1, k, 1) form
    forms = (TWO, AntennaConfig(2, 1, 2), AntennaConfig(1, 2, 1))
    c = next(c for c in forms if _defined_on(c, variant))
    message = f"r=3.0 outside [0, {c.max_mux}]"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        dmt_curve(c, variant, [3.0])
