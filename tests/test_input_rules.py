"""One owner per input rule: every antenna count goes through AntennaConfig's
check, and channel_rng owns the seed range."""

import re

import numpy as np
import pytest

from relaydmt import (
    AntennaConfig,
    ConfigurationError,
    DomainError,
    channel_rng,
    dmt_1k1,
    dmt_ddf_1k1,
    dmt_n1n,
    dmt_static_1k1,
    dmt_symmetric_upper,
    outage_probability,
    ptp_dmt,
    solve_static_n1n,
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


def test_channel_rng_takes_the_whole_64_bit_range():
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        channel_rng(seed).standard_normal()


def test_outage_probability_refuses_an_aliased_seed():
    # a masked seed 2**64 used to repeat seed 0's outage events silently
    with pytest.raises(DomainError, match="seed must fit in 64 bits"):
        outage_probability(AntennaConfig(1, 1, 1), 100.0, 0.5, 20_000, seed=2**64)
