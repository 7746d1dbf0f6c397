"""Parameter sets: derived quantities, the built-in table and ParamError."""

import pytest

from csidhsim.fp import Fp
from csidhsim.params import (PARAM_IDS, PARAM_NAMES, PARAM_TABLE, CsidhParams,
                             ParamError, get_params)

# The published CSIDH-512 prime (Castryck, Lange, Martindale, Panny, Renes,
# "CSIDH", ASIACRYPT 2018).
CSIDH512_P = int(
    "65b48e8f740f89bffc8ab0d15e3e4c4ab42d083aedc88c425afbfcc69322c9cd"
    "a7aac6c567f35507516730cc1f0b4f25c2721bf457aca8351b81b90533c6c87b", 16)


def is_probable_prime(n, bases=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
    """Miller-Rabin with fixed bases."""
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_csidh512_is_the_published_set():
    full = get_params("csidh512")
    assert full.p == CSIDH512_P
    assert (full.n, full.m, full.n_words, full.byte_length) == (74, 5, 16, 64)
    assert full.primes[-3:] == (367, 373, 587)
    assert full.p.bit_length() == 511


def test_toy419():
    toy = get_params("toy419")
    assert (toy.p, toy.n_words, toy.primes, toy.m) == (419, 1, (3, 5, 7), 1)


@pytest.mark.parametrize("name", sorted(PARAM_TABLE))
def test_table_sets_have_prime_p_and_consistent_constants(name):
    params = get_params(name)
    assert is_probable_prime(params.p)
    assert all(is_probable_prime(l) for l in params.primes)
    assert params.p.bit_length() <= params.width < params.p.bit_length() + 32
    assert params.R == 1 << params.width
    assert params.p * params.pinv % params.R == params.R - 1
    # p * pinv = -1 mod R, so (p * pinv + 1) / R is R^-1 mod p; R^2 mod p
    # maps x to x*R by one Montgomery product.
    Rinv = (params.p * params.pinv + 1) >> params.width
    assert params.R * Rinv % params.p == 1
    assert Fp(params).mul(1, params.R ** 2 % params.p) == params.R % params.p
    assert PARAM_NAMES[PARAM_IDS[name]] == name


def test_get_params_caches_one_set_per_name():
    assert get_params("toy419") is get_params("toy419")
    assert get_params("toy419") == CsidhParams("toy419", (3, 5, 7), 1)


@pytest.mark.parametrize("primes, m, message", [
    ((3, 5, 7), 0, "m must be"),
    ((5, 3, 7), 1, "ascending"),
    ((3, 5, 5, 7), 1, "distinct"),
    ((3, 4, 7), 1, "odd"),
    ((1, 3, 5), 1, ">= 3"),
])
def test_structural_checks_raise(primes, m, message):
    with pytest.raises(ParamError, match=message):
        CsidhParams("bad", primes, m)


def test_unknown_name_raises():
    with pytest.raises(ParamError, match="unknown parameter set"):
        get_params("csidh1024")
