"""CSIDH parameter sets.

A parameter set fixes the prime p = 4*l1*...*ln - 1, the list of small odd
primes, the private-key exponent bound m, and the Montgomery-domain constants
(R = 2^W, R^2 mod p, -p^-1 mod R) used by the word-level arithmetic.

Two sets are provided:

* ``toy419``  -- p = 419 = 4*3*5*7 - 1, m = 1, one 32-bit word.  Small enough
  for exhaustive brute-force verification.
* ``csidh512`` -- the standard 74-prime CSIDH-512 set, loaded from a
  checked-in constants file and re-verified on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources


# Datapath word size in bits: every operand is n_words words of this size.
WORD_BITS = 32


class ParamError(ValueError):
    """Raised when a parameter set fails its structural checks."""


@dataclass(frozen=True)
class CsidhParams:
    name: str
    p: int
    primes: tuple[int, ...]
    m: int                      # exponent bound: e_i in [-m, m]
    n_words: int = 16
    # derived Montgomery constants, filled in __post_init__
    width: int = field(init=False, default=0)        # W = WORD_BITS * n_words
    R: int = field(init=False, default=0)            # 2^W
    R2: int = field(init=False, default=0)           # R^2 mod p
    pinv: int = field(init=False, default=0)         # -p^-1 mod R
    one_m: int = field(init=False, default=0)        # R mod p (Montgomery 1)

    def __post_init__(self):
        if self.m < 1:
            raise ParamError("m must be >= 1")
        if list(self.primes) != sorted(set(self.primes)):
            raise ParamError("primes must be ascending and distinct")
        if any(l % 2 == 0 or l < 3 for l in self.primes):
            raise ParamError("all primes must be odd and >= 3")
        if self.p != 4 * math.prod(self.primes) - 1:
            raise ParamError("p != 4 * prod(primes) - 1")
        width = WORD_BITS * self.n_words
        if self.p.bit_length() > width:
            raise ParamError("p does not fit in n_words words")
        R = 1 << width
        pinv = (-pow(self.p, -1, R)) % R
        if (self.p * pinv) % R != R - 1:
            raise ParamError("p * pinv != -1 mod R")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "R2", R * R % self.p)
        object.__setattr__(self, "pinv", pinv)
        object.__setattr__(self, "one_m", R % self.p)

    @property
    def n(self) -> int:
        return len(self.primes)

    @property
    def byte_length(self) -> int:
        """Serialized field-element size: ceil(W/8) bytes."""
        return self.width // 8


def toy_params() -> CsidhParams:
    """p = 419, primes {3, 5, 7}, m = 1.  One 32-bit word."""
    return CsidhParams(name="toy419", p=419, primes=(3, 5, 7), m=1, n_words=1)


def csidh512_params() -> CsidhParams:
    """The CSIDH-512 set: 74 primes (3 .. 373 and 587), m = 5."""
    text = resources.files("csidhsim.data").joinpath("csidh512.json").read_text()
    data = json.loads(text)
    primes = tuple(data["primes"])
    p = int(data["p_hex"], 16)
    params = CsidhParams(name="csidh512", p=p, primes=primes,
                         m=data["exponent_bound"],
                         n_words=data["n_words"])
    if params.n != 74 or params.m != 5:
        raise ParamError("csidh512 constants file is inconsistent")
    return params


_PARAM_CACHE: dict[str, CsidhParams] = {}

PARAM_IDS = {"csidh512": 1, "toy419": 2}
PARAM_NAMES = {v: k for k, v in PARAM_IDS.items()}


def get_params(name: str) -> CsidhParams:
    if name not in _PARAM_CACHE:
        if name == "toy419":
            _PARAM_CACHE[name] = toy_params()
        elif name == "csidh512":
            _PARAM_CACHE[name] = csidh512_params()
        else:
            raise ParamError(f"unknown parameter set: {name!r}")
    return _PARAM_CACHE[name]
