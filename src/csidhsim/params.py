"""CSIDH parameter sets.

A parameter set is its small odd primes l1 < ... < ln and the private-key
exponent bound m.  Everything else is derived from them: the prime
p = 4*l1*...*ln - 1, the number of datapath words p needs, and the
Montgomery constants R = 2^W and -p^-1 mod R of the modelled ALU's
multiplier.  Field values themselves are plain residues mod p; only
`Fp.mul`, `Fp.redc` and the word-level datapath read R and -p^-1.

The built-in sets are the rows of ``PARAM_TABLE``:

* ``csidh512`` -- the standard CSIDH-512 set: the 73 smallest odd primes and
  587, m = 5.  p has 511 bits, sixteen 32-bit words.
* ``toy419``  -- p = 419 = 4*3*5*7 - 1, m = 1, one 32-bit word.  Small enough
  for exhaustive brute-force verification.
"""

from __future__ import annotations

import functools
import math

from .records import Record


# Datapath word size in bits: every operand is n_words words of this size.
WORD_BITS = 32


class ParamError(ValueError):
    """Raised when a parameter set fails its structural checks."""


class CsidhParams(Record):
    """The small odd primes, the exponent bound m (e_i in [-m, m]) and the
    values derived from them: p = 4 * prod(primes) - 1, the word count
    n_words = ceil(bitlen(p) / WORD_BITS), the width W = WORD_BITS *
    n_words, R = 2^W and pinv = -p^-1 mod R."""

    __slots__ = ("name", "primes", "m", "p", "n_words", "width", "R", "pinv")

    def __init__(self, name: str, primes: tuple[int, ...], m: int):
        if m < 1:
            raise ParamError("m must be >= 1")
        if list(primes) != sorted(set(primes)):
            raise ParamError("primes must be ascending and distinct")
        if any(l % 2 == 0 or l < 3 for l in primes):
            raise ParamError("all primes must be odd and >= 3")
        p = 4 * math.prod(primes) - 1
        n_words = -(-p.bit_length() // WORD_BITS)
        width = WORD_BITS * n_words
        R = 1 << width
        pinv = (-pow(p, -1, R)) % R
        if (p * pinv) % R != R - 1:
            raise ParamError("p * pinv != -1 mod R")
        self._init(name, primes, m, p, n_words, width, R, pinv)

    def __reduce__(self):
        """Pickle the defining fields only; unpickling derives the rest."""
        return CsidhParams, (self.name, self.primes, self.m)

    @property
    def n(self) -> int:
        return len(self.primes)

    @property
    def byte_length(self) -> int:
        """Serialized field-element size: ceil(W/8) bytes."""
        return self.width // 8


def _odd_primes_below(bound: int) -> tuple[int, ...]:
    return tuple(n for n in range(3, bound, 2)
                 if all(n % d for d in range(3, math.isqrt(n) + 1, 2)))


# name -> (key-file id, primes, m).  The id is the byte that names the set
# in a serialized key; the first row is the command line's default.
PARAM_TABLE = {
    "csidh512": (1, _odd_primes_below(374) + (587,), 5),
    "toy419": (2, (3, 5, 7), 1),
}
PARAM_IDS = {name: row[0] for name, row in PARAM_TABLE.items()}
PARAM_NAMES = {v: k for k, v in PARAM_IDS.items()}


def _build(name: str) -> CsidhParams:
    if name not in PARAM_TABLE:
        raise ParamError(f"unknown parameter set: {name!r}")
    _, primes, m = PARAM_TABLE[name]
    return CsidhParams(name, primes, m)


def csidh512_params() -> CsidhParams:
    """A freshly built CSIDH-512 set; `get_params` returns a cached one."""
    return _build("csidh512")


@functools.cache
def get_params(name: str) -> CsidhParams:
    return _build(name)
