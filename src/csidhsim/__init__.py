"""CSIDH key exchange over a cycle-accounted hardware datapath model."""

from .params import CsidhParams, ParamError, get_params
from .fp import FieldElement, Fp, ZeroInverse
from .mont_curve import CurveSide, InfinityAffinize, ProjCurve, ProjPoint
from .action import (ActionConfig, Drbg, FaultDetected, InvalidPeerKey,
                     InvalidPrivateKey, PrivateKey, PublicKey, RngFailure,
                     estimate_keygen, group_action_ct, group_action_vartime,
                     keygen, make_rng, random_private_key, run_action,
                     shared_secret, validate_pk)
from .trace import CostTable, CostTableError, CycleLedger, OpTrace

__version__ = "0.1.0"

__all__ = [
    "ActionConfig", "CostTable", "CostTableError", "CsidhParams",
    "CurveSide", "CycleLedger", "Drbg", "FaultDetected", "FieldElement", "Fp",
    "InfinityAffinize", "InvalidPeerKey", "InvalidPrivateKey", "OpTrace",
    "ParamError", "PrivateKey", "ProjCurve", "ProjPoint", "PublicKey",
    "RngFailure", "ZeroInverse", "estimate_keygen", "get_params",
    "group_action_ct", "group_action_vartime", "keygen", "make_rng",
    "random_private_key", "run_action", "shared_secret", "validate_pk",
    "__version__",
]
