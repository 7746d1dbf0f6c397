"""The benchmark's per-layer tracer still finds what it wraps in the library.

`perfbench/layers.Tracer` patches functions of `action`, `isogeny` and
`mont_curve` by name; a rename there would break `run.py --trace 1`.
`run.py` also times `params.csidh512_params` for `params.load_s`.
"""

import importlib.util
from pathlib import Path

from csidhsim import action, isogeny, mont_curve, params
from csidhsim.action import ActionConfig, make_rng, random_private_key
from csidhsim.params import get_params

TOY = get_params("toy419")
LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_count_the_pinned_keygen():
    # The traced run also wraps the untraced ct action of shared_secret, so
    # its trace.ops hook must get a sized (empty) trace from it.
    originals = (action.keygen, action.shared_secret, action.group_action_ct,
                 action._kernel_ok, action.xmul, isogeny.xmul,
                 mont_curve.xdbladd)
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        sk = random_private_key(TOY, make_rng(b"acceptance-sk-0"))
        pk, trace = action.keygen(sk, TOY,
                                  make_rng(b"acceptance-shared-seed"))
        action.shared_secret(sk, pk, TOY, make_rng(b"dh"))
    finally:
        tracer.uninstall()
    assert pk.A == 6
    counts = tracer.counts
    assert counts["group_action_ct"] == 2
    assert counts["trace.ops"] == len(trace) > 0
    assert counts["ladder_steps"] == counts["xdbladd"] > 0
    assert counts["kernel_ok"] > 0
    assert (action.keygen, action.shared_secret, action.group_action_ct,
            action._kernel_ok, action.xmul, isogeny.xmul,
            mont_curve.xdbladd) == originals


def test_tracer_hooks_count_the_vartime_exchange():
    # The vartime-exchange workload's path: both actions are the vartime
    # one, and it hands the trace.ops hook nothing to count.
    originals = (action.keygen, action.shared_secret,
                 action.group_action_ct, action.group_action_vartime)
    cfg = ActionConfig(constant_time=False)
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        sk = random_private_key(TOY, make_rng(b"acceptance-sk-0"))
        pk, trace = action.keygen(sk, TOY,
                                  make_rng(b"acceptance-shared-seed"), cfg)
        action.shared_secret(sk, pk, TOY, make_rng(b"dh"), cfg)
    finally:
        tracer.uninstall()
    assert pk.A == 6 and trace is None
    counts = tracer.counts
    assert counts["group_action_vartime"] == 2
    assert counts["group_action_ct"] == 0
    assert counts["trace.ops"] == 0
    assert (action.keygen, action.shared_secret, action.group_action_ct,
            action.group_action_vartime) == originals


def test_csidh512_params_builds_a_fresh_set():
    # measure_params_load times a build, not a cache lookup.
    built = params.csidh512_params()
    assert built == get_params("csidh512")
    assert built is not get_params("csidh512")
    assert built is not params.csidh512_params()
