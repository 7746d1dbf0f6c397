"""Per-layer tracing for the traced benchmark run.

Nothing inside ``src/`` changes: :class:`Tracer` swaps wrappers in for public
functions where their callers look them up (``action`` and ``isogeny`` bind
``xmul``/``xisog``/``xtwist`` with ``from ... import``; ``Fp`` methods are
looked up on the class) and puts the originals back afterwards.

Coarse boundaries record spans (id, parent id, name, layer, start, end).
``Fp`` methods, ``xdbladd`` and ``xtwist`` run millions of times per keygen,
so they only count calls and add to their layer's self time.  A layer's self
time is the time of its spans minus the time of the spans and aggregated
calls nested inside them.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

from csidhsim import action, datapath, isogeny, mont_curve, oracle
from csidhsim import trace as trace_mod
from csidhsim.fp import Fp

clock = time.perf_counter

_EXCHANGES = "ct-exchange, vartime-exchange"
_FIELD = (f"op_s.p50 (keygen_s.p50, dh_s.p50) on {_EXCHANGES}; "
          "op_s.p50 (keys_verified_per_s) on toy-verify")
_CT_KEYGEN = "op_s.p50 (keygen_s.p50) on ct-exchange"
_ESTIMATE = "ops_per_s (estimate_s.p50) on ct-exchange"

# name, unit, better, the end-to-end metric (and the detailed report metric
# in parentheses) it should move, on which workloads.
PER_LAYER = (
    ("params.load_s", "s", "lower", "setup_s on all"),
    ("fp.mul.calls", "count", "lower", _FIELD),
    ("fp.add.calls", "count", "lower", _FIELD),
    ("fp.sub.calls", "count", "lower", _FIELD),
    ("fp.inv.calls", "count", "lower", _FIELD),
    ("fp.is_square.calls", "count", "lower", _FIELD),
    ("fp.self_s", "s", "lower", _FIELD),
    ("fp.mul.shadow_share", "ratio", "lower", _CT_KEYGEN),
    ("mont_curve.xmul.calls", "count", "lower", f"op_s.p50 on {_EXCHANGES}"),
    ("mont_curve.ladder_steps", "count", "lower", f"op_s.p50 on {_EXCHANGES}"),
    ("mont_curve.xdbladd.calls", "count", "lower", f"op_s.p50 on {_EXCHANGES}"),
    ("mont_curve.xtwist.calls", "count", "lower", f"op_s.p50 on {_EXCHANGES}"),
    ("mont_curve.self_s", "s", "lower", f"op_s.p50 on {_EXCHANGES}"),
    ("isogeny.xisog.calls", "count", "lower", f"op_s.p50 on {_EXCHANGES}"),
    ("isogeny.kernel_multiples", "count", "lower", f"op_s.p50 on {_EXCHANGES}"),
    ("isogeny.self_s", "s", "lower", f"op_s.p50 on {_EXCHANGES}"),
    ("action.ct_round.calls", "count", "lower", _CT_KEYGEN),
    ("action.self_s", "s", "lower", _CT_KEYGEN),
    ("action.sample_point.accept_ratio", "ratio", "higher", _CT_KEYGEN),
    ("action.kernel_ok.accept_ratio", "ratio", "higher", _CT_KEYGEN),
    ("action.validate_pk_s", "s", "lower",
     f"op_s.p50 (dh_s.p50) on {_EXCHANGES}"),
    ("trace.ops", "count", "lower",
     "ops_per_s (estimate_s.p50, sim_ops_per_s) on ct-exchange"),
    ("trace.ledger_s", "s", "lower", _ESTIMATE),
    ("trace.dump_s", "s", "lower", _ESTIMATE),
    ("trace.dump_bytes", "bytes", "lower", _ESTIMATE),
    ("oracle.brute_action_s", "s", "lower",
     "op_s.p50, ops_per_s (keys_verified_per_s) on toy-verify"),
    ("datapath.mont_mul_dp.calls", "count", "lower",
     "op_s.p50, ops_per_s (dp_checks_per_s) on datapath-verify"),
    ("datapath.mul_wide.calls", "count", "lower",
     "op_s.p50, ops_per_s (dp_checks_per_s) on datapath-verify"),
    ("datapath.booth.calls", "count", "lower",
     "op_s.p50, ops_per_s (dp_checks_per_s) on datapath-verify"),
    ("datapath.self_s", "s", "lower",
     "op_s.p50, ops_per_s (dp_checks_per_s) on datapath-verify"),
    ("tracing.overhead_s", "s", "lower", "none: traced minus untraced pass"),
    ("tracing.overhead_share", "ratio", "lower",
     "none: overhead over the untraced pass"),
)


class Tracer:
    """Spans, call counts and per-layer self time of one traced pass."""

    def __init__(self):
        self.spans = []                       # (id, parent, name, layer, t0, t1)
        self.counts = Counter()
        self.self_s = defaultdict(float)      # layer -> self seconds
        self.total_s = defaultdict(float)     # region name -> inclusive seconds
        self._stack = []                      # open regions: [span id, child s]
        self._ids = iter(range(1, 1 << 62))
        self._fp_depth = [0]                  # shared by every Fp wrapper
        self._in_ct = [0]                     # open ct group actions
        self._undo = []

    # --- wrappers ---

    def _region(self, fn, name, layer, record=True, before=None, after=None):
        """Wrap `fn` as a timed region; `record` also keeps it as a span."""
        stack, counts, self_s, total_s = (self._stack, self.counts,
                                          self.self_s, self.total_s)
        spans, ids = self.spans, self._ids

        def wrapped(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [next(ids) if record else parent, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
                if record:
                    spans.append((frame[0], parent, name, layer, t0, t1))
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapped

    def _fp_op(self, fn, name):
        """Count an Fp method and add its outermost calls to fp self time;
        Fp methods only call other Fp methods, so a depth flag suffices.

        A call is shadow work when it runs on an untraced context inside a
        ct group action (rejection sampling and kernel repair)."""
        stack, counts, self_s = self._stack, self.counts, self.self_s
        depth, in_ct = self._fp_depth, self._in_ct
        shadow = name + ".shadow"

        def wrapped(fp, *args):
            counts[name] += 1
            if fp.trace is None and in_ct[0]:
                counts[shadow] += 1
            if depth[0]:
                return fn(fp, *args)
            depth[0] = 1
            t0 = clock()
            try:
                return fn(fp, *args)
            finally:
                dur = clock() - t0
                depth[0] = 0
                self_s["fp"] += dur
                if stack:
                    stack[-1][1] += dur
        return wrapped

    # --- installing ---

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        counts = self.counts
        region, patch = self._region, self._patch

        def ladder(args, kwargs):
            k = args[2]
            bound = kwargs.get("bound_bits", args[4] if len(args) > 4 else None)
            counts["ladder_steps"] += bound if bound is not None else max(
                k.bit_length(), 1)

        def kernel(args, kwargs):
            l = args[4] if len(args) > 4 else kwargs["l"]
            counts["kernel_multiples"] += (l - 1) // 2

        sampling = {}

        def sample_before(args, kwargs):
            sampling["xtwist"] = counts["xtwist"]
            sampling["shadow"] = kwargs.get(
                "shadow", args[4] if len(args) > 4 else None)

        def sample_after(args, kwargs, result):
            # With a shadow context the accepted candidate is classified once
            # more on the traced context; that is not a new candidate.
            classified = counts["xtwist"] - sampling["xtwist"]
            if sampling["shadow"] is not None:
                classified -= 1
            counts["sample_point.candidates"] += classified

        def kernel_ok_after(args, kwargs, result):
            counts["kernel_ok.accepted"] += bool(result)

        def ct_trace(args, kwargs, result):
            counts["trace.ops"] += len(result[2])

        def dump_size(args, kwargs, result):
            counts["trace.dump_bytes"] += os.path.getsize(args[1])

        for attr in ("keygen", "shared_secret", "group_action_vartime",
                     "validate_pk"):
            patch(action, attr, region(getattr(action, attr), attr, "action"))
        ct_action = region(action.group_action_ct, "group_action_ct",
                           "action", after=ct_trace)
        in_ct = self._in_ct

        def group_action_ct(*args, **kwargs):
            in_ct[0] += 1
            try:
                return ct_action(*args, **kwargs)
            finally:
                in_ct[0] -= 1
        patch(action, "group_action_ct", group_action_ct)
        patch(action, "_ct_round", region(action._ct_round, "ct_round",
                                          "action"))
        patch(action, "sample_point", region(
            action.sample_point, "sample_point", "action", record=False,
            before=sample_before, after=sample_after))
        patch(action, "_kernel_ok", region(
            action._kernel_ok, "kernel_ok", "action", record=False,
            after=kernel_ok_after))
        patch(action, "xisog", region(action.xisog, "xisog", "isogeny",
                                      before=kernel))
        for owner in (action, isogeny):
            patch(owner, "xmul", region(owner.xmul, "xmul", "mont_curve",
                                        before=ladder))
        patch(mont_curve, "xdbladd", region(mont_curve.xdbladd, "xdbladd",
                                            "mont_curve", record=False))
        patch(action, "xtwist", region(action.xtwist, "xtwist", "mont_curve",
                                       record=False))
        for attr in ("mul", "add", "sub", "redc", "inv", "is_square"):
            patch(Fp, attr, self._fp_op(vars(Fp)[attr], "fp." + attr))

        patch(trace_mod.OpTrace, "dump", region(
            trace_mod.OpTrace.dump, "dump", "trace", after=dump_size))
        patch(trace_mod.CycleLedger, "__init__", region(
            trace_mod.CycleLedger.__init__, "ledger", "trace"))
        patch(trace_mod.CycleLedger, "total_cycles", region(
            trace_mod.CycleLedger.total_cycles, "ledger", "trace"))
        patch(oracle, "brute_group_action", region(
            oracle.brute_group_action, "brute_group_action", "oracle"))
        for attr in ("mont_mul_dp_int", "mul_wide", "csel_add", "csel_sub",
                     "booth_mul", "masked_issue"):
            patch(datapath, attr, region(getattr(datapath, attr), attr,
                                         "datapath"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- results ---

    def metrics(self, load_s: float, traced_s: float,
                untraced_s: float) -> dict:
        """Every PER_LAYER metric as {name: value}."""
        c, total_s = self.counts, self.total_s

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "params.load_s": load_s,
            "fp.mul.shadow_share": ratio(c["fp.mul.shadow"], c["fp.mul"]),
            "mont_curve.ladder_steps": c["ladder_steps"],
            "isogeny.kernel_multiples": c["kernel_multiples"],
            "action.ct_round.calls": c["ct_round"],
            "action.sample_point.accept_ratio": ratio(
                c["sample_point"], c["sample_point.candidates"]),
            "action.kernel_ok.accept_ratio": ratio(
                c["kernel_ok.accepted"], c["kernel_ok"]),
            "action.validate_pk_s": total_s["validate_pk"],
            "trace.ops": c["trace.ops"],
            "trace.ledger_s": total_s["ledger"],
            "trace.dump_s": total_s["dump"],
            "trace.dump_bytes": c["trace.dump_bytes"],
            "oracle.brute_action_s": total_s["brute_group_action"],
            "datapath.mont_mul_dp.calls": c["mont_mul_dp_int"],
            "datapath.mul_wide.calls": c["mul_wide"],
            "datapath.booth.calls": c["booth_mul"],
            "tracing.overhead_s": traced_s - untraced_s,
            "tracing.overhead_share": ratio(traced_s - untraced_s, untraced_s),
        }
        for op in ("mul", "add", "sub", "inv", "is_square"):
            values[f"fp.{op}.calls"] = c["fp." + op]
        for fn in ("xmul", "xdbladd", "xtwist"):
            values[f"mont_curve.{fn}.calls"] = c[fn]
        values["isogeny.xisog.calls"] = c["xisog"]
        for layer in ("fp", "mont_curve", "isogeny", "action", "datapath"):
            values[f"{layer}.self_s"] = self.self_s[layer]
        return {name: values[name] for name, *_ in PER_LAYER}
