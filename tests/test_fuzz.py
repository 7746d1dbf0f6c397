"""Hostile bytes and text for the parsers: ValueError (for cost tables,
CostTableError) is the only failure, and whatever parses is well formed."""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from csidhsim.action import PK_MAGIC, SK_MAGIC, PrivateKey, PublicKey
from csidhsim.params import PARAM_IDS
from csidhsim.trace import MAX_COST, OPCODE_IDS, CostTable, CostTableError


def key_files(magic):
    """Arbitrary bytes, and bytes behind the right magic and a param id."""
    known_id = st.sampled_from(sorted(PARAM_IDS.values()))
    param_id = known_id | st.integers(0, 255)
    return st.binary(max_size=80) | st.builds(
        lambda pid, body: magic + bytes([pid]) + body,
        param_id, st.binary(max_size=80))


@given(key_files(SK_MAGIC))
def test_private_key_parser_raises_only_value_error(raw):
    try:
        sk = PrivateKey.from_bytes(raw)
    except ValueError:
        return
    assert sk.to_bytes() == raw


@given(key_files(PK_MAGIC))
def test_public_key_parser_raises_only_value_error(raw):
    try:
        pk, params = PublicKey.from_bytes(raw)
    except ValueError:
        return
    assert pk.to_bytes(params) == raw


VALUES = (st.text(max_size=12) | st.integers().map(str)
          | st.floats().map(str))
LINES = st.text(max_size=30) | st.builds(
    "{}.{} = {}".format, st.sampled_from([*OPCODE_IDS, "overhead", "FOO"]),
    st.sampled_from(["fpga", "asic", "gpu"]), VALUES)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(LINES, max_size=6).map(
    lambda lines: "\n".join(lines).encode()) | st.binary(max_size=80))
def test_cost_table_parser_raises_only_value_error(tmp_path, raw):
    # CostTableError is what cli.main maps to an exit code.
    path = tmp_path / "costs.cfg"
    path.write_bytes(raw)
    try:
        table = CostTable.load(path)
    except CostTableError:
        return
    for mode, ops in table.costs.items():
        assert all(0 <= c <= MAX_COST for c in ops.values())
        assert math.isfinite(table.overhead[mode])
        assert abs(table.overhead[mode]) <= MAX_COST
