"""Static rules on the package source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import csidhsim
from csidhsim import trace
from csidhsim.fp import Fp
from csidhsim.params import CsidhParams

SRC = Path(csidhsim.__file__).parent


def test_src_has_no_assert_statements():
    # `python -O` strips asserts, so runtime invariants must raise explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_src_has_no_imports_inside_functions():
    # A function-level import hides a dependency (and any import cycle it
    # papers over) from the top of the module.
    found = [f"{path.name}:{inner.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_import_loads_no_heavy_stdlib_module():
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, which
    # took about 40% of a cold start's import time; the package's records
    # are `__slots__` classes and need none of them.  `-S` skips the site
    # hooks, so only the package's own imports count.
    code = ("import sys\n"
            "import csidhsim, csidhsim.cli, csidhsim.datapath, csidhsim.oracle\n"
            "print(' '.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=60).stdout.split()
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    assert [name for name in heavy if name in loaded] == []


def test_every_opcode_is_emitted():
    # An opcode that Fp never records in a trace is dead weight in the
    # trace format and the cost table.
    tree = ast.parse((SRC / "fp.py").read_text())
    fp_class = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "Fp")
    recorded = {name.id for call in ast.walk(fp_class)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "_record"
                for arg in call.args for name in ast.walk(arg)
                if isinstance(name, ast.Name) and name.id.startswith("OP_")}
    emitted = {getattr(trace, name) for name in recorded}
    assert [name for op, name in sorted(trace.OPCODE_NAMES.items())
            if op not in emitted] == []


def _imported_modules(node):
    """Module names an import statement names; relative ones keep their dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return []


def test_oracle_imports_no_production_module():
    # The oracle is the independent reference the production code is checked
    # against; importing from the package would let a bug agree with itself.
    tree = ast.parse((SRC / "oracle.py").read_text())
    found = [f"oracle.py:{node.lineno} {name}"
             for node in ast.walk(tree) for name in _imported_modules(node)
             if name.startswith(".") or name.split(".")[0] == "csidhsim"]
    assert found == []


def _module_level_nodes(tree):
    """Nodes evaluated when the module is imported: everything but the
    bodies of functions and lambdas (their defaults and decorators count)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += [node.args, *node.decorator_list]
        elif isinstance(node, ast.Lambda):
            stack.append(node.args)
        else:
            stack += ast.iter_child_nodes(node)


def _names_cache(node):
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(
        node, "id", None)
    return name in ("cache", "lru_cache")


def test_oracle_keeps_no_state_across_calls():
    # toy-verify repeats the same 27 keys, so a memo or a module-level table
    # in the oracle would turn a benchmark gain into a cache hit and let a
    # result computed once stand in for every later check.
    tree = ast.parse((SRC / "oracle.py").read_text())
    found = [f"oracle.py:{node.lineno} {name}"
             for node in ast.walk(tree) for name in _imported_modules(node)
             if name.split(".")[0] == "functools"]
    found += [f"oracle.py:{dec.lineno} @{ast.unparse(dec)}"
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              for dec in node.decorator_list if _names_cache(dec)]
    found += [f"oracle.py:{node.lineno} {ast.unparse(node)}"
              for node in _module_level_nodes(tree)
              if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                   ast.ListComp, ast.SetComp))
              or (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("dict", "list", "set"))]
    assert found == []


def _action_functions():
    tree = ast.parse((SRC / "action.py").read_text())
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_ct_loops_compute_no_cofactor():
    # The ct loops take every cofactor and clearing scalar from
    # `ct_schedule`, so the schedule stays their one source.
    funcs = _action_functions()
    found = [f"action.py:{call.lineno} {ast.unparse(call)}"
             for name in ("group_action_ct", "_ct_round")
             for call in ast.walk(funcs[name])
             if isinstance(call, ast.Call)
             and ast.unparse(call.func) in ("math.prod", "prod")]
    assert found == []


def test_ct_round_selects_no_point_by_expression():
    # The round keeps its two points in one side-indexed pair, so the key
    # picks a point by index alone: no conditional expression swaps them.
    funcs = _action_functions()
    found = [f"action.py:{node.lineno} {ast.unparse(node)}"
             for name in ("_ct_round", "_sample_pair")
             for node in ast.walk(funcs[name]) if isinstance(node, ast.IfExp)]
    assert found == []


def test_ct_action_keeps_no_per_prime_counter():
    # A ct slot is real exactly when its round is below |e_i|, so the
    # action reads the key's flags per round and counts nothing down: no
    # in-place update of a subscript, such as `remaining[idx] -= 1`.
    funcs = _action_functions()
    found = [f"action.py:{node.lineno} {ast.unparse(node)}"
             for name in ("group_action_ct", "_ct_round")
             for node in ast.walk(funcs[name])
             if isinstance(node, ast.AugAssign)
             and isinstance(node.target, ast.Subscript)]
    assert found == []


def _is_trace_buffer(node):
    return isinstance(node, ast.Attribute) and node.attr in ("trace", "buf")


def test_only_fp_writes_trace_bytes():
    # `Fp` records every op with its module tag and is what `mark`/
    # `rollback` undo, so an op template (`Fp.issue`) or a slice of the
    # buffer written anywhere else would bypass both.  `trace.py`
    # defines the buffer and only reads it (`OpTrace.dump`, `CycleLedger`).
    # Any method call on a buffer, subscript of it, in-place update of it
    # or alias to it counts.
    found = [f"{path.name}:{node.lineno} {ast.unparse(node)}"
             for path in sorted(SRC.glob("*.py"))
             if path.name not in ("fp.py", "trace.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and _is_trace_buffer(node.func.value))
             or (isinstance(node, ast.Subscript)
                 and _is_trace_buffer(node.value))
             or (isinstance(node, ast.AugAssign)
                 and _is_trace_buffer(node.target))
             or (isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
                 and _is_trace_buffer(node.value))]
    assert found == []


def test_montgomery_arithmetic_stays_in_fp_and_datapath():
    # Curve, isogeny and action values are residues mod p.  The Montgomery
    # product and reduction (`Fp.mul`, `Fp.redc`) and the constants they
    # need (R, -p^-1 mod R, W) belong to `fp` and `datapath`, where the
    # modelled ALU's arithmetic is checked.
    found = [f"{name}:{node.lineno} {ast.unparse(node)}"
             for name in ("mont_curve.py", "isogeny.py", "action.py",
                          "cli.py")
             for node in ast.walk(ast.parse((SRC / name).read_text()))
             if (isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("mul", "redc"))
             or (isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and node.attr in ("R", "pinv", "width"))]
    assert found == []


def test_every_params_field_and_fp_slot_is_read():
    # A field or slot that nothing reads is dead configuration.  Each must
    # be read as an attribute somewhere in the package, by name; the value
    # of an assignment to a same-named attribute (`self.x = params.x`) only
    # forwards it and does not count.
    names = set(CsidhParams.__slots__)
    assert names == {"name", "primes", "m", "p", "n_words", "width", "R",
                     "pinv"}
    names |= set(Fp.__slots__)
    read = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        forwarded = {id(node.value) for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     and isinstance(node.value, ast.Attribute)
                     and any(isinstance(target, ast.Attribute)
                             and target.attr == node.value.attr
                             for target in node.targets)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)
                 and id(node) not in forwarded}
    assert sorted(names - read) == []


def test_op_templates_are_tagged_at_import():
    # Every op template is its trace bytes, tagged once when its module is
    # imported, so no function body tags opcodes: no `tag_ops` call and no
    # `bytes.translate` through a table.  `translate(None, delete)` only
    # deletes bytes and tags none.
    found = [f"{path.name}:{call.lineno} {ast.unparse(call)}"
             for path in sorted(SRC.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for stmt in func.body for call in ast.walk(stmt)
             if isinstance(call, ast.Call)
             and (ast.unparse(call.func).split(".")[-1] == "tag_ops"
                  or (isinstance(call.func, ast.Attribute)
                      and call.func.attr == "translate"
                      and not (call.args
                               and isinstance(call.args[0], ast.Constant)
                               and call.args[0].value is None)))]
    assert sorted(set(found)) == []
