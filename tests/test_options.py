"""Every defaulted parameter of a coralg function is set by some caller,
every CLI flag is read by its command, T is chosen in one place, and every
Equation is labelled.

An option that no call in the package, the tests or the benchmark sets is
one behaviour the code carries and nothing exercises; it should be a
constant instead.  A flag a command accepts but never reads is silently
ignored input; it should be a usage error instead.  A strong connection's
T is its extension's T, so no function takes a separate T or both an
extension and a connection or associated module that already holds it.  A
verifier reports the failures of an Equation under its label, so an
unlabelled Equation would be a nameless axiom.  A column span is taken by
``SubspaceBasis.from_columns`` in row storage, so no module reads columns
out as public scalars only to hand them back to ``exactla``.  A
``TensorSpace`` step imposes the relations of its algebra's whole basis,
formed in row storage by ``SubspaceBasis.from_balancing``: no generating
set or certificate of one is left, and the step builds no relation Mat to
subtract or hand to ``from_columns``; the build is one step on the
memoized prefix, with no loop, and an end action is pushed onto a space
one way, through its last step, not through ``leg_apply``.  An induced map has one
constructor, ``leg_apply``, with no option, one certificate, ``descend``,
and one way to read a ``kron_id`` through a quotient, ``kron_to_quotient``.
A map is restricted to a quotient by reading its columns at the free
indices, so no product has a section (``S``, ``sect``) as its right
operand; outside ``ncalg`` no product has a projection (``Q``, ``proj``)
as its left operand, so there a section only lifts a map's target and a
projection only pulls a map back or projects a vector.  An entry-wise
identity of matrices with entries in a space is one residual of Mats built
with ``exactla.kron_contract``, and ``_axpy`` is the one vector kernel: the
dense kernel ``_axpy_dense``, the entry-by-entry idempotency loop
``_non_idempotent_at`` and the list-of-lists ``counit_matrix`` are named
nowhere in ``src/coralg``.
"""

import argparse
import ast
import json
from pathlib import Path

from coralg import cli
from coralg.fixtures import fixture_document

ROOT = Path(__file__).resolve().parents[1]


def _parse(*dirs):
    return {p.relative_to(ROOT): ast.parse(p.read_text())
            for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def _defs(tree):
    """(name callers use, FunctionDef, [(param, positional index or None)])
    for every function with a defaulted parameter; ``__init__`` is called
    by its class name, and a method's self/cls takes no call argument."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and not static:
                    pos = pos[1:]
                params = [(p.arg, i) for i, p in enumerate(pos)][len(pos) - len(a.defaults):]
                params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None]
                if params:
                    name = cls.name if cls is not None and child.name == "__init__" else child.name
                    out.append((name, child, params))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _calls(tree):
    """(callee name, Call, enclosing function nodes) for every call."""
    out = []

    def visit(node, stack):
        for child in ast.iter_child_nodes(node):
            inner = stack
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = stack + (child,)
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name is not None:
                    out.append((name, child, inner))
            visit(child, inner)

    visit(tree, ())
    return out


def _sets(call, param, index):
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_option_is_set_by_some_caller():
    trees = _parse("src", "tests", "perfbench")
    calls = [c for tree in trees.values() for c in _calls(tree)]
    unset = []
    for path, tree in trees.items():
        if path.parent != Path("src/coralg"):
            continue
        for name, fdef, params in _defs(tree):
            mine = [call for callee, call, stack in calls
                    if callee == name and fdef not in stack]
            unset += [f"{path.stem}.{name}({param})" for param, index in params
                      if not any(_sets(call, param, index) for call in mine)]
    assert not unset, f"options no caller sets: {unset}"


def test_t_is_chosen_by_the_extension_only():
    doubled = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                if {"x", "sc"} <= params or {"x", "gamma"} <= params or "t_alg" in params:
                    doubled.append(f"{prefix}.{child.name}")
                visit(child, f"{prefix}.{child.name}")

    for path, tree in _parse("src/coralg").items():
        visit(tree, path.stem)
    assert not doubled, f"functions that take T apart from the extension: {doubled}"


def test_every_equation_is_labelled():
    unlabelled = []
    for path, tree in _parse("src/coralg").items():
        for name, call, _ in _calls(tree):
            label = next((k.value for k in call.keywords if k.arg == "label"), None)
            if name == "Equation" and (label is None or isinstance(label, ast.Constant)
                                       and not label.value):
                unlabelled.append(f"{path.stem}:{call.lineno}")
    assert not unlabelled, f"Equations without a label: {unlabelled}"


def _args_reads(funcs, name, seen):
    """The ``args.<name>`` reads in the cli function ``name`` and in every
    cli function it passes ``args`` to."""
    seen.add(name)
    out = set()
    for node in ast.walk(funcs[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            out.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in funcs and node.func.id not in seen \
                and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args):
            out |= _args_reads(funcs, node.func.id, seen)
    return out


def test_every_cli_flag_is_read_by_its_command():
    tree = ast.parse((ROOT / "src" / "coralg" / "cli.py").read_text())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command in cli.COMMANDS:
        declared = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
        # main reads --workspace and _emit writes --out for every command
        read = _args_reads(funcs, f"cmd_{command}", set()) | {"workspace", "out"}
        unread += [f"{command} --{dest}" for dest in sorted(declared - read)]
    assert not unread, f"flags their command does not read: {unread}"


def test_main_builds_no_parser(monkeypatch, tmp_path):
    path = tmp_path / "triv.json"
    path.write_text(json.dumps(fixture_document("FIX-TRIV")))
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(["validate", "--workspace", str(path)]) == 0
    assert cli.main(["fixture", "FIX-TRIV", "--out", str(tmp_path / "out.json")]) == 0
    assert built == []


_COLUMN_READS = ("sparse_cols", "col")
_SPAN_ENTRIES = ("from_vectors",)


def _column_span_sites(tree):
    """The calls of ``from_vectors`` that are handed ``sparse_cols()`` or
    ``.col()`` output: directly, as the elements of a list, tuple or
    comprehension, or through a name of the enclosing function bound,
    appended or extended with such output."""
    def is_read(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _COLUMN_READS

    def columns(node, names):
        if is_read(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, (ast.List, ast.Tuple)):
            return any(columns(e, names) for e in node.elts)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # the element is a column when it is one, or is a loop variable
            # drawn straight from columns
            inner = set(names)
            for gen in node.generators:
                if isinstance(gen.target, ast.Name) and columns(gen.iter, inner):
                    inner.add(gen.target.id)
            return columns(node.elt, inner)
        return False

    sites = []
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        names, grew = set(), True
        while grew:  # bindings may feed one another in any order
            grew = False
            for node in ast.walk(scope):
                bound = []
                if isinstance(node, ast.Assign):
                    bound = [(t, node.value) for t in node.targets]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in ("append", "extend") and node.args:
                    value = node.args[0]
                    if node.func.attr == "append":
                        value = ast.List(elts=[value])
                    bound = [(node.func.value, value)]
                for target, value in bound:
                    if isinstance(target, ast.Name) and target.id not in names \
                            and columns(value, names):
                        names.add(target.id)
                        grew = True
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Attribute) and node.func.attr in _SPAN_ENTRIES
                    or isinstance(node.func, ast.Name) and node.func.id in _SPAN_ENTRIES) \
                    and any(columns(a, names) for a in node.args):
                sites.append(node.lineno)
    return sorted(set(sites))


def test_column_spans_are_taken_in_row_storage():
    sites = [f"{path.stem}.py:{line}" for path, tree in _parse("src/coralg").items()
             for line in _column_span_sites(tree)]
    assert not sites, f"column spans read out as public scalars: {sites}"


_GENERATING_SET_PATH = {"balancing_words", "words_hold", "commutes", "_certificates",
                        "_word_actions", "_balancing_set", "closure_words"}


def test_tensor_space_steps_have_one_relation_path():
    left = sorted(f"{path.stem}.py:{node.lineno} {_name_of(node)}"
                  for path, tree in _parse("src/coralg").items() for node in ast.walk(tree)
                  if _name_of(node) in _GENERATING_SET_PATH)
    assert not left, f"the generating-set path is back: {left}"
    tree = ast.parse((ROOT / "src" / "coralg" / "ncalg.py").read_text())
    cls, = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TensorSpace")
    init, = (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    # a Mat is never a constant, so a subtraction without one may be of Mats
    subs = [n.lineno for n in ast.walk(init)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
            and not isinstance(n.left, ast.Constant) and not isinstance(n.right, ast.Constant)]
    spans = [n.lineno for n in ast.walk(init) if _name_of(n) == "from_columns"]
    assert not subs, f"TensorSpace.__init__ subtracts at lines {subs}"
    assert not spans, f"TensorSpace.__init__ calls from_columns at lines {spans}"


def test_a_tensor_space_is_one_step_and_pushes_actions_one_way():
    tree = ast.parse((ROOT / "src" / "coralg" / "ncalg.py").read_text())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    init, = (n for n in classes["TensorSpace"].body
             if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    loops = [n.lineno for n in ast.walk(init) if isinstance(n, (ast.For, ast.While))]
    assert not loops, f"TensorSpace.__init__ loops at lines {loops}"
    names = {_name_of(n) for n in ast.walk(classes["_OuterActions"])}
    assert "leg_apply" not in names, "_OuterActions pushes actions through leg_apply"


def _name_of(node):
    """The name a node binds or reads: a name, an attribute, a definition
    or an imported alias; None for any other node."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.alias):
        return node.asname or node.name
    return None


def _induced_map_bypasses(tree, in_ncalg):
    """The lines that go round the one constructor and the one certificate
    of induced maps: a ``check=`` handed to ``leg_apply``, the name
    ``to_quotient``, a product ``X.Q @ kron_id(...)``, a product
    ``m @ X.S`` or ``m @ X.sect`` (a map restricted to a quotient through a
    section Mat instead of at its free columns) and, outside ``ncalg``, a
    product ``X.Q @ m`` or ``X.proj @ m`` (a map projected onto a quotient
    by hand instead of by ``leg_apply`` or ``kron_to_quotient``).  A lift
    ``X.S @ m``, a pullback ``m @ X.Q`` and ``X.Q.apply(v)`` stay."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name_of(node.func) == "leg_apply" \
                and any(k.arg == "check" for k in node.keywords):
            out.append((node.lineno, "leg_apply(check=)"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            left, right = (n.attr if isinstance(n, ast.Attribute) else None
                           for n in (node.left, node.right))
            if left == "Q" and isinstance(node.right, ast.Call) \
                    and _name_of(node.right.func) == "kron_id":
                out.append((node.lineno, "Q @ kron_id"))
            if right in ("S", "sect"):
                out.append((node.lineno, f"@ {right}"))
            if left in ("Q", "proj") and not in_ncalg:
                out.append((node.lineno, f"{left} @"))
        elif _name_of(node) == "to_quotient":
            out.append((getattr(node, "lineno", None), "to_quotient"))
    return out


def test_induced_maps_have_one_constructor_and_one_certificate():
    sites = [f"{path.stem}.py:{line} {what}" for path, tree in _parse("src/coralg").items()
             for line, what in sorted(set(_induced_map_bypasses(tree, path.stem == "ncalg")),
                                      key=str)]
    assert not sites, f"induced maps built or checked around leg_apply and descend: {sites}"


_ENTRY_BY_ENTRY = ("_axpy_dense", "_non_idempotent_at", "counit_matrix")


def test_entrywise_identities_are_mat_identities():
    named = [f"{path.name}:{n} {name}"
             for path in sorted((ROOT / "src" / "coralg").rglob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             for name in _ENTRY_BY_ENTRY if name in line]
    assert not named, f"entry-by-entry kernels and checks are back: {named}"
