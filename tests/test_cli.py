"""Workspace documents, fixtures, commands, exit codes."""

import contextlib
import functools
import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coralg import exactla
from coralg.cli import COMMANDS, FLAGS, main
from coralg.connect import solve_strong_connection
from coralg.entwine import extension_from_grouplike
from coralg.errors import CoralgError, SchemaError
from coralg.exactla import QQ
from coralg.fixtures import (
    FIXTURE_NAMES, _extension_workspace, diagonal_subalgebra, fixture_document,
    nc_fixture, z2_graded_entwining,
)
from coralg.workspace import _fmt_mat, parse_workspace, serialize_workspace


def run_cli(tmp_path, *argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def z2_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("ws") / "z2.json"
    p.write_text(json.dumps(fixture_document("FIX-Z2")))
    return str(p)


def test_all_fixtures_parse_and_validate():
    for name in FIXTURE_NAMES:
        doc = fixture_document(name)
        ws = parse_workspace(doc)
        assert ws.validation_errors == [], f"{name}: {ws.validation_errors[:3]}"


def test_parse_serialize_roundtrip():
    for name in ("FIX-TRIV", "FIX-Z2", "FIX-NC", "FIX-FP"):
        doc = fixture_document(name)
        ws = parse_workspace(doc)
        assert serialize_workspace(ws) == doc


FIXTURE_HASHES = {"FIX-TRIV": "6123e309fbfb", "FIX-Z2": "36a6a01df3de",
                  "FIX-SW": "742ddca1fd02", "FIX-NC": "18441d6eff83",
                  "FIX-SEP": "0b9444bc6329", "FIX-FP": "defff61295a9"}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_document_hash_is_pinned(name):
    """Every built-in fixture's document is byte-identical to the pinned one."""
    doc = json.dumps(fixture_document(name))
    assert hashlib.sha256(doc.encode()).hexdigest()[:12] == FIXTURE_HASHES[name]


def test_non_prime_modulus_rejected():
    doc = fixture_document("FIX-Z2")
    doc["field"] = {"kind": "prime-field", "p": 6}
    with pytest.raises(SchemaError) as exc:
        parse_workspace(doc)
    assert "field.p" in str(exc.value)


def test_schema_error_paths():
    doc = fixture_document("FIX-Z2")
    del doc["algebras"]["A"]["unit"]
    with pytest.raises(SchemaError) as exc:
        parse_workspace(doc)
    assert "algebras.A" in str(exc.value)


def test_cli_fixture_emission(tmp_path):
    out = tmp_path / "doc.json"
    code, _ = run_cli(tmp_path, "fixture", "FIX-TRIV", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["field"]["kind"] == "rationals"
    code, _ = run_cli(tmp_path, "fixture", "FIX-NOPE")
    assert code == 2


def test_cli_validate_and_galois(tmp_path, z2_path):
    code, out = run_cli(tmp_path, "validate", "--workspace", z2_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"]["valid"]
    code, out = run_cli(tmp_path, "galois", "--workspace", z2_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"]["galois"]
    assert "can_inv" in rep["payload"]


def test_cli_validate_corrupted_psi(tmp_path):
    doc = fixture_document("FIX-Z2")
    doc["entwinings"]["psi"]["psi"][0][1] = "7"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out = run_cli(tmp_path, "validate", "--workspace", str(p))
    assert code == 1
    rep = json.loads(out)
    assert not rep["verdicts"]["valid"]
    assert rep["residuals"]
    # computation commands refuse invalid workspaces
    code, _ = run_cli(tmp_path, "galois", "--workspace", str(p))
    assert code == 2


def test_cli_coinvariants_and_connection(tmp_path, z2_path):
    code, out = run_cli(tmp_path, "coinvariants", "--workspace", z2_path)
    assert code == 0
    assert json.loads(out)["payload"]["dim"] == 1
    code, out = run_cli(tmp_path, "connection", "solve", "--workspace", z2_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"]["exists"] and rep["payload"]["freedom"] == 0
    code, out = run_cli(tmp_path, "connection", "verify", "--workspace", z2_path,
                        "--connection", "ell")
    assert code == 0
    assert json.loads(out)["verdicts"]["strong_connection"]


def test_cli_integral_tflat_hc(tmp_path, z2_path):
    code, out = run_cli(tmp_path, "integral", "--workspace", z2_path)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"]["relative_injective"]
    assert rep["payload"]["j"][0][0] == "1"
    code, out = run_cli(tmp_path, "tflat", "--workspace", z2_path)
    assert code == 0
    code, out = run_cli(tmp_path, "hc", "--workspace", z2_path, "--degree", "4")
    assert code == 0
    assert json.loads(out)["payload"]["dims"] == [1, 0, 1, 0, 1]


def test_cli_chg_and_compare(tmp_path, z2_path):
    code, out = run_cli(tmp_path, "chg", "--workspace", z2_path,
                        "--degree", "1", "--coidempotent", "e1")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"]["cycle"]
    assert any(v != "0" for v in rep["payload"]["class"])
    code, out = run_cli(tmp_path, "idempotent", "--workspace", z2_path,
                        "--coidempotent", "e1")
    assert code == 0
    assert json.loads(out)["payload"]["size"] == 1
    code, out = run_cli(tmp_path, "compare", "--workspace", z2_path,
                        "--coidempotent", "e1")
    assert code == 0
    assert json.loads(out)["verdicts"]["chain_equality"]


def test_cli_non_galois_exit_code(tmp_path):
    # x^2 = 0 variant: integral exists but galois fails with exit 1
    ent = z2_graded_entwining(QQ, square=0)
    x = extension_from_grouplike(ent, [QQ.one, QQ.zero])
    ws = _extension_workspace(ent, x, "T", ())
    p = tmp_path / "x20.json"
    p.write_text(json.dumps(serialize_workspace(ws)))
    code, out = run_cli(tmp_path, "galois", "--workspace", str(p))
    assert code == 1
    assert not json.loads(out)["verdicts"]["galois"]


def test_cli_unknown_names_are_input_errors(tmp_path, z2_path):
    code, _ = run_cli(tmp_path, "galois", "--workspace", z2_path, "--T", "nope")
    assert code == 2
    for command in ("chg", "idempotent", "compare"):
        code, _ = run_cli(tmp_path, command, "--workspace", z2_path,
                          "--coidempotent", "nope")
        assert code == 2


@pytest.mark.parametrize("argv,flag", [
    (["validate", "--T", "nope", "--degree", "7"], "--T"),
    (["galois", "--coidempotent", "zzz", "--degree", "9"], "--coidempotent"),
    (["connection", "solve", "--connection", "ell"], "--connection"),
    (["hc", "--degree", "-3"], "--degree"),
    (["hc", "--degree", "x"], "--degree"),
    (["chg", "--degree", "-1", "--coidempotent", "e1"], "--degree"),
    (["chg", "--degree", "1"], "--coidempotent"),
    (["idempotent"], "--coidempotent"),
    (["compare"], "--coidempotent"),
], ids=["validate-unread", "galois-unread", "solve-connection", "degree-negative",
        "degree-text", "chg-degree-negative", "chg-no-coidempotent",
        "idempotent-no-coidempotent", "compare-no-coidempotent"])
def test_unread_bad_or_missing_flags_are_usage_errors(capsys, z2_path, argv, flag):
    at = 2 if argv[0] == "connection" else 1
    code = main(argv[:at] + ["--workspace", z2_path] + argv[at:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error:") and flag in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("t_name", ["S", "X"])
@pytest.mark.parametrize("command", ["coinvariants", "galois", "integral", "tflat", "hc"])
def test_T_outside_the_coinvariants_is_an_input_error(tmp_path, capsys, command, t_name):
    doc = fixture_document("FIX-Z2")
    # S: a subalgebra of R, not of A; X: spanned by x, a subalgebra of A not inside B = k.1
    doc["subalgebras"]["S"] = {"of": "R", "basis": [["1"]]}
    doc["subalgebras"]["X"] = {"of": "A", "basis": [["0", "1"]]}
    p = tmp_path / "z2_sx.json"
    p.write_text(json.dumps(doc))
    code = main([command, "--workspace", str(p), "--T", t_name])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error:") and f"subalgebras.{t_name}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scalar", ["malformed-json", "not-an-object", "1/0", "abc", 1.5],
                         ids=["json", "list", "div0", "abc", "float"])
def test_cli_malformed_inputs_are_input_errors(tmp_path, capsys, scalar):
    doc = fixture_document("FIX-Z2")
    if scalar == "malformed-json":
        text = json.dumps(doc)[:-40]
    elif scalar == "not-an-object":
        text = json.dumps([doc])
    else:
        doc["algebras"]["A"]["unit"][0] = scalar
        text = json.dumps(doc)
    p = tmp_path / "bad.json"
    p.write_text(text)
    code = main(["validate", "--workspace", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["workspace-is-a-directory", "not-utf-8", "out-is-a-directory"])
def test_unreadable_or_unwritable_paths_are_input_errors(tmp_path, capsys, z2_path, case):
    argv = ["validate", "--workspace", z2_path]
    if case == "workspace-is-a-directory":
        argv[2] = str(tmp_path)
    elif case == "not-utf-8":
        p = tmp_path / "not-utf-8.json"
        p.write_bytes(b"\xff" + json.dumps(fixture_document("FIX-Z2")).encode())
        argv[2] = str(p)
    else:
        argv += ["--out", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_coring_over_an_algebra_the_carrier_lacks_is_an_input_error(tmp_path, capsys):
    doc = fixture_document("FIX-Z2")
    doc["corings"]["C"]["over"] = "A"
    p = tmp_path / "over_a.json"
    p.write_text(json.dumps(doc))
    code = main(["validate", "--workspace", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error:" in err and "corings.C" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fixture", ["FIX-Z2", "FIX-FP"])
def test_coaction_on_another_algebra_is_an_input_error(tmp_path, capsys, fixture):
    doc = fixture_document(fixture)
    doc["coactions"]["rho"]["module"] = "R"
    p = tmp_path / "module_r.json"
    p.write_text(json.dumps(doc))
    code = main(["validate", "--workspace", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "input error:" in err and "coactions.rho.module" in err
    assert "Traceback" not in err


def test_report_determinism(tmp_path, z2_path):
    _, out1 = run_cli(tmp_path, "chg", "--workspace", z2_path,
                      "--degree", "1", "--coidempotent", "e1")
    _, out2 = run_cli(tmp_path, "chg", "--workspace", z2_path,
                      "--degree", "1", "--coidempotent", "e1")
    assert out1 == out2


@pytest.mark.parametrize("key,value,command", [
    ("memory_guard", "abc", "validate"),
    ("memory_guard", 1.5, "validate"),
    ("memory_guard", True, "validate"),
    ("memory_guard", 0, "validate"),
    ("max_degree", "x", "hc"),
    ("max_degree", 1.5, "hc"),
], ids=["guard-str", "guard-float", "guard-bool", "guard-zero", "degree-str", "degree-float"])
def test_cli_options_must_be_positive_integers(tmp_path, capsys, key, value, command):
    doc = fixture_document("FIX-Z2")
    doc["options"] = {key: value}
    p = tmp_path / "opts.json"
    p.write_text(json.dumps(doc))
    code = main([command, "--workspace", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"options.{key}" in err
    assert "Traceback" not in err


def test_cli_memory_guard_is_scoped_to_the_command(tmp_path, capsys):
    before = exactla.DIMENSION_GUARD
    doc = fixture_document("FIX-Z2")
    doc["options"] = {"memory_guard": 3}
    p = tmp_path / "tiny_guard.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", "--workspace", str(p)]) == 1
    assert "> 3" in capsys.readouterr().err
    assert exactla.DIMENSION_GUARD == before
    exactla.guard_dim(10)  # no MemoryGuard from the last workspace


def test_stored_connection_runs_over_its_own_T(tmp_path, capsys):
    # FIX-NC with a connection solved over diag, stored with "T": "diag"
    fix = nc_fixture(QQ)
    x = fix["extension"]
    diag, incl = diagonal_subalgebra(x.entwining.ring)
    sc, _ = solve_strong_connection(x.with_T(
        [incl.apply(diag.basis_vector(i)) for i in range(diag.dim)]))
    doc = fixture_document("FIX-NC")
    doc["connections"] = {"ld": {"extension": "rho", "T": "diag",
                                 "matrix": _fmt_mat(QQ, sc.ell)}}
    p = tmp_path / "nc-ld.json"
    p.write_text(json.dumps(doc))
    ws = ["--workspace", str(p)]
    assert main(["validate"] + ws) == 0
    capsys.readouterr()
    assert main(["connection", "verify", "--connection", "ld"] + ws) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["strong_connection"]
    assert main(["idempotent", "--connection", "ld", "--coidempotent", "e"] + ws) == 0
    capsys.readouterr()
    assert main(["connection", "verify", "--T", "T", "--connection", "ld"] + ws) == 2
    assert "connections.ld.T" in capsys.readouterr().err


FUZZ_FIXTURES = ("FIX-TRIV", "FIX-Z2", "FIX-SEP", "FIX-SW")
FUZZ_VALUES = ("x", 7, -1, 0, True, None, [], {}, "1/0")


def _paths(node, prefix=()):
    """Every key and index path into a JSON document, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@functools.cache
def _fuzz_text(name):
    return json.dumps(fixture_document(name))


@settings(deadline=None, derandomize=True, max_examples=250,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_keep_the_exit_contract(tmp_path, data):
    # one field of a fixture deleted or replaced by a value of the wrong type
    doc = json.loads(_fuzz_text(data.draw(st.sampled_from(FUZZ_FIXTURES))))
    *parents, key = data.draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for k in parents:
        node = node[k]
    mutation = data.draw(st.sampled_from(("delete",) + FUZZ_VALUES))
    if mutation == "delete":
        del node[key]
    else:
        node[key] = mutation
    p = tmp_path / "mutated.json"
    p.write_text(json.dumps(doc))
    for command in ("validate", "galois"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--workspace", str(p)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert "input error:" in err.getvalue()
    try:
        ws = parse_workspace(doc)
    except CoralgError:
        return
    if not ws.validation_errors:
        once = serialize_workspace(ws)
        assert serialize_workspace(parse_workspace(once)) == once


ARGV_COMMANDS = [c for c in COMMANDS if c != "connection"] + \
    ["connection solve", "connection verify"]
REFERENCE_SECTIONS = {"T": "subalgebras", "coidempotent": "coidempotents",
                      "connection": "connections"}


def _flags_read(command):
    name, *mode = command.split()
    return [f for f in COMMANDS[name][1] if not (mode == ["solve"] and f == "connection")]


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    for name in FIXTURE_NAMES:
        (d / f"{name}.json").write_text(_fuzz_text(name))
    return {name: str(d / f"{name}.json") for name in FIXTURE_NAMES}


@settings(deadline=None, derandomize=True, max_examples=200)
@given(data=st.data())
def test_argv_keeps_the_exit_contract(fixture_paths, data):
    # each reference flag names an entry of another section of the document,
    # --degree lies in [-3, 3], and at most one flag the command does not read
    fixture = data.draw(st.sampled_from(FIXTURE_NAMES))
    command = data.draw(st.sampled_from(
        [c for c in ARGV_COMMANDS if fixture != "FIX-NC" or c not in ("chg", "hc")]))
    doc = json.loads(_fuzz_text(fixture))
    names = [(section, name) for section, entries in doc.items()
             if section not in ("field", "options") for name in entries]
    argv = command.split() + ["--workspace", fixture_paths[fixture]]

    def value(flag):
        if flag == "degree":
            return str(data.draw(st.integers(-3, 3)))
        return data.draw(st.sampled_from(
            [n for s, n in names if s != REFERENCE_SECTIONS[flag]]))

    read = _flags_read(command)
    for flag in read:
        if flag == "coidempotent" or data.draw(st.booleans()):
            argv += [f"--{flag}", value(flag)]
    others = [f for f in FLAGS if f not in read]
    unread = data.draw(st.sampled_from(others)) if others and data.draw(st.booleans()) else None
    if unread is not None:
        argv += [f"--{unread}", value(unread)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("input error:"), argv
    if unread is not None:
        assert code == 2, argv
