"""Command line interface: workspace commands and machine-readable reports.

Each command takes ``--workspace``, ``--out`` and only the ``FLAGS`` its
handler reads (``COMMANDS``); ``connection solve`` does not read
``--connection``.  Any other flag is a usage error.

Exit codes: 0 = all verdicts pass, 1 = a mathematical verdict is negative,
2 = input error (usage error, schema violation, failed structure validator,
unknown command/fixture, a workspace that is not UTF-8 text, a path that
cannot be read or written; stderr starts with ``input error:``).  Reports are
deterministic for identical inputs; timing goes to stderr only.
"""

import argparse
import json
import sys
import time

from . import exactla
from .errors import CoralgError, SchemaError, UnknownFixture, ValidationError
from .entwine import canonical_maps
from .connect import (
    StrongConnection, solve_strong_connection, tflatness_check, total_integral,
    verify_strong_connection,
)
from .cyclic import cyclic_complex, homology
from .cherngalois import (
    assemble_and_class, chg_components, compare_chg_ch, idempotent_e,
    local_dual_system, solve_b_t_retraction,
)
from .fixtures import FIXTURE_NAMES, fixture_document
from .workspace import parse_workspace, workspace_options, _fmt_mat, _fmt_vec


def _load(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(path, f"malformed JSON: {exc}")


def _emit(report, out):
    text = json.dumps(report, indent=2, sort_keys=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _coidempotent(ws, args):
    name = args.coidempotent
    if name not in ws.coidempotents:
        raise SchemaError(f"coidempotents.{name}", "unknown coidempotent")
    return ws.coidempotents[name]


def _fail_list(failures):
    return [{"axiom": ax, "location": list(loc) if isinstance(loc, tuple) else loc}
            for ax, loc in failures]


def cmd_validate(ws, args):
    residuals = [{"structure": e.structure, **_fail_list([(e.axiom, e.location)])[0]}
                 for e in ws.validation_errors]
    return {"verdicts": {"valid": not residuals}, "residuals": residuals}, \
        0 if not residuals else 1


def cmd_coinvariants(ws, args):
    x = ws.extension(t_name=args.T)
    basis = [_fmt_vec(ws.field, x.incl_B.apply(x.B.basis_vector(i)))
             for i in range(x.B.dim)]
    return {"verdicts": {}, "payload": {"dim": x.B.dim, "basis": basis}}, 0


def cmd_galois(ws, args):
    x = ws.extension(t_name=args.T)
    res = canonical_maps(x)
    rep = {"verdicts": {"galois": res["galois"]},
           "payload": {"can": _fmt_mat(ws.field, res["can"])}}
    if res["can_inv"] is not None:
        rep["payload"]["can_inv"] = _fmt_mat(ws.field, res["can_inv"])
    return rep, 0 if res["galois"] else 1


def _connection(ws, args):
    """The stored connection ``--connection`` over its own T, or a solved
    connection over ``--T``."""
    name = args.connection
    if name:
        if name not in ws.connections:
            raise SchemaError(f"connections.{name}", "unknown connection")
        _, tname, mat = ws.connections[name]
        if args.T is not None and args.T != tname:
            raise SchemaError(f"connections.{name}.T",
                              f"the connection is over {tname or 'k.1'}, not --T {args.T}")
        return StrongConnection(ws.extension(t_name=tname), mat)
    sc, _ = solve_strong_connection(ws.extension(t_name=args.T))
    if sc is None:
        raise CoralgError("no strong connection exists")
    return sc


def cmd_connection(ws, args):
    if args.mode == "solve":
        if args.connection is not None:
            raise SchemaError("--connection", "read by `connection verify` only")
        sc, sol = solve_strong_connection(ws.extension(t_name=args.T))
        if sc is None:
            return {"verdicts": {"exists": False}}, 1
        return {"verdicts": {"exists": True},
                "payload": {"matrix": _fmt_mat(ws.field, sc.ell),
                            "freedom": sol.freedom}}, 0
    sc = _connection(ws, args)
    rep = verify_strong_connection(sc)
    return {"verdicts": {"strong_connection": rep.ok},
            "residuals": _fail_list(rep.failures)}, 0 if rep.ok else 1


def cmd_integral(ws, args):
    x = ws.extension(t_name=args.T)
    res = total_integral(x)
    rep = {"verdicts": {"relative_injective": res["relative_injective"],
                        "split_condition": res["split_condition"]}}
    if res["j"] is not None:
        rep["payload"] = {"j": _fmt_mat(ws.field, res["j"]),
                          "h": _fmt_mat(ws.field, res["h"])}
    return rep, 0 if res["relative_injective"] else 1


def cmd_tflat(ws, args):
    x = ws.extension(t_name=args.T)
    res = tflatness_check(x)
    return {"verdicts": {"t_flat": res["verdict"], "iso": res["iso"],
                         **res["flags"]}}, 0 if res["verdict"] else 1


def cmd_hc(ws, args):
    x = ws.extension(t_name=args.T)
    n = args.degree
    D = max(ws.options["max_degree"], n + 1)
    cc = cyclic_complex(x.B, (x.T, x.incl_T_B))
    tc = cc.total(D)
    dims = [homology(tc, k).dim for k in range(n + 1)]
    return {"verdicts": {"d_squared_zero": tc.d_squared.ok},
            "payload": {"dims": dims}}, 0 if tc.d_squared.ok else 1


def cmd_chg(ws, args):
    e = _coidempotent(ws, args)
    sc = _connection(ws, args)
    n = args.degree
    chg = chg_components(e, sc, 2 * n)
    tc = chg.cc_b.total(max(ws.options["max_degree"], 2 * n + 1))
    res = assemble_and_class(chg, n, tc)
    return {"verdicts": {"cycle": True},
            "payload": {
                "components": [_fmt_vec(ws.field, c) for c in chg.comps],
                "class": _fmt_vec(ws.field, res["class"].class_coords),
                "hc_dim": res["homology"].dim,
            }}, 0


def _idempotent_setup(ws, args):
    """The coidempotent e, the strong connection and the idempotent matrix E."""
    e = _coidempotent(ws, args)
    sc = _connection(ws, args)
    dual = local_dual_system(sc, e)
    return e, sc, idempotent_e(sc, e, dual, solve_b_t_retraction(sc.extension))


def cmd_idempotent(ws, args):
    _, _, em = _idempotent_setup(ws, args)
    entries = {f"{a},{c}": _fmt_vec(ws.field, em.entries[(a, c)])
               for a in range(em.size) for c in range(em.size)}
    return {"verdicts": {"idempotent": True},
            "payload": {"size": em.size, "entries": entries}}, 0


def cmd_compare(ws, args):
    e, sc, em = _idempotent_setup(ws, args)
    L = 4
    chg = chg_components(e, sc, L)
    rep = compare_chg_ch(chg, em, L)
    return {"verdicts": {"chain_equality": rep.ok},
            "residuals": _fail_list(rep.failures)}, 0 if rep.ok else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error (exit 2)
        raise SchemaError(self.prog, message)


def _degree(text):
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


FLAGS = {"T": {}, "connection": {}, "coidempotent": {"required": True},
         "degree": {"type": _degree, "default": 0}}

# command -> (handler, the FLAGS it reads besides --workspace and --out)
COMMANDS = {
    "validate": (cmd_validate, ()),
    "coinvariants": (cmd_coinvariants, ("T",)),
    "galois": (cmd_galois, ("T",)),
    "connection": (cmd_connection, ("T", "connection")),
    "integral": (cmd_integral, ("T",)),
    "tflat": (cmd_tflat, ("T",)),
    "hc": (cmd_hc, ("T", "degree")),
    "chg": (cmd_chg, ("coidempotent", "connection", "T", "degree")),
    "idempotent": (cmd_idempotent, ("coidempotent", "connection", "T")),
    "compare": (cmd_compare, ("coidempotent", "connection", "T")),
}


def build_parser():
    p = _Parser(
        prog="coralg",
        description="exact computations with corings, entwining structures, "
                    "strong connections and Chern-Galois characters")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        if name == "connection":
            sp.add_argument("mode", choices=["solve", "verify"])
        sp.add_argument("--workspace", required=True)
        sp.add_argument("--out", default=None)
        for flag in flags:
            sp.add_argument(f"--{flag}", **FLAGS[flag])
    fx = sub.add_parser("fixture")
    fx.add_argument("name")
    fx.add_argument("--out", default=None)
    return p


PARSER = build_parser()


def main(argv=None):
    t0 = time.monotonic()
    guard = exactla.DIMENSION_GUARD
    try:
        args = PARSER.parse_args(argv)
        if args.command == "fixture":
            if args.name not in FIXTURE_NAMES:
                raise UnknownFixture(args.name)
            _emit(fixture_document(args.name), args.out)
            return 0
        doc = _load(args.workspace)
        # the workspace's guard holds for this command only
        exactla.DIMENSION_GUARD = workspace_options(doc)["memory_guard"]
        ws = parse_workspace(doc)
        if args.command != "validate" and ws.validation_errors:
            sys.stderr.write("input error: workspace fails validation; run `validate`\n")
            return 2
        body, code = COMMANDS[args.command][0](ws, args)
        report = {"command": args.command}
        report.update(body)
        _emit(report, args.out)
        return code
    except (SchemaError, ValidationError, UnknownFixture, OSError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except CoralgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        exactla.DIMENSION_GUARD = guard
        sys.stderr.write(f"elapsed: {time.monotonic() - t0:.3f}s\n")


if __name__ == "__main__":
    sys.exit(main())
