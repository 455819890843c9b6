"""The three benchmark workloads: inputs, one item's execution, golden checks.

A workload is built from a freshly imported library (``lib`` maps a module
name such as ``"cli"`` to the ``coralg.<name>`` module) and exposes

* ``items``: the item keys of one pass, in canonical order;
* ``run(key)``: execute one item and return its raw output (never raises);
* ``fingerprint(key, output)``: the comparable value recorded as golden;
* ``verdict(key, output, golden)``: ``(matches_golden, user_failure)``.

``matches_golden`` drives the benchmark's ``correct``/``failed`` fields.
``user_failure`` is the stricter ``fail_ratio`` notion: an output that
differs from golden, an unexpected exit code or an uncaught exception.

Library functions are looked up through the module objects at call time, so
a traced run sees the wrappers installed in the module namespaces.
"""

import contextlib
import hashlib
import io
import json
import random

# acceptance criterion 2: six (B, T) pairs, total complex up to D = 5, HC_0..4
BICOMPLEX_PAIRS = ("k|k", "kx|k", "ut2|k", "M2|k", "M2|diag", "ut2|diag")
BICOMPLEX_D = 5
FP_PRIME = 2 ** 31 - 19

# hc/chg on FIX-NC are each a multi-second M2|k bicomplex: bicomplex-qq has it
HEAVY_FIXTURE = "FIX-NC"


class Bicomplex:
    """Build B's relative cyclic bicomplex, its total complex with the d.d
    certificate, and HC_0..4, for each (B, T) pair on fresh algebras."""

    def __init__(self, lib, field_kind):
        self.lib = lib
        exactla = lib["exactla"]
        self.field = exactla.QQ if field_kind == "qq" else exactla.GF(FP_PRIME)
        self.items = list(BICOMPLEX_PAIRS)

    def _pair(self, key):
        fx, ncalg, f = self.lib["fixtures"], self.lib["ncalg"], self.field
        if key == "k|k":
            return ncalg.scalar_algebra(f, name="k"), None
        if key == "kx|k":
            return fx.quadratic_algebra(f, 1, 0), None
        if key == "ut2|k":
            return fx.upper_triangular_algebra(f), None
        if key == "M2|k":
            return fx.matrix_algebra(f, 2), None
        if key == "M2|diag":
            m2 = fx.matrix_algebra(f, 2)
            return m2, fx.diagonal_subalgebra(m2)
        if key == "ut2|diag":
            ut = fx.upper_triangular_algebra(f)
            one, zero = f.one, f.zero
            return ut, ncalg.generated_subalgebra(ut, [[one, zero, zero],
                                                       [zero, zero, one]])
        raise KeyError(key)

    def run(self, key):
        cyclic = self.lib["cyclic"]
        try:
            b, t_pair = self._pair(key)
            tc = cyclic.cyclic_complex(b, t_pair).total(BICOMPLEX_D)
            dims = [cyclic.homology(tc, n).dim for n in range(BICOMPLEX_D)]
        except Exception as exc:  # one failed item, reported by verdict()
            return {"exception": f"{type(exc).__name__}: {exc}"}
        return {"tc": tc, "dims": dims}

    def fingerprint(self, key, output):
        """HC dims, the d.d verdict and a digest of every d_n.

        The digest hashes each d_n's shape, nnz and its product with a fixed
        pseudo-random integer vector (canonical coordinates, public ``apply``
        and ``fmt``): it does not depend on how Mat stores its entries."""
        if "exception" in output:
            return {"exception": output["exception"]}
        tc, f = output["tc"], self.field
        h = hashlib.sha256()
        for n in sorted(tc.d):
            d = tc.d[n]
            rng = random.Random(n)
            vec = [f.from_int(rng.randrange(1, 2 ** 31)) for _ in range(d.ncols)]
            h.update(f"d{n} {d.nrows}x{d.ncols} nnz={d.nnz()}:".encode())
            h.update(",".join(f.fmt(x) for x in d.apply(vec)).encode())
        return {"dims": output["dims"], "d_squared_zero": tc.d_squared.ok,
                "d_digest": h.hexdigest()}

    def verdict(self, key, output, golden):
        ok = self.fingerprint(key, output) == golden
        return ok, not ok


class CliFixtures:
    """Every CLI command each built-in fixture supports, run in-process
    through ``coralg.cli.main`` on workspace files written at set-up, plus
    the input-error slice."""

    def __init__(self, lib, workdir):
        self.lib = lib
        fixtures = lib["fixtures"]
        self.argv = {}
        self.expect_input_error = set()
        workdir.mkdir(parents=True, exist_ok=True)
        docs = {}
        for name in fixtures.FIXTURE_NAMES:
            docs[name] = fixtures.fixture_document(name)
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(docs[name]))
            self._add_fixture_commands(name, docs[name], str(path))
        self._add_input_errors(docs["FIX-Z2"], workdir)
        self.items = list(self.argv)

    def _cmd(self, fixture, path, *argv):
        key = " ".join((argv[0], fixture) + argv[1:])
        self.argv[key] = list(argv[:1]) + ["--workspace", path] + list(argv[1:])
        return key

    def _add_fixture_commands(self, name, doc, path):
        def c(*argv):
            self._cmd(name, path, *argv)

        c("validate")
        c("coinvariants")
        for t in doc.get("subalgebras", {}):
            c("coinvariants", "--T", t)
        c("galois")
        c("connection", "solve")
        for conn in doc.get("connections", {}):
            c("connection", "verify", "--connection", conn)
        c("integral")
        c("tflat")
        for e in doc.get("coidempotents", {}):
            c("idempotent", "--coidempotent", e)
            c("compare", "--coidempotent", e)
            if name != HEAVY_FIXTURE:
                c("chg", "--coidempotent", e, "--degree", "2")
        if name != HEAVY_FIXTURE:
            c("hc", "--degree", "4")

    def _add_input_errors(self, z2, workdir):
        """Inputs the exit contract maps to code 2 (input error)."""
        def bad_doc(label, text):
            path = workdir / f"bad-{label}.json"
            path.write_text(text)
            self.expect_input_error.add(self._cmd(f"bad-{label}", str(path), "validate"))

        bad_doc("json", json.dumps(z2)[:-40])
        for label, scalar in (("div0", "1/0"), ("abc", "abc"), ("float", 1.5)):
            doc = json.loads(json.dumps(z2))
            doc["algebras"]["A"]["unit"][0] = scalar
            bad_doc(label, json.dumps(doc))
        sep = str(workdir / "FIX-SEP.json")
        self.expect_input_error.add(self._cmd("FIX-SEP", sep, "galois", "--T", "T"))
        z2_path = str(workdir / "FIX-Z2.json")
        self.expect_input_error.add(
            self._cmd("FIX-Z2", z2_path, "idempotent", "--coidempotent", "nope"))

    def run(self, key):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib["cli"].main(self.argv[key])
            except Exception as e:  # an uncaught traceback: the process exits 1
                code, exc = 1, type(e).__name__
        return {"code": code, "stdout": out.getvalue(), "exception": exc}

    def fingerprint(self, key, output):
        if key in self.expect_input_error:
            return {"code": output["code"], "exception": output["exception"]}
        return {"code": output["code"], "exception": output["exception"],
                "stdout_sha256": hashlib.sha256(output["stdout"].encode()).hexdigest()}

    def verdict(self, key, output, golden):
        if key in self.expect_input_error:
            # the documented exit 2 is always accepted; at the seed these
            # inputs end in a raw traceback, which matches golden but still
            # counts as a user-visible failure
            fixed = output["code"] == 2 and output["exception"] is None
            ok = fixed or self.fingerprint(key, output) == golden
            return ok, not fixed
        ok = self.fingerprint(key, output) == golden
        return ok, not ok


def make_workload(name, lib, workdir):
    if name == "bicomplex-qq":
        return Bicomplex(lib, "qq")
    if name == "bicomplex-fp":
        return Bicomplex(lib, "fp")
    if name == "cli-fixtures":
        return CliFixtures(lib, workdir)
    raise KeyError(name)


WORKLOADS = ("bicomplex-qq", "bicomplex-fp", "cli-fixtures")
