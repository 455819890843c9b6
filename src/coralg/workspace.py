"""Declarative workspace documents: parsing, validation and serialization.

One self-contained JSON-style document per workspace (no external file
references).  All matrices are row-major nested arrays of scalar strings;
tensor bases are ordered lexicographically with the leftmost factor slowest
and quotient coordinates are the rref-canonical ones of the left-nested
quotient chain.  Schema keys:

    field{kind, p?}
    algebras{name: {dim, mult, unit}}
    subalgebras{name: {of, basis}}
    bimodules{name: {left, right, dim, left_action, right_action}}
    corings{name: {over, carrier, delta, eps}}
    entwinings{name: {coring, ring, psi, psi_inv?}}
    coactions{name: {module, coring, matrix}}   (module: the entwining's ring)
    coidempotents{name: {coring, index_size, entries}}
    connections{name: {extension, T?, matrix}}
    options{max_degree, memory_guard}

Every value read from a document is type-checked (integers exclude
booleans; scalars are integers or ``"a/b"`` strings): a malformed value is
a SchemaError naming its path.

The unit map eta: R -> A of an entwining is inferred: identity when the
coring's base is the ring itself, the inclusion when the base was declared
as a subalgebra of the ring, and the unit map when the base is
one-dimensional.

This module is the one path from a document to an entwined extension:
``Workspace.extension`` builds it once per coaction and derives every other
T from it.  A stored connection is a map C -> A (x)_T A for its own ``T``
(k.1 when omitted); it is parsed and verified over that T at parse time,
and the CLI uses it over the same T.
"""

from .errors import ActionMismatch, CoinvariantMismatch, SchemaError, ValidationError
from .exactla import Field, Mat
from .ncalg import (
    Algebra, AlgebraMorphism, Module, generated_subalgebra, tensor_space,
    validate_algebra, validate_module,
)
from .coring import Coidempotent, Coring, validate_coidempotent, validate_coring
from .entwine import (
    Entwining, _detect_grouplike, invert_entwining, make_extension,
    validate_entwined_module, validate_entwining,
)
from .connect import StrongConnection, verify_strong_connection


DEFAULT_OPTIONS = {"max_degree": 5, "memory_guard": 2_000_000}


class Workspace:
    def __init__(self, field):
        self.field = field
        self.algebras = {}
        self.subalgebras = {}     # name -> (Algebra, AlgebraMorphism)
        self.bimodules = {}
        self.corings = {}
        self.entwinings = {}
        self.coactions = {}       # name -> (module_name, coring_name, Mat)
        self.coidempotents = {}
        self.connections = {}     # name -> (coaction_name, T_name, Mat)
        self.options = dict(DEFAULT_OPTIONS)
        self.validation_errors = []
        self._extensions = {}     # (coaction_name, T_name) -> EntwinedExtension

    def single_entwining(self):
        if len(self.entwinings) != 1:
            raise SchemaError("entwinings", "computation commands need exactly one")
        return next(iter(self.entwinings.values()))

    def single_coaction(self):
        if len(self.coactions) != 1:
            raise SchemaError("coactions", "computation commands need exactly one")
        return next(iter(self.coactions.values()))

    def entwining_of(self, cor):
        """The entwining over the coring ``cor`` (None when there is none)."""
        return next((e for e in self.entwinings.values() if e.coring is cor), None)

    def extension(self, coaction=None, t_name=None):
        """The entwined extension of the named coaction (of the only
        entwining and coaction when None) over the subalgebra ``t_name``
        (k.1 when None or empty).  Built once per coaction; any other T
        comes from ``with_T``."""
        if coaction is None:
            self.single_entwining()
            self.single_coaction()
            coaction, = self.coactions
        key = (coaction, t_name or "")
        x = self._extensions.get(key)
        if x is None:
            if t_name:
                if t_name not in self.subalgebras:
                    raise SchemaError(f"subalgebras.{t_name}", "unknown subalgebra")
                sub, incl = self.subalgebras[t_name]
                base, path = self.extension(coaction), f"subalgebras.{t_name}"
                if incl.target is not base.entwining.ring:
                    raise SchemaError(path, f"not a subalgebra of {base.entwining.ring.name}")
                try:
                    x = base.with_T(_basis_in_parent(sub, incl))
                except CoinvariantMismatch as exc:
                    raise SchemaError(path, str(exc))
            else:
                _, cname, rho = self.coactions[coaction]
                ent = self.entwining_of(self.corings[cname])
                x = make_extension(ent, rho, grouplike=_detect_grouplike(ent, rho))
            self._extensions[key] = x
        return x


_JSON_KINDS = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def _typed(value, path, kind):
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(path, f"expected {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def _need(doc, key, path, kind):
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing")
    return _typed(doc[key], f"{path}.{key}", kind)


def _section(doc, key):
    """The (name, entry) pairs of a top-level section: an object of objects."""
    return [(name, _typed(entry, f"{key}.{name}", dict))
            for name, entry in _typed(doc.get(key, {}), key, dict).items()]


def _ref(table, doc, key, path, what):
    """The entry of ``table`` named by ``doc[key]``."""
    name = _need(doc, key, path, str)
    if name not in table:
        raise SchemaError(f"{path}.{key}", f"unknown {what} {name}")
    return table[name]


def _record(ws, path, rep):
    ws.validation_errors.extend(ValidationError(path, ax, loc) for ax, loc in rep.failures)


def _parse_matrix(field, data, nrows, ncols, path):
    """Documents store maps with one row per source basis element (row =
    image coordinates); internally maps act on columns, so parse transposes.

    ``nrows``/``ncols`` are the internal (target x source) dimensions."""
    if not isinstance(data, list) or len(data) != ncols or \
            any(not isinstance(r, list) or len(r) != nrows for r in data):
        raise SchemaError(path, f"expected a {ncols}x{nrows} matrix "
                          f"(one row per source basis element)")
    rows = [_parse_scalars(field, r, path) for r in data]
    return Mat.from_rows(field, rows, nrows).transpose()


def _parse_vector(field, data, n, path):
    if not isinstance(data, list) or len(data) != n:
        raise SchemaError(path, f"expected a vector of length {n}")
    return _parse_scalars(field, data, path)


def _parse_scalars(field, data, path):
    """Scalars given as integers or ``"a/b"`` strings."""
    out = []
    for v in data:
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise SchemaError(path, f"bad scalar {v!r}: not an integer or a string")
        try:
            out.append(field.parse(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(path, f"bad scalar {v!r}: {exc}")
    return out


def workspace_options(doc):
    """The document's ``options`` over the defaults (positive integers)."""
    given = doc.get("options", {}) if isinstance(doc, dict) else {}
    if not isinstance(given, dict):
        raise SchemaError("options", "expected an object")
    for k, v in given.items():
        if k in DEFAULT_OPTIONS and (type(v) is not int or v < 1):
            raise SchemaError(f"options.{k}", f"expected a positive integer, got {v!r}")
    return {k: given.get(k, v) for k, v in DEFAULT_OPTIONS.items()}


def parse_workspace(doc):
    """Validated workspace; raises SchemaError on structural problems and
    records axiom failures (as ValidationError) in validation_errors."""
    fdoc = _need(_typed(doc, "document", dict), "field", "", dict)
    kind = _need(fdoc, "kind", "field", str)
    try:
        field = Field(kind, _need(fdoc, "p", "field", int) if "p" in fdoc else None)
    except ValueError as exc:
        raise SchemaError("field.p" if "prime" in str(exc) or "modulus" in str(exc)
                          else "field.kind", str(exc))
    ws = Workspace(field)
    ws.options = workspace_options(doc)

    for name, a in _section(doc, "algebras"):
        path = f"algebras.{name}"
        dim = _need(a, "dim", path, int)
        mult_doc = _need(a, "mult", path, list)
        if len(mult_doc) != dim or any(not isinstance(r, list) or len(r) != dim
                                       for r in mult_doc):
            raise SchemaError(f"{path}.mult", "wrong shape")
        mu = Mat.from_cols(field, [
            _parse_vector(field, mult_doc[i][j], dim, f"{path}.mult[{i}][{j}]")
            for i in range(dim) for j in range(dim)], dim)
        unit = _parse_vector(field, _need(a, "unit", path, list), dim, f"{path}.unit")
        alg = Algebra(field, name, mu, unit)
        _record(ws, path, validate_algebra(alg))
        ws.algebras[name] = alg

    for name, s in _section(doc, "subalgebras"):
        path = f"subalgebras.{name}"
        parent = _ref(ws.algebras, s, "of", path, "algebra")
        basis = [_parse_vector(field, v, parent.dim, f"{path}.basis")
                 for v in _need(s, "basis", path, list)]
        sub, incl = generated_subalgebra(parent, basis)
        sub.name = name
        ws.subalgebras[name] = (sub, incl)

    for name, b in _section(doc, "bimodules"):
        path = f"bimodules.{name}"
        la = _ref(ws.algebras, b, "left", path, "algebra")
        ra = _ref(ws.algebras, b, "right", path, "algebra")
        dim = _need(b, "dim", path, int)
        lmats = [_parse_matrix(field, mm, dim, dim, f"{path}.left_action")
                 for mm in _need(b, "left_action", path, list)]
        rmats = [_parse_matrix(field, mm, dim, dim, f"{path}.right_action")
                 for mm in _need(b, "right_action", path, list)]
        if len(lmats) != la.dim or len(rmats) != ra.dim:
            raise SchemaError(path, "one action matrix per basis element")
        m = Module(field, name, dim)
        m.add_left(la, lmats)
        m.add_right(ra, rmats)
        _record(ws, path, validate_module(m, la, ra))
        ws.bimodules[name] = m

    for name, c in _section(doc, "corings"):
        path = f"corings.{name}"
        base = _ref(ws.algebras, c, "over", path, "algebra")
        carrier = _ref(ws.bimodules, c, "carrier", path, "bimodule")
        try:
            cc = tensor_space([carrier, carrier], [base])
        except ActionMismatch as exc:
            raise SchemaError(path, str(exc))
        delta = _parse_matrix(field, _need(c, "delta", path, list), cc.dim,
                              carrier.dim, f"{path}.delta")
        eps = _parse_matrix(field, _need(c, "eps", path, list), base.dim,
                            carrier.dim, f"{path}.eps")
        cor = Coring(base, carrier, delta, eps, name=name)
        _record(ws, path, validate_coring(cor))
        ws.corings[name] = cor

    for name, e in _section(doc, "entwinings"):
        path = f"entwinings.{name}"
        cor = _ref(ws.corings, e, "coring", path, "coring")
        ring = _ref(ws.algebras, e, "ring", path, "algebra")
        eta = _infer_eta(ws, cor.base, ring, path)
        ent = Entwining(cor.base, ring, eta, cor, None, name=name)
        ent.psi = _parse_matrix(field, _need(e, "psi", path, list), ent.AC.dim,
                                ent.CA.dim, f"{path}.psi")
        rep = validate_entwining(ent)
        _record(ws, path, rep)
        if "psi_inv" in e:
            ent.psi_inv = _parse_matrix(field, e["psi_inv"], ent.CA.dim,
                                        ent.AC.dim, f"{path}.psi_inv")
            ident = Mat.identity(field, ent.CA.dim)
            if ent.psi_inv @ ent.psi != ident or \
                    ent.psi @ ent.psi_inv != Mat.identity(field, ent.AC.dim):
                ws.validation_errors.append(
                    ValidationError(path, "psi-inverse", None))
        else:
            try:
                ent = invert_entwining(ent) if rep.ok else ent
            except Exception:
                pass
        ws.entwinings[name] = ent

    for name, co in _section(doc, "coactions"):
        path = f"coactions.{name}"
        module = _ref(ws.algebras, co, "module", path, "algebra")
        cor = _ref(ws.corings, co, "coring", path, "coring")
        # the coaction lands in A (x)_R C for the entwining's a_mod; resolve
        # through the entwining that owns this coring
        ent = ws.entwining_of(cor)
        if ent is None:
            raise SchemaError(path, "coaction without a matching entwining")
        if module is not ent.ring:
            raise SchemaError(f"{path}.module", f"expected the entwining's ring "
                              f"{ent.ring.name}, got {co['module']}")
        mat = _parse_matrix(field, _need(co, "matrix", path, list), ent.AC.dim,
                            ent.ring.dim, f"{path}.matrix")
        _record(ws, path, validate_entwined_module(ent.a_mod, mat, ent, name=name))
        ws.coactions[name] = (co["module"], co["coring"], mat)

    for name, ce in _section(doc, "coidempotents"):
        path = f"coidempotents.{name}"
        cor = _ref(ws.corings, ce, "coring", path, "coring")
        size = _need(ce, "index_size", path, int)
        entries_doc = _need(ce, "entries", path, list)
        if len(entries_doc) != size or any(not isinstance(r, list) or len(r) != size
                                           for r in entries_doc):
            raise SchemaError(f"{path}.entries", "index_size mismatch")
        entries = [[_parse_vector(field, v, cor.carrier.dim, f"{path}.entries")
                    for v in row] for row in entries_doc]
        e = Coidempotent(cor, entries)
        _record(ws, path, validate_coidempotent(e))
        ws.coidempotents[name] = e

    for name, cn in _section(doc, "connections"):
        path = f"connections.{name}"
        _ref(ws.coactions, cn, "extension", path, "coaction")
        tname = _need(cn, "T", path, str) if "T" in cn else ""
        if tname:
            _ref(ws.subalgebras, cn, "T", path, "subalgebra")
        _validate_connection(ws, name, path, cn["extension"], tname,
                             _need(cn, "matrix", path, list))
    return ws


def _validate_connection(ws, name, path, ext_name, tname, raw):
    """Stored connections are structures too: parse the matrix over the
    connection's own T, store it and verify it at parse time."""
    try:
        x = ws.extension(ext_name, tname)
        aat = tensor_space([x.a_mod, x.a_mod], [x.T])
        mat = _parse_matrix(ws.field, raw, aat.dim, x.entwining.coring.dim,
                            f"{path}.matrix")
        ws.connections[name] = (ext_name, tname, mat)
        _record(ws, path, verify_strong_connection(StrongConnection(x, mat)))
    except SchemaError:
        raise
    except Exception as exc:
        ws.validation_errors.append(
            ValidationError(path, f"extension-construction: {exc}", None))


def _basis_in_parent(sub, incl):
    """The basis of a subalgebra as vectors of the algebra it sits in."""
    return [incl.apply(sub.basis_vector(i)) for i in range(sub.dim)]


def _infer_eta(ws, base, ring, path):
    if base is ring:
        return AlgebraMorphism.identity(ring)
    for sub, incl in ws.subalgebras.values():
        if sub is base and incl.target is ring:
            return incl
    if base.dim == 1:
        return AlgebraMorphism(base, ring, ring.unit_col().scale(base.unit[0]))
    raise SchemaError(path, "cannot infer the unit map R -> A")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _fmt_vec(field, v):
    return [field.fmt(x) for x in v]


def _fmt_mat(field, m):
    """Serialize a map: one row per source basis element."""
    return [[field.fmt(m.get(i, j)) for i in range(m.nrows)]
            for j in range(m.ncols)]


def serialize_workspace(ws):
    """Canonical document for a workspace (scalars reduced, keys sorted by
    insertion order of the workspace dicts)."""
    field = ws.field
    doc = {"field": {"kind": field.kind}}
    if field.p is not None:
        doc["field"]["p"] = field.p
    doc["algebras"] = {
        name: {
            "dim": a.dim,
            "mult": [[_fmt_vec(field, a.mult_mat().col(i * a.dim + j)) for j in range(a.dim)]
                     for i in range(a.dim)],
            "unit": _fmt_vec(field, a.unit),
        } for name, a in ws.algebras.items()}
    if ws.subalgebras:
        doc["subalgebras"] = {
            name: {
                "of": incl.target.name,
                "basis": [_fmt_vec(field, v) for v in _basis_in_parent(sub, incl)],
            } for name, (sub, incl) in ws.subalgebras.items()}
    if ws.bimodules:
        doc["bimodules"] = {}
        for name, m in ws.bimodules.items():
            (la, lmats), = [(a, mm) for a, mm in m.left.items()][:1] or [(None, None)]
            (ra, rmats), = [(a, mm) for a, mm in m.right.items()][:1]
            doc["bimodules"][name] = {
                "left": la.name, "right": ra.name, "dim": m.dim,
                "left_action": [_fmt_mat(field, mm) for mm in lmats],
                "right_action": [_fmt_mat(field, mm) for mm in rmats],
            }
    if ws.corings:
        doc["corings"] = {
            name: {
                "over": c.base.name,
                "carrier": c.carrier.name,
                "delta": _fmt_mat(field, c.delta),
                "eps": _fmt_mat(field, c.eps),
            } for name, c in ws.corings.items()}
    if ws.entwinings:
        doc["entwinings"] = {}
        for name, e in ws.entwinings.items():
            entry = {"coring": e.coring.name, "ring": e.ring.name,
                     "psi": _fmt_mat(field, e.psi)}
            if e.psi_inv is not None:
                entry["psi_inv"] = _fmt_mat(field, e.psi_inv)
            doc["entwinings"][name] = entry
    if ws.coactions:
        doc["coactions"] = {
            name: {"module": mname, "coring": cname,
                   "matrix": _fmt_mat(field, mat)}
            for name, (mname, cname, mat) in ws.coactions.items()}
    if ws.coidempotents:
        doc["coidempotents"] = {
            name: {"coring": e.coring.name, "index_size": e.size,
                   "entries": [[_fmt_vec(field, v) for v in row]
                               for row in e.entries]}
            for name, e in ws.coidempotents.items()}
    if ws.connections:
        doc["connections"] = {
            name: {"extension": ext, "T": tname, "matrix": _fmt_mat(field, mat)}
            for name, (ext, tname, mat) in ws.connections.items()}
    doc["options"] = dict(ws.options)
    return doc
