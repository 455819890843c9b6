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
    coactions{name: {module, coring, matrix}}
    coidempotents{name: {coring, index_size, entries}}
    connections{name: {extension, T, matrix}}
    options{max_degree, memory_guard}

The unit map eta: R -> A of an entwining is inferred: identity when the
coring's base is the ring itself, the inclusion when the base was declared
as a subalgebra of the ring, and the unit map when the base is
one-dimensional.
"""

from .errors import SchemaError, ValidationError
from .exactla import Field, Mat, _axpy_dense
from .ncalg import (
    Algebra, AlgebraMorphism, Module, generated_subalgebra, tensor_space,
    validate_algebra, validate_module,
)
from .coring import Coidempotent, Coring, validate_coidempotent, validate_coring
from .entwine import (
    Entwining, invert_entwining, make_extension, validate_entwined_module,
    validate_entwining,
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

    def single_entwining(self):
        if len(self.entwinings) != 1:
            raise SchemaError("entwinings", "computation commands need exactly one")
        return next(iter(self.entwinings.values()))

    def single_coaction(self):
        if len(self.coactions) != 1:
            raise SchemaError("coactions", "computation commands need exactly one")
        return next(iter(self.coactions.values()))


def _need(doc, key, path):
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing")
    return doc[key]


def _parse_matrix(field, data, nrows, ncols, path):
    """Documents store maps with one row per source basis element (row =
    image coordinates); internally maps act on columns, so parse transposes.

    ``nrows``/``ncols`` are the internal (target x source) dimensions."""
    if len(data) != ncols or any(len(r) != nrows for r in data):
        raise SchemaError(path, f"expected a {ncols}x{nrows} matrix "
                          f"(one row per source basis element)")
    rows = [_parse_scalars(field, r, path) for r in data]
    return Mat.from_rows(field, rows, nrows).transpose()


def _parse_vector(field, data, n, path):
    if len(data) != n:
        raise SchemaError(path, f"expected a vector of length {n}")
    return _parse_scalars(field, data, path)


def _parse_scalars(field, data, path):
    """Scalars given as integers or ``"a/b"`` strings."""
    out = []
    for v in data:
        if not isinstance(v, (int, str)):
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
    fdoc = _need(doc, "field", "")
    kind = _need(fdoc, "kind", "field")
    try:
        field = Field(kind, fdoc.get("p"))
    except ValueError as exc:
        raise SchemaError("field.p" if "prime" in str(exc) or "modulus" in str(exc)
                          else "field.kind", str(exc))
    ws = Workspace(field)
    ws.options = workspace_options(doc)

    for name, a in doc.get("algebras", {}).items():
        dim = _need(a, "dim", f"algebras.{name}")
        mult_doc = _need(a, "mult", f"algebras.{name}")
        if len(mult_doc) != dim or any(len(r) != dim for r in mult_doc):
            raise SchemaError(f"algebras.{name}.mult", "wrong shape")
        mult = [[_parse_vector(field, mult_doc[i][j], dim,
                               f"algebras.{name}.mult[{i}][{j}]")
                 for j in range(dim)] for i in range(dim)]
        unit = _parse_vector(field, _need(a, "unit", f"algebras.{name}"), dim,
                             f"algebras.{name}.unit")
        alg = Algebra(field, name, dim, mult, unit)
        rep = validate_algebra(alg)
        for ax, loc in rep.failures:
            ws.validation_errors.append(ValidationError(f"algebras.{name}", ax, loc))
        ws.algebras[name] = alg

    for name, s in doc.get("subalgebras", {}).items():
        of = _need(s, "of", f"subalgebras.{name}")
        if of not in ws.algebras:
            raise SchemaError(f"subalgebras.{name}.of", f"unknown algebra {of}")
        parent = ws.algebras[of]
        basis = [_parse_vector(field, v, parent.dim, f"subalgebras.{name}.basis")
                 for v in _need(s, "basis", f"subalgebras.{name}")]
        sub, incl = generated_subalgebra(parent, basis)
        sub.name = name
        ws.subalgebras[name] = (sub, incl)

    for name, b in doc.get("bimodules", {}).items():
        path = f"bimodules.{name}"
        left = _need(b, "left", path)
        right = _need(b, "right", path)
        dim = _need(b, "dim", path)
        for key in (left, right):
            if key not in ws.algebras:
                raise SchemaError(path, f"unknown algebra {key}")
        m = Module(field, name, dim)
        lmats = [_parse_matrix(field, mm, dim, dim, f"{path}.left_action")
                 for mm in _need(b, "left_action", path)]
        rmats = [_parse_matrix(field, mm, dim, dim, f"{path}.right_action")
                 for mm in _need(b, "right_action", path)]
        la, ra = ws.algebras[left], ws.algebras[right]
        if len(lmats) != la.dim or len(rmats) != ra.dim:
            raise SchemaError(path, "one action matrix per basis element")
        m.add_left(la, lmats)
        m.add_right(ra, rmats)
        rep = validate_module(m, la, ra)
        for ax, loc in rep.failures:
            ws.validation_errors.append(ValidationError(path, ax, loc))
        ws.bimodules[name] = m

    for name, c in doc.get("corings", {}).items():
        path = f"corings.{name}"
        over = _need(c, "over", path)
        carrier_name = _need(c, "carrier", path)
        if over not in ws.algebras:
            raise SchemaError(f"{path}.over", f"unknown algebra {over}")
        if carrier_name not in ws.bimodules:
            raise SchemaError(f"{path}.carrier", f"unknown bimodule {carrier_name}")
        base = ws.algebras[over]
        carrier = ws.bimodules[carrier_name]
        cc = tensor_space([carrier, carrier], [base])
        delta = _parse_matrix(field, _need(c, "delta", path), cc.dim,
                              carrier.dim, f"{path}.delta")
        eps = _parse_matrix(field, _need(c, "eps", path), base.dim,
                            carrier.dim, f"{path}.eps")
        cor = Coring(base, carrier, delta, eps, name=name)
        rep = validate_coring(cor)
        for ax, loc in rep.failures:
            ws.validation_errors.append(ValidationError(path, ax, loc))
        ws.corings[name] = cor

    for name, e in doc.get("entwinings", {}).items():
        path = f"entwinings.{name}"
        cname = _need(e, "coring", path)
        rname = _need(e, "ring", path)
        if cname not in ws.corings:
            raise SchemaError(f"{path}.coring", f"unknown coring {cname}")
        if rname not in ws.algebras:
            raise SchemaError(f"{path}.ring", f"unknown algebra {rname}")
        cor = ws.corings[cname]
        ring = ws.algebras[rname]
        eta = _infer_eta(ws, cor.base, ring, path)
        ent = Entwining(cor.base, ring, eta, cor, None, name=name)
        psi = _parse_matrix(field, _need(e, "psi", path), ent.AC.dim,
                            ent.CA.dim, f"{path}.psi")
        ent.psi = psi
        rep = validate_entwining(ent)
        for ax, loc in rep.failures:
            ws.validation_errors.append(ValidationError(path, ax, loc))
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

    for name, co in doc.get("coactions", {}).items():
        path = f"coactions.{name}"
        mname = _need(co, "module", path)
        cname = _need(co, "coring", path)
        if mname not in ws.algebras:
            raise SchemaError(f"{path}.module", f"unknown algebra {mname}")
        if cname not in ws.corings:
            raise SchemaError(f"{path}.coring", f"unknown coring {cname}")
        cor = ws.corings[cname]
        # the coaction lands in A (x)_R C for the entwining's a_mod; resolve
        # through the entwining that owns this coring
        ent = next((en for en in ws.entwinings.values() if en.coring is cor), None)
        if ent is None:
            raise SchemaError(path, "coaction without a matching entwining")
        mat = _parse_matrix(field, _need(co, "matrix", path), ent.AC.dim,
                            ent.ring.dim, f"{path}.matrix")
        rep = validate_entwined_module(ent.a_mod, mat, ent, name=name)
        for ax, loc in rep.failures:
            ws.validation_errors.append(ValidationError(path, ax, loc))
        ws.coactions[name] = (mname, cname, mat)

    for name, ce in doc.get("coidempotents", {}).items():
        path = f"coidempotents.{name}"
        cname = _need(ce, "coring", path)
        if cname not in ws.corings:
            raise SchemaError(f"{path}.coring", f"unknown coring {cname}")
        cor = ws.corings[cname]
        size = _need(ce, "index_size", path)
        entries_doc = _need(ce, "entries", path)
        if len(entries_doc) != size or any(len(r) != size for r in entries_doc):
            raise SchemaError(f"{path}.entries", "index_size mismatch")
        entries = [[_parse_vector(field, v, cor.carrier.dim, f"{path}.entries")
                    for v in row] for row in entries_doc]
        e = Coidempotent(cor, entries)
        rep = validate_coidempotent(e)
        for ax, loc in rep.failures:
            ws.validation_errors.append(ValidationError(path, ax, loc))
        ws.coidempotents[name] = e

    for name, cn in doc.get("connections", {}).items():
        path = f"connections.{name}"
        ext = _need(cn, "extension", path)
        if ext not in ws.coactions:
            raise SchemaError(f"{path}.extension", f"unknown coaction {ext}")
        tname = cn.get("T", "")
        if tname and tname not in ws.subalgebras:
            raise SchemaError(f"{path}.T", f"unknown subalgebra {tname}")
        ws.connections[name] = (ext, tname, cn["matrix"])
        _validate_connection(ws, name, path)
    return ws


def _validate_connection(ws, name, path):
    """Stored connections are structures too: verify them at parse time."""
    ext_name, tname, raw = ws.connections[name]
    try:
        ent = next(iter(ws.entwinings.values()))
        _, _, rho = ws.coactions[ext_name]
        t_basis = None
        if tname:
            sub, incl = ws.subalgebras[tname]
            t_basis = [incl.apply(sub.basis_vector(i)) for i in range(sub.dim)]
        x = make_extension(ent, rho, t_basis=t_basis, strict=False)
        aat = tensor_space([x.a_mod, x.a_mod], [x.T])
        mat = _parse_matrix(ws.field, raw, aat.dim, ent.coring.dim,
                            f"{path}.matrix")
        rep = verify_strong_connection(StrongConnection(x, mat))
        for ax, loc in rep.failures:
            ws.validation_errors.append(ValidationError(path, ax, loc))
    except SchemaError:
        raise
    except Exception as exc:
        ws.validation_errors.append(
            ValidationError(path, f"extension-construction: {exc}", None))


def _infer_eta(ws, base, ring, path):
    if base is ring:
        return AlgebraMorphism.identity(ring)
    for sub, incl in ws.subalgebras.values():
        if sub is base and incl.target is ring:
            return incl
    if base.dim == 1:
        f = ring.field
        col = _axpy_dense([f.zero] * ring.dim, base.unit[0], ring.unit, f.p)
        return AlgebraMorphism(base, ring, Mat.from_cols(f, [col], ring.dim))
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
            "mult": [[_fmt_vec(field, a.mult[i][j]) for j in range(a.dim)]
                     for i in range(a.dim)],
            "unit": _fmt_vec(field, a.unit),
        } for name, a in ws.algebras.items()}
    if ws.subalgebras:
        doc["subalgebras"] = {
            name: {
                "of": incl.target.name,
                "basis": [_fmt_vec(field, incl.apply(sub.basis_vector(i)))
                          for i in range(sub.dim)],
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
            name: {"extension": ext, "T": tname, "matrix": mat}
            for name, (ext, tname, mat) in ws.connections.items()}
    doc["options"] = dict(ws.options)
    return doc
