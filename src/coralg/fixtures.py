"""Built-in example structures: small algebras and the named workspace
fixtures used by the CLI and the test suite.

Basis conventions:
  * quadratic algebra k[x]/(x^2 - a - b x): basis {1, x}
  * M_2: basis (E11, E12, E21, E22), row-major
  * upper triangular 2x2: basis (E11, E12, E22)
  * k x k: basis (e1, e2) of orthogonal idempotents
  * group coalgebra of Z_2: basis (g0, g1), Delta(gi) = gi (x) gi, eps = 1
"""

from .errors import UnknownFixture
from .exactla import GF, QQ, Mat, SubspaceBasis, inverse
from .ncalg import (
    Algebra, AlgebraMorphism, Module, generated_subalgebra, leg_apply,
    projective_dual_basis, scalar_algebra, tensor_space,
)
from .coring import (
    Coidempotent, Comodule, Coring, coidempotent_from_comodule, trivial_coring,
)
from .entwine import (
    Entwining, entwining_from_coring, extension_from_grouplike,
    invert_entwining, sweedler_coring,
)
from .connect import solve_strong_connection
from .workspace import Workspace, serialize_workspace


def quadratic_algebra(field, a, b, name=None):
    """k[x]/(x^2 = a + b x), basis {1, x}."""
    one, zero = field.one, field.zero
    # 1 1 = 1, 1 x = x 1 = x, x x = a + b x
    mu = Mat.from_entries(field, 2, 4, [((0, 0), one), ((1, 1), one), ((1, 2), one),
                                        ((0, 3), field.from_int(a)), ((1, 3), field.from_int(b))])
    return Algebra(field, name or f"k[x]/(x^2-{a}-{b}x)", mu, [one, zero])


def matrix_algebra(field, n=2, name=None):
    """Full matrix algebra, basis E_ij row-major: index i*n + j."""
    dim = n * n
    # E_ij E_jl = E_il; every other product of basis matrices is zero
    mu = Mat.from_entries(field, dim, dim * dim, (
        ((i * n + l, (i * n + j) * dim + j * n + l), field.one)
        for i in range(n) for j in range(n) for l in range(n)))
    unit = [field.one if k % (n + 1) == 0 else field.zero for k in range(dim)]
    return Algebra(field, name or f"M{n}", mu, unit)


def upper_triangular_algebra(field):
    """Upper triangular 2x2 matrices, basis (E11, E12, E22)."""
    zero, one = field.zero, field.one
    # E11 E11 = E11, E11 E12 = E12, E12 E22 = E12, E22 E22 = E22, rest zero
    mu = Mat.from_entries(field, 3, 9, [((0, 0), one), ((1, 1), one), ((1, 5), one),
                                        ((2, 8), one)])
    return Algebra(field, "ut2", mu, [one, zero, one])


def product_field_algebra(field):
    """k x k with orthogonal idempotent basis (e1, e2)."""
    one = field.one
    return Algebra(field, "kxk", Mat.from_entries(field, 2, 4, [((0, 0), one), ((1, 3), one)]),
                   [one, one])


def diagonal_subalgebra(m2):
    """The diagonal subalgebra of M2, canonical rref basis, with inclusion."""
    f = m2.field
    e11 = [f.one, f.zero, f.zero, f.zero]
    e22 = [f.zero, f.zero, f.zero, f.one]
    return generated_subalgebra(m2, [e11, e22])


def upper_triangular_subalgebra(m2):
    f = m2.field
    vecs = []
    for k in (0, 1, 3):
        v = [f.zero] * 4
        v[k] = f.one
        vecs.append(v)
    return generated_subalgebra(m2, vecs)


def module_over_scalars(field, base, dim, name):
    """A k-module viewed as a bimodule over the one-dimensional algebra."""
    assert base.dim == 1
    m = Module(field, name, dim)
    m.add_left(base, [Mat.identity(field, dim)])
    m.add_right(base, [Mat.identity(field, dim)])
    return m


def group_z2_coring(field, base=None):
    """The group coalgebra of Z_2 over k: basis (g0, g1), Delta(gi)=gi(x)gi."""
    if base is None:
        base = scalar_algebra(field)
    carrier = module_over_scalars(field, base, 2, "kZ2")
    cc = tensor_space([carrier, carrier], [base])
    one, zero = field.one, field.zero
    delta = Mat.from_cols(field, [cc.embed_pure([[one, zero], [one, zero]]),
                                  cc.embed_pure([[zero, one], [zero, one]])],
                          cc.dim)
    eps = Mat.from_rows(field, [[one, one]])
    return Coring(base, carrier, delta, eps, name="kZ2")


def z2_graded_entwining(field, square=1):
    """The Z_2-graded quadratic algebra A = k[x]/(x^2 - square) entwined with
    the group coalgebra of Z_2: psi(g_i (x) x^j) = x^j (x) g_{i+j}."""
    a = quadratic_algebra(field, square, 0, name=f"k[x]/(x^2-{square})")
    base = scalar_algebra(field)
    eta = AlgebraMorphism(base, a, Mat.from_cols(field, [a.unit], 2))
    cor = group_z2_coring(field, base=base)
    ent = Entwining(base, a, eta, cor, None, name="Z2-graded")
    # column (g_i, x^j) -> row (x^j, g_{i+j})
    ent.psi = Mat.from_entries(field, ent.AC.dim, ent.CA.dim,
                               (((j * 2 + (i + j) % 2, i * 2 + j), field.one)
                                for i in range(2) for j in range(2)))
    return invert_entwining(ent)


def z2_fixture(field):
    """The graded fixture: extension, the one-dimensional comodules k.g0 and
    k.g1 with their coidempotents, packaged for tests and the CLI."""
    ent = z2_graded_entwining(field)
    x = extension_from_grouplike(ent, [field.one, field.zero])
    base = ent.base
    out = {"entwining": ent, "extension": x, "comodules": {}, "coidempotents": {}}
    for idx, name in ((0, "e0"), (1, "e1")):
        carrier = module_over_scalars(field, base, 1, f"k.g{idx}")
        cw = tensor_space([ent.coring.carrier, carrier], [base])
        g = [field.one if i == idx else field.zero for i in range(2)]
        rho = Mat.from_cols(field, [cw.embed_pure([g, [field.one]])], cw.dim)
        w = Comodule(ent.coring, carrier, rho, "left", name=f"k.g{idx}")
        db = projective_dual_basis(carrier, base, side="left")
        e = coidempotent_from_comodule(w, db)
        out["comodules"][name] = (w, db)
        out["coidempotents"][name] = e
    return out


def nc_fixture(field):
    """M2 with the Sweedler coring of the upper triangulars: extension (the
    coinvariants come out as all of M2), the column comodule W = A.E11 and
    its coidempotent."""
    m2 = matrix_algebra(field, 2, name="M2")
    sub_pair = upper_triangular_subalgebra(m2)
    ent = sweedler_entwining(field, m2, sub_pair, name="NC")
    cor = ent.coring
    aa = cor.aa_space
    g = aa.embed_pure([m2.unit, m2.unit])
    x = extension_from_grouplike(ent, g)
    # W = A . E11 = span{E11, E21}, a left A-module and left C-comodule with
    # coaction a E11 -> (a (x)_B 1) (x)_A E11
    w_mod = Module(field, "A.E11", 2)
    wbasis = [[field.one, field.zero, field.zero, field.zero],
              [field.zero, field.zero, field.one, field.zero]]
    wspan = SubspaceBasis.from_vectors(field, 4, wbasis)
    w_mod.add_left(m2, [wspan.restrict(m) for m in m2.left_mult_mats()])
    cw = tensor_space([cor.carrier, w_mod], [m2])
    cols = []
    for bvec in wbasis:
        cleg = aa.embed_pure([bvec, m2.unit])
        cols.append(cw.embed_pure([cleg, [field.one, field.zero]]))
    rho = Mat.from_cols(field, cols, cw.dim)
    w = Comodule(cor, w_mod, rho, "left", name="A.E11")
    db = projective_dual_basis(w_mod, m2, side="left")
    e = coidempotent_from_comodule(w, db)
    return {"entwining": ent, "extension": x, "comodule": (w, db),
            "coidempotent": e, "grouplike": g}


def sweedler_entwining(field, ring, sub_pair, name="Sweedler"):
    """Entwining over R = A obtained from the Sweedler coring A (x)_B A via
    the converse construction; the right action on A (x)_A C ~ C is the
    second-leg multiplication, transported along the collapse isomorphism."""
    sub, incl = sub_pair
    cor, _aa = sweedler_coring(ring, sub, incl)
    eta = AlgebraMorphism.identity(ring)
    stub = Entwining(ring, ring, eta, cor, None, name=name)
    phi = leg_apply(stub.AC, cor.carrier, 0, 2, cor.carrier.left_collapse_mat(ring))
    phi_inv = inverse(phi)
    assert phi_inv is not None, "A (x)_A C -> C collapse must be invertible"
    rmats = [phi_inv @ cor.carrier.right[ring][j] @ phi for j in range(ring.dim)]
    ent = entwining_from_coring(stub, rmats)
    return invert_entwining(ent)


# ---------------------------------------------------------------------------
# Named workspace fixtures
# ---------------------------------------------------------------------------

FIXTURE_NAMES = ("FIX-TRIV", "FIX-Z2", "FIX-SW", "FIX-NC", "FIX-SEP", "FIX-FP")


def fixture_workspace(name):
    """Build the named fixture as a fully populated Workspace."""
    if name in ("FIX-TRIV", "FIX-SEP"):
        a = scalar_algebra(QQ) if name == "FIX-TRIV" else product_field_algebra(QQ)
        cor = trivial_coring(a)
        ent = invert_entwining(Entwining(a, a, AlgebraMorphism.identity(a), cor,
                                         Mat.identity(QQ, a.dim)))
        x = extension_from_grouplike(ent, list(a.unit))
        return _extension_workspace(ent, x, "T" if name == "FIX-TRIV" else "Tprime",
                                    [("e", [[list(a.unit)]])])
    if name in ("FIX-Z2", "FIX-FP"):
        field = QQ if name == "FIX-Z2" else GF(5)
        one, zero = field.one, field.zero
        ent = z2_graded_entwining(field)
        x = extension_from_grouplike(ent, [one, zero])
        sc, _ = solve_strong_connection(x)
        return _extension_workspace(ent, x, "T", [("e0", [[[one, zero]]]),
                                                  ("e1", [[[zero, one]]])],
                                    connections=[("ell", sc.ell)])
    if name == "FIX-SW":
        a = quadratic_algebra(QQ, 1, 0)
        ent = sweedler_entwining(QQ, a, generated_subalgebra(a, []))
        g = ent.coring.aa_space.embed_pure([a.unit, a.unit])
        return _extension_workspace(ent, extension_from_grouplike(ent, g), "T",
                                    [("e", [[g]])])
    if name == "FIX-NC":
        fix = nc_fixture(QQ)
        return _extension_workspace(
            fix["entwining"], fix["extension"], "T",
            [("e", fix["coidempotent"].entries), ("eg", [[fix["grouplike"]]])],
            subalgebras=[("diag", diagonal_subalgebra(fix["entwining"].ring))])
    raise UnknownFixture(name)


def _extension_workspace(ent, x, t_name, coidempotents, subalgebras=(), connections=()):
    """The workspace of the entwined extension ``x`` of ``ent``: the ring A
    (and the base R when it is another algebra), the coring C, the
    entwining psi, the coaction rho and x's T named ``t_name``, then the
    (name, entries) coidempotents, (name, (sub, incl)) subalgebras and
    (name, ell) connections over T."""
    ws = Workspace(ent.ring.field)
    cor = ent.coring
    ent.ring.name = "A"
    ws.algebras["A"] = ent.ring
    if ent.base is not ent.ring:
        ent.base.name = "R"
        ws.algebras["R"] = ent.base
    cor.name = cor.carrier.name = "C"
    ws.bimodules["C"] = cor.carrier
    ws.corings["C"] = cor
    ws.entwinings["psi"] = ent
    ws.coactions["rho"] = ("A", "C", x.rho)
    for name, entries in coidempotents:
        ws.coidempotents[name] = Coidempotent(cor, entries)
    for name, (sub, incl) in [(t_name, (x.T, x.incl_T_A)), *subalgebras]:
        sub.name = name
        ws.subalgebras[name] = (sub, incl)
    for name, ell in connections:
        ws.connections[name] = ("rho", t_name, ell)
    return ws


def fixture_document(name):
    return serialize_workspace(fixture_workspace(name))
