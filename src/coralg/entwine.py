"""Right entwining structures over a ring R, their inverses, associated
A-corings, entwined modules, entwined extensions and canonical maps.

A right entwining structure (A, C, psi)_R is an R-ring A, an R-coring C and
an R-R bilinear psi: C (x)_R A -> A (x)_R C satisfying

    psi (C mu)        = (mu C)(A psi)(psi A)
    psi (C eta)       = eta C
    (A Delta) psi     = (psi C)(C psi)(Delta A)
    (A eps) psi       = eps A

The bijective case also carries the mirror (left entwining) axioms for
psi^{-1}; they are the right-entwining axioms of the opposite structure
(R^op, A^op, C^cop, psi^{-1}) (``Entwining.op()``), whose C (x) A and
A (x) C are the reversal views of A (x)_R C and C (x)_R A.  An entwined
extension packages a coaction rho: A -> A (x)_R C
making A an entwined module, the induced left coaction, and the coinvariant
subalgebra computed by both one-sided kernel formulas.
"""

from .errors import (
    CompatibilityFailure, CoinvariantMismatch, NotBijective, NotEntwinedModule,
)
from .exactla import Mat, inverse, kernel, kron_id, kron_vec, lincomb, rank, solve_right
from .ncalg import (
    AlgebraMorphism, Module, Report, _fail_cols, check_equations, contract, descend,
    eqs_linear, generated_subalgebra, leg_apply, regular_bimodule, tensor_space,
)
from .coring import Comodule, Coring, validate_comodule, verify_grouplike


def module_of_space(sp, name):
    """Wrap a TensorSpace as a Module carrying its outer actions."""
    m = Module(sp.field, name, sp.dim)
    for alg, mats in sp.outer_left.items():
        m.add_left(alg, mats)
    for alg, mats in sp.outer_right.items():
        m.add_right(alg, mats)
    return m


class Entwining:
    """(A, C, psi)_R; ``psi`` maps canonical C (x)_R A coordinates to
    canonical A (x)_R C coordinates."""

    def __init__(self, base, ring, eta, coring, psi, psi_inv=None, name=""):
        a_mod = regular_bimodule(ring).restrict(base, eta)
        self._setup(base, ring, eta, coring, psi, psi_inv,
                    name or f"({ring.name},{coring.name})_{base.name}", a_mod)

    def _setup(self, base, ring, eta, coring, psi, psi_inv, name, a_mod):
        self.base, self.ring, self.eta, self.coring = base, ring, eta, coring
        self.psi, self.psi_inv, self.name, self.a_mod = psi, psi_inv, name, a_mod
        self.CA = tensor_space([coring.carrier, a_mod], [base],
                               name=f"{coring.name}(x){ring.name}")
        self.AC = tensor_space([a_mod, coring.carrier], [base],
                               name=f"{ring.name}(x){coring.name}")
        self._op = self._assoc = None  # _assoc: (psi, associated_coring)
        # validate_entwined_module's failures by (carrier, rho): (psi, psi_inv, failures)
        self._entwined_checks = {}

    def __repr__(self):
        return f"Entwining({self.name})"

    def op(self):
        """(R^op, A^op, eta, C^cop, psi^-1, psi) with ``a_mod.op()``: the
        left entwining psi^-1 read as a right entwining.  Rebuilt whenever
        psi or psi_inv is replaced."""
        o = self._op
        if o is None or o.psi is not self.psi_inv or o.psi_inv is not self.psi:
            base, ring = self.base.op(), self.ring.op()
            o = Entwining.__new__(Entwining)
            o._setup(base, ring, AlgebraMorphism(base, ring, self.eta.matrix),
                     self.coring.cop(), self.psi_inv, self.psi, f"{self.name}^op",
                     self.a_mod.op())
            o._op, self._op = self, o
        return o

    def psi_full(self):
        return self.AC.S @ self.psi @ self.CA.Q

    def left_action_on(self, g):
        """The map a -> a g from A to A (x)_R C; for g = rho(1_A) the
        coinvariants of rho are the kernel of rho minus this map."""
        return Mat.from_cols(self.ring.field,
                             [m.apply(g) for m in self.AC.outer_left[self.ring]],
                             self.AC.dim)


def validate_entwining(e):
    """Bilinearity of psi and the four right-entwining axioms, located at
    the offending basis columns of the relevant tensor space."""
    rep = Report(e.name)
    base, ring, cor = e.base, e.ring, e.coring
    CA, AC = e.CA, e.AC
    for i in range(base.dim):
        _fail_cols(rep, f"psi-left-linear[{i}]",
                   e.psi @ CA.outer_left[base][i] - AC.outer_left[base][i] @ e.psi)
        _fail_cols(rep, f"psi-right-linear[{i}]",
                   e.psi @ CA.outer_right[base][i] - AC.outer_right[base][i] @ e.psi)
    caa = tensor_space([cor.carrier, e.a_mod, e.a_mod], [base, base])
    aca = tensor_space([e.a_mod, cor.carrier, e.a_mod], [base, base])
    aac = tensor_space([e.a_mod, e.a_mod, cor.carrier], [base, base])
    acc = tensor_space([e.a_mod, cor.carrier, cor.carrier], [base, base])
    cca = tensor_space([cor.carrier, cor.carrier, e.a_mod], [base, base])
    psi_f = e.psi_full()
    mu = ring.mult_mat()
    # (1) psi (C mu) = (mu C)(A psi)(psi A)
    lhs = e.psi @ leg_apply(caa, CA, 1, 2, mu)
    rhs = leg_apply(aac, AC, 0, 2, mu) \
        @ leg_apply(aca, aac, 1, 2, psi_f) \
        @ leg_apply(caa, aca, 0, 2, psi_f)
    _fail_cols(rep, "entwining-multiplicativity", lhs - rhs)
    # (2) psi (C eta) = eta C
    ucol = ring.unit_col()
    ins_right = leg_apply(cor.carrier, CA, 1, 0, ucol)
    ins_left = leg_apply(cor.carrier, AC, 0, 0, ucol)
    _fail_cols(rep, "entwining-unitality", e.psi @ ins_right - ins_left)
    # (3) (A Delta) psi = (psi C)(C psi)(Delta A)
    d_full = cor.delta_full()
    lhs = leg_apply(AC, acc, 1, 1, d_full) @ e.psi
    rhs = leg_apply(tensor_space([cor.carrier, e.a_mod, cor.carrier], [base, base]),
                    acc, 0, 2, psi_f) \
        @ leg_apply(cca, tensor_space([cor.carrier, e.a_mod, cor.carrier], [base, base]),
                    1, 2, psi_f) \
        @ leg_apply(CA, cca, 0, 1, d_full)
    _fail_cols(rep, "entwining-comultiplicativity", lhs - rhs)
    # (4) (A eps) psi = eps A
    _fail_cols(rep, "entwining-counitality",
               contract(AC, cor.eps) @ e.psi - contract(CA.op(), cor.eps))
    return rep


def validate_left_entwining(e):
    """Mirror axioms for psi^{-1} of a bijective right entwining structure:
    the right-entwining axioms of ``e.op()``, each relabelled ``left-...``."""
    rep = Report(f"{e.name}^-1")
    if e.psi_inv is None:
        rep.fail("no-inverse", None)
        return rep
    for axiom, loc in validate_entwining(e.op()).failures:
        rep.fail(f"left-{axiom}", loc)
    return rep


def invert_entwining(e):
    """Install psi^{-1}; verifies invertibility and the mirror axioms."""
    if e.CA.dim != e.AC.dim:
        raise NotBijective(f"psi maps dim {e.CA.dim} to dim {e.AC.dim}")
    inv = inverse(e.psi)
    if inv is None:
        raise NotBijective("psi is not invertible")
    out = Entwining(e.base, e.ring, e.eta, e.coring, e.psi, inv, name=e.name)
    rep = validate_left_entwining(out)
    if not rep.ok:
        raise NotBijective(f"psi^-1 fails left-entwining axioms: {rep.failures[:3]}")
    return out


# ---------------------------------------------------------------------------
# Associated corings and the converse construction
# ---------------------------------------------------------------------------

def associated_coring(e):
    """The A-coring (A (x)_R C)_psi: left action obvious, right action
    (a (x) c) a' = a psi(c (x) a'), coproduct A Delta, counit A eps.
    Memoized on e for its current psi."""
    if e._assoc is not None and e._assoc[0] is e.psi:
        return e._assoc[1]
    base, ring, cor = e.base, e.ring, e.coring
    AC = e.AC
    carrier = Module(ring.field, f"({ring.name}(x){cor.name})_psi", AC.dim)
    carrier.add_left(ring, AC.outer_left[ring])
    aca = tensor_space([e.a_mod, cor.carrier, e.a_mod], [base, base])
    aac = tensor_space([e.a_mod, e.a_mod, cor.carrier], [base, base])
    s2 = leg_apply(aca, aac, 1, 2, e.psi_full())
    s3 = leg_apply(aac, AC, 0, 2, ring.mult_mat())
    rmats = []
    for j in range(ring.dim):
        ins = leg_apply(AC, aca, 2, 0,
                        Mat.from_cols(ring.field, [ring.basis_vector(j)], ring.dim))
        rmats.append(s3 @ s2 @ ins)
    carrier.add_right(ring, rmats)
    cc = tensor_space([carrier, carrier], [ring])
    acc = tensor_space([e.a_mod, cor.carrier, cor.carrier], [base, base])
    d1 = leg_apply(AC, acc, 1, 1, cor.delta_full())
    amb = kron_id(ring.dim * cor.dim, ring.unit_col(), cor.dim)
    reassoc = leg_apply(acc, cc, 0, 3, AC.Q.kron(AC.Q) @ amb)
    assoc = Coring(ring, carrier, reassoc @ d1, contract(AC, cor.eps), name=carrier.name)
    e._assoc = (e.psi, assoc)
    return assoc


def co_associated_coring(e):
    """The A-coring (C (x)_R A)_{psi^{-1}} of a bijective structure: the
    co-opposite of the associated coring of ``e.op()``."""
    assert e.psi_inv is not None
    return associated_coring(e.op()).cop()


def entwining_from_coring(stub, right_action_mats):
    """Converse construction: an A-coring structure on A (x)_R C with the
    obvious left multiplication, coproduct A Delta and counit A eps, gives
    psi(c (x) a) = (1_A (x) c) a, provided the right action is compatible
    with the right R-action on the C-leg.

    ``stub`` is an Entwining built with psi=None; ``right_action_mats`` are
    the right A-action matrices on stub.AC, one per basis element of A."""
    base, ring, eta, coring = stub.base, stub.ring, stub.eta, stub.coring
    AC, CA = stub.AC, stub.CA
    f = ring.field
    for i in range(base.dim):
        given = lincomb(right_action_mats, eta.apply(base.basis_vector(i)))
        if given != AC.outer_right[base][i]:
            raise CompatibilityFailure(
                f"right action of eta(r_{i}) differs from the C-leg R-action")
    cols = []
    for ci in range(coring.dim):
        zc = AC.embed_pure([ring.unit, coring.carrier.basis_vector(ci)])
        for aj in range(ring.dim):
            cols.append(right_action_mats[aj].apply(zc))
    f_full = Mat.from_cols(f, cols, AC.dim)  # full(C (x) A) -> AC, tuple (c,a)
    psi = descend(f_full, CA)
    if psi is None:
        raise CompatibilityFailure("psi does not descend to C (x)_R A")
    stub.psi = psi
    rep = validate_entwining(stub)
    if not rep.ok:
        stub.psi = None
        raise CompatibilityFailure(f"converse psi fails axioms: {rep.failures[:3]}")
    return stub


def sweedler_coring(ring, sub, sub_incl):
    """The canonical Sweedler A-coring A (x)_B A of a subalgebra B of A:
    Delta(a (x) a') = (a (x) 1) (x)_A (1 (x) a'), eps = multiplication."""
    a_mod = regular_bimodule(ring).restrict(sub, sub_incl)
    aa = tensor_space([a_mod, a_mod], [sub], name=f"{ring.name}(x)_{sub.name}{ring.name}")
    cor = _sweedler_on(ring, aa, f"Sw({ring.name}|{sub.name})")
    cor.aa_space = aa
    return cor, aa


def _sweedler_on(ring, aa, name):
    """The Sweedler A-coring carried by a given A (x)_B A space."""
    f = ring.field
    carrier = module_of_space(aa, name)
    cc = tensor_space([carrier, carrier], [ring])
    unit2 = Mat.from_cols(f, [kron_vec(f, ring.unit, ring.unit)], ring.dim * ring.dim)
    delta = leg_apply(aa, cc, 0, 2, aa.Q.kron(aa.Q) @ kron_id(ring.dim, unit2, ring.dim))
    eps = leg_apply(aa, regular_bimodule(ring), 0, 2, ring.mult_mat())
    return Coring(ring, carrier, delta, eps, name=name)


# ---------------------------------------------------------------------------
# Entwined modules
# ---------------------------------------------------------------------------

def validate_entwined_module(carrier, rho, e, name="M"):
    """carrier: a right A-module that already carries R's right action
    through eta (as ``e.a_mod`` does); rho: canonical coordinates coaction
    into M (x)_R C.  Checks the entwined-module compatibility and the
    identification with comodules of the associated A-coring.  The
    failures are memoized on e by the carrier and rho objects, for e's
    current psi and psi_inv; the Report is named ``name`` on each call."""
    rep = Report(name)
    memo = e._entwined_checks.get((carrier, rho))
    if memo is None or memo[0] is not e.psi or memo[1] is not e.psi_inv:
        memo = (e.psi, e.psi_inv, _entwined_module_failures(carrier, rho, e, name))
        e._entwined_checks[(carrier, rho)] = memo
    rep.failures = list(memo[2])
    return rep


def _entwined_module_failures(carrier, rho, e, name):
    rep = Report(name)
    ring, cor = e.ring, e.coring
    m = Comodule(cor, carrier, rho, "right", name=name)
    rep.merge(validate_comodule(m), prefix="comodule")
    MC = m.space
    _entwined_compatibility(rep, "entwined-compatibility", carrier, rho, e)
    act = carrier.right_collapse_mat(ring)
    # identification with comodules of (A (x)_R C)_psi
    assoc = associated_coring(e)
    md = tensor_space([carrier, assoc.carrier], [ring])
    ins = leg_apply(cor.carrier, e.AC, 0, 0, ring.unit_col())
    rho_hat = leg_apply(MC, md, 1, 1, ins) @ rho
    mhat = Comodule(assoc, carrier, rho_hat, "right", name=f"{name}-assoc")
    rep.merge(validate_comodule(mhat), prefix="assoc-comodule")
    back = leg_apply(md, MC, 0, 2, kron_id(1, act, cor.dim) @ kron_id(carrier.dim, e.AC.S, 1))
    _fail_cols(rep, "assoc-identification", back @ rho_hat - rho)
    return rep.failures


def _entwined_compatibility(rep, axiom, carrier, rho, e):
    """rho(m a) = m_(0) psi(m_(1) (x) a) for a right A-module carrier with
    coaction rho into M (x)_R C; the left version is this check on
    (carrier.op(), lrho, e.op())."""
    base, cor = e.base, e.coring
    MC = tensor_space([carrier, cor.carrier], [base])
    MA = tensor_space([carrier, e.a_mod], [base])
    mca = tensor_space([carrier, cor.carrier, e.a_mod], [base, base])
    mac = tensor_space([carrier, e.a_mod, cor.carrier], [base, base])
    act = carrier.right_collapse_mat(e.ring)
    lhs = rho @ leg_apply(MA, carrier, 0, 2, act)
    s1 = leg_apply(MA, mca, 0, 1, MC.S @ rho)
    s2 = leg_apply(mca, mac, 1, 2, e.psi_full())
    s3 = leg_apply(mac, MC, 0, 2, act)
    _fail_cols(rep, axiom, lhs - s3 @ s2 @ s1)


# ---------------------------------------------------------------------------
# Entwined extensions
# ---------------------------------------------------------------------------

class EntwinedExtension:
    """A bijective entwining with a coaction making A an entwined module,
    the induced left coaction, the grouplike of the associated coring, the
    coinvariant algebra B and a chosen subalgebra T of B: k.1 from
    ``make_extension``, another one from ``with_T``.  A strong connection
    of the extension is over this T."""

    def __init__(self, entwining, rho, lrho, g_assoc, b_alg, b_incl,
                 t, t_incl_b, grouplike=None):
        self.entwining = entwining
        self.rho = rho
        self.lrho = lrho
        self.g_assoc = g_assoc
        self.B = b_alg
        self.incl_B = b_incl
        self.T = t
        self.incl_T_B = t_incl_b
        self.incl_T_A = t_incl_b.then(b_incl)
        self.grouplike = grouplike
        entwining.a_mod.restrict(b_alg, b_incl).restrict(t, self.incl_T_A)
        self.b_mod = regular_bimodule(b_alg).restrict(t, t_incl_b)
        self._with_T = {}  # memo of with_T, keyed by the T basis

    @property
    def a_mod(self):
        return self.entwining.a_mod

    def __repr__(self):
        return (f"EntwinedExtension({self.B.name} in {self.entwining.ring.name}, "
                f"T={self.T.name})")

    def with_T(self, t_basis):
        """The same extension with T generated by ``t_basis`` (vectors of A,
        k.1 when empty), which must lie in B: the one way to choose T.
        Memoized per basis, so a repeated call declares no new action on A
        and reuses the tensor spaces memoized over that T."""
        key = tuple(map(tuple, t_basis))
        x = self._with_T.get(key)
        if x is None:
            t, t_incl_b = _subalgebra_of_b(self.entwining.ring, t_basis, self.incl_B)
            x = self._with_T[key] = EntwinedExtension(
                self.entwining, self.rho, self.lrho, self.g_assoc, self.B,
                self.incl_B, t, t_incl_b, grouplike=self.grouplike)
        return x


def _subalgebra_of_b(ring, t_basis, b_incl):
    """T generated by ``t_basis`` (k.1 when empty) with its inclusion into
    B, the factorization of T -> A through the injective B -> A."""
    t, t_incl_a = generated_subalgebra(ring, t_basis)
    t_in_b = solve_right(b_incl.matrix, t_incl_a.matrix)
    if t_in_b is None:
        raise CoinvariantMismatch("T is not contained in B")
    return t, AlgebraMorphism(t, b_incl.source, t_in_b)


def make_extension(e, rho, grouplike=None):
    """Build an entwined extension from a bijective entwining and a coaction.

    Verifies: A is a right entwined module; rho(1) is a grouplike of the
    associated coring (condition (c)); its psi-inverse is a grouplike of the
    co-associated coring (condition (e)); A is a left entwined module under
    the induced left coaction (condition (h)); and the two one-sided
    coinvariant computations agree.  T is k.1; ``with_T`` chooses another.
    """
    if e.psi_inv is None:
        raise NotBijective("extensions need a bijective entwining")
    ring = e.ring
    rep = validate_entwined_module(e.a_mod, rho, e, name=ring.name)
    if not rep.ok:
        raise NotEntwinedModule(str(rep.failures[:3]))
    g_assoc = rho.apply(ring.unit)
    assoc = associated_coring(e)
    ok, _ = verify_grouplike(assoc, g_assoc)
    if not ok:
        raise NotEntwinedModule("rho(1_A) is not a grouplike of (A(x)C)_psi")
    # left coaction a -> psi^{-1}(a rho(1))  (condition (h) form)
    m1 = e.left_action_on(g_assoc)
    lrho = e.psi_inv @ m1
    # condition (e): psi^{-1}(g) grouplike in (C (x) A)_{psi^{-1}}
    coassoc = co_associated_coring(e)
    ok2, _ = verify_grouplike(coassoc, e.psi_inv.apply(g_assoc))
    if not ok2:
        raise NotEntwinedModule("psi^{-1}(rho(1_A)) is not a grouplike")
    # condition (h): A is a left entwined module under lrho
    hrep = Report("left-entwined")
    _entwined_compatibility(hrep, "left-entwined-compatibility", e.a_mod.op(), lrho, e.op())
    if not hrep.ok:
        raise NotEntwinedModule(f"left entwined module fails: {hrep.failures[:3]}")
    # coinvariants, two one-sided kernel formulas
    b_right = kernel(rho - m1)
    b_left = kernel(lrho - e.op().left_action_on(lrho.apply(ring.unit)))
    if b_right != b_left:
        raise CoinvariantMismatch(
            f"one-sided coinvariants differ: dims {b_right.dim} vs {b_left.dim}")
    basis = [b_right.mat.row_list(i) for i in range(b_right.dim)]
    b_alg, b_incl = generated_subalgebra(ring, basis)
    if b_alg.dim != b_right.dim:
        raise CoinvariantMismatch("coinvariants are not multiplicatively closed")
    t, t_incl_b = _subalgebra_of_b(ring, [], b_incl)
    return EntwinedExtension(e, rho, lrho, g_assoc, b_alg, b_incl,
                             t, t_incl_b, grouplike=grouplike)


def extension_from_grouplike(e, g):
    """rho(a) = psi(g (x) a) and lrho(a) = psi^{-1}(a (x) g) for a
    grouplike g of C."""
    if e.psi_inv is None:
        raise NotBijective("extensions need a bijective entwining")
    ok, res = verify_grouplike(e.coring, g)
    if not ok:
        raise NotEntwinedModule("g is not a grouplike element")
    f = e.ring.field
    gcol = Mat.from_cols(f, [g], e.coring.dim)
    rho = e.psi @ leg_apply(e.a_mod, e.CA, 0, 0, gcol)
    return make_extension(e, rho, grouplike=g)


def _detect_grouplike(e, rho):
    """Recover g with rho = psi(g (x) -) when the coaction is grouplike
    induced; None otherwise."""
    z = e.psi_inv.apply(rho.apply(e.ring.unit)) if e.psi_inv else None
    if z is None:
        return None
    cols = [e.CA.embed_pure([e.coring.carrier.basis_vector(i), e.ring.unit])
            for i in range(e.coring.dim)]
    m = Mat.from_cols(e.ring.field, cols, e.CA.dim)
    g = solve_right(m, Mat.from_cols(e.ring.field, [z], len(z)))
    if g is None:
        return None
    g = g.col(0)
    if not verify_grouplike(e.coring, g)[0]:
        return None
    gcol = Mat.from_cols(e.ring.field, [g], e.coring.dim)
    rho2 = e.psi @ leg_apply(e.a_mod, e.CA, 0, 0, gcol)
    return g if rho2 == rho else None


# ---------------------------------------------------------------------------
# Canonical maps
# ---------------------------------------------------------------------------

def cantilde(e, rho, t):
    """The lifted canonical map A (x)_T A -> A (x)_R C, a (x) a' -> a rho(a'),
    for a subalgebra T acting on A; returns (matrix, the A (x)_T A
    TensorSpace)."""
    a_mod = e.a_mod
    aat = tensor_space([a_mod, a_mod], [t],
                       name=f"{e.ring.name}(x)_{t.name}{e.ring.name}")
    aac = tensor_space([a_mod, a_mod, e.coring.carrier], [t, e.base])
    s1 = leg_apply(aat, aac, 1, 1, e.AC.S @ rho)
    s2 = leg_apply(aac, e.AC, 0, 2, e.ring.mult_mat())
    return s2 @ s1, aat


def canonical_maps(x):
    """can_A: A (x)_B A -> A (x)_R C with the Galois verdict; when bijective
    the inverse is returned and certified to be an A-coring morphism."""
    e = x.entwining
    can, aab = cantilde(e, x.rho, x.B)
    galois = aab.dim == e.AC.dim
    can_inv = None
    coring_morphism = None
    if galois:
        can_inv = inverse(can)
        galois = can_inv is not None
    if galois:
        sw = _sweedler_on(e.ring, aab, f"Sw({e.ring.name}|{x.B.name})")
        assoc = associated_coring(e)
        rep = Report("can-coring-morphism")
        _fail_cols(rep, "counit", assoc.eps @ can - sw.eps)
        can2 = leg_apply(sw.CC, assoc.CC, 0, 2, can.kron(can))
        _fail_cols(rep, "coproduct", assoc.delta @ can - can2 @ sw.delta)
        check_equations(rep, can, eqs_linear(e.ring, aab, assoc.carrier, "left"))
        coring_morphism = rep
    return {
        "can": can,
        "space": aab,
        "galois": galois,
        "can_inv": can_inv,
        "coring_morphism": coring_morphism,
    }


def galois_check(e, rho):
    """Galois verdict for a raw coaction (no extension validation): computes
    the coinvariant kernel B, then rank-checks can_A on A (x)_B A."""
    ring = e.ring
    b_ker = kernel(rho - e.left_action_on(rho.apply(ring.unit)))
    basis = [b_ker.mat.row_list(i) for i in range(b_ker.dim)]
    b_alg, b_incl = generated_subalgebra(ring, basis)
    e.a_mod.restrict(b_alg, b_incl)
    can, aab = cantilde(e, rho, b_alg)
    galois = aab.dim == e.AC.dim and rank(can) == e.AC.dim
    return {"galois": galois, "can": can, "B_dim": b_alg.dim, "space": aab}
