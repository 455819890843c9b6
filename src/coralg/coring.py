"""R-corings, comodules, grouplikes, dual rings, (co)separability data,
coidempotent matrices and cotensor products.

A coring is a comonoid in R-bimodules: carrier C with a coproduct
Delta: C -> C (x)_R C and counit eps: C -> R, both R-R bilinear, satisfying
coassociativity and the counit laws.  Sweedler components are only ever
manipulated through canonical quotient coordinates.
"""

import math

from .errors import ActionMismatch, InvalidCoidempotent, NotProjective
from .exactla import Mat, SubspaceBasis, kernel, kron_contract, kron_id, lincomb
from .ncalg import (
    Algebra, Equation, Module, Report, Term, _fail_cols, contract, eqs_linear, hom_solve,
    leg_apply, regular_bimodule, tensor_space, validate_module,
)


class Coring:
    """An R-coring; ``delta`` and ``eps`` are matrices in canonical
    coordinates (delta: C -> C (x)_R C, eps: C -> R)."""

    def __init__(self, base, carrier, delta, eps, name="C"):
        self.base = base
        self.carrier = carrier
        self.delta = delta
        self.eps = eps
        self.name = name
        self.CC = tensor_space([carrier, carrier], [base], name=f"{name}(x){name}")
        self._cop = None

    def __repr__(self):
        return f"Coring({self.name} over {self.base.name}, dim {self.carrier.dim})"

    def cop(self):
        """The co-opposite R^op-coring on C^op.  Its C (x) C is the reversal
        view of this one's, so the same ``delta`` matrix is c_(2) (x) c_(1)."""
        o = self._cop
        if o is None or o.delta is not self.delta or o.eps is not self.eps:
            o = Coring(self.base.op(), self.carrier.op(), self.delta, self.eps,
                       name=f"{self.name}^cop")
            o._cop, self._cop = self, o
        return o

    @property
    def dim(self):
        return self.carrier.dim

    def delta_full(self):
        """Delta with target lifted to the full C (x)_k C ambient."""
        return self.CC.S @ self.delta

    def triple_space(self):
        c = self.carrier
        return tensor_space([c, c, c], [self.base, self.base],
                            name=f"{self.name}^(x)3")


def trivial_coring(base):
    """C = R with Delta the canonical iso R -> R (x)_R R and eps = id."""
    carrier = regular_bimodule(base, name=f"{base.name}-triv")
    cc = tensor_space([carrier, carrier], [base])
    delta = Mat.from_cols(base.field,
                          [cc.embed_pure([base.basis_vector(i), base.unit])
                           for i in range(base.dim)],
                          cc.dim)
    eps = Mat.identity(base.field, base.dim)
    return Coring(base, carrier, delta, eps, name=f"triv({base.name})")


def validate_coring(c):
    """Bimodule linearity of Delta and eps, coassociativity, both counit
    identities; every violation is located at the offending basis column.
    Each left-hand check is the right-hand one on ``c.cop()``, whose
    matrices are the same."""
    rep = Report(c.name)
    rep.merge(validate_module(c.carrier, c.base, c.base), prefix="carrier")
    rreg, cop = regular_bimodule(c.base), c.cop()
    # per side: the coring, and the targets of delta and eps (on a module,
    # outer_right is the right action)
    sides = (("left", cop, (cop.CC, rreg.op())), ("right", c, (c.CC, rreg)))
    for i in range(c.base.dim):
        for k, (name, m) in enumerate((("delta", c.delta), ("eps", c.eps))):
            for side, cor, tgts in sides:
                t = cor.base
                _fail_cols(rep, f"{name}-{side}-linear[{i}]",
                           m @ cor.carrier.right[t][i] - tgts[k].outer_right[t][i] @ m)
    ccc = c.triple_space()
    d_full = c.delta_full()
    d1 = leg_apply(c.CC, ccc, 0, 1, d_full) @ c.delta
    d2 = leg_apply(c.CC, ccc, 1, 1, d_full) @ c.delta
    _fail_cols(rep, "coassociativity", d1 - d2)
    ident = Mat.identity(c.base.field, c.dim)
    for side, cor, _ in sides:
        _fail_cols(rep, f"counit-{side}", contract(cor.CC, c.eps) @ c.delta - ident)
    return rep


class Comodule:
    """A right or left C-comodule; ``coaction`` maps carrier coordinates to
    the canonical coordinates of M (x)_R C (right) or C (x)_R M (left).
    A left C-comodule M is the right C^cop-comodule M^op (``op()``) with
    the same coaction matrix."""

    def __init__(self, coring, carrier, coaction, side, name="M"):
        self.coring = coring
        self.carrier = carrier
        self.coaction = coaction
        self.side = side
        self.name = name
        self._op = None
        if side == "right":
            self.space = tensor_space([carrier, coring.carrier], [coring.base],
                                      name=f"{name}(x){coring.name}")
        else:
            self.space = self.op().space.op()

    def __repr__(self):
        return f"Comodule({self.name}, {self.side} over {self.coring.name})"

    def op(self):
        o = self._op
        if o is None or o.coaction is not self.coaction:
            o = Comodule(self.coring.cop(), self.carrier.op(), self.coaction,
                         "left" if self.side == "right" else "right", name=self.name)
            o._op, self._op = self, o
        return o

    def coaction_full(self):
        return self.space.S @ self.coaction


def regular_comodule(c, side="right"):
    return Comodule(c, c.carrier, c.delta, side, name=c.name)


def validate_comodule(m):
    """R-linearity, coassociativity and counitality of the coaction; a left
    comodule is checked as the right comodule ``m.op()``."""
    rep = Report(m.name)
    side = m.side
    if side == "left":
        m = m.op()
    c = m.coring
    base = c.base
    car = m.carrier
    rho = m.coaction
    for i in range(base.dim):
        lhs = rho @ car.right[base][i]
        rhs = m.space.outer_right[base][i] @ rho
        _fail_cols(rep, f"coaction-{side}-linear[{i}]", lhs - rhs)
    mcc = tensor_space([car, c.carrier, c.carrier], [base, base])
    t1 = leg_apply(m.space, mcc, 0, 1, m.coaction_full()) @ rho
    t2 = leg_apply(m.space, mcc, 1, 1, c.delta_full()) @ rho
    _fail_cols(rep, "coassociativity", t1 - t2)
    cu = contract(m.space, c.eps) @ rho
    _fail_cols(rep, "counit", cu - Mat.identity(base.field, car.dim))
    return rep


def verify_grouplike(c, e):
    """Delta(e) = e (x) e and eps(e) = 1_R, exactly; returns (bool, residuals)."""
    d_res = [a - b for a, b in zip(c.delta.apply(e), c.CC.embed_pure([e, e]))]
    e_res = [a - b for a, b in zip(c.eps.apply(e), c.base.unit)]
    ok = not any(d_res) and not any(e_res)
    return ok, {"delta": d_res, "eps": e_res}


def coinvariants(m, e):
    """Canonical basis of {x : coaction(x) = x (x) e} (resp. e (x) x)."""
    car = m.carrier
    cols = []
    for i in range(car.dim):
        b = car.basis_vector(i)
        legs = [b, e] if m.side == "right" else [e, b]
        cols.append(m.space.embed_pure(legs))
    em = Mat.from_cols(car.field, cols, m.space.dim)
    return kernel(m.coaction - em)


# ---------------------------------------------------------------------------
# Left dual ring
# ---------------------------------------------------------------------------

def dual_ring(c):
    """The left R-dual *C = Hom_{R-}(C, R) with (ff')(c) = f'(c_(1) f(c_(2))).

    Returns (Algebra, data) where data has the basis maps, the unit map
    matrix eta: R -> *C, and ``module_of_comodule`` installing the induced
    right *C-action on a right comodule.
    """
    base, car = c.base, c.carrier
    f = base.field
    rreg = regular_bimodule(base)
    sol = hom_solve(f, car.dim, base.dim, eqs_linear(base, car, rreg, "left"))
    basis_flat = sol.homogeneous
    fs = sol.directions
    dim = len(fs)

    def coords(m):
        """The coordinates of a map C -> R, read row-major, in the basis fs."""
        v = basis_flat.membership(m.reshape(1, base.dim * car.dim).row_list(0))
        assert v is not None, "dual ring element left the hom space"
        return v

    ga = [contract(c.CC, fa) @ c.delta for fa in fs]  # c -> c_(1) f(c_(2))
    mu = Mat.from_cols(f, [coords(fb @ g) for g in ga for fb in fs], dim)
    star = Algebra(f, f"*{c.name}", mu, coords(c.eps))
    eta = Mat.from_cols(f, [coords(c.eps @ car.right[base][i]) for i in range(base.dim)], dim)

    def module_of_comodule(m):
        """Install m . f = m_(0) f(m_(1)) as a right *C-action."""
        assert m.side == "right"
        m.carrier.add_right(star, [contract(m.space, fa) @ m.coaction for fa in fs])
        return m.carrier

    return star, {"maps": fs, "eta": eta, "module_of_comodule": module_of_comodule}


# ---------------------------------------------------------------------------
# (Co)separability
# ---------------------------------------------------------------------------

def separability_idempotent(a, base, a_mod):
    """Solve for a separability idempotent z in A (x)_base A:
    a . z = z . a for all a, and mu(z) = 1_A.  base=None works over k.

    Returns None or a dict with ``z`` (canonical coordinates), the space,
    and ``retraction`` turning a left B-linear map into a B-R bilinear one
    (only meaningful for base=None, i.e. a separable k-algebra)."""
    f = a.field
    aa = tensor_space([a_mod, a_mod], [base], name=f"{a.name}(x){a.name}")
    eqs = []
    one_col = Mat.identity(f, 1)
    for i in range(a.dim):
        eqs.append(Equation([Term(aa.outer_left[a][i], one_col),
                             Term(aa.outer_right[a][i], one_col, -1)],
                            label=f"central[{i}]"))
    mu_bar = leg_apply(aa, a_mod, 0, 2, a.mult_mat())
    eqs.append(Equation([Term(mu_bar, one_col)],
                        rhs=Mat.from_cols(f, [a.unit], a.dim), label="multiplies-to-1"))
    sol = hom_solve(f, 1, aa.dim, eqs)
    if sol.is_empty:
        return None
    z = sol.particular.col(0)

    def retraction(fmap, m_mod, n_mod):
        """For z = sum e_l (x) f_l over k: f -> sum R_N[f_l] f R_M[e_l]."""
        assert base is None, "functorial retraction needs a separability over k"
        terms = [(divmod(flat, a.dim), v) for flat, v in enumerate(z) if v]
        if not terms:
            return Mat.zeros(f, fmap.nrows, fmap.ncols)
        return lincomb([n_mod.right[a][j] @ fmap @ m_mod.right[a][i] for (i, j), _ in terms],
                       [v for _, v in terms])

    return {"z": z, "space": aa, "retraction": retraction, "solutions": sol}


def search_grouplikes(c):
    """Exhaustive grouplike search, prime fields only; guarded by
    dim(C) * log2(p) <= 16.  Grouplike verification is quadratic, so the
    core API only verifies; this is a convenience for tiny cases."""
    field = c.base.field
    if field.p is None:
        raise ValueError("exhaustive search needs a prime field")
    if c.carrier.dim * math.log2(field.p) > 16:
        raise ValueError("search space exceeds 2^16 candidates")
    found = []
    dim = c.carrier.dim
    total = field.p ** dim
    for code in range(total):
        v = []
        rem = code
        for _ in range(dim):
            v.append(rem % field.p)
            rem //= field.p
        if verify_grouplike(c, v)[0]:
            found.append(v)
    return found


def cointegral(c):
    """Solve for a cointegral delta: C (x)_R C -> R.

    Returns None or a dict with the matrix and a ``retraction`` factory
    turning a right R-linear map of right comodules into a colinear one."""
    base, car = c.base, c.carrier
    f = base.field
    rreg = regular_bimodule(base)
    eqs = eqs_linear(base, c.CC, rreg, "left") + eqs_linear(base, c.CC, rreg, "right")
    ccc = c.triple_space()
    d1 = leg_apply(c.CC, ccc, 0, 1, c.delta_full())
    d2 = leg_apply(c.CC, ccc, 1, 1, c.delta_full())
    rc = car.right_collapse_mat(base)
    lc = car.left_collapse_mat(base)
    u_left = kron_id(car.dim, c.CC.Q, 1) @ (ccc.S @ d1)
    u_right = kron_id(1, c.CC.Q, car.dim) @ (ccc.S @ d2)
    eqs.append(Equation([Term(rc, u_left, pre=car.dim),
                         Term(lc, u_right, -1, post=car.dim)],
                        label="cointegral-coassoc"))
    eqs.append(Equation([Term(Mat.identity(f, base.dim), c.delta)],
                        rhs=c.eps, label="cointegral-counit"))
    sol = hom_solve(f, c.CC.dim, base.dim, eqs)
    if sol.is_empty:
        return None
    delta = sol.particular

    def retraction(fmap, m, n):
        """(N (x) delta)(rho_N (x) C)(f (x) C) rho_M for right comodules m, n."""
        nc = n.space
        ncc = tensor_space([n.carrier, c.carrier, c.carrier], [base, base])
        f1 = leg_apply(m.space, nc, 0, 1, fmap)
        f2 = leg_apply(nc, ncc, 0, 1, n.coaction_full())
        f3 = contract(ncc, delta @ c.CC.Q)
        return f3 @ f2 @ f1 @ m.coaction

    return {"delta": delta, "retraction": retraction, "solutions": sol}


# ---------------------------------------------------------------------------
# Coidempotents
# ---------------------------------------------------------------------------

class Coidempotent:
    """A finite matrix (e_ij) in C with Delta(e_ij) = sum_k e_ik (x) e_kj;
    ``mat`` holds the entries as one Mat whose column i * size + j is e_ij."""

    def __init__(self, coring, entries):
        self.coring = coring
        self.entries = entries
        self.size = len(entries)

    @property
    def mat(self):
        return Mat.from_cols(self.coring.base.field, [v for row in self.entries for v in row],
                             self.coring.dim)

    def __repr__(self):
        return f"Coidempotent({self.size}x{self.size} in {self.coring.name})"


def validate_coidempotent(e):
    """Coidempotency of the matrix E and idempotency of its counit matrix
    P = eps(E): the residuals Delta E - E (x) E and mu (P (x) P) - P, the
    products taken entry-wise (``kron_contract``), located at (i, j)."""
    rep = Report(f"coidempotent({e.coring.name})")
    c, n, em = e.coring, e.size, e.mat
    for col in (c.delta @ em - c.CC.embed_contracted(em, em, n)).nonzero_cols():
        rep.fail("coidempotency", divmod(col, n))
    p = c.eps @ em
    for col in (c.base.mult_mat() @ kron_contract(p, p, n) - p).nonzero_cols():
        rep.fail("counit-idempotency", divmod(col, n))
    return rep


def coidempotent_from_comodule(w, db):
    """e_ij = (C (x) chi_j)[coaction(w_i)] for a finite dual basis of a left
    comodule that is f.g. projective as a left R-module.

    All three defining properties are verified before returning: (1)
    coaction(w_i) = sum_j e_ij (x) w_j and (2) e_ij = sum_k X_ik e_kj =
    sum_k e_ik X_kj with X_ik = chi_k(w_i), as Mat identities.
    """
    if not db.projective:
        raise NotProjective(f"{w.name} has no dual basis")
    c = w.coring
    base, car = c.base, c.carrier
    f = base.field
    n = len(db.ws)
    wcols = Mat.from_cols(f, db.ws, w.carrier.dim)
    rho = w.coaction @ wcols
    kr = [contract(w.space, chi) @ rho for chi in db.chis]
    e = Coidempotent(c, [[k.col(i) for k in kr] for i in range(n)])
    em = e.mat
    bad = (rho - w.space.embed_contracted(em, wcols, n)).nonzero_cols()
    if bad:
        raise InvalidCoidempotent(f"property (1) fails at row {bad[0]}")
    x = Mat.from_cols(f, [chi.apply(wi) for wi in db.ws for chi in db.chis], base.dim)
    bad = sorted({*(car.left_collapse_mat(base) @ kron_contract(x, em, n) - em).nonzero_cols(),
                  *(car.right_collapse_mat(base) @ kron_contract(em, x, n) - em).nonzero_cols()})
    if bad:
        raise InvalidCoidempotent(f"property (2) fails at {divmod(bad[0], n)}")
    rep = validate_coidempotent(e)
    if not rep.ok:
        raise InvalidCoidempotent(str(rep.failures[:3]))
    return e


def comodule_from_coidempotent(c, e, side="left"):
    """Reconstruct the comodule W from a coidempotent matrix.

    Left side: W = R^(I) p, the left R-span of the rows of p, with coaction
    (sum_i r_i p_ij)_j -> sum_{i,k} r_i e_ik (x) (p_kj)_j.  Right side:
    W = p R^(I), the right R-span of the columns of p, built as the left
    construction for the transposed matrix over C^cop (whose R^op-span of
    the rows of the transposed p is p R^(I)), read back through
    ``Comodule.op()``.
    """
    rep = validate_coidempotent(e)
    if not rep.ok:
        raise InvalidCoidempotent(str(rep.failures[:3]))
    name = f"W({c.name})"
    if side == "left":
        return _left_comodule_from_coidempotent(c, e, name, opposite=False)
    et = Coidempotent(c.cop(), [list(col) for col in zip(*e.entries)])
    return _left_comodule_from_coidempotent(c.cop(), et, name, opposite=True).op()


def _left_comodule_from_coidempotent(c, e, name, opposite):
    """The left construction; with ``opposite`` the carrier is created as a
    plain module W and the left comodule is carried by W.op().  W is the
    column span of v -> v p on R^n (block layout), p = eps(E) the counit
    matrix; w = w p (its blocks w_i) goes to sum_{i,k} w_i e_ik (x)
    row_k(p), row_k(p) the image of the unit at block k."""
    base = c.base
    f = base.field
    n, em = e.size, e.mat
    rp = base.right_mult_by_matrix(c.eps @ em, n)
    rows_p = rp @ kron_id(n, base.unit_col(), 1)
    basis = SubspaceBasis.from_columns(f, n * base.dim, [rp])
    wdim = basis.dim
    carrier = Module(f, name, wdim)
    if opposite:
        carrier = carrier.op()

    def induced(mats, side):
        # side: the side of the action on W (on W.op() the sides swap)
        out = [basis.restrict(kron_id(n, m, 1)) for m in mats]
        if None in out:
            raise ActionMismatch(f"{name}: W = {span} is not closed under the {side} action")
        return out

    sides = ("right", "left") if opposite else ("left", "right")
    span = "p R^(I)" if opposite else "R^(I) p"
    carrier.add_left(base, induced(base.left_mult_mats(), sides[0]))
    carrier.add_right(base, induced(base.right_mult_mats(), sides[1]))
    space = tensor_space([c.carrier, carrier], [base])
    wrows = Mat.from_cols(f, [basis.membership(v) for v in rows_p.sparse_cols()], wdim)
    # the blocks of the basis vectors of W: column b * n + i is w_bi
    blocks = basis.mat.reshape(wdim * n, base.dim).transpose()
    clegs = c.carrier.left_collapse_mat(base) @ kron_contract(blocks, em, n)
    coaction = space.embed_contracted(clegs, wrows, n)
    w = Comodule(c, carrier, coaction, "left", name=name)
    rep = validate_comodule(w)
    if not rep.ok:
        raise InvalidCoidempotent(f"reconstructed comodule invalid: {rep.failures[:3]}")
    return w


def direct_sum_coidempotents(e1, e2):
    """Block-diagonal coidempotent over the disjoint union of index sets."""
    assert e1.coring is e2.coring
    c = e1.coring
    f = c.base.field
    zero = [f.zero] * c.carrier.dim
    n1, n2 = e1.size, e2.size
    entries = []
    for i in range(n1):
        entries.append([list(v) for v in e1.entries[i]] + [list(zero)] * n2)
    for i in range(n2):
        entries.append([list(zero)] * n1 + [list(v) for v in e2.entries[i]])
    e = Coidempotent(c, entries)
    rep = validate_coidempotent(e)
    if not rep.ok:
        raise InvalidCoidempotent(str(rep.failures[:3]))
    return e


# ---------------------------------------------------------------------------
# Cotensor product
# ---------------------------------------------------------------------------

def cotensor(m, w):
    """The equalizer M box_C W inside M (x)_R W for a right comodule m and a
    left comodule w; returns (SubspaceBasis, the M (x)_R W TensorSpace)."""
    assert m.coring is w.coring and m.side == "right" and w.side == "left"
    c = m.coring
    base = c.base
    mw = tensor_space([m.carrier, w.carrier], [base],
                      name=f"{m.name}box{w.name}")
    mcw = tensor_space([m.carrier, c.carrier, w.carrier], [base, base])
    t1 = leg_apply(mw, mcw, 0, 1, m.coaction_full())
    t2 = leg_apply(mw, mcw, 1, 1, w.coaction_full())
    ker = kernel(t1 - t2)
    return ker, mw
