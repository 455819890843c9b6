"""Chern-Galois cycle components, assembled even cycles and classes,
associated modules, the idempotent matrix E, Chern cycles of idempotents,
and the equality/independence checks.

The degree-l component attached to a coidempotent (e_ij) and a strong
T-connection ell (writing ell(c) = sum c^(1) (x) c^(2)) is

    sum over (i_1 .. i_{l+1}):
        e_{i_1 i_2}^(2) e_{i_2 i_3}^(1)  (*)  e_{i_2 i_3}^(2) e_{i_3 i_4}^(1)
        (*) ... (*) e_{i_{l+1} i_1}^(2) e_{i_1 i_2}^(1)

computed on the A-side circular space and pulled back through the
(injectivity-certified) map B^{(*)T(l+1)} -> A^{(*)T(l+1)}.  The even cycle
assembles the components with coefficients (-1)^{floor(l/2)} l!/floor(l/2)!
at bicomplex positions (p, q) = (2n - l, l).
"""

import itertools
import warnings
from math import factorial

from .errors import (
    ActionMismatch, CoralgError, IotaNotInjective, MembershipFailure, NotACycle,
    NotIdempotent, NoLocalDualSystem,
)
from .exactla import (
    Mat, SubspaceBasis, _axpy, _dense, _public, kernel, kron_contract, kron_id, rank,
    solve_right,
)
from .ncalg import (
    Equation, Module, Report, Term, check_equations, descend, eqs_linear,
    hom_solve, kron_to_quotient, leg_apply, project_vec, projective_dual_basis,
    regular_bimodule, tensor_space,
)
from .coring import Comodule, cotensor
from .cyclic import cyclic_complex, homology
from .connect import retraction_of_B, tflatness_check
from .entwine import canonical_maps


def chg_coefficient(field, l):
    """(-1)^{floor(l/2)} l! / floor(l/2)! as a field scalar, plus the integer."""
    h = l // 2
    n = (-1) ** h * factorial(l) // factorial(h)
    return field.from_int(n), n


def _connection_reps(sc):
    """Full A (x) A representatives of ell(e_ij) as {(alpha, beta): coeff}."""
    aat = sc.space
    d = sc.extension.entwining.ring.dim

    def rep(cvec):
        full = aat.S.apply(sc.ell.apply(cvec))
        out = {}
        for flat, v in enumerate(full):
            if v:
                out[divmod(flat, d)] = v
        return out

    return rep


def a_side_component(e, sc, l):
    """The degree-l component as a dense vector on the full A^{(x)(l+1)}
    ambient, by sequential contraction over the connection legs."""
    x = sc.extension
    ring = x.entwining.ring
    f = ring.field
    d = ring.dim
    prods = ring.mult_mat().sparse_cols()  # prods[b * d + a]: e_b e_a
    n_idx = e.size
    rep_of = _connection_reps(sc)
    reps = [[rep_of(e.entries[i][j]) for j in range(n_idx)] for i in range(n_idx)]
    out = {}
    for tup in itertools.product(range(n_idx), repeat=l + 1):
        # connection value #j is ell(e_{tup[j-1], tup[j mod (l+1)]}), 1-based
        ell_reps = [reps[tup[j]][tup[(j + 1) % (l + 1)]] for j in range(l + 1)]
        # fix nu_1; DP over the remaining factors
        for (a1, b1), z1 in ell_reps[0].items():
            partial = {(0, b1): z1}  # (prefix flat over 0 factors, pending v-leg)
            for j in range(1, l + 1):
                nxt = {}
                for (pref, beta), coeff in partial.items():
                    for (aj, bj), zj in ell_reps[j].items():
                        prod = prods[beta * d + aj]
                        _axpy(nxt, coeff * zj,
                              {(pref * d + k, bj): c for k, c in prod.items()}, f.p)
                partial = nxt
            # close the circle: last factor is v_{nu_{l+1}} u_{nu_1}
            for (pref, beta), coeff in partial.items():
                _axpy(out, coeff, {pref * d + k: c for k, c in prods[beta * d + a1].items()}, f.p)
    return _dense(f, out, d ** (l + 1))


def iota_b_to_a(x, l):
    """The map B^{(*)T(l+1)} -> A^{(*)T(l+1)} induced by the inclusion,
    T the extension's T."""
    cc_b = cyclic_complex(x.B, (x.T, x.incl_T_B))
    cc_a = cyclic_complex(x.entwining.ring, (x.T, x.incl_T_A))
    sp_b = cc_b.space(l)
    sp_a = cc_a.space(l)
    amb = x.incl_B.matrix
    for _ in range(l):
        amb = amb.kron(x.incl_B.matrix)
    m = descend(kron_to_quotient(sp_a, 1, amb, 1), sp_b)
    if m is None:
        raise MembershipFailure("iota does not descend")
    return m, cc_b, cc_a


class ChgComponents:
    def __init__(self, e, sc, comps, cc_b):
        self.e = e
        self.sc = sc
        self.comps = comps
        self.cc_b = cc_b

    def __len__(self):
        return len(self.comps)


def chg_components(e, sc, L):
    """Components 0..L of the Chern-Galois cycle, certified and pulled back
    to the B-side circular spaces.

    When the extension is not T-flat the computation proceeds with a warning
    and relies on the membership certificates (per-component).
    """
    x = sc.extension
    tflat = tflatness_check(x)
    if not tflat["verdict"]:
        warnings.warn("extension is not T-flat; relying on membership "
                      "certificates only", stacklevel=2)
    comps = []
    cc_b = None
    for l in range(L + 1):
        iota, cc_b, cc_a = iota_b_to_a(x, l)
        if rank(iota) != cc_b.space(l).dim:
            raise IotaNotInjective(
                f"B-side inclusion is not injective at level {l}")
        dense = a_side_component(e, sc, l)
        x_l = project_vec(cc_a.space(l), dense)
        y = solve_right(iota, Mat.from_cols(x.B.field, [x_l], len(x_l)))
        if y is None:
            raise MembershipFailure(
                f"chg component {l} does not lie in the B-side circular space")
        if l == 0 and tflat.get("upsilon") is not None:
            # certify the zeroth component in ker(upsilon_T)
            v = tflat["iota_hat"].apply(y.col(0))
            if any(tflat["upsilon"].apply(v)):
                raise MembershipFailure("chg_0 is not in ker(upsilon_T)")
        comps.append(y.col(0))
    return ChgComponents(e, sc, comps, cc_b)


def assemble_cycle(comps, n, tc):
    """The even cycle sum of (-1)^{floor(l/2)} l!/floor(l/2)! comps[l] at
    positions (p, q) = (2n - l, l) in Tot_{2n}; d(cycle) = 0 is verified."""
    cc = comps.cc_b
    if tc.cc is not cc:
        raise NotACycle("total complex and components use different circular "
                        "coordinates")
    if len(comps.comps) < 2 * n + 1:
        raise NotACycle(f"need components up to degree {2 * n}")
    f = cc.field
    vanished = []
    chain = [f.zero] * tc.tot_dim[2 * n]
    for l in range(2 * n + 1):
        coef, integer = chg_coefficient(f, l)
        if not coef and integer != 0:
            vanished.append(l)
        off, dim = tc._offset(2 * n, 2 * n - l)
        chain[off:off + dim] = _public(f, [a + coef * v for a, v in
                                           zip(chain[off:off + dim], comps.comps[l])])
    if vanished:
        warnings.warn(
            f"coefficients vanish in characteristic {f.p} at degrees "
            f"{vanished}; the cycle condition is still verified", stacklevel=2)
    if 2 * n >= 1 and any(tc.d[2 * n].apply(chain)):
        raise NotACycle(f"assembled chain is not a cycle at degree {2 * n}")
    return chain


def assemble_and_class(comps, n, tc):
    """Cycle in Tot_{2n} plus its canonical homology class."""
    chain = assemble_cycle(comps, n, tc)
    h = homology(tc, 2 * n)
    return {"cycle": chain, "class": h.class_of(chain), "homology": h}


# ---------------------------------------------------------------------------
# Associated modules and the idempotent E
# ---------------------------------------------------------------------------

class AssociatedModule:
    """Gamma = A box_C W with its left B-action in A (x)_R W coordinates."""

    def __init__(self, x, w, basis, space, action_mats):
        self.extension = x
        self.w = w
        self.basis = basis      # SubspaceBasis inside A (x)_R W
        self.space = space
        self.action = action_mats  # left B-action on Gamma coordinates

    @property
    def dim(self):
        return self.basis.dim

    def coords(self, ambient_vec):
        return self.basis.membership(ambient_vec)


def associated_module(x, w):
    """Gamma = A box_C W as a left B-module; when the extension is Galois
    and A is B-flat (projectivity flags), the dimension identity
    dim(A (x)_B Gamma) = dim(A (x)_R W) is asserted."""
    e = x.entwining
    a_com = Comodule(e.coring, x.a_mod, x.rho, "right", name=e.ring.name)
    ker, mw = cotensor(a_com, w)
    b = x.B
    mats = [ker.restrict(act) for act in mw.outer_left[b]]
    if None in mats:
        raise MembershipFailure("Gamma is not closed under the B-action")
    gamma = AssociatedModule(x, w, ker, mw, mats)
    galois = canonical_maps(x)["galois"]
    if galois and projective_dual_basis(x.a_mod, b, "right").projective:
        gm = Module(b.field, "Gamma", ker.dim)
        gm.add_left(b, mats)
        ag = tensor_space([x.a_mod, gm], [b])
        aw = mw
        assert ag.dim == aw.dim, "A (x)_B Gamma must match A (x)_R W in dimension"
    return gamma


def local_dual_system(sc, e):
    """A finite local dual system {x_p, xi_p} for the right T-submodule X of
    A generated by the first legs of the connection values ell(e_ij).

    Solves x = sum_p x_p xi_p(x) for all x in X with right T-linear
    xi_p: A -> T; tries the generators of X first, then the full basis of A.
    The solution is checked against both equations before it is returned.
    """
    x = sc.extension
    ring = x.entwining.ring
    f = ring.field
    t, t_incl_a = x.T, x.incl_T_A
    rep_of = _connection_reps(sc)
    first_legs = []
    d = ring.dim
    for i in range(e.size):
        for j in range(e.size):
            rep = rep_of(e.entries[i][j])
            by_beta = {}
            for (al, be), v in rep.items():
                by_beta.setdefault(be, [f.zero] * d)[al] = v
            first_legs.extend(by_beta.values())
    # X = right-T-span of the first legs
    t_right = [ring.right_mult_by(t_incl_a.matrix.col(k)) for k in range(t.dim)]
    xbasis = SubspaceBasis.invariant_span(f, d, first_legs, t_right)

    for xs in (xbasis.mat.to_lists(), [ring.basis_vector(i) for i in range(d)]):
        P = len(xs)
        if P == 0:
            return {"xs": [], "xis": [], "X": xbasis}
        L = Mat.from_blocks(f, d, P * t.dim, [
            (0, p * t.dim, ring.left_mult_by(xp) @ t_incl_a.matrix) for p, xp in enumerate(xs)])
        vmat = xbasis.mat.transpose()
        eqs = [Equation([Term(L, vmat)], rhs=vmat, label="dual-system")]
        for k, ra in enumerate(t_right):
            dk = kron_id(P, t.right_mult_mats()[k], 1)
            eqs.append(Equation([
                Term(Mat.identity(f, P * t.dim), ra),
                Term(dk, Mat.identity(f, d), -1)], label=f"right-T-linear[{k}]"))
        sol = hom_solve(f, d, P * t.dim, eqs)
        if not sol.is_empty:
            xi_stack = sol.particular
            rep = Report("dual-system")
            check_equations(rep, xi_stack, eqs)
            assert rep.ok, f"dual system fails verification: {rep.failures[:3]}"
            xis = [xi_stack.rows_at(range(p * t.dim, (p + 1) * t.dim)) for p in range(P)]
            return {"xs": xs, "xis": xis, "X": xbasis}
    raise NoLocalDualSystem("no finite dual system for X over T")


class IdempotentE:
    """The idempotent matrix E over B indexed by I x P, with provenance.
    ``mat`` holds E as one Mat whose column a * size + c is E_ac, a and c
    positions in ``index``; ``entries[(a, c)]`` is that column."""

    def __init__(self, mat, index, provenance):
        self.mat = mat
        self.index = index        # list of (i, p) pairs
        self.provenance = provenance
        n = len(index)
        self.entries = {divmod(col, n): mat.col(col) for col in range(n * n)}

    @property
    def size(self):
        return len(self.index)


def ell_p_maps(sc, dual):
    """ell_p = (xi_p (x)_T A) . ell as matrices C -> A.  Each xi_p (x)_T A
    is certified to descend to A (x)_T A (``descend``): ActionMismatch
    where xi_p is not right T-linear."""
    x = sc.extension
    t = x.T
    t_mod = regular_bimodule(t, f"{t.name}-mod")
    ta = tensor_space([t_mod, x.a_mod], [t])
    coll = leg_apply(ta, x.a_mod, 0, 2, x.a_mod.left_collapse_mat(t))
    out = []
    for p, xi in enumerate(dual["xis"]):
        legxi = descend(kron_to_quotient(ta, 1, xi, x.a_mod.dim), sc.space)
        if legxi is None:
            raise ActionMismatch(f"xi_{p} (x)_T A does not descend to {sc.space.name}")
        out.append(coll @ legxi @ sc.ell)
    return out


def b_t_retraction_equations(x):
    """phi: A -> B is a left B-linear right T-linear retraction of the
    inclusion B -> A."""
    return (eqs_linear(x.B, x.a_mod, x.b_mod, "left")
            + eqs_linear(x.T, x.a_mod, x.b_mod, "right") + [retraction_of_B(x)])


def solve_b_t_retraction(x):
    """A B-T bilinear retraction of B in A found by the solver."""
    sol = hom_solve(x.B.field, x.entwining.ring.dim, x.B.dim, b_t_retraction_equations(x))
    if sol.is_empty:
        raise CoralgError("no B-T bilinear retraction of the inclusion exists")
    return sol.particular


def idempotent_e(sc, e, dual, phi):
    """E_{(i,p),(j,q)} = phi(ell_p(e_ij) x_q); verified idempotent, with the
    gamma system and both parts of the gamma identity certified."""
    x = sc.extension
    ring = x.entwining.ring
    b = x.B
    rep = Report("phi")
    check_equations(rep, phi, b_t_retraction_equations(x))
    if not rep.ok:
        raise NotIdempotent(f"phi is not a B-T retraction: {rep.failures[:3]}")
    ells = ell_p_maps(sc, dual)
    xs = dual["xs"]
    index = [(i, p) for i in range(e.size) for p in range(len(xs))]
    vals = [phi.apply(ring.mul_vec(ells[p].apply(e.entries[i][j]), xs[q]))
            for i, p in index for j, q in index]
    em = IdempotentE(Mat.from_cols(b.field, vals, b.dim), index, {"xs": xs, "phi": phi})
    n = em.size
    bad = (b.mult_mat() @ kron_contract(em.mat, em.mat, n) - em.mat).nonzero_cols()
    if bad:
        raise NotIdempotent(f"E^2 differs from E first at {divmod(bad[0], n)}")
    return em


def gamma_elements(sc, e, dual, gamma, ws):
    """gamma_ip = sum_j ell_p(e_ij) (x) w_j in A (x)_R W coordinates, for
    every i at once (``embed_contracted``); ``ws`` are the comodule vectors
    matching the coidempotent's index set."""
    mw = gamma.space
    em = e.mat
    wcols = Mat.from_cols(mw.field, ws, mw.dims[1])
    per_p = [mw.embed_contracted(ell @ em, wcols, e.size) for ell in ell_p_maps(sc, dual)]
    return {(i, p): per_p[p].col(i) for i in range(e.size) for p in range(len(per_p))}


def verify_gamma_identities(em, gamma, gammas):
    """gamma_ip in Gamma, and the E-weighted recombination gamma_a =
    sum_c E_ac . gamma_c as one residual; returns a Report."""
    rep = Report("gamma")
    b = gamma.extension.B
    mw = gamma.space
    for key, vec in gammas.items():
        if gamma.basis.membership(vec) is None:
            rep.fail("gamma-outside-Gamma", key)
    g = Mat.from_cols(b.field, [gammas[key] for key in em.index], mw.dim)
    act = Mat.from_blocks(b.field, mw.dim, b.dim * mw.dim,
                          [(0, s * mw.dim, m) for s, m in enumerate(mw.outer_left[b])])
    for col in (act @ kron_contract(em.mat, g, em.size) - g).nonzero_cols():
        rep.fail("gamma-recombination", em.index[col])
    return rep


def theta_isomorphism(em, gamma, gammas):
    """dim(B^(I x P) E) = dim Gamma and Theta: vE -> sum v_ip gamma_ip is a
    well-defined bijection onto Gamma."""
    b = gamma.extension.B
    f = b.field
    n = em.size
    dim_free = n * b.dim
    re_mat = b.right_mult_by_matrix(em.mat, n)
    theta = Mat.from_cols(f, [gamma.space.outer_left[b][beta].apply(gammas[key])
                              for key in em.index for beta in range(b.dim)], gamma.space.dim)
    image = SubspaceBasis.from_columns(f, dim_free, [re_mat])
    ker_re = kernel(re_mat)
    ok_welldef = all(not any(theta.apply(ker_re.mat.row_list(i)))
                     for i in range(ker_re.dim))
    theta_on_image = [theta.apply(image.mat.row_list(i)) for i in range(image.dim)]
    img_span = SubspaceBasis.from_vectors(f, gamma.space.dim, theta_on_image)
    injective = img_span.dim == image.dim
    onto = img_span.dim == gamma.dim and all(
        gamma.basis.membership(v) is not None for v in theta_on_image)
    return {
        "dim_BE": image.dim,
        "dim_Gamma": gamma.dim,
        "well_defined": ok_welldef,
        "bijective": injective and onto and image.dim == gamma.dim,
    }


# ---------------------------------------------------------------------------
# Chern cycles of idempotent matrices over B
# ---------------------------------------------------------------------------

def ch_components(fmat_entries, n_size, cc_b, L):
    """ch~_l(F) = sum F_{i_1 i_2} (*) ... (*) F_{i_{l+1} i_1} for a square
    idempotent matrix over the T-ring B, in B-side circular coordinates;
    F is checked to be idempotent first.

    Assembled by a transfer contraction over (start, current) index pairs on
    the full tensor ambient, then projected; the naive expansion over all
    index tuples is kept in the test suite as an independent oracle.
    """
    b = cc_b.b
    f = b.field
    d = b.dim
    fm = Mat.from_cols(f, [fmat_entries[divmod(col, n_size)] for col in range(n_size ** 2)], d)
    bad = (b.mult_mat() @ kron_contract(fm, fm, n_size) - fm).nonzero_cols()
    if bad:
        raise NotIdempotent(f"F^2 != F first at {divmod(bad[0], n_size)}")
    comps = []
    for l in range(L + 1):
        sp = cc_b.space(l)
        # partial[(start, cur)] : sparse dict over d^j prefixes
        partial = {}
        for start in range(n_size):
            for cur in range(n_size):
                entry = fmat_entries[(start, cur)]
                vec = {k: v for k, v in enumerate(entry) if v}
                if vec:
                    partial[(start, cur)] = vec
        for _ in range(l):
            nxt = {}
            for (start, cur), vec in partial.items():
                for new in range(n_size):
                    leg = fmat_entries[(cur, new)]
                    if not any(leg):
                        continue
                    tgt = nxt.setdefault((start, new), {})
                    for pref, coeff in vec.items():
                        _axpy(tgt, coeff, {pref * d + k: c for k, c in enumerate(leg) if c}, f.p)
        total = {}
        for (start, cur), vec in partial.items():
            if cur == start:
                _axpy(total, f.one, vec, f.p)
        comps.append(project_vec(sp, _dense(f, total, d ** (l + 1))))
    return comps


def compare_chg_ch(chg, em, L):
    """Exact chain-level equality ch~_l(E) = chg~_l(e) for l <= L."""
    rep = Report("chg-vs-ch")
    ch = ch_components(em.entries, em.size, chg.cc_b, L)
    for l in range(L + 1):
        if ch[l] != chg.comps[l]:
            rep.fail("component-mismatch", l)
    return rep
