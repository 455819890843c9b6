"""Strong T-connections: verification, linear solving, restriction, the
section/translation constructions, total integrals, normalization and
splitting, T-flatness, and the middle-leg membership test.

A strong T-connection is a map ell: C -> A (x)_T A that is a morphism of
right C-comodules (target coaction A (x)_T rho) and of left C-comodules
(target coaction lrho (x)_T A) and splits the lifted canonical map:
cantilde_T(ell(c)) = 1_A (x) c.

T is always the extension's T: a connection over another subalgebra is a
connection of ``x.with_T(...)``, as the translation map (T = B) and a
restricted connection (T') are.
"""

from .errors import (
    ImageNotCoinvariant, MembershipFailure, NotASection, NotGalois,
)
from .exactla import Mat, SubspaceBasis, kernel, rank, solve_right
from .ncalg import (
    Equation, Report, Term, _fail_cols, check_equations, descend, eqs_linear,
    eq_right_colinear, eq_value, hom_solve, kron_to_quotient, leg_apply,
    projective_dual_basis, regular_bimodule, tensor_space,
)
from .entwine import associated_coring, canonical_maps, cantilde


class StrongConnection:
    """ell in canonical coordinates C -> A (x)_T A, T the extension's T."""

    def __init__(self, extension, ell):
        self.extension = extension
        self.ell = ell
        a_mod = extension.a_mod
        self.space = tensor_space([a_mod, a_mod], [extension.T])

    def __repr__(self):
        return f"StrongConnection({self.extension!r})"


def connection_equations(x):
    """(A (x)_T A, the defining conditions on a strong x.T-connection
    ell: C -> A (x)_T A as Equations): R-linearity on each side, index by
    index, right and left colinearity, and the splitting."""
    e = x.entwining
    cor, base, carrier = e.coring, e.base, e.coring.carrier
    a_mod, t = x.a_mod, x.T
    ct, aat = cantilde(e, x.rho, t)
    aatc = tensor_space([a_mod, a_mod, carrier], [t, base])
    caat = tensor_space([carrier, a_mod, a_mod], [base, t])
    rho_aat = leg_apply(aat, aatc, 1, 1, e.AC.S @ x.rho)
    lrho_aat = leg_apply(aat, caat, 0, 1, e.CA.S @ x.lrho)
    eqs = [eq for pair in zip(eqs_linear(base, carrier, aat, "right"),
                              eqs_linear(base, carrier, aat, "left")) for eq in pair]
    eqs.append(eq_right_colinear(cor.delta, rho_aat, carrier, aat,
                                 cor.CC, aatc, cor.dim, "right-colinearity"))
    eqs.append(eq_right_colinear(cor.delta, lrho_aat, carrier.op(), aat.op(),
                                 cor.CC.op(), caat.op(), cor.dim, "left-colinearity"))
    ins = leg_apply(carrier, e.AC, 0, 0, e.ring.unit_col())
    eqs.append(Equation([Term(ct, Mat.identity(base.field, carrier.dim))],
                        rhs=ins, label="splitting"))
    return aat, eqs


def verify_strong_connection(sc):
    """The residuals of ``connection_equations`` at sc.ell."""
    rep = Report(f"ell_{sc.extension.T.name}")
    check_equations(rep, sc.ell, connection_equations(sc.extension)[1])
    return rep


def solve_strong_connection(x):
    """Pose all defining conditions on a strong x.T-connection as one linear
    system.

    Returns (StrongConnection or None, AffineSolutionSet); an empty set is a
    definite non-existence certificate over the field.
    """
    aat, eqs = connection_equations(x)
    sol = hom_solve(x.B.field, x.entwining.coring.dim, aat.dim, eqs)
    if sol.is_empty:
        return None, sol
    rep = Report(f"ell_{x.T.name}")
    check_equations(rep, sol.particular, eqs)
    assert rep.ok, f"solver output fails verification: {rep.failures[:3]}"
    return StrongConnection(x, sol.particular), sol


def retraction_of_B(x):
    """X . incl_B = id_B for X: A -> B."""
    ident = Mat.identity(x.B.field, x.B.dim)
    return Equation([Term(ident, x.incl_B.matrix)], rhs=ident, label="retraction")


def restrict_connection(sc, xi_full, t_basis):
    """ell_{T'} = (A (x)_T xi) . ell_T for a left T-linear right C-colinear
    section xi: A -> T (x)_{T'} A of the multiplication map; a connection of
    ``x.with_T(t_basis)``.

    ``t_basis`` generates T' inside A (k.1 when empty); ``xi_full`` gives xi
    in the full T (x) A coordinates (index (t, a) -> t * dim A + a), from
    which the canonical-coordinates map is obtained by projection.
    """
    x = sc.extension
    xp = x.with_T(t_basis)
    e = x.entwining
    ring, base, cor = e.ring, e.base, e.coring
    f = ring.field
    t, tp_alg = x.T, xp.T
    a_mod = x.a_mod
    t_mod = regular_bimodule(t, f"{t.name}-mod")
    # T as a T'-bimodule via the inclusion T' -> B factored through T
    tp_in_t = solve_right(x.incl_T_B.matrix, xp.incl_T_B.matrix)
    if tp_in_t is None:
        raise NotASection("T' is not contained in T")
    t_mod.add_right(tp_alg, [t.right_mult_by(tp_in_t.col(i))
                             for i in range(tp_alg.dim)])
    t_mod.add_left(tp_alg, [t.left_mult_by(tp_in_t.col(i))
                            for i in range(tp_alg.dim)])
    ta = tensor_space([t_mod, a_mod], [tp_alg])
    xi = kron_to_quotient(ta, 1, xi_full, 1)
    # section of the multiplication T (x)_{T'} A -> A
    coll = leg_apply(ta, a_mod, 0, 2, a_mod.left_collapse_mat(t))
    ident = Mat.identity(f, ring.dim)
    tac = tensor_space([t_mod, a_mod, cor.carrier], [tp_alg, base])
    rho_ta = leg_apply(ta, tac, 1, 1, e.AC.S @ x.rho)
    rep = Report("xi")
    check_equations(rep, xi, [
        Equation([Term(coll, ident)], rhs=ident, label="section"),
        *eqs_linear(t, a_mod, ta, "left"),
        eq_right_colinear(x.rho, rho_ta, a_mod, ta, e.AC, tac, cor.dim, "right-colinearity")])
    if not rep.ok:
        raise NotASection(str(rep.failures[:3]))
    aat = sc.space
    ata = tensor_space([a_mod, t_mod, a_mod], [t, tp_alg])
    s1 = leg_apply(aat, ata, 1, 1, ta.S @ xi)
    aatp = tensor_space([a_mod, a_mod], [tp_alg])
    s2 = leg_apply(ata, aatp, 0, 2, a_mod.right_collapse_mat(t))
    ell2 = s2 @ s1 @ sc.ell
    out = StrongConnection(xp, ell2)
    rep = verify_strong_connection(out)
    if not rep.ok:
        raise NotASection(f"restricted map is not a strong connection: "
                          f"{rep.failures[:3]}")
    return out


def section_from_connection(sc):
    """sigma_T(a) = a_(0) ell(a_(1)): a left B-linear right C-colinear
    section of the multiplication B (x)_T A -> A, plus the connection
    nabla_T = 1 (x) -  -  sigma_T with its Leibniz certificate."""
    x = sc.extension
    e = x.entwining
    ring, base, cor = e.ring, e.base, e.coring
    f = ring.field
    a_mod, b_mod = x.a_mod, x.b_mod
    t = x.T
    aat = sc.space
    aaa = tensor_space([a_mod, a_mod, a_mod], [base, t])
    s1 = leg_apply(e.AC, aaa, 1, 1, aat.S @ sc.ell)
    s2 = leg_apply(aaa, aat, 0, 2, ring.mult_mat())
    sigma_up = s2 @ s1 @ x.rho
    ba = tensor_space([b_mod, a_mod], [t], name=f"{x.B.name}(x)_{t.name}{ring.name}")
    j_incl = leg_apply(ba, aat, 0, 1, x.incl_B.matrix)
    sigma = solve_right(j_incl, sigma_up)
    if sigma is None:
        raise ImageNotCoinvariant("sigma_T does not land in B (x)_T A")
    injective = rank(j_incl) == ba.dim
    bac = tensor_space([b_mod, a_mod, cor.carrier], [t, base])
    rho_ba = leg_apply(ba, bac, 1, 1, e.AC.S @ x.rho)
    coll = leg_apply(ba, a_mod, 0, 2, a_mod.left_collapse_mat(x.B))
    ident = Mat.identity(f, ring.dim)
    rep = Report("sigma")
    check_equations(rep, sigma, [
        *eqs_linear(x.B, a_mod, ba, "left"),
        eq_right_colinear(x.rho, rho_ba, a_mod, ba, e.AC, bac, cor.dim, "right-colinearity"),
        Equation([Term(coll, ident)], rhs=ident, label="splits-multiplication")])
    assert rep.ok, f"sigma verification failed: {rep.failures[:3]}"
    ins1 = leg_apply(a_mod, ba, 0, 0, x.B.unit_col())
    nabla = ins1 - sigma
    leibniz = Report("leibniz")
    # nabla(b a) = 1 (x) b a - b (x) a + b nabla(a), one residual per b = b_i
    for i in range(x.B.dim):
        lb = ring.left_mult_by(x.incl_B.apply(x.B.basis_vector(i)))
        ins_i = leg_apply(a_mod, ba, 0, 0, Mat.from_cols(f, [x.B.basis_vector(i)], x.B.dim))
        res = nabla @ lb - (ins1 @ lb - ins_i + ba.outer_left[x.B][i] @ nabla)
        for j in res.nonzero_cols():
            leibniz.fail("leibniz", (i, j))
    flat_left = projective_dual_basis(a_mod, t, side="left").projective
    return {
        "sigma": sigma,
        "nabla": nabla,
        "space": ba,
        "iota_injective": injective,
        "leibniz": leibniz,
        "flat_left_T": flat_left,
    }


def differential_forms(x):
    """Omega^1 B = ker(mu_B) in B (x)_T B with d(b) = 1 (x) b - b (x) 1,
    over the extension's T."""
    t = x.T
    b_mod = x.b_mod
    b = x.B
    bb = tensor_space([b_mod, b_mod], [t])
    mu = leg_apply(bb, b_mod, 0, 2, b.mult_mat())
    omega1 = kernel(mu)
    d = leg_apply(b_mod, bb, 0, 0, b.unit_col()) - leg_apply(b_mod, bb, 1, 0, b.unit_col())
    for i in range(b.dim):
        assert omega1.contains_vector(d.col(i)), "d(b) must lie in Omega^1"
    assert not any(d.apply(b.unit)), "d(1) must vanish"
    return {"omega1": omega1, "d": d, "space": bb}


def connection_from_galois(x):
    """The translation map varpi(c) = can^{-1}(1 (x) c), a strong
    B-connection of a Galois extension: a connection of ``x.with_T`` of
    B's basis, whose A (x)_T A is A (x)_B A in the same coordinates."""
    res = canonical_maps(x)
    if not res["galois"]:
        raise NotGalois("canonical map is not bijective")
    e = x.entwining
    ins = leg_apply(e.coring.carrier, e.AC, 0, 0, e.ring.unit_col())
    varpi = res["can_inv"] @ ins
    sc = StrongConnection(
        x.with_T([x.incl_B.apply(x.B.basis_vector(i)) for i in range(x.B.dim)]), varpi)
    rep = verify_strong_connection(sc)
    assert rep.ok, f"translation map fails verification: {rep.failures[:3]}"
    if x.grouplike is not None:
        normalized = varpi.apply(x.grouplike) == sc.space.embed_pure(
            [e.ring.unit, e.ring.unit])
        assert normalized, "varpi(e) must be 1 (x) 1 for grouplike extensions"
    return sc


def total_integral(x, side="right"):
    """Solve for a normalized colinear j: C -> A; build the retraction h and
    verify the roundtrips.  The ``relative_injective`` verdict is existence
    of j; ``split_condition`` reports the sufficient condition (one-sided
    B-linear retraction of the inclusion exists and the extension is Galois).
    """
    assert x.grouplike is not None, "total integrals need a grouplike-induced extension"
    e = x.entwining
    ring, base, cor = e.ring, e.base, e.coring
    f = ring.field
    a_mod, carrier = x.a_mod, cor.carrier
    right = side == "right"
    # the side's coaction, psi's direction, the space j is applied on and the
    # space the unit is inserted into (both at the leg ``leg``)
    rho, twist, j_src, unit_tgt, leg = ((x.rho, e.psi_inv, e.CA, e.AC, 0) if right
                                        else (x.lrho, e.psi, e.AC, e.CA, 1))
    colinear = [carrier, a_mod, cor.CC, unit_tgt]
    if not right:  # left colinearity is right colinearity on the opposites
        colinear = [sp.op() for sp in colinear]
    eqs = eqs_linear(base, carrier, a_mod, side)
    eqs.append(eq_right_colinear(cor.delta, rho, *colinear, cor.dim, f"{side}-colinearity"))
    eqs.append(eq_value(x.grouplike, ring.unit, f, ring.dim))
    sol = hom_solve(f, carrier.dim, ring.dim, eqs)
    result = {"relative_injective": not sol.is_empty, "solutions": sol,
              "j": None, "h": None}
    galois = canonical_maps(x)["galois"]
    hs = hom_solve(f, ring.dim, x.B.dim,
                   eqs_linear(x.B, a_mod, x.b_mod, side) + [retraction_of_B(x)])
    result["split_condition"] = galois and not hs.is_empty
    if sol.is_empty:
        return result
    j = sol.particular
    aar = tensor_space([a_mod, a_mod], [base])
    mu_bar = leg_apply(aar, a_mod, 0, 2, ring.mult_mat())
    h = mu_bar @ leg_apply(j_src, aar, leg, 1, j) @ twist
    rep = Report("total-integral" if right else "total-integral-left")
    _fail_cols(rep, "retraction", h @ rho - Mat.identity(f, ring.dim))
    ins = leg_apply(carrier, unit_tgt, leg, 0, ring.unit_col())
    _fail_cols(rep, "roundtrip", h @ ins - j)
    assert rep.ok, f"total integral roundtrip failed: {rep.failures[:3]}"
    result["j"] = j
    result["h"] = h
    return result


def normalization_and_splitting(sc, f_retr):
    """Certificates sigma_T(1) in B (x)_T B and ell(e) in B (x)_T B, and the
    left B-linear splitting phi = mu_B (B (x)_T f) sigma_T."""
    x = sc.extension
    e = x.entwining
    ring = e.ring
    fld = ring.field
    t = x.T
    sec = section_from_connection(sc)
    sigma, ba = sec["sigma"], sec["space"]
    b, b_mod = x.B, x.b_mod
    bb = tensor_space([b_mod, b_mod], [t])
    jbb = leg_apply(bb, ba, 1, 1, x.incl_B.matrix)
    sig1 = sigma.apply(ring.unit)
    cert_sigma = solve_right(jbb, Mat.from_cols(fld, [sig1], ba.dim))
    if cert_sigma is None:
        raise MembershipFailure("sigma_T(1) is not in B (x)_T B")
    out = {"sigma_one": sig1, "sigma_one_in_BB": cert_sigma.col(0)}
    if x.grouplike is not None:
        # membership of ell(e) in B (x)_T B inside A (x)_T A
        aat = sc.space
        cols = []
        for i in range(b.dim):
            for j in range(b.dim):
                cols.append(aat.embed_pure([x.incl_B.apply(b.basis_vector(i)),
                                            x.incl_B.apply(b.basis_vector(j))]))
        span = SubspaceBasis.from_vectors(fld, aat.dim, cols)
        elle = sc.ell.apply(x.grouplike)
        if span.membership(elle) is None:
            raise MembershipFailure("ell(e) is not in B (x)_T B")
        out["ell_grouplike"] = elle
    # phi = mu_B . (B (x)_T f) . sigma
    rep = Report("f")
    check_equations(rep, f_retr, [retraction_of_B(x), *eqs_linear(t, x.a_mod, b_mod, "left")])
    if not rep.ok:
        raise MembershipFailure(f"f is not a T-linear retraction: {rep.failures[:3]}")
    s1 = leg_apply(ba, bb, 1, 1, f_retr)
    mu_b = leg_apply(bb, b_mod, 0, 2, b.mult_mat())
    phi = mu_b @ s1 @ sigma
    prep = Report("phi")
    check_equations(prep, phi, [*eqs_linear(b, x.a_mod, b_mod, "left"),
                                eq_value(ring.unit, b.unit, fld, b.dim), retraction_of_B(x)])
    assert prep.ok, f"phi verification failed: {prep.failures[:3]}"
    out["phi"] = phi
    return out


def tflatness_check(x):
    """T-flatness over x.T: B, A flat (= projective at this scale) as
    one-sided T-modules and B/[B,T] -> ker(upsilon_T) bijective (the
    result's ``iota_hat``, where upsilon is defined)."""
    e = x.entwining
    ring = e.ring
    f = ring.field
    t = x.T
    a_mod, b_mod = x.a_mod, x.b_mod
    assoc = associated_coring(e)
    carrier = assoc.carrier.restrict(t, x.incl_T_A)
    circ_a = tensor_space([a_mod], [], circular=t, name=f"{ring.name}/[,{t.name}]")
    circ_d = tensor_space([carrier], [], circular=t)
    circ_b = tensor_space([b_mod], [], circular=t, name=f"{x.B.name}/[,{t.name}]")
    m = x.rho - e.left_action_on(x.rho.apply(ring.unit))
    rep = Report("upsilon")
    upsilon = descend(kron_to_quotient(circ_d, 1, m, 1), circ_a)
    if upsilon is None:
        rep.fail("not-well-defined", None)
    flags = {
        "A_flat_left_T": projective_dual_basis(a_mod, t, "left").projective,
        "A_flat_right_T": projective_dual_basis(a_mod, t, "right").projective,
        "B_flat_left_T": projective_dual_basis(b_mod, t, "left").projective,
        "B_flat_right_T": projective_dual_basis(b_mod, t, "right").projective,
    }
    result = {"upsilon": upsilon, "flags": flags, "report": rep}
    if upsilon is None:
        result["verdict"] = False
        return result
    iota_hat = result["iota_hat"] = leg_apply(circ_b, circ_a, 0, 1, x.incl_B.matrix)
    # upsilon vanishes on classes of B
    _fail_cols(rep, "upsilon-on-B", upsilon @ iota_hat)
    ker = kernel(upsilon)
    image = SubspaceBasis.from_columns(f, circ_a.dim, [iota_hat])
    injective = rank(iota_hat) == circ_b.dim
    iso = injective and image == ker
    result["kernel"] = ker
    result["image"] = image
    result["iso"] = iso
    result["verdict"] = iso and all(flags.values()) and rep.ok
    return result


def middle_leg_check(sc):
    """For each basis c: ell(c_(1)) ell(c_(2)) (middle legs multiplied in A)
    lies in the image of A (x)_T B (x)_T A; located certificate."""
    x = sc.extension
    e = x.entwining
    ring, base, cor = e.ring, e.base, e.coring
    t = x.T
    a_mod, b_mod = x.a_mod, x.b_mod
    aat = sc.space
    ell_full = aat.S @ sc.ell
    aacc = tensor_space([a_mod, a_mod, cor.carrier], [t, base])
    s1 = leg_apply(cor.CC, aacc, 0, 1, ell_full)
    a4 = tensor_space([a_mod, a_mod, a_mod, a_mod], [t, base, t])
    s2 = leg_apply(aacc, a4, 2, 1, ell_full)
    aaa = tensor_space([a_mod, a_mod, a_mod], [t, t])
    s3 = leg_apply(a4, aaa, 1, 2, ring.mult_mat())
    middle = s3 @ s2 @ s1 @ cor.delta
    aba = tensor_space([a_mod, b_mod, a_mod], [t, t])
    j = leg_apply(aba, aaa, 1, 1, x.incl_B.matrix)
    image = SubspaceBasis.from_columns(ring.field, aaa.dim, [j])
    rep = Report("middle-leg")
    for ci in range(cor.dim):
        if image.membership(middle.col(ci)) is None:
            rep.fail("middle-leg-outside-B", ci)
    return {"report": rep, "matrix": middle, "space": aaa}
