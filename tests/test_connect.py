"""Strong connections: solving, verification, sections, translation maps,
total integrals, normalization, T-flatness, middle legs."""

import json
import random
from pathlib import Path

import pytest

from coralg.connect import (
    StrongConnection, connection_from_galois, differential_forms,
    middle_leg_check, normalization_and_splitting, restrict_connection,
    section_from_connection, solve_strong_connection, total_integral,
    tflatness_check, verify_strong_connection,
)
from coralg.coring import trivial_coring
from coralg.entwine import Entwining, extension_from_grouplike, invert_entwining
from coralg.errors import MembershipFailure, NotASection, NotGalois
from coralg.exactla import GF, QQ, Mat, kernel
from coralg.fixtures import (
    FIXTURE_NAMES, fixture_document, fixture_workspace, matrix_algebra, product_field_algebra,
    quadratic_algebra, sweedler_entwining, upper_triangular_subalgebra, z2_graded_entwining,
)
from coralg.ncalg import AlgebraMorphism, leg_apply, tensor_space
from coralg.workspace import parse_workspace


def qi(x):
    return QQ.from_int(x)


def _with_column(m, j, col):
    """A copy of m with column j replaced by the dense vector col."""
    return Mat.from_entries(QQ, m.nrows, m.ncols,
                            [(ij, v) for ij, v in m.items() if ij[1] != j]
                            + [((i, j), v) for i, v in enumerate(col)])


def z2_extension(field=QQ, square=1):
    ent = z2_graded_entwining(field, square=square)
    return extension_from_grouplike(ent, [field.one, field.zero])


def sep_extension():
    """FIX-SEP: R = QQ x QQ = A, trivial coring over R, grouplike 1."""
    r = product_field_algebra(QQ)
    cor = trivial_coring(r)
    eta = AlgebraMorphism.identity(r)
    ent = Entwining(r, r, eta, cor, Mat.identity(QQ, r.dim), name="SEP")
    ent = invert_entwining(ent)
    return extension_from_grouplike(ent, list(r.unit))


def test_solve_z2_connection_unique():
    x = z2_extension()
    sc, sol = solve_strong_connection(x)
    assert sc is not None
    # ell(g0) = 1 (x) 1, ell(g1) = x (x) x, and the solution is unique:
    # bicolinearity pins the components to matching degree and the splitting
    # fixes both scalars (A (x) A has no relations over T = k = B here)
    aat = sc.space
    one = [qi(1), qi(0)]
    xx = [qi(0), qi(1)]
    assert sc.ell.apply([qi(1), qi(0)]) == aat.embed_pure([one, one])
    assert sc.ell.apply([qi(0), qi(1)]) == aat.embed_pure([xx, xx])
    assert sol.freedom == 0
    assert verify_strong_connection(sc).ok


def test_solve_z2_connection_over_f5():
    f5 = GF(5)
    x = z2_extension(field=f5)
    sc, sol = solve_strong_connection(x)
    assert sc is not None
    assert verify_strong_connection(sc).ok


def test_corrupted_connection_located():
    x = z2_extension()
    sc, _ = solve_strong_connection(x)
    # ell(g1) = 1 (x) x: splitting still holds, colinearity fails
    aat = sc.space
    v = aat.embed_pure([[qi(1), qi(0)], [qi(0), qi(1)]])
    bad = _with_column(sc.ell, 1, v)
    rep = verify_strong_connection(StrongConnection(x, bad))
    fails = {ax for ax, _ in rep.failures}
    # cantilde(1 (x) x) = x (x) g1, so the splitting block reports too; the
    # right colinearity is intact (second leg has the right degree) while the
    # left colinearity fails
    assert "left-colinearity" in fails
    assert "splitting" in fails
    assert "right-colinearity" not in fails


def test_trivial_extension_unique_connection():
    a = quadratic_algebra(QQ, 1, 0)
    ent_base = trivial_coring_entwining(a)
    x = extension_from_grouplike(ent_base, [QQ.one])
    sc, sol = solve_strong_connection(
        x.with_T([x.incl_B.apply(x.B.basis_vector(i)) for i in range(x.B.dim)]))
    assert sc is not None
    assert verify_strong_connection(sc).ok


def trivial_coring_entwining(a):
    from coralg.ncalg import scalar_algebra
    base = scalar_algebra(QQ)
    eta = AlgebraMorphism(base, a, Mat.from_cols(QQ, [a.unit], a.dim))
    cor = trivial_coring(base)
    ent = Entwining(base, a, eta, cor, Mat.identity(QQ, a.dim), name="trivial")
    return invert_entwining(ent)


def test_connection_from_galois_z2():
    x = z2_extension()
    sc = connection_from_galois(x)
    # B = k here, so varpi agrees with the solved k-connection
    solved, _ = solve_strong_connection(x)
    assert sc.ell == solved.ell


def test_repeated_translation_maps_share_their_T():
    # with_T is memoized per basis: a second translation map declares no
    # new action on A and builds no new tensor space
    x = z2_extension()
    first = connection_from_galois(x)
    acting, spaces = len(x.a_mod.left), len(x.a_mod._tensor_spaces)
    second = connection_from_galois(x)
    assert second.extension is first.extension
    assert second.space is first.space
    assert (len(x.a_mod.left), len(x.a_mod._tensor_spaces)) == (acting, spaces)


def test_connection_from_galois_rejects_non_galois():
    x = z2_extension(square=0)
    with pytest.raises(NotGalois):
        connection_from_galois(x)


def test_section_from_connection_z2():
    x = z2_extension()
    sc, _ = solve_strong_connection(x)
    sec = section_from_connection(sc)
    sigma, ba = sec["sigma"], sec["space"]
    # sigma(x) = x . ell(g1) = (x x) (x) x = 1 (x) x
    assert sigma.apply([qi(0), qi(1)]) == ba.embed_pure([[qi(1)], [qi(0), qi(1)]])
    assert sec["leibniz"].ok
    assert sec["flat_left_T"]
    # Cuntz-Quillen loop: nabla -> sigma is the identity on matrices
    f = QQ
    ins1 = ba.embed_pure([[qi(1)], [qi(1), qi(0)]])
    assert sec["nabla"].apply([qi(1), qi(0)]) == [f.zero] * ba.dim


def test_connection_reconstruction_from_section():
    # ell = (A (x)_B sigma) . varpi on a Galois fixture
    x = z2_extension()
    sc = connection_from_galois(x)
    sec = section_from_connection(sc)
    sigma, ba = sec["sigma"], sec["space"]
    a_mod, b_mod = sc.extension.a_mod, sc.extension.b_mod
    aab = sc.space
    aba = tensor_space([a_mod, b_mod, a_mod], [x.B, sc.extension.T])
    s1 = leg_apply(aab, aba, 1, 1, ba.S @ sigma)
    aat = tensor_space([a_mod, a_mod], [sc.extension.T])
    s2 = leg_apply(aba, aat, 0, 2, a_mod.right_collapse_mat(x.B))
    ell2 = s2 @ s1 @ sc.ell
    solved, _ = solve_strong_connection(sc.extension)
    assert ell2 == solved.ell


def _sep_section(x):
    """xi(a) = sum e_l (x) f_l a for the separability idempotent of
    R = QQ x QQ, in full B (x) A coordinates (T = B = R)."""
    r = x.entwining.ring
    from coralg.coring import separability_idempotent
    res = separability_idempotent(r, None, x.a_mod)
    z = res["z"]
    cols = []
    for j in range(r.dim):
        col = [QQ.zero] * (x.B.dim * r.dim)
        aj = r.basis_vector(j)
        for flat, v in enumerate(z):
            if not v:
                continue
            i, l = divmod(flat, r.dim)
            fla = r.mul_vec(r.basis_vector(l), aj)
            # first leg e_i must be rewritten in B = R basis coordinates
            from coralg.exactla import solve_right
            bcoords = solve_right(x.incl_B.matrix,
                                  Mat.from_cols(QQ, [r.basis_vector(i)], r.dim)).col(0)
            for bi, bv in enumerate(bcoords):
                if bv:
                    for ai, av in enumerate(fla):
                        if av:
                            col[bi * r.dim + ai] += v * bv * av
        cols.append(col)
    return Mat.from_cols(QQ, cols, x.B.dim * r.dim)


def test_restrict_connection_separable_base():
    # FIX-SEP: restrict the canonical B-connection along the separability
    # idempotent of R = QQ x QQ to a strong k-connection
    x = sep_extension()
    sc = connection_from_galois(x)     # T = B = R
    sck = restrict_connection(sc, _sep_section(x), [])
    assert verify_strong_connection(sck).ok
    # ell_k(c) = sum c e_l (x) f_l: for c = e1: e1 (x) e1
    e1 = [qi(1), qi(0)]
    expected = sck.space.embed_pure([e1, e1])
    carrier_e1 = _sep_carrier_vec(x, e1)
    assert sck.ell.apply(carrier_e1) == expected


def test_restricted_connection_feeds_the_chern_galois_pipeline():
    # FIX-SEP: the translation map restricted to k.1 gives the same
    # Chern-Galois components and HC_2 classes as the solved k-connection
    # (the class does not depend on the strong connection)
    from coralg.cherngalois import assemble_and_class, chg_components
    from coralg.coring import Coidempotent
    x = sep_extension()
    sck = restrict_connection(connection_from_galois(x), _sep_section(x), [])
    solved, _ = solve_strong_connection(x)

    def hc2_class(chg):
        return assemble_and_class(chg, 1, chg.cc_b.total(3))["class"].class_coords

    classes = []
    for g in ([qi(1), qi(0)], [qi(0), qi(1)]):
        e = Coidempotent(x.entwining.coring, [[g]])
        got, want = chg_components(e, sck, 2), chg_components(e, solved, 2)
        assert got.comps == want.comps
        assert hc2_class(got) == hc2_class(want)
        classes.append(hc2_class(got))
    assert classes == [[qi(-2), qi(0)], [qi(0), qi(-2)]]


def _sep_carrier_vec(x, v):
    # the trivial coring over R has carrier = R itself
    return v


def test_restrict_connection_broken_section():
    x = sep_extension()
    sc = connection_from_galois(x)
    r = x.entwining.ring
    bad = Mat.zeros(QQ, x.B.dim * r.dim, r.dim)
    with pytest.raises(NotASection):
        restrict_connection(sc, bad, [])


def test_total_integral_z2():
    x = z2_extension()
    res = total_integral(x)
    assert res["relative_injective"]
    assert res["split_condition"]
    j = res["j"]
    assert j.apply([qi(1), qi(0)]) == [qi(1), qi(0)]  # j(g0) = 1
    # left-sided variant also solves
    res_l = total_integral(x, side="left")
    assert res_l["relative_injective"]


def test_total_integral_x2_zero_variant():
    # x^2 = 0: j still exists (j(g1) free), but the split-extension
    # sufficient condition fails because the extension is not Galois
    x = z2_extension(square=0)
    res = total_integral(x)
    assert res["relative_injective"]
    assert res["solutions"].freedom == 1
    assert not res["split_condition"]


def test_normalization_and_splitting_z2():
    x = z2_extension()
    sc, _ = solve_strong_connection(x)
    # f: A -> B, coefficient of 1 (a left T = k linear retraction)
    f = Mat.from_rows(QQ, [[qi(1), qi(0)]])
    out = normalization_and_splitting(sc, f)
    ba = section_from_connection(sc)["space"]
    assert out["sigma_one"] == ba.embed_pure([[qi(1)], [qi(1), qi(0)]])
    assert out["ell_grouplike"] == sc.space.embed_pure([[qi(1), qi(0)], [qi(1), qi(0)]])
    phi = out["phi"]
    assert phi.apply([qi(1), qi(0)]) == [qi(1)]


def test_normalization_membership_failure_detected():
    from coralg.errors import ImageNotCoinvariant
    x = z2_extension()
    sc, _ = solve_strong_connection(x)
    f = Mat.from_rows(QQ, [[qi(1), qi(0)]])
    # corrupt the connection: ell(g0) = x (x) x pushes sigma(1) = x (x) x
    # outside B (x)_T A, which the sigma stage certifies first
    v = sc.space.embed_pure([[qi(0), qi(1)], [qi(0), qi(1)]])
    bad = _with_column(sc.ell, 0, v)
    with pytest.raises((MembershipFailure, ImageNotCoinvariant)):
        normalization_and_splitting(StrongConnection(x, bad), f)


def test_normalization_rejects_an_f_that_is_no_retraction():
    # a valid connection passes the sigma stage, so the f check trips
    x = z2_extension()
    sc, _ = solve_strong_connection(x)
    f = Mat.from_rows(QQ, [[qi(2), qi(0)]])
    with pytest.raises(MembershipFailure, match="retraction"):
        normalization_and_splitting(sc, f)


RESIDUALS = json.loads((Path(__file__).parent / "data"
                        / "strong_connection_residuals.json").read_text())


def _residuals_of_corrupted_connections(name):
    """verify_strong_connection's failures, as JSON lists, on the solved
    connection of every fixture extension (and each declared --T) with one
    entry bumped by one in six seeded trials, then on the zero map."""
    ws = parse_workspace(fixture_document(name))
    out = {}
    for t_name in [None, *ws.subalgebras]:
        x = ws.extension(t_name=t_name)
        sc, _ = solve_strong_connection(x)
        f, ell = x.B.field, sc.ell
        maps = []
        for seed in range(6):
            rng = random.Random(seed)
            ij = (rng.randrange(ell.nrows), rng.randrange(ell.ncols))
            maps.append(ell + Mat.from_entries(f, ell.nrows, ell.ncols, [(ij, f.one)]))
        maps.append(Mat.zeros(f, ell.nrows, ell.ncols))
        key = name if t_name is None else f"{name} --T {t_name}"
        out[key] = [[list(fail) for fail in
                     verify_strong_connection(StrongConnection(x, m)).failures]
                    for m in maps]
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_corrupted_connection_residuals_are_pinned(name):
    """The located failures, in order, are those of the hand-written
    residuals the verifier had before it evaluated the solver's Equations."""
    got = _residuals_of_corrupted_connections(name)
    assert got == {k: v for k, v in RESIDUALS.items() if k.split(" --T ")[0] == name}


def test_tflatness_z2():
    x = z2_extension()
    res = tflatness_check(x)
    assert res["verdict"]
    assert res["iso"]
    assert all(res["flags"].values())


def test_middle_leg_z2():
    x = z2_extension()
    sc, _ = solve_strong_connection(x)
    out = middle_leg_check(sc)
    assert out["report"].ok
    # corrupt ell(g1) = 1 (x) x: middle leg x lands outside B
    v = sc.space.embed_pure([[qi(1), qi(0)], [qi(0), qi(1)]])
    bad = _with_column(sc.ell, 1, v)
    out = middle_leg_check(StrongConnection(x, bad))
    assert ("middle-leg-outside-B", 1) in out["report"].failures


def test_differential_forms():
    x = z2_extension()
    df = differential_forms(x)
    assert df["omega1"].dim == 0  # B = k: mu is an iso
    # a noncommutative B: the Sweedler M2 extension has B = M2
    m2 = matrix_algebra(QQ, 2)
    ent = sweedler_entwining(QQ, m2, upper_triangular_subalgebra(m2), name="NC")
    amod = ent.a_mod
    sub, incl = upper_triangular_subalgebra(m2)
    aa = tensor_space(
        [_restricted(m2, sub, incl), _restricted(m2, sub, incl)], [sub])
    g = aa.embed_pure([m2.unit, m2.unit])
    x2 = extension_from_grouplike(ent, g)
    df2 = differential_forms(x2)
    assert df2["omega1"].dim == 16 - 4
    assert df2["space"].dim == 16


def _restricted(a, sub, incl):
    from coralg.ncalg import regular_bimodule
    m = regular_bimodule(a)
    m.restrict(sub, incl)
    return m


def test_solution_space_points_all_verify():
    # the M2 Sweedler extension has a positive-dimensional space of
    # k-connections; five points of it must all verify
    m2 = matrix_algebra(QQ, 2)
    ent = sweedler_entwining(QQ, m2, upper_triangular_subalgebra(m2), name="NC")
    sub, incl = upper_triangular_subalgebra(m2)
    aa = tensor_space(
        [_restricted(m2, sub, incl), _restricted(m2, sub, incl)], [sub])
    g = aa.embed_pure([m2.unit, m2.unit])
    x = extension_from_grouplike(ent, g)
    sc, sol = solve_strong_connection(x)
    assert sc is not None
    assert sol.freedom >= 1
    rng = random.Random(11)
    for _ in range(5):
        coeffs = [QQ.from_int(rng.randint(-3, 3)) for _ in range(sol.freedom)]
        pt = StrongConnection(x, sol.point(coeffs))
        assert verify_strong_connection(pt).ok


def test_tflatness_nc_with_diagonal_t():
    # B = A = M2 is T-flat over the diagonal: upsilon vanishes identically
    # (the coinvariants are everything) and M2 is projective over diag
    from coralg.fixtures import nc_fixture, diagonal_subalgebra
    fix = nc_fixture(QQ)
    m2 = fix["extension"].entwining.ring
    diag, incl = diagonal_subalgebra(m2)
    x2 = fix["extension"].with_T([incl.apply(diag.basis_vector(i))
                                  for i in range(diag.dim)])
    res = tflatness_check(x2)
    assert res["verdict"]


def test_cuntz_quillen_bijection_is_matrix_identity():
    x = z2_extension()
    sc, _ = solve_strong_connection(x)
    sec = section_from_connection(sc)
    ba = sec["space"]
    from coralg.ncalg import leg_apply
    ins1 = leg_apply(x.a_mod, ba, 0, 0, Mat.from_cols(QQ, [x.B.unit], x.B.dim))
    assert ins1 - sec["nabla"] == sec["sigma"]
    assert ins1 - sec["sigma"] == sec["nabla"]


@pytest.mark.parametrize("name, freedom", [("FIX-NC", 3), ("FIX-Z2", 0)])
def test_solution_set_kernel_is_built_on_first_read(name, freedom):
    """The strong-connection solution set keeps its system matrix until
    ``homogeneous`` is first read; it is then ``kernel`` of that matrix and
    the matrix is dropped.  The freedom is unchanged."""
    x = fixture_workspace(name).extension(t_name="T")
    _, sol = solve_strong_connection(x)
    system = sol._system
    assert sol.homogeneous == kernel(system)
    assert not hasattr(sol, "_system")
    assert sol.freedom == freedom == len(sol.directions)
    assert sol.homogeneous is sol.homogeneous
