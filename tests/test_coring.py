"""Corings, comodules, dual rings, (co)separability, coidempotents, cotensor."""

import itertools
import json
import random
from pathlib import Path

import pytest

from coralg.coring import (
    Comodule, Coidempotent, Coring, coidempotent_from_comodule, cointegral,
    comodule_from_coidempotent, coinvariants, cotensor,
    direct_sum_coidempotents, dual_ring, regular_comodule,
    separability_idempotent, trivial_coring, validate_coidempotent,
    validate_comodule, validate_coring, verify_grouplike,
)
from coralg.errors import ActionMismatch, CoralgError, InvalidCoidempotent
from coralg.exactla import GF, QQ, Mat
from coralg.fixtures import (
    FIXTURE_NAMES, fixture_document, fixture_workspace, group_z2_coring, matrix_algebra,
    module_over_scalars, nc_fixture, product_field_algebra, quadratic_algebra, z2_fixture,
)
from coralg.ncalg import (
    DualBasis, projective_dual_basis, regular_bimodule, scalar_algebra,
)
from coralg.workspace import parse_workspace


def qi(x):
    return QQ.from_int(x)


def test_trivial_coring_valid():
    for a in (scalar_algebra(QQ), product_field_algebra(QQ), matrix_algebra(QQ, 2)):
        c = trivial_coring(a)
        assert validate_coring(c).ok
        m = regular_comodule(c, "right")
        assert validate_comodule(m).ok


def test_group_coalgebra_valid_and_corruptible():
    c = group_z2_coring(QQ)
    assert validate_coring(c).ok
    # corrupt eps(g1) -> 0: the counit identity must be reported
    c_bad = group_z2_coring(QQ)
    c_bad.eps = Mat.from_entries(QQ, c_bad.eps.nrows, c_bad.eps.ncols,
                                 [(ij, v) for ij, v in c_bad.eps.items() if ij != (0, 1)])
    rep = validate_coring(c_bad)
    assert not rep.ok
    assert any("counit" in ax for ax, _ in rep.failures)


def test_comodule_validation():
    c = group_z2_coring(QQ)
    m = regular_comodule(c, "right")
    assert validate_comodule(m).ok
    lm = regular_comodule(c, "left")
    assert validate_comodule(lm).ok


def test_grouplikes():
    c = trivial_coring(scalar_algebra(QQ))
    ok, _ = verify_grouplike(c, [QQ.one])
    assert ok
    z2 = group_z2_coring(QQ)
    assert verify_grouplike(z2, [qi(1), qi(0)])[0]
    assert verify_grouplike(z2, [qi(0), qi(1)])[0]
    ok, res = verify_grouplike(z2, [qi(1), qi(1)])
    assert not ok and any(res["delta"])


def test_coinvariants_trivial_coring():
    a = product_field_algebra(QQ)
    c = trivial_coring(a)
    m = regular_comodule(c, "right")
    # rho = Delta sends x to x (x) 1, so everything is coinvariant
    assert coinvariants(m, a.unit).dim == a.dim


def test_coinvariants_group_coalgebra():
    z2 = group_z2_coring(QQ)
    m = regular_comodule(z2, "right")
    inv = coinvariants(m, [qi(1), qi(0)])
    assert inv.dim == 1
    assert inv.mat.row_list(0) == [qi(1), qi(0)]


def test_dual_ring_trivial():
    for a in (scalar_algebra(QQ), product_field_algebra(QQ)):
        c = trivial_coring(a)
        star, data = dual_ring(c)
        assert star.dim == a.dim
        from coralg.ncalg import validate_algebra
        assert validate_algebra(star).ok


def test_dual_ring_group_coalgebra():
    z2 = group_z2_coring(QQ)
    star, data = dual_ring(z2)
    assert star.dim == 2
    from coralg.ncalg import validate_algebra
    assert validate_algebra(star).ok
    # dual basis idempotents: f_a f_b = delta_ab f_a in some order
    idems = 0
    for i in range(2):
        sq = star.mul_vec(star.basis_vector(i), star.basis_vector(i))
        if sq == star.basis_vector(i):
            idems += 1
    assert idems == 2
    prod = star.mul_vec(star.basis_vector(0), star.basis_vector(1))
    assert prod == [QQ.zero, QQ.zero]


def test_colinear_implies_dual_linear():
    # a right-colinear endomorphism of C is *C-linear for the induced action
    z2 = group_z2_coring(QQ)
    star, data = dual_ring(z2)
    m = regular_comodule(z2, "right")
    carrier = data["module_of_comodule"](m)
    # colinear endos of kZ2 are the diagonal maps
    fmat = Mat.from_rows(QQ, [[qi(3), qi(0)], [qi(0), qi(-2)]])
    for i in range(star.dim):
        act = carrier.right[star][i]
        assert fmat @ act == act @ fmat


def test_separability_idempotent_product_field():
    r = product_field_algebra(QQ)
    rmod = regular_bimodule(r)
    res = separability_idempotent(r, None, rmod)
    assert res is not None
    assert res["z"] == [qi(1), qi(0), qi(0), qi(1)]  # e1(x)e1 + e2(x)e2
    # functorial retraction fixes already-bilinear maps: identity R -> R
    ident = Mat.identity(QQ, 2)
    assert res["retraction"](ident, rmod, rmod) == ident


def test_separability_fails_for_nilpotent():
    a = quadratic_algebra(QQ, 0, 0, name="k[x]/(x^2)")
    amod = regular_bimodule(a)
    assert separability_idempotent(a, None, amod) is None


def test_cointegral_group_coalgebra():
    z2 = group_z2_coring(QQ)
    res = cointegral(z2)
    assert res is not None
    delta = res["delta"]
    cc = z2.CC
    g0 = [qi(1), qi(0)]
    g1 = [qi(0), qi(1)]
    assert delta.apply(cc.embed_pure([g0, g0])) == [qi(1)]
    assert delta.apply(cc.embed_pure([g1, g1])) == [qi(1)]
    assert delta.apply(cc.embed_pure([g0, g1])) == [qi(0)]
    assert delta.apply(cc.embed_pure([g1, g0])) == [qi(0)]


def test_cointegral_trivial_coring_retraction_fixes_colinear():
    a = product_field_algebra(QQ)
    c = trivial_coring(a)
    res = cointegral(c)
    assert res is not None
    m = regular_comodule(c, "right")
    ident = Mat.identity(QQ, a.dim)
    assert res["retraction"](ident, m, m) == ident


def z2_one_dim_left_comodule(z2, idx):
    base = z2.base
    carrier = module_over_scalars(QQ, base, 1, f"k.g{idx}")
    from coralg.ncalg import tensor_space
    cw = tensor_space([z2.carrier, carrier], [base])
    g = [QQ.one if i == idx else QQ.zero for i in range(2)]
    rho = Mat.from_cols(QQ, [cw.embed_pure([g, [QQ.one]])], cw.dim)
    w = Comodule(z2, carrier, rho, "left", name=f"k.g{idx}")
    assert validate_comodule(w).ok
    return w


def test_coidempotent_from_one_dim_comodule():
    z2 = group_z2_coring(QQ)
    w = z2_one_dim_left_comodule(z2, 1)
    db = projective_dual_basis(w.carrier, z2.base, side="left")
    e = coidempotent_from_comodule(w, db)
    assert e.size == 1
    assert e.entries[0][0] == [qi(0), qi(1)]  # g1
    assert validate_coidempotent(e).ok


def test_coidempotent_from_regular_comodule():
    z2 = group_z2_coring(QQ)
    w = regular_comodule(z2, "left")
    db = projective_dual_basis(w.carrier, z2.base, side="left")
    e = coidempotent_from_comodule(w, db)
    assert e.size == 2
    # diagonal (g0, g1) relative to the coordinate dual basis
    assert e.entries[0][0] == [qi(1), qi(0)]
    assert e.entries[1][1] == [qi(0), qi(1)]
    assert e.entries[0][1] == [qi(0), qi(0)]


def test_comodule_from_coidempotent_roundtrip():
    z2 = group_z2_coring(QQ)
    # e = (1) over the trivial coring: W = R regular
    triv = trivial_coring(scalar_algebra(QQ))
    e_triv = Coidempotent(triv, [[[QQ.one]]])
    w = comodule_from_coidempotent(triv, e_triv, side="left")
    assert w.carrier.dim == 1
    # e = (g1): one-dimensional comodule with rho(w) = g1 (x) w
    e1 = Coidempotent(z2, [[[qi(0), qi(1)]]])
    w1 = comodule_from_coidempotent(z2, e1, side="left")
    assert w1.carrier.dim == 1
    db = projective_dual_basis(w1.carrier, z2.base, side="left")
    back = coidempotent_from_comodule(w1, db)
    assert back.entries == e1.entries
    # right-sided reconstruction also validates
    wr = comodule_from_coidempotent(z2, e1, side="right")
    assert wr.carrier.dim == 1


def test_comodule_from_invalid_coidempotent():
    z2 = group_z2_coring(QQ)
    bad = Coidempotent(z2, [[[qi(1), qi(1)]]])
    with pytest.raises(InvalidCoidempotent):
        comodule_from_coidempotent(z2, bad, side="left")


def test_direct_sum_coidempotents():
    z2 = group_z2_coring(QQ)
    e0 = Coidempotent(z2, [[[qi(1), qi(0)]]])
    e1 = Coidempotent(z2, [[[qi(0), qi(1)]]])
    s = direct_sum_coidempotents(e0, e1)
    assert s.size == 2
    w = comodule_from_coidempotent(z2, s, side="left")
    w0 = comodule_from_coidempotent(z2, e0, side="left")
    w1 = comodule_from_coidempotent(z2, e1, side="left")
    assert w.carrier.dim == w0.carrier.dim + w1.carrier.dim


def test_cotensor():
    # over the trivial coring the equalizer is everything
    a = product_field_algebra(QQ)
    c = trivial_coring(a)
    m = regular_comodule(c, "right")
    w = regular_comodule(c, "left")
    ker, mw = cotensor(m, w)
    assert ker.dim == mw.dim
    # group coalgebra: C box (k.g1) = span{g1 (x) w}
    z2 = group_z2_coring(QQ)
    w1 = z2_one_dim_left_comodule(z2, 1)
    ker, mw = cotensor(regular_comodule(z2, "right"), w1)
    assert ker.dim == 1
    assert ker.mat.row_list(0) == mw.embed_pure([[qi(0), qi(1)], [QQ.one]])


def test_cotensor_respects_direct_sums():
    z2 = group_z2_coring(QQ)
    m = regular_comodule(z2, "right")
    w0 = z2_one_dim_left_comodule(z2, 0)
    w1 = z2_one_dim_left_comodule(z2, 1)
    e0 = coidempotent_from_comodule(w0, projective_dual_basis(w0.carrier, z2.base, "left"))
    e1 = coidempotent_from_comodule(w1, projective_dual_basis(w1.carrier, z2.base, "left"))
    s = direct_sum_coidempotents(e0, e1)
    ws = comodule_from_coidempotent(z2, s, side="left")
    d_sum = cotensor(m, ws)[0].dim
    d0 = cotensor(m, w0)[0].dim
    d1 = cotensor(m, w1)[0].dim
    assert d_sum == d0 + d1


def test_cointegral_separability_and_grouplike_search():
    from coralg.coring import search_grouplikes
    from coralg.exactla import GF
    z2 = group_z2_coring(QQ)
    assert cointegral(z2) is not None
    r = product_field_algebra(QQ)
    assert separability_idempotent(r, None, regular_bimodule(r)) is not None
    c5 = group_z2_coring(GF(5))
    assert search_grouplikes(c5) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        search_grouplikes(z2)  # rationals: not searchable


def _mat(rows):
    return Mat.from_rows(QQ, [[qi(x) for x in r] for r in rows])


@pytest.mark.parametrize("order,coaction", [
    ("e1+e0", [[0, 0], [1, 0], [0, 1], [0, 0]]),
    ("e0+e1", [[1, 0], [0, 0], [0, 0], [0, 1]]),
])
def test_right_comodule_from_coidempotent_is_pinned(order, coaction):
    """Recorded with the direct right-side construction: W = R^(I) p with
    p = diag of the two counits, coaction w_k -> w_k (x) e_kk on W (x) C."""
    z2 = group_z2_coring(QQ)
    e0 = Coidempotent(z2, [[[qi(1), qi(0)]]])
    e1 = Coidempotent(z2, [[[qi(0), qi(1)]]])
    s = direct_sum_coidempotents(*((e1, e0) if order == "e1+e0" else (e0, e1)))
    w = comodule_from_coidempotent(z2, s, side="right")
    assert w.side == "right" and w.coring is z2 and w.carrier.dim == 2
    assert w.space.factors == [w.carrier, z2.carrier]
    assert w.coaction == _mat(coaction)
    assert w.carrier.left[z2.base] == [_mat([[1, 0], [0, 1]])]
    assert w.carrier.right[z2.base] == [_mat([[1, 0], [0, 1]])]
    assert validate_comodule(w).ok


@pytest.mark.parametrize("name,cname,dim", [("FIX-SW", "e", 2), ("FIX-SEP", "e", 2),
                                             ("FIX-NC", "eg", 4)])
def test_left_comodule_from_coidempotent_over_a_nontrivial_base(name, cname, dim):
    """Over R != k the left W is R^(I) p, the column span of v -> v p, not
    the k-span of the rows of p: these three build valid left comodules."""
    e = fixture_workspace(name).coidempotents[cname]
    w = comodule_from_coidempotent(e.coring, e, side="left")
    assert w.side == "left" and w.carrier.dim == dim
    assert validate_comodule(w).ok


@pytest.mark.parametrize("name,cname,dim", [("FIX-SW", "e", 2), ("FIX-SEP", "e", 2),
                                             ("FIX-NC", "eg", 4)])
def test_right_comodule_from_coidempotent_over_a_nontrivial_base(name, cname, dim):
    """Over R != k the right W is p R^(I), the right R-span of the columns
    of p, not the k-span of the columns of p: these three build valid right
    comodules."""
    e = fixture_workspace(name).coidempotents[cname]
    w = comodule_from_coidempotent(e.coring, e, side="right")
    assert w.side == "right" and w.carrier.dim == dim
    assert validate_comodule(w).ok


@pytest.mark.parametrize("side", ["left", "right"])
def test_comodule_from_coidempotent_names_the_unclosed_action(side):
    """FIX-NC: W = R^(I) p is not closed under W's induced right M2-action
    (the left comodule W = A.E11 it comes from is no right M2-module), and
    W = p R^(I) is not closed under the induced left one."""
    e = nc_fixture(QQ)["coidempotent"]
    message = {"left": r"W = R\^\(I\) p is not closed under the right action",
               "right": r"W = p R\^\(I\) is not closed under the left action"}[side]
    with pytest.raises(ActionMismatch, match=message):
        comodule_from_coidempotent(e.coring, e, side=side)


def test_left_comodule_failures_are_pinned():
    """A left comodule is validated as its opposite right comodule; labels
    and locations are those of the direct left-side checks."""
    c = trivial_coring(matrix_algebra(QQ, 2))
    d = Mat.from_entries(QQ, 4, 4, [((i, i), qi(3) if i == 3 else QQ.one) for i in range(4)])
    bad = Comodule(c, c.carrier, c.delta @ d, "left", name="bad")
    assert validate_comodule(bad).failures == [
        ("coaction-left-linear[1]", 3), ("coaction-left-linear[2]", 1),
        ("coassociativity", 1), ("coassociativity", 3), ("counit", 3)]


def test_counit_idempotency_failures_are_pinned():
    """Every (i, j) where the counit matrix F has (F^2)_ij != F_ij, row by
    row: here F = [[1, 1, 0], [0, 1, 0], [1, 0, 1]]."""
    z2 = group_z2_coring(QQ)
    g0, g1, z = [qi(1), qi(0)], [qi(0), qi(1)], [qi(0), qi(0)]
    e = Coidempotent(z2, [[g0, g1, z], [z, g1, z], [g1, z, g0]])
    assert validate_coidempotent(e).failures == [
        ("coidempotency", (0, 1)), ("coidempotency", (2, 0)), ("coidempotency", (2, 1)),
        ("counit-idempotency", (0, 1)), ("counit-idempotency", (2, 0)),
        ("counit-idempotency", (2, 1))]


def test_co_opposite_coring_and_opposite_comodule():
    c = trivial_coring(matrix_algebra(QQ, 2))
    cop = c.cop()
    assert c.cop() is cop and cop.cop() is c
    assert cop.base is c.base.op() and cop.carrier is c.carrier.op()
    assert cop.delta is c.delta and cop.eps is c.eps
    assert cop.CC is c.CC.op()
    assert validate_coring(cop).ok
    lm = regular_comodule(c, "left")
    rm = lm.op()
    assert lm.op() is rm and rm.op() is lm
    assert rm.side == "right" and rm.coring is cop and rm.carrier is c.carrier.op()
    assert rm.space is lm.space.op() and rm.coaction is lm.coaction
    assert validate_comodule(rm).ok


RESIDUALS = json.loads((Path(__file__).parent / "data" / "coring_residuals.json").read_text())


def _residuals_of_corrupted_corings(name):
    """validate_coring's failures, as JSON lists, on every coring of a
    fixture with one entry of delta, then of eps, bumped by one in six
    seeded trials each."""
    ws = parse_workspace(fixture_document(name))
    out = {}
    for cname, c in ws.corings.items():
        f = c.base.field
        runs = []
        for which in ("delta", "eps"):
            m = getattr(c, which)
            for seed in range(6):
                rng = random.Random(seed)
                ij = (rng.randrange(m.nrows), rng.randrange(m.ncols))
                bad = {which: m + Mat.from_entries(f, m.nrows, m.ncols, [(ij, f.one)])}
                cor = Coring(c.base, c.carrier, bad.get("delta", c.delta),
                             bad.get("eps", c.eps), name=c.name)
                runs.append(validate_coring(cor).failures)
        out[f"{name} {cname}"] = runs
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_corrupted_coring_residuals_are_pinned(name):
    """The located failures, in order, are those of the validator that
    wrote each left-hand check apart from its right-hand mirror."""
    got = _residuals_of_corrupted_corings(name)
    assert got == {k: v for k, v in RESIDUALS.items() if k.split(" ")[0] == name}


COIDEMPOTENT_RESIDUALS = {
    k: v for k, v in json.loads(
        (Path(__file__).parent / "data" / "algebra_residuals.json").read_text()).items()
    if k.split(" ")[0] in ("coidempotent", "dual-basis")}


#: the amounts a corrupted coordinate is moved by
_SHIFTS = (1, -1, 2)


def _shifted(field, v, d):
    return (v + field.from_int(d)) % field.p if field.p else v + field.from_int(d)


def _corrupted_coidempotent_residuals(name):
    """validate_coidempotent's failures, as JSON lists, on every
    coidempotent of a fixture with one coordinate of one entry moved by
    each of ``_SHIFTS`` (every coordinate in turn)."""
    out = {}
    for cname, e in fixture_workspace(name).coidempotents.items():
        f = e.coring.base.field
        runs = []
        for i, j in itertools.product(range(e.size), repeat=2):
            for t, d in itertools.product(range(len(e.entries[i][j])), _SHIFTS):
                entries = [[list(v) for v in row] for row in e.entries]
                entries[i][j][t] = _shifted(f, entries[i][j][t], d)
                runs.append(validate_coidempotent(Coidempotent(e.coring, entries)).failures)
        out[f"coidempotent {name} {cname}"] = runs
    return json.loads(json.dumps(out))


def _outcome(w, db):
    try:
        coidempotent_from_comodule(w, db)
    except CoralgError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _corrupted_dual_basis_messages(field):
    """coidempotent_from_comodule's outcome on the fixtures' comodules
    with one entry of one chi_i, then of one w_i, of the dual basis moved
    by each of ``_SHIFTS`` (every entry in turn)."""
    z2 = z2_fixture(field)
    cases = [(w.name, w, db) for w, db in z2["comodules"].values()]
    if field.p is None:
        w, db = nc_fixture(field)["comodule"]
        cases.append((w.name, w, db))
    out = {}
    for label, w, db in cases:
        runs = [_outcome(w, db)]
        for p, chi in enumerate(db.chis):
            for r, c, d in itertools.product(range(chi.nrows), range(chi.ncols), _SHIFTS):
                chis = list(db.chis)
                chis[p] = chi + Mat.from_entries(field, chi.nrows, chi.ncols,
                                                 [((r, c), field.from_int(d))])
                runs.append(_outcome(w, DualBasis("left", db.ws, chis, True, db.generator)))
        for p, v in enumerate(db.ws):
            for t, d in itertools.product(range(len(v)), _SHIFTS):
                ws = [list(u) for u in db.ws]
                ws[p][t] = _shifted(field, ws[p][t], d)
                runs.append(_outcome(w, DualBasis("left", ws, db.chis, True, db.generator)))
        out[f"dual-basis {field!r} {label}"] = runs
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_corrupted_coidempotent_residuals_are_pinned(name):
    """The located failures, in order, are those of the validator that
    compared Delta(e_ij) with sum_k e_ik (x) e_kj one (i, j) at a time."""
    got = _corrupted_coidempotent_residuals(name)
    assert got == {k: v for k, v in COIDEMPOTENT_RESIDUALS.items()
                   if k.split(" ")[:2] == ["coidempotent", name]}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_corrupted_dual_basis_messages_are_pinned(field):
    """coidempotent_from_comodule names the first failing row of property
    (1), then the first failing (i, j) of property (2), as the checks one
    entry at a time did."""
    got = _corrupted_dual_basis_messages(field)
    assert got == {k: v for k, v in COIDEMPOTENT_RESIDUALS.items()
                   if k.split(" ")[:2] == ["dual-basis", repr(field)]}
