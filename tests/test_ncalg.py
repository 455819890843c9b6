"""Algebras, bimodules, balanced tensors and the equivariant solver."""

import pytest
from hypothesis import given, settings, strategies as st

import itertools
import json
import random
from math import prod
from pathlib import Path

from coralg.coring import Comodule, comodule_from_coidempotent
from coralg.entwine import associated_coring
from coralg.errors import ActionMismatch, MemoryGuard
from coralg import ncalg
from coralg.exactla import (
    GF, QQ, Mat, QuotientSpace, SubspaceBasis, inverse, kernel, kron_id, rank, solve_right,
)
from coralg.fixtures import (
    FIXTURE_NAMES, diagonal_subalgebra, fixture_workspace, matrix_algebra,
    product_field_algebra, quadratic_algebra, upper_triangular_algebra,
    upper_triangular_subalgebra,
)
from coralg.ncalg import (
    Algebra, AlgebraMorphism, Equation, Module, TensorSpace, Term, contract, descend, eq_value,
    eqs_linear, evaluate_equation,
    generated_subalgebra, hom_solve, kron_to_quotient, leg_apply, projective_dual_basis,
    regular_bimodule, scalar_algebra, tensor_space, trivial_subalgebra,
    validate_algebra, validate_module, validate_morphism,
    verify_dual_basis,
)


def qi(x):
    return QQ.from_int(x)


def test_validate_trivial_and_quadratic_algebra():
    assert validate_algebra(scalar_algebra(QQ)).ok
    # k[x]/(x^2-1): expand (xx)x = x(xx) etc by hand: x*x = 1, (xx)x = x = x(xx)
    a = quadratic_algebra(QQ, 1, 0)
    assert validate_algebra(a).ok
    assert a.mul_vec([qi(0), qi(1)], [qi(0), qi(1)]) == [qi(1), qi(0)]


def test_quadratic_mult_corruption_stays_associative():
    # changing x^2 = 1 into x^2 = x yields k[x]/(x^2-x): a valid algebra, so
    # the validator must report it clean; 2-dim commutative polynomial
    # quotients cannot break associativity through the x*x entry alone.
    a = quadratic_algebra(QQ, 0, 1)
    assert validate_algebra(a).ok


def test_corrupted_matrix_algebra_is_located():
    a = matrix_algebra(QQ, 2)
    assert validate_algebra(a).ok
    e21 = Mat.from_entries(QQ, 4, 16, [((2, 1), QQ.one)])  # E11*E12 = E12 + E21
    rep = validate_algebra(Algebra(QQ, a.name, a.mult_mat() + e21, a.unit))
    assert not rep.ok
    assert any(ax == "associativity" for ax, _ in rep.failures)


def test_unit_corruption_located():
    a = quadratic_algebra(QQ, 1, 0)
    rep = validate_algebra(Algebra(QQ, a.name, a.mult_mat(), [qi(2), qi(0)]))
    assert ("left-unit", 0) in rep.failures


def test_generated_subalgebra():
    a = quadratic_algebra(QQ, 1, 0)
    sub, incl = generated_subalgebra(a, [])
    assert sub.dim == 1
    assert validate_morphism(incl).ok
    whole, _ = generated_subalgebra(a, [[qi(0), qi(1)]])
    assert whole.dim == 2
    m2 = matrix_algebra(QQ, 2)
    e11 = [qi(1), qi(0), qi(0), qi(0)]
    s, incl = generated_subalgebra(m2, [e11])
    assert s.dim == 2
    assert validate_algebra(s).ok and validate_morphism(incl).ok


def test_upper_triangular_subalgebra_matches_direct_presentation():
    m2 = matrix_algebra(QQ, 2)
    ut, incl = upper_triangular_subalgebra(m2)
    assert ut.dim == 3
    assert validate_algebra(ut).ok
    direct = upper_triangular_algebra(QQ)
    assert validate_algebra(direct).ok
    # same structure constants in the canonical (rref) basis order
    assert ut.mult_mat() == direct.mult_mat() and ut.unit == direct.unit


def test_regular_bimodule_valid():
    for a in (quadratic_algebra(QQ, 1, 0), matrix_algebra(QQ, 2),
              upper_triangular_algebra(QQ), product_field_algebra(QQ)):
        m = regular_bimodule(a)
        assert validate_module(m, a, a).ok


def test_tensor_over_ground_field():
    a = quadratic_algebra(QQ, 1, 0)
    m = regular_bimodule(a)
    t = tensor_space([m, m], [None])
    assert t.dim == 4 and t.trivial
    # index convention (i, j) -> i*dim(n) + j
    assert t.flat_index((1, 0)) == 2


def test_tensor_over_self_is_multiplication():
    # A (x)_A A has dim 2 (relation matrix rank 2) and embed(a,a') = class of aa'
    a = quadratic_algebra(QQ, 1, 0)
    m = regular_bimodule(a)
    t = tensor_space([m, m], [a])
    assert t.dim == 2
    x = [qi(0), qi(1)]
    lhs = t.embed_pure([x, x])
    rhs = t.embed_pure([a.mul_vec(x, x), a.unit])
    assert lhs == rhs


def test_tensor_over_upper_triangulars_dim():
    # dim(A (x)_B A) = dim(A (x)_k A) - rank(relations) = 16 - 12 = 4
    m2 = matrix_algebra(QQ, 2)
    ut, incl = upper_triangular_subalgebra(m2)
    amod = regular_bimodule(m2)
    amod.restrict(ut, incl)
    t = tensor_space([amod, amod], [ut])
    assert t.dim == 4
    assert t.full_dim == 16


def test_iterated_tensor_dim_matches_full_relation_rank():
    # oracle: rank of the full balancing-relation span on the 64-dim ambient,
    # assembled directly from structure constants (independent of the
    # left-nested quotient chain)
    m2 = matrix_algebra(QQ, 2)
    ut, incl = upper_triangular_subalgebra(m2)
    amod = regular_bimodule(m2)
    amod.restrict(ut, incl)
    t3 = tensor_space([amod, amod, amod], [ut, ut])
    assert t3.full_dim == 64
    rels = []
    basis = [m2.basis_vector(i) for i in range(4)]
    bbasis = [incl.apply(ut.basis_vector(i)) for i in range(3)]

    def kron3(u, v, w):
        out = [QQ.zero] * 64
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                for k, z in enumerate(w):
                    out[(i * 4 + j) * 4 + k] = x * y * z
        return out

    for b in bbasis:
        for a1 in basis:
            for a2 in basis:
                for a3 in basis:
                    r1 = [p - q for p, q in zip(kron3(m2.mul_vec(a1, b), a2, a3),
                                                kron3(a1, m2.mul_vec(b, a2), a3))]
                    r2 = [p - q for p, q in zip(kron3(a1, m2.mul_vec(a2, b), a3),
                                                kron3(a1, a2, m2.mul_vec(b, a3)))]
                    rels.extend([r1, r2])
    oracle_rank = SubspaceBasis.from_vectors(QQ, 64, rels).dim
    assert t3.dim == 64 - oracle_rank


def test_action_mismatch_raises():
    a = quadratic_algebra(QQ, 1, 0)
    b = matrix_algebra(QQ, 2)
    with pytest.raises(ActionMismatch):
        tensor_space([regular_bimodule(a), regular_bimodule(a)], [b])


def test_leg_apply_multiplication_collapse():
    a = quadratic_algebra(QQ, 1, 0)
    m = regular_bimodule(a)
    aa = tensor_space([m, m], [None])
    mu = leg_apply(aa, m, 0, 2, a.mult_mat())
    x = [qi(0), qi(1)]
    assert mu.apply(aa.embed_pure([x, x])) == [qi(1), qi(0)]


def test_leg_apply_well_definedness_check():
    # a map that is not balanced does not descend to a quotient
    a = quadratic_algebra(QQ, 1, 0)
    m = regular_bimodule(a)
    t = tensor_space([m, m], [a])
    bad = Mat.from_rows(QQ, [[qi(1), qi(0)], [qi(0), qi(0)]])  # kills x, keeps 1
    assert descend(kron_to_quotient(t, 1, bad, 2), t) is None
    ident = Mat.identity(QQ, 2)
    assert descend(kron_to_quotient(t, 1, ident, 2), t) == leg_apply(t, t, 0, 1, ident)


def test_hom_solve_identity_type():
    k = scalar_algebra(QQ)
    m = regular_bimodule(k)
    eqs = eqs_linear(k, m, m, "left")
    eqs.append(eq_value([QQ.one], [QQ.one], QQ, 1))
    sol = hom_solve(QQ, 1, 1, eqs)
    assert not sol.is_empty
    assert sol.freedom == 0
    assert sol.particular == Mat.identity(QQ, 1)


def test_hom_solve_inconsistent():
    sol = hom_solve(QQ, 1, 1, [
        eq_value([QQ.one], [QQ.one], QQ, 1),
        eq_value([QQ.one], [qi(2)], QQ, 1),
    ])
    assert sol.is_empty


def _random_mat(field, rng, nrows, ncols):
    return Mat.from_rows(field, [[field.from_int(rng.choice((0, 0, 1, -1, 2, 3)))
                                  for _ in range(ncols)] for _ in range(nrows)], ncols)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("pre,post", [(1, 1), (1, 2), (2, 1)],
                         ids=["plain", "post", "pre"])
def test_hom_solve_term_shapes_against_the_evaluator(field, pre, post):
    # a consistent system built from a chosen X0 with one term of each shape;
    # every point of the solution set must satisfy it, and the solution set
    # must equal the one of the dense system obtained by evaluating the
    # equation on the unit matrices E_ni
    rng = random.Random(pre * 10 + post)
    src, tgt = 2, 3
    x0 = _random_mat(field, rng, tgt, src)
    terms = [Term(_random_mat(field, rng, 2, pre * tgt * post),
                  _random_mat(field, rng, pre * src * post, 2), -1, pre, post),
             Term(_random_mat(field, rng, 2, tgt), _random_mat(field, rng, src, 2))]
    eq = Equation(terms, rhs=evaluate_equation(x0, Equation(terms)))
    sol = hom_solve(field, src, tgt, [eq])
    assert not sol.is_empty and sol.freedom > 0
    for pt in (sol.particular, sol.point([field.one] * sol.freedom)):
        assert evaluate_equation(pt, eq).nnz() == 0
    cols, rhs = [], eq.rhs
    for n in range(tgt):
        for i in range(src):
            unit = Mat.from_entries(field, tgt, src, [((n, i), field.one)])
            res = evaluate_equation(unit, Equation(terms))
            cols.append([res.get(o, c) for o in range(res.nrows) for c in range(res.ncols)])
    dense = Mat.from_cols(field, cols, rhs.nrows * rhs.ncols)
    b = Mat.from_cols(field, [[rhs.get(o, c) for o in range(rhs.nrows)
                               for c in range(rhs.ncols)]], dense.nrows)
    flat = [sol.particular.get(n, i) for n in range(tgt) for i in range(src)]
    assert flat == solve_right(dense, b).col(0)
    assert sol.homogeneous == kernel(dense)


def test_dual_basis_free_module():
    a = product_field_algebra(QQ)
    m = regular_bimodule(a)
    db = projective_dual_basis(m, a, side="left")
    assert db.projective and db.generator and db.faithfully_flat
    assert verify_dual_basis(m, a, db)


def test_dual_basis_idempotent_summand():
    # W = R.p for p = (1,0) in R = QQ x QQ: projective, not a generator
    r = product_field_algebra(QQ)
    w = Module(QQ, "Rp", 1)
    # e1 acts as 1, e2 acts as 0 on W = span{p}
    w.add_left(r, [Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)])
    w.add_right(r, [Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)])
    db = projective_dual_basis(w, r, side="left")
    assert db.projective
    assert not db.generator
    assert verify_dual_basis(w, r, db)
    assert len(db) >= 1


def test_dual_basis_non_projective():
    # k[x]/(x^2) acting on W = k with x acting as zero: not projective
    a = quadratic_algebra(QQ, 0, 0, name="k[x]/(x^2)")
    w = Module(QQ, "socle", 1)
    w.add_left(a, [Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)])
    db = projective_dual_basis(w, a, side="left")
    assert not db.projective


def test_solution_set_points_satisfy_constraints():
    # maps QQ[x]/(x^2-1) -> itself commuting with left multiplication:
    # the affine set is 2-dimensional (right multiplications); revalidate points
    a = quadratic_algebra(QQ, 1, 0)
    m = regular_bimodule(a)
    eqs = eqs_linear(a, m, m, "left")
    sol = hom_solve(QQ, 2, 2, eqs)
    assert sol.freedom == 2
    for coeffs in ([qi(1), qi(0)], [qi(3), qi(-2)], [qi(0), qi(0)],
                   [qi(5), qi(7)], [qi(-1), qi(4)]):
        pt = sol.point(coeffs)
        for i in range(a.dim):
            L = m.left_action_of(a, a.basis_vector(i))
            assert pt @ L == L @ pt


def test_tensor_space_outer_actions():
    # A (x)_B A keeps the outer A-actions; left action of x then embed
    a = quadratic_algebra(QQ, 1, 0)
    m = regular_bimodule(a)
    t = tensor_space([m, m], [a])
    x = [qi(0), qi(1)]
    one = a.unit
    via_outer = t.outer_left[a][1].apply(t.embed_pure([one, one]))
    direct = t.embed_pure([x, one])
    assert via_outer == direct


def test_equivariant_hom_space_by_hom_solve():
    a = quadratic_algebra(QQ, 1, 0)
    m = regular_bimodule(a)
    sol = hom_solve(QQ, m.dim, m.dim, eqs_linear(a, m, m, "left"))
    assert sol.freedom == 2


def test_equivariant_map_verify():
    a = quadratic_algebra(QQ, 1, 0)
    m = regular_bimodule(a)
    eqs = eqs_linear(a, m, m, "left")

    def equivariant(X):
        return all(evaluate_equation(X, eq).is_zero() for eq in eqs)

    assert equivariant(m.right_action_of(a, [qi(2), qi(3)]))
    assert not equivariant(Mat.from_rows(QQ, [[qi(1), qi(1)], [qi(0), qi(0)]]))


def test_tensor_dim_equals_ambient_minus_relation_rank():
    # dim(M (x)_T N) = dim(M (x)_k N) - rank of the balancing relation span,
    # with the span assembled independently of the quotient chain
    from coralg.exactla import kron_vec
    m2 = matrix_algebra(QQ, 2)
    ut, incl = upper_triangular_subalgebra(m2)
    amod = regular_bimodule(m2)
    amod.restrict(ut, incl)
    t = tensor_space([amod, amod], [ut])
    rels = []
    for bi in range(ut.dim):
        b = incl.apply(ut.basis_vector(bi))
        for i in range(4):
            for j in range(4):
                u = kron_vec(QQ, m2.mul_vec(m2.basis_vector(i), b),
                             m2.basis_vector(j))
                v = kron_vec(QQ, m2.basis_vector(i),
                             m2.mul_vec(b, m2.basis_vector(j)))
                rels.append([a - c for a, c in zip(u, v)])
    rank_rel = SubspaceBasis.from_vectors(QQ, 16, rels).dim
    assert t.dim == 16 - rank_rel


def test_declared_action_is_never_replaced():
    # memoized tensor spaces read their factors' declared actions live, so
    # an action, once declared, may not change under them
    m2 = matrix_algebra(QQ, 2)
    t, incl = diagonal_subalgebra(m2)
    incl2 = AlgebraMorphism(t, m2, Mat.from_cols(
        QQ, [[qi(1), qi(1), qi(0), qi(0)], [qi(0), qi(-1), qi(0), qi(1)]], 4))
    assert validate_morphism(incl2).ok
    m = regular_bimodule(m2)
    m.restrict(t, incl)
    sp = tensor_space([m, m], [t])
    m.restrict(t, incl)  # the same matrices again: a no-op
    assert tensor_space([m, m], [t]) is sp
    with pytest.raises(ActionMismatch):
        m.restrict(t, incl2)
    with pytest.raises(ActionMismatch):
        m.add_right(t, [m.right_action_of(m2, incl2.apply(t.basis_vector(i)))
                        for i in range(t.dim)])
    assert tensor_space([m, m], [t]) is sp


def test_restrict_declares_both_actions_once():
    m2 = matrix_algebra(QQ, 2)
    t, incl = diagonal_subalgebra(m2)
    incl2 = AlgebraMorphism(t, m2, Mat.from_cols(
        QQ, [[qi(1), qi(1), qi(0), qi(0)], [qi(0), qi(-1), qi(0), qi(1)]], 4))
    imgs = [incl.apply(t.basis_vector(i)) for i in range(t.dim)]
    imgs2 = [incl2.apply(t.basis_vector(i)) for i in range(t.dim)]
    m = regular_bimodule(m2)
    assert m.restrict(t, incl) is m
    left, right = m.left[t], m.right[t]
    assert left == [m2.left_mult_by(v) for v in imgs]
    assert right == [m2.right_mult_by(v) for v in imgs]
    assert m.restrict(t, incl) is m  # the same matrices again: a no-op
    assert m.left[t] is left and m.right[t] is right
    with pytest.raises(ActionMismatch, match="on the left"):
        m.restrict(t, incl2)
    assert m.left[t] is left and m.right[t] is right
    # a mismatch on either side alone is caught
    for add, side in ((Module.add_left, "left"), (Module.add_right, "right")):
        m = regular_bimodule(m2)
        mult = m2.left_mult_by if side == "left" else m2.right_mult_by
        add(m, t, [mult(v) for v in imgs2])
        with pytest.raises(ActionMismatch, match=f"on the {side}"):
            m.restrict(t, incl)


def _m2_with_ut():
    """M2 as a bimodule over itself and over its upper triangulars."""
    m2 = matrix_algebra(QQ, 2)
    ut, incl = upper_triangular_subalgebra(m2)
    m = regular_bimodule(m2)
    m.restrict(ut, incl)
    return m2, ut, m


def test_algebra_memos_stay_sound_when_its_unit_list_is_edited():
    """An algebra is its mu and its unit: it keeps no second copy of its
    products, and the unit it hands out is a new list, so editing that list
    changes nothing it computes after its memos were read."""
    m2 = matrix_algebra(QQ, 2)
    mu, lefts, op = m2.mult_mat(), m2.left_mult_mats(), m2.op()
    assert not hasattr(m2, "mult")
    one = [qi(1), qi(0), qi(0), qi(1)]
    unit_col = m2.unit_col()
    unit = m2.unit
    unit[0], unit[1] = qi(5), qi(1)
    assert m2.unit_col() == unit_col and m2.unit == one and op.unit == one
    e11, e12 = m2.basis_vector(0), m2.basis_vector(1)
    assert m2.mul_vec(e11, e12) == e12
    assert m2.mult_mat() is mu and m2.left_mult_mats() is lefts and m2.op() is op


def test_opposite_names_follow_renames():
    ws = fixture_workspace("FIX-Z2")
    assert ws.algebras["A"].op().name == "A^op"
    assert ws.bimodules["C"].op().name == "C^op"
    m2 = matrix_algebra(QQ, 2)
    m = regular_bimodule(m2)
    op, mo = m2.op(), m.op()
    m2.name = m.name = "B"
    assert op.name == mo.name == "B^op" and op.op().name == "B"


def test_opposite_algebra_and_module_are_memoized_involutions():
    m2, ut, m = _m2_with_ut()
    op = m2.op()
    assert m2.op() is op and op.op() is m2
    assert all(op.mul_vec(m2.basis_vector(i), m2.basis_vector(j))
               == m2.mul_vec(m2.basis_vector(j), m2.basis_vector(i))
               for i in range(4) for j in range(4))
    assert validate_algebra(op).ok
    assert op.left_mult_mats() == m2.right_mult_mats()
    mo = m.op()
    assert m.op() is mo and mo.op() is m and mo.is_op and not m.is_op
    assert mo.left[op] is m.right[m2] and mo.right[ut.op()] is m.left[ut]
    assert set(mo.left) == {op, ut.op()}
    assert validate_module(mo, op, ut.op()).ok
    # live: an action declared on the opposite is the original's opposite action
    k, k_incl = generated_subalgebra(m2, [])
    mats = [m.right_action_of(m2, k_incl.apply(k.basis_vector(0)))]
    mo.add_left(k.op(), mats)
    assert m.right[k] is mats and k.op() in mo.left


def test_module_answers_the_space_interface():
    _, ut, m = _m2_with_ut()
    assert m.dims == [4] and m.trivial
    assert m.Q == Mat.identity(QQ, 4) and m.S is m.Q
    assert m.outer_left is m.left and m.outer_right is m.right


def _reversed_index(idxs, dims):
    flat = 0
    for i, d in zip(reversed(idxs), reversed(dims)):
        flat = flat * d + i
    return flat


def test_all_opposite_factors_give_the_reversal_view():
    m2, ut, m = _m2_with_ut()
    k = scalar_algebra(QQ)
    v2 = Module(QQ, "k2", 2).add_left(k, [Mat.identity(QQ, 2)]).add_right(k, [Mat.identity(QQ, 2)])
    spaces = [
        (tensor_space([m, m, m], [ut, m2]), [m.op()] * 3, [m2.op(), ut.op()]),
        (tensor_space([v2, m, v2], [None, None]), [v2.op(), m.op(), v2.op()], [None, None]),
        (tensor_space([m], [], circular=ut), [m.op()], []),
    ]
    for sp, factors, junctions in spaces:
        view = tensor_space(factors, junctions, circular=sp.circular and sp.circular.op())
        assert view is sp.op() and view.op() is sp
        assert view.dim == sp.dim and view.dims == sp.dims[::-1]
        assert view.trivial == sp.trivial
        for idxs in itertools.product(*[range(d) for d in view.dims]):
            v, o = view.flat_index(idxs), _reversed_index(idxs, view.dims)
            assert view.Q.col(v) == sp.Q.col(o)
            assert view.S.row_list(v) == sp.S.row_list(o)
        for alg, mats in sp.outer_right.items():
            assert view.outer_left[alg.op()] is mats
    aaa = spaces[0][0]
    assert aaa.op().outer_right[m2.op()] is aaa.outer_left[m2]


def test_leg_apply_through_reversal_views_equals_the_plain_map():
    m2, ut, m = _m2_with_ut()
    mo, op = m.op(), m2.op()
    aa = tensor_space([m, m], [ut])
    aaa = tensor_space([m, m, m], [ut, ut])
    mu, mu_op = m2.mult_mat(), op.mult_mat()
    assert leg_apply(aa.op(), mo, 0, 2, mu_op) == leg_apply(aa, m, 0, 2, mu)
    assert leg_apply(aaa.op(), aa.op(), 0, 2, mu_op) == leg_apply(aaa, aa, 1, 2, mu)
    assert leg_apply(aaa.op(), aa.op(), 1, 2, mu_op) == leg_apply(aaa, aa, 0, 2, mu)
    unit = m2.unit_col()
    assert leg_apply(mo, aa.op(), 0, 0, unit) == leg_apply(m, aa, 1, 0, unit)
    # the descent check reads the view's own Q and S
    bad = Mat.from_rows(QQ, [[qi(1) if i == j == 0 else qi(0) for j in range(4)]
                             for i in range(4)])
    assert descend(kron_to_quotient(aa.op(), 4, bad, 1), aa.op()) is None


def _fixture_spaces(name):
    """Relative, triple and circular spaces of a built-in fixture's
    entwining, each with its reversal view."""
    e = fixture_workspace(name).single_entwining()
    a, c, r = e.a_mod, e.coring.carrier, e.base
    spaces = [e.AC, e.CA, e.coring.CC, tensor_space([a, c, a], [r, r]),
              tensor_space([a, a, c], [r, r]), tensor_space([a], [], circular=r),
              tensor_space([c, c], [r], circular=r)]
    return spaces + [sp.op() for sp in spaces]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_outer_actions_satisfy_the_descent_identity(name):
    # outer_left[alg][i] @ Q == Q @ (L_i (x) I) and its right mirror: the
    # induced action on the quotient is unique, so this pins every entry
    # whatever way the actions are computed; every algebra declared on the
    # end factor shows, including those declared after the space was built
    for sp in _fixture_spaces(name):
        first, last = sp.factors[0], sp.factors[-1]
        rest, pre = sp.full_dim // first.dim, sp.full_dim // last.dim
        if sp.circular is not None:
            assert not sp.outer_left and not sp.outer_right
            continue
        assert set(sp.outer_left) == set(first.left)
        assert set(sp.outer_right) == set(last.right)
        for alg, mats in sp.outer_left.items():
            for m, lm in zip(mats, first.left[alg], strict=True):
                assert m @ sp.Q == sp.Q @ kron_id(1, lm, rest), (sp.name, alg.name)
        for alg, mats in sp.outer_right.items():
            for m, rm in zip(mats, last.right[alg], strict=True):
                assert m @ sp.Q == sp.Q @ kron_id(pre, rm, 1), (sp.name, alg.name)


def test_action_declared_after_the_build_shows_on_the_memoized_space():
    from coralg.ncalg import TensorSpace
    m2, ut, m = _m2_with_ut()
    sp = tensor_space([m, m], [ut])
    assert set(sp.outer_left) == {m2, ut}
    d, d_incl = diagonal_subalgebra(m2)
    m.add_left(d, [m.left_action_of(m2, d_incl.apply(d.basis_vector(i)))
                   for i in range(d.dim)])
    assert tensor_space([m, m], [ut]) is sp
    assert d in sp.outer_left and d not in sp.outer_right
    assert sp.outer_left[d] == TensorSpace([m, m], [ut]).outer_left[d]
    assert sp.outer_left[d] is sp.outer_left[d]  # computed once
    assert sp.op().outer_right[d.op()] is sp.outer_left[d]


def test_circular_space_exposes_no_outer_actions():
    m2, ut, m = _m2_with_ut()
    for t in (ut, m2):
        sp = tensor_space([m, m], [t], circular=t)
        assert len(sp.outer_left) == len(sp.outer_right) == 0
        assert m2 not in sp.outer_left and m2 not in sp.outer_right
        assert not sp.op().outer_left and not sp.op().outer_right


def test_trivial_flags_a_space_without_relations():
    from coralg.cyclic import cyclic_complex
    ut = upper_triangular_algebra(QQ)
    m2 = matrix_algebra(QQ, 2)
    pairs = [(scalar_algebra(QQ), None), (quadratic_algebra(QQ, 1, 0), None), (ut, None),
             (m2, None), (m2, diagonal_subalgebra(m2)),
             (ut, generated_subalgebra(ut, [[qi(1), qi(0), qi(0)], [qi(0), qi(0), qi(1)]]))]
    seen = set()
    for b, t_pair in pairs:
        cc = cyclic_complex(b, t_pair)
        for n in range(6):
            sp = cc.space(n)
            assert sp.trivial == (sp.dim == sp.full_dim), (cc.name, n)
            seen.add(sp.trivial)
    assert seen == {True, False}


def test_tensor_space_rejects_missing_actions():
    m2, ut, m = _m2_with_ut()
    ut.name = "ut"
    d, _ = diagonal_subalgebra(m2)
    d.name = "diag"
    plain = Module(QQ, "k4", 4).add_right(ut, m.right[ut])
    with pytest.raises(ActionMismatch, match="left side lacks a right diag-action"):
        tensor_space([m, m], [d])
    with pytest.raises(ActionMismatch, match="left side lacks a right diag-action"):
        tensor_space([m, m, m], [ut, d])  # the middle factor's, pushed
    with pytest.raises(ActionMismatch, match="k4 lacks a left ut-action"):
        tensor_space([m, plain], [ut])
    with pytest.raises(ActionMismatch, match="must act on both ends"):
        tensor_space([plain], [], circular=ut)


def test_identity_skip_equals_the_explicit_product():
    # descend and leg_apply leave out Q @ and @ S only where they are the
    # identity: on a module and on a space without relations, but not on
    # that space's reversal view, whose Q and S permute the factors
    from coralg.cyclic import cyclic_complex
    rng = random.Random(9)
    u, v = Module(QQ, "k2", 2), Module(QQ, "k3", 3)
    uv = tensor_space([u, v], [None])
    uvu = tensor_space([u, v, u], [None, None])
    circ = cyclic_complex(matrix_algebra(QQ, 2)).space(1)
    spaces = [u, u.op(), uv, uv.op(), uvu, uvu.op(), circ, circ.op()]
    assert all(sp.trivial for sp in spaces)
    assert uv.op().Q != Mat.identity(QQ, 6) and uvu.op().S != Mat.identity(QQ, 12)
    for src in spaces:
        full = src.Q.ncols
        first, rest = src.dims[0], full // src.dims[0]
        fmat = Mat.from_rows(QQ, [[qi(rng.randrange(-3, 4)) for _ in range(first)]
                                  for _ in range(first)])
        explicit = src.Q @ kron_id(1, fmat, rest) @ src.S
        assert leg_apply(src, src, 0, 1, fmat) == explicit, src.name
        W = Mat.from_rows(QQ, [[qi(rng.randrange(-3, 4)) for _ in range(full)]
                               for _ in range(2)])
        assert descend(W, src) == W @ src.S, src.name


# -- balancing relations from a generating set ---------------------------

def _junction_algebra(field, kind):
    """(T, the regular bimodule of the algebra T sits in, restricted to T)."""
    if kind == "diag":
        m2 = matrix_algebra(field, 2)
        t, incl = diagonal_subalgebra(m2)
        return t, regular_bimodule(m2).restrict(t, incl)
    t = {"kxk": product_field_algebra, "ut2": upper_triangular_algebra,
         "M2": lambda f: matrix_algebra(f, 2)}[kind](field)
    return t, regular_bimodule(t)


def _lower(field, d, entries):
    """I plus ``entries`` (cycled) below the diagonal: an invertible d x d Mat."""
    def entry(i, j):
        if i == j:
            return field.one
        return field.from_int(entries[(i * d + j) % len(entries)]) if j < i else field.zero
    return Mat.from_rows(field, [[entry(i, j) for j in range(d)] for i in range(d)])


def _twisted(t, host, twist, name, bend):
    """host's T-actions conjugated: ``twist = (entries, right_entries)``
    conjugates the left action by ``_lower(entries)`` and the right one by
    ``_lower(right_entries or entries)``, so different entries give actions
    that need not commute.  ``bend = (side, index, entries)`` adds a matrix
    to one action matrix, which generally breaks the module axioms."""
    f, d = t.field, host.dim
    sides = {}
    for side, entries in (("left", twist[0]), ("right", twist[1] or twist[0])):
        p = _lower(f, d, entries)
        p_inv = inverse(p)
        sides[side] = [p @ m @ p_inv for m in getattr(host, side)[t]]
    if bend is not None:
        side, i, extra = bend
        sides[side][i] = sides[side][i] + Mat.from_rows(
            f, [[f.from_int(extra[(r * d + c) % len(extra)]) for c in range(d)]
                for r in range(d)])
    return Module(f, name, d).add_left(t, sides["left"]).add_right(t, sides["right"])


def _bent_factors(t, host, twists, bend):
    """One ``_twisted`` host per twist, named M0, M1, ...; with
    ``bend = (n, side, index, entries)`` factor n is bent."""
    factors = []
    for n, twist in enumerate(twists):
        b = None
        if bend is not None and bend[0] == n:
            b = (bend[1], bend[2] % t.dim, bend[3])
        factors.append(_twisted(t, host, twist, f"M{n}", b))
    return factors


def _explicit_build(factors, junctions, circular):
    """(dim, Q, S) of the space built step by step from explicit relation
    Mats: at each junction the quotient by the columns of
    ``kron_id(1, R, dN) - kron_id(dim prefix, L, 1)`` for every basis
    element, identity pairs included, reduced by ``from_columns``, and the
    outer actions pushed as ``proj @ kron_id(...) @ sect``; the circular
    relation R - L is read on the pushed end actions."""
    field, first = factors[0].field, factors[0]
    Q = S = Mat.identity(field, first.dim)
    left, right = dict(first.left), dict(first.right)
    for t, nxt in zip(junctions, factors[1:]):
        pre, post = Q.nrows, nxt.dim
        rels = [kron_id(1, right[t][x], post) - kron_id(pre, nxt.left[t][x], 1)
                for x in range(t.dim if t is not None else 0)]
        qs = QuotientSpace(field, pre * post, SubspaceBasis.from_columns(field, pre * post, rels))
        Q, S = qs.proj @ kron_id(1, Q, post), kron_id(1, S, post) @ qs.sect
        left = {a: [qs.proj @ kron_id(1, m, post) @ qs.sect for m in ms] for a, ms in left.items()}
        right = {a: [qs.proj @ kron_id(pre, m, 1) @ qs.sect for m in ms]
                 for a, ms in nxt.right.items()}
    if circular is not None:
        rels = [right[circular][x] - left[circular][x] for x in range(circular.dim)]
        qs = QuotientSpace(field, Q.nrows, SubspaceBasis.from_columns(field, Q.nrows, rels))
        Q, S = qs.proj @ Q, S @ qs.sect
    return Q.nrows, Q, S


def _same_space(a, b):
    return (a.dim, a.Q, a.S) == (b.dim, b.Q, b.S)


small_ints = st.lists(st.integers(-2, 2), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([QQ, GF(7)]),
       kind=st.sampled_from(["kxk", "ut2", "M2", "diag"]),
       twists=st.lists(st.tuples(small_ints, st.none() | small_ints), min_size=1, max_size=3),
       circular=st.booleans(),
       bend=st.none() | st.tuples(st.integers(0, 2), st.sampled_from(["left", "right"]),
                                  st.integers(0, 3), small_ints))
def test_the_build_equals_the_explicit_kron_id_build(field, kind, twists, circular, bend):
    """Two- and three-factor spaces over k x k, ut2, M2 and diag in M2, over
    QQ and GF(7), with and without the circular relation (and one-factor
    circular ones), of twisted regular bimodules: in some cases a factor's
    two actions do not commute, or one action is bent off the module
    axioms.  The build, with its relation columns formed in row storage and
    its identity pairs left out, is the explicit build, in dim, Q and S."""
    if len(twists) == 1:
        circular = True
    t, host = _junction_algebra(field, kind)
    factors = _bent_factors(t, host, twists, bend)
    junctions = [t] * (len(factors) - 1)
    circ = t if circular else None
    built = TensorSpace(factors, junctions, circ)
    assert (built.dim, built.Q, built.S) == _explicit_build(factors, junctions, circ)


def _bent_on_a_product():
    """M2's regular bimodule with its right action bent on E11 = E12 E21 (and
    E22 by the opposite amount), so that it keeps the unit, E12 and E21."""
    m2 = matrix_algebra(QQ, 2)
    reg = regular_bimodule(m2)
    nudge = Mat.from_entries(QQ, 4, 4, [((2, 3), QQ.one)])
    right = list(reg.right[m2])
    right[0], right[3] = right[0] + nudge, right[3] - nudge
    bent = Module(QQ, "bent", 4).add_left(m2, reg.left[m2]).add_right(m2, right)
    return [([bent, reg], [m2], None, 2), ([reg, bent, reg], [m2, m2], None, 0),
            ([reg, bent], [m2], m2, 0)]


def _bent_unit():
    """Units that do not act as the identity on one side: k x k's regular
    bimodule with the left action of e2 bent by N = E_01, so the unit acts
    as I + N (one factor, circular), and k acting on k^2 as I on the left
    and I + N on the right (a junction over k, and circular)."""
    kk, k = product_field_algebra(QQ), scalar_algebra(QQ)
    nudge = Mat.from_entries(QQ, 2, 2, [((0, 1), QQ.one)])
    reg = regular_bimodule(kk)
    left = list(reg.left[kk])
    left[1] = left[1] + nudge
    bent = Module(QQ, "bent", 2).add_left(kk, left).add_right(kk, reg.right[kk])
    one = Mat.identity(QQ, 2)
    skew = Module(QQ, "skew", 2).add_left(k, [one]).add_right(k, [one + nudge])
    return [([bent], [], kk, 1), ([skew, skew], [k], None, 2), ([skew], [], k, 1)]


@pytest.mark.parametrize("case", range(6), ids=[
    "M2-right-on-a-product", "M2-right-on-a-product-middle", "M2-right-on-a-product-circular",
    "kxk-left-unit-circular", "k-right-unit", "k-right-unit-circular"])
def test_bent_actions_build_as_the_explicit_steps(case):
    """Actions bent where the relations of a generating set, or of the basis
    elements that act as the identity on one side, would miss a relation
    (a right action bent on a product of generators; a unit that does not
    act as the identity) still give the explicit build, of the stated dim."""
    factors, junctions, circ, dim = (_bent_on_a_product() + _bent_unit())[case]
    built = TensorSpace(factors, junctions, circ)
    assert (built.dim, built.Q, built.S) == _explicit_build(factors, junctions, circ)
    assert built.dim == dim


def _lifted_section(factors, junctions, circular):
    """The section of the space one step shorter, lifted to the ambient of
    the last step: S_prev of the space without the circular relation when
    there is one, else kron(S_prev, I) of the space without the last
    factor."""
    if circular is not None:
        return TensorSpace(factors, junctions).S
    prev = TensorSpace(factors[:-1], junctions[:-1])
    return prev.S.kron(Mat.identity(prev.field, factors[-1].dim))


def _is_column_selection(sp):
    one = sp.field.one
    cols = sp.S.sparse_cols()
    return len(cols) == sp.dim and all(list(c.values()) == [one] for c in cols)


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([QQ, GF(7)]),
       kind=st.sampled_from(["kxk", "ut2", "M2", "diag"]),
       twists=st.lists(st.tuples(small_ints, st.none() | small_ints), min_size=1, max_size=3),
       circular=st.booleans())
def test_the_section_is_the_left_nested_column_selection(field, kind, twists, circular):
    """The section, carried by its rows while the space is built, is the
    left-nested one: S = kron(S_prev, I) sect for the last junction and
    S = S_prev sect for the circular relation, with S_prev the section of
    the space one step shorter and sect the canonical section of that
    step's quotient, whose projection is Q kron(S_prev, I) (resp.
    Q S_prev) and whose relations are that projection's kernel.  On the
    space and on its reversal view every column of S is a single 1 and
    Q S = I."""
    if len(twists) == 1:
        circular = True
    t, host = _junction_algebra(field, kind)
    factors = [_twisted(t, host, twist, f"M{n}", None) for n, twist in enumerate(twists)]
    junctions = [t] * (len(factors) - 1)
    circ = t if circular else None
    sp = TensorSpace(factors, junctions, circ)
    lift = _lifted_section(factors, junctions, circ)
    proj = sp.Q @ lift
    step = QuotientSpace(field, lift.ncols, kernel(proj))
    assert step.proj == proj
    assert sp.S == lift @ step.sect
    for space in (sp, sp.op()):
        assert _is_column_selection(space)
        assert space.Q @ space.S == Mat.identity(field, space.dim)


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from([QQ, GF(7)]),
       kind=st.sampled_from(["kxk", "ut2", "M2", "diag"]),
       twists=st.lists(st.tuples(small_ints, st.none() | small_ints), min_size=1, max_size=4),
       circular=st.booleans(),
       bend=st.none() | st.tuples(st.integers(0, 3), st.sampled_from(["left", "right"]),
                                  st.integers(0, 3), small_ints))
def test_a_space_is_one_step_on_its_memoized_prefix(field, kind, twists, circular, bend):
    """One to four twisted, sometimes bent, modules over k x k, ut2, M2 and
    diag in M2, over QQ and GF(7), with and without the circular relation.
    Down the chain of prefixes, each space's prefix is the memoized
    ``tensor_space`` of its first k - 1 factors (the first module when
    k = 2; for a circular space, the balanced space of all k factors), and
    each outer action, pushed through the space's last step, is the map
    ``leg_apply(sp, sp, pos, 1, m)`` induces, where m descends or not."""
    t, host = _junction_algebra(field, kind)
    factors = _bent_factors(t, host, twists, bend)
    junctions = [t] * (len(factors) - 1)
    sp = tensor_space(factors, junctions, t if circular else None)
    if circular:
        whole = factors[0] if len(factors) == 1 else tensor_space(factors, junctions)
        assert sp.prefix is whole
        assert not sp.outer_left and not sp.outer_right
        sp = whole
    while isinstance(sp, TensorSpace):
        k = len(sp.factors)
        for m, pushed in zip(sp.factors[0].left[t], sp.outer_left[t], strict=True):
            assert pushed == leg_apply(sp, sp, 0, 1, m), (sp.name, "left")
        for m, pushed in zip(sp.factors[-1].right[t], sp.outer_right[t], strict=True):
            assert pushed == leg_apply(sp, sp, k - 1, 1, m), (sp.name, "right")
        if k >= 3:
            assert sp.prefix is tensor_space(sp.factors[:-1], sp.junctions[:-1])
        else:
            assert sp.prefix is sp.factors[0]
        sp = sp.prefix


def test_a_prefix_of_opposite_factors_is_built_directly():
    """``tensor_space`` gives [A^op, A^op] as the reversal view of A (x) A,
    whose coordinates differ over M2; as the prefix of [A^op, A^op, N] the
    direct build is read instead, so the space keeps the coordinates of
    its own left-nested chain."""
    m2 = matrix_algebra(QQ, 2)
    reg = regular_bimodule(m2)
    n = Module(QQ, "n", 4).add_left(m2.op(), reg.right[m2])
    factors, junctions = [reg.op(), reg.op(), n], [m2.op(), m2.op()]
    direct = TensorSpace(factors[:-1], junctions[:-1])
    assert tensor_space(factors[:-1], junctions[:-1]).Q != direct.Q
    assert _same_space(tensor_space(factors, junctions).prefix, direct)


def test_an_oversized_space_raises_the_memory_guard(monkeypatch):
    """full_dim is guarded before the prefix is built, and no prefix's
    ambient exceeds it, so one guard refuses an oversized space, leaves
    no prefix behind and forms no relation column."""
    calls = _from_balancing_calls(monkeypatch)
    m2 = matrix_algebra(QQ, 2)
    reg = regular_bimodule(m2)
    big = Module(QQ, "big", 1500)
    with pytest.raises(MemoryGuard, match="tensor space"):
        TensorSpace([big] * 2, [None])
    with pytest.raises(MemoryGuard, match="tensor space"):
        TensorSpace([reg] * 11, [m2] * 10, circular=m2)
    assert not big._tensor_spaces and not reg._tensor_spaces and not calls


def _from_balancing_calls(monkeypatch):
    """The number of pairs of each ``SubspaceBasis.from_balancing`` call, in
    the order the steps make them."""
    calls, real = [], SubspaceBasis.from_balancing

    def spy(field, ambient_dim, pre, post, pairs):
        calls.append(len(pairs))
        return real(field, ambient_dim, pre, post, pairs)
    monkeypatch.setattr(SubspaceBasis, "from_balancing", spy)
    return calls


def test_the_workload_spaces_impose_the_expected_relation_sets(monkeypatch):
    """The relations of B^{(*)T 3} over B = M2, built as the bicomplex
    builds it: over T = M2 the two junction steps and the circular step
    each impose the relations of all 4 basis elements, over diag of both,
    and over k none, its one pair being two identities.  A step that
    imposes fewer fails here."""
    m2 = matrix_algebra(QQ, 2)
    calls = _from_balancing_calls(monkeypatch)
    for (t, incl), want in (((m2, None), 4), (diagonal_subalgebra(m2), 2),
                            (ncalg.trivial_subalgebra(m2), 0)):
        b = regular_bimodule(m2) if incl is None else regular_bimodule(m2).restrict(t, incl)
        calls.clear()
        assert ncalg._relation_set(t, b.right, b.left) == list(range(want))
        tensor_space([b] * 3, [t, t], t)
        assert calls == ([want] * 3 if want else []), t.name


def _zero_quotient(field):
    """M (x)_{k x k} N with e1 acting as 1 on M's right and as 0 on N's
    left: m (x) n = m e1 (x) n = m (x) e1 n = 0, so the quotient is zero."""
    kk = product_field_algebra(field)
    one, zero = Mat.identity(field, 1), Mat.zeros(field, 1, 1)
    m = Module(field, "M", 1).add_right(kk, [one, zero])
    return TensorSpace([m, Module(field, "N", 1).add_left(kk, [zero, one])], [kk])


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from([QQ, GF(7)]),
       kind=st.sampled_from(["kxk", "ut2", "M2", "diag"]),
       shape=st.sampled_from(["module", "over-k", "step", "circular", "zero"]),
       twists=st.lists(st.tuples(small_ints, st.none() | small_ints), min_size=1, max_size=3),
       view=st.booleans(), nrows=st.integers(0, 3), entries=small_ints)
def test_reading_the_free_columns_is_the_product_with_the_section(
        field, kind, shape, twists, view, nrows, entries):
    """``m.cols_at(sp.free)`` is ``m @ sp.S`` on a module, a space over k
    (no relations), a balanced space, a circular space and a space whose
    quotient is zero, each also as its opposite (the reversal view of a
    space), over QQ and GF(7)."""
    t, host = _junction_algebra(field, kind)
    factors = [_twisted(t, host, twist, f"M{n}", None) for n, twist in enumerate(twists)]
    if shape == "module":
        sp = factors[0]
    elif shape == "zero":
        sp = _zero_quotient(field)
        assert sp.dim == 0
    else:
        junction = None if shape == "over-k" else t
        sp = TensorSpace(factors, [junction] * (len(factors) - 1),
                         t if shape == "circular" else None)
    if view:
        sp = sp.op()
    ncols = prod(sp.dims)
    m = Mat.from_entries(field, nrows, ncols, (
        ((i, j), field.from_int(entries[(i * ncols + j) % len(entries)]))
        for i in range(nrows) for j in range(ncols)))
    assert m.cols_at(sp.free) == m @ sp.S


def _counit_cases(name):
    """(space, M, R, f) for every space a counit-type map of a built-in
    fixture contracts, m (x) x -> m . f(x) on the first factor M over R:
    C (x)_R C of its coring and of the associated coring, the entwining's
    A (x)_R C and the extension's right comodule A, all by the counit; and
    (space, M, R, f) for the left-hand x (x) m -> f(x) . m on the last
    factor M: both C (x)_R C, the entwining's C (x)_R A, the extension's
    left comodule A and the left comodule C (x)_R W of each coidempotent
    whose W = R^(I) p is one."""
    ws = fixture_workspace(name)
    x = ws.extension()
    e = x.entwining
    c, r, a = e.coring, e.base, e.a_mod
    assoc = associated_coring(e)
    corings = [(c.CC, c.carrier, r, c.eps), (assoc.CC, assoc.carrier, e.ring, assoc.eps)]
    right, left = list(corings), list(corings)
    right += [(e.AC, a, r, c.eps), (Comodule(c, a, x.rho, "right").space, a, r, c.eps)]
    left += [(e.CA, a, r, c.eps), (Comodule(c, a, x.lrho, "left").space, a, r, c.eps)]
    for coid in ws.coidempotents.values():
        try:
            w = comodule_from_coidempotent(coid.coring, coid, "left")
        except ActionMismatch:  # R^(I) p is not closed under R's actions
            continue
        left.append((w.space, w.carrier, coid.coring.base, coid.coring.eps))
    return right, left


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_contract_is_the_explicit_collapse_product(name):
    """``contract`` equals the hand-written collapse @ kron_id @ S, on the
    right and, through the opposites, on the left."""
    right, left = _counit_cases(name)
    for sp, m, r, f in right:
        explicit = m.right_collapse_mat(r) @ kron_id(m.dim, f, 1) @ sp.S
        assert contract(sp, f) == explicit, sp.name
    for sp, m, r, f in left:
        explicit = m.left_collapse_mat(r) @ kron_id(1, f, m.dim) @ sp.S
        assert contract(sp.op(), f) == explicit, sp.name


RESIDUALS = json.loads((Path(__file__).parent / "data" / "algebra_residuals.json").read_text())


def _bumped(field, v):
    """v + 1 as a public scalar of the field."""
    return v + field.one if field.p is None else (v + 1) % field.p


def _corrupted_algebra_residuals(field):
    """validate_algebra's failures on k x k, ut2, M2 and k[x]/(x^2 - 1) with
    one structure constant, then one unit coordinate, bumped by one (every
    entry in turn), and validate_morphism's on inclusions into them with
    one matrix entry bumped, as JSON lists."""
    m2, ut2 = matrix_algebra(field, 2), upper_triangular_algebra(field)
    algebras = [product_field_algebra(field), ut2, m2, quadratic_algebra(field, 1, 0)]
    out = {}
    for a in algebras:
        runs = []
        d, mu = a.dim, a.mult_mat()
        for i, j, t in itertools.product(range(d), repeat=3):
            bump = Mat.from_entries(field, d, d * d, [((t, i * d + j), field.one)])
            runs.append(validate_algebra(Algebra(field, a.name, mu + bump, a.unit)).failures)
        for t in range(d):
            unit = a.unit
            unit[t] = _bumped(field, unit[t])
            runs.append(validate_algebra(Algebra(field, a.name, mu, unit)).failures)
        out[f"algebra {field!r} {a.name}"] = runs
    inclusions = [("M2 diag", diagonal_subalgebra(m2)), ("M2 ut", upper_triangular_subalgebra(m2)),
                  ("M2 k", trivial_subalgebra(m2)),
                  ("ut2 E12", generated_subalgebra(ut2, [ut2.basis_vector(1)])),
                  ("kxk k", trivial_subalgebra(algebras[0]))]
    for label, (sub, incl) in inclusions:
        m = incl.matrix
        out[f"morphism {field!r} {label}"] = [
            validate_morphism(AlgebraMorphism(sub, incl.target, m + Mat.from_entries(
                field, m.nrows, m.ncols, [((r, c), field.one)]))).failures
            for r in range(m.nrows) for c in range(m.ncols)]
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_corrupted_algebra_residuals_are_pinned(field):
    """The located failures of every single-entry corruption, in order, are
    those of the validators that compared e_i e_j e_k, 1 e_i and e_i 1 (and
    m(e_i e_j), m(e_i) m(e_j)) one basis tuple at a time."""
    got = _corrupted_algebra_residuals(field)
    assert got == {k: v for k, v in RESIDUALS.items()
                   if k.split(" ")[0] in ("algebra", "morphism") and k.split(" ")[1] == repr(field)}
