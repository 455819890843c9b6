"""Circular spaces, cyclic operators, the total complex and its homology."""

import gc
import itertools
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from coralg import cyclic
from coralg.connect import tflatness_check
from coralg.cyclic import (
    CyclicComplex, cyclic_complex, homology, lambda_projection,
)
from coralg.entwine import associated_coring
from coralg.errors import DegreeOutOfRange, MemoryGuard, NotACycle
from coralg.exactla import (
    GF, QQ, Mat, QuotientSpace, SubspaceBasis, kernel, kron_id, lincomb, rank,
)
from coralg.fixtures import (
    FIXTURE_NAMES, diagonal_subalgebra, fixture_workspace, matrix_algebra, nc_fixture,
    quadratic_algebra, upper_triangular_algebra,
)
from coralg.ncalg import (
    AlgebraMorphism, TensorSpace, generated_subalgebra, scalar_algebra, tensor_space,
    validate_morphism,
)


def qi(x):
    return QQ.from_int(x)


# -- brute force oracle: dense total complex assembled independently --------

def brute_force_hc_point_algebra(D):
    """HC_n(k|k) on the same truncation, by direct dense rank computation.

    On the 1-dimensional algebra every circular space is k; the operators
    are scalars: tau_q = (-1)^q, tautilde = 1-(-1)^q, N = q+1 or 0,
    d'_q = (q odd), d_q = (q even).  Assemble numerically and row-reduce.
    """
    def dims(n):
        return n + 1

    def d_entry(n, p, q, pt, qt):
        if pt == p and qt == q - 1:
            if p % 2 == 0:
                return 1 if q % 2 == 0 else 0       # d_q
            return -(1 if q % 2 == 1 else 0)        # -d'_q
        if pt == p - 1 and qt == q:
            if p % 2 == 1:
                return 1 - (-1) ** q                # tautilde
            return (q + 1) if q % 2 == 0 else 0     # N
        return 0

    def dmat(n):
        rows = []
        for pt in range(n):
            qt = (n - 1) - pt
            row = []
            for p in range(n + 1):
                q = n - p
                row.append(d_entry(n, p, q, pt, qt))
            rows.append(row)
        return rows

    def simple_rank(rows):
        rows = [list(map(float, r)) for r in rows if any(r)]
        cols = len(rows[0]) if rows else 0
        r = 0
        for c in range(cols):
            piv = next((i for i in range(r, len(rows)) if abs(rows[i][c]) > 1e-9), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            rows[r] = [x / rows[r][c] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and abs(rows[i][c]) > 1e-9:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    out = []
    for n in range(D):
        rk_n = simple_rank(dmat(n)) if n >= 1 else 0
        rk_next = simple_rank(dmat(n + 1))
        out.append(dims(n) - rk_n - rk_next)
    return out


def test_circular_space_dims():
    k = scalar_algebra(QQ)
    cc = CyclicComplex(k)
    for n in range(4):
        assert cc.space(n).dim == 1
    a = quadratic_algebra(QQ, 1, 0)
    cca = CyclicComplex(a)
    assert cca.space(1).dim == 4  # over k: no relations
    m2 = matrix_algebra(QQ, 2)
    ccd = CyclicComplex(m2, diagonal_subalgebra(m2))
    # M2/[M2, diag] : commutators with diagonals span {E12, E21}
    assert ccd.space(0).dim == 2
    assert ccd.space(1).dim == 8 - 4  # M2 (x)_diag M2 = 8, circular halves it


def test_tau_sign_and_boundary_formula():
    k = scalar_algebra(QQ)
    cc = CyclicComplex(k)
    ops = cc.operators(1)
    assert ops["tau"] == Mat.from_rows(QQ, [[qi(-1)]])
    # d_1(a (*) b) = ab - ba on a noncommutative algebra
    ut = upper_triangular_algebra(QQ)
    ccu = CyclicComplex(ut)
    ops = ccu.operators(1)
    sp1, sp0 = ccu.space(1), ccu.space(0)
    e11 = [qi(1), qi(0), qi(0)]
    e12 = [qi(0), qi(1), qi(0)]
    lhs = ops["d"].apply(sp1.embed_pure([e11, e12]))
    expect = [a - b for a, b in zip(
        sp0.embed_pure([ut.mul_vec(e11, e12)]),
        sp0.embed_pure([ut.mul_vec(e12, e11)]))]
    assert lhs == expect


def _face_case(key, f):
    if key == "kx|k":
        return quadratic_algebra(f, 1, 0), None
    if key.startswith("ut2|"):
        ut = upper_triangular_algebra(f)
        if key == "ut2|k":
            return ut, None
        return ut, generated_subalgebra(ut, [[f.one, f.zero, f.zero], [f.zero, f.zero, f.one]])
    m2 = matrix_algebra(f, 2)
    return m2, diagonal_subalgebra(m2) if key == "M2|diag" else None


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("key", ["kx|k", "ut2|k", "M2|k", "M2|diag"])
def test_faces_match_the_textbook_formula_on_pure_tensors(key, field):
    """On every pure basis tensor b_0 (x) ... (x) b_n, n = 1..3:
    d' = sum_{i<n} (-1)^i b_0 (x) ... (x) b_i b_{i+1} (x) ... (x) b_n, and d
    adds (-1)^n (b_n b_0) (x) b_1 (x) ... (x) b_{n-1} (Loday, ch. 2)."""
    b, t_pair = _face_case(key, field)
    cc = CyclicComplex(b, t_pair)
    basis = [b.basis_vector(i) for i in range(b.dim)]

    def plus(u, sign, v):
        out = [x + sign * y for x, y in zip(u, v)]
        return out if field.p is None else [x % field.p for x in out]

    for n in (1, 2, 3):
        ops, sp, sp1 = cc.operators(n), cc.space(n), cc.space(n - 1)
        for idx in itertools.product(range(b.dim), repeat=n + 1):
            xs = [basis[i] for i in idx]
            dprime = [field.zero] * sp1.dim
            for i in range(n):
                face = xs[:i] + [b.mul_vec(xs[i], xs[i + 1])] + xs[i + 2:]
                dprime = plus(dprime, (-1) ** i, sp1.embed_pure(face))
            wrap = [b.mul_vec(xs[n], xs[0])] + xs[1:n]
            d = plus(dprime, (-1) ** n, sp1.embed_pure(wrap))
            x = sp.embed_pure(xs)
            assert ops["dprime"].apply(x) == dprime, (n, idx)
            assert ops["d"].apply(x) == d, (n, idx)


# -- circular relations: carried end actions against the ambient push -------

def _ambient_circular(sp):
    """(dim, Q, S) of the circular space ``sp`` rebuilt from its balanced
    space without the circular relation: each end action of the circular
    algebra is pushed from the full ambient as ``Q @ kron_id(pre, m, post) @ S``
    and the quotient is taken by the columns of their differences."""
    first, last, t = sp.factors[0], sp.factors[-1], sp.circular
    plain = TensorSpace(sp.factors, sp.junctions)
    rels = []
    for rm, lm in zip(last.right[t], first.left[t], strict=True):
        right = plain.Q @ kron_id(plain.full_dim // last.dim, rm, 1) @ plain.S
        left = plain.Q @ kron_id(1, lm, plain.full_dim // first.dim) @ plain.S
        rels.extend(col for col in (right - left).sparse_cols() if col)
    if not rels:
        return plain.dim, plain.Q, plain.S
    f, n = sp.field, plain.dim
    qs = QuotientSpace(f, n, SubspaceBasis.from_vectors(f, n, rels))
    return qs.dim, qs.proj @ plain.Q, plain.S @ qs.sect


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("key", ["kx|k", "ut2|k", "M2|k", "M2|diag", "ut2|diag"])
def test_circular_spaces_equal_the_ambient_construction(key, field):
    cc = CyclicComplex(*_face_case(key, field))
    for n in range(4):
        sp = cc.space(n)
        dim, q, s = _ambient_circular(sp)
        assert (sp.dim, sp.Q, sp.S) == (dim, q, s), (key, n)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_one_factor_circular_spaces_equal_the_ambient_construction(name):
    # the circular spaces A/[A,T], C/[C,T] and B/[B,T] of tflatness_check (on
    # the fixtures they have no relations; level 0 of M2|diag above has some)
    x = fixture_workspace(name).extension()
    tflatness_check(x)
    carrier = associated_coring(x.entwining).carrier
    for mod in (x.a_mod, carrier, x.b_mod):
        sp = tensor_space([mod], [], circular=x.T)
        dim, q, s = _ambient_circular(sp)
        assert (sp.dim, sp.Q, sp.S) == (dim, q, s), (name, mod.name)


def test_tau_power_identity_and_row_exactness():
    for alg, tp in ((quadratic_algebra(QQ, 1, 0), None),
                    (matrix_algebra(QQ, 2), "diag")):
        t_pair = diagonal_subalgebra(alg) if tp else None
        cc = CyclicComplex(alg, t_pair)
        for n in range(3):
            ops = cc.operators(n)
            sp = cc.space(n)
            power = Mat.identity(QQ, sp.dim)
            for _ in range(n + 1):
                power = ops["tau"] @ power
            assert power == Mat.identity(QQ, sp.dim)
            assert (ops["N"] @ ops["tautilde"]).is_zero()
            assert (ops["tautilde"] @ ops["N"]).is_zero()


def test_d_squared_zero_small():
    for alg in (scalar_algebra(QQ), quadratic_algebra(QQ, 1, 0),
                upper_triangular_algebra(QQ)):
        cc = CyclicComplex(alg)
        tc = cc.total(3)
        assert tc.d_squared.ok


def test_d_squared_zero_with_nontrivial_t():
    m2 = matrix_algebra(QQ, 2)
    cc = CyclicComplex(m2, diagonal_subalgebra(m2))
    tc = cc.total(3)
    assert tc.d_squared.ok


def test_hc_point_algebra_oracle():
    k = scalar_algebra(QQ)
    cc = CyclicComplex(k)
    tc = cc.total(5)
    dims = [homology(tc, n).dim for n in range(5)]
    assert dims == [1, 0, 1, 0, 1]
    assert dims == brute_force_hc_point_algebra(5)


def test_hc0_of_matrix_algebra_is_trace():
    # HC_0(M2|k) = M2/[M2, M2]: the trace functional, dim 1
    m2 = matrix_algebra(QQ, 2)
    cc = CyclicComplex(m2)
    tc = cc.total(1)
    h0 = homology(tc, 0)
    assert h0.dim == 1


def test_hc0_upper_triangular():
    # [ut2, ut2] = span{E12}: HC_0 = B/[B,B] has dim 2
    ut = upper_triangular_algebra(QQ)
    cc = CyclicComplex(ut)
    tc = cc.total(1)
    assert homology(tc, 0).dim == 2


def test_degree_out_of_range():
    cc = CyclicComplex(scalar_algebra(QQ))
    tc = cc.total(2)
    with pytest.raises(DegreeOutOfRange):
        homology(tc, 2)


def test_class_arithmetic():
    k = scalar_algebra(QQ)
    cc = CyclicComplex(k)
    tc = cc.total(4)
    h2 = homology(tc, 2)
    assert h2.dim == 1
    cls = h2.basis_classes()[0]
    assert tc.is_cycle(2, cls.representative)
    # boundaries are boundaries; adding one does not change the class
    v = [qi(1)] * tc.tot_dim[3]
    b = tc.d[3].apply(v)
    assert tc.is_boundary(2, b)
    moved = [a + x for a, x in zip(cls.representative, b)]
    assert tc.classes_equal(2, cls.representative, moved)
    c2 = h2.class_of(moved)
    assert c2.class_coords == cls.class_coords


def test_lambda_projection_chain_map_and_surjective():
    m2 = matrix_algebra(QQ, 2)
    cc_k = CyclicComplex(m2)
    cc_t = CyclicComplex(m2, diagonal_subalgebra(m2))
    tck = cc_k.total(3)
    tct = cc_t.total(3)
    lam = lambda_projection(tck, tct)
    for n in range(4):
        assert rank(lam[n]) == tct.tot_dim[n]


def test_lambda_injective_on_homology_separable_t():
    # T = diag = k x k is separable; lambda_* must be injective on HC_n in
    # degrees <= 3: rank(lambda on homology) = dim HC_n(B)
    m2 = matrix_algebra(QQ, 2)
    cc_k = CyclicComplex(m2)
    cc_t = CyclicComplex(m2, diagonal_subalgebra(m2))
    D = 4
    tck = cc_k.total(D)
    tct = cc_t.total(D)
    lam = lambda_projection(tck, tct)
    for n in range(4):
        hk = homology(tck, n)
        ht = homology(tct, n)
        images = []
        for cls in hk.basis_classes():
            img = lam[n].apply(cls.representative)
            images.append(ht.class_of(img).class_coords)
        if images:
            m = Mat.from_rows(QQ, images, ht.dim if ht.dim else 1)
            assert rank(m) == hk.dim


def test_memory_guard_on_circular_space():
    m2 = matrix_algebra(QQ, 2)
    cc = CyclicComplex(m2)
    with pytest.raises(MemoryGuard):
        cc.space(10)  # 4^11 = 4M > 2e6


def test_contract_surface_wrappers():
    cc = cyclic_complex(quadratic_algebra(QQ, 1, 0))
    assert cc.space(1).dim == 4
    assert set(cc.operators(1)) == {"tau", "tautilde", "N", "dprime", "d"}
    assert cc.total(2).d_squared.ok


def test_cyclic_complex_memo_keys_on_the_inclusion():
    m2 = matrix_algebra(QQ, 2)
    t, incl = diagonal_subalgebra(m2)
    # a second unital embedding of the same T: t1 -> [[1,1],[0,0]],
    # t2 -> [[0,-1],[0,1]]
    incl2 = AlgebraMorphism(t, m2, Mat.from_cols(
        QQ, [[qi(1), qi(1), qi(0), qi(0)], [qi(0), qi(-1), qi(0), qi(1)]], 4))
    assert validate_morphism(incl2).ok
    assert cyclic_complex(m2, (t, incl)).t_incl is incl
    cc2 = cyclic_complex(m2, (t, incl2))
    assert cc2.t_incl is incl2
    assert cc2.operators(1)["d"] == CyclicComplex(m2, (t, incl2)).operators(1)["d"]


def test_cyclic_complex_memo_is_freed_with_its_algebra():
    ut2 = upper_triangular_algebra(QQ)
    space = weakref.ref(cyclic_complex(ut2).space(2))
    del ut2
    gc.collect()
    assert space() is None


# -- HC dims from ranks, against the kernel/class-space path ---------------

def _criterion_2_pairs(f):
    """Acceptance criterion 2's six (B, T) pairs over the field f."""
    ut, m2 = upper_triangular_algebra(f), matrix_algebra(f, 2)
    one, zero = f.one, f.zero
    return [(scalar_algebra(f), None), (quadratic_algebra(f, 1, 0), None), (ut, None),
            (m2, None), (m2, diagonal_subalgebra(m2)),
            (ut, generated_subalgebra(ut, [[one, zero, zero], [zero, zero, one]]))]


@pytest.fixture
def rank_calls(monkeypatch):
    """Counts the rank computations of each matrix (by id: keep the
    complexes alive while counting)."""
    calls = Counter()
    exact_rank = cyclic.rank

    def counted(m):
        calls[id(m)] += 1
        return exact_rank(m)
    monkeypatch.setattr(cyclic, "rank", counted)
    return calls


def _check_rank_dims(tc, degrees, rank_calls):
    spaces = [homology(tc, n) for n in degrees]
    assert [h.dim for h in spaces] == [homology(tc, n).dim for n in degrees]
    for h in spaces:
        # dim alone builds neither the kernel nor the class space
        assert "kernel" not in vars(h) and "class_space" not in vars(h)
    for h in spaces:
        assert h.dim == h.class_space.dim, (tc.cc.name, h.n)
    ranked = {n for n, d in tc.d.items() if rank_calls[id(d)]}
    assert ranked == set(range(1, max(degrees) + 2))
    assert all(rank_calls[id(tc.d[n])] == 1 for n in ranked)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_rank_dims_equal_class_space_dims_on_criterion_2(field, rank_calls):
    complexes = [cyclic_complex(b, t_pair).total(5) for b, t_pair in _criterion_2_pairs(field)]
    for tc in complexes:
        _check_rank_dims(tc, range(5), rank_calls)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rank_dims_equal_class_space_dims_on_fixture_hc(name, rank_calls):
    # the complex of `hc --degree 4`, dims HC_0..4
    ws = fixture_workspace(name)
    x = ws.extension()
    tc = cyclic_complex(x.B, (x.T, x.incl_T_B)).total(max(ws.options["max_degree"], 5))
    _check_rank_dims(tc, range(5), rank_calls)


def test_homology_of_an_uncertified_complex_is_refused():
    tc = CyclicComplex(upper_triangular_algebra(QQ)).total(3)
    tc.d_squared.fail("d-squared", 2)
    with pytest.raises(NotACycle, match="d.d != 0"):
        homology(tc, 1)


def test_a_boundary_outside_the_kernel_is_a_typed_error():
    tc = CyclicComplex(upper_triangular_algebra(QQ)).total(3)
    d1 = tc.d[1]
    j = min(j for (_, j), _ in d1.items())
    bad = Mat.from_entries(QQ, tc.tot_dim[1], tc.tot_dim[2], [((j, 0), QQ.one)])
    tc.d[2] = bad  # its first column is not a cycle, behind the certificate's back
    with pytest.raises(NotACycle, match="boundary is not a cycle"):
        homology(tc, 1).class_space


# -- operators built on first read ----------------------------------------

def _eager_operators(cc, n):
    """The operators of level n built at once from their definitions: tau
    permutes the pure tensors with sign (-1)^n, N = sum of tau^i by matmul,
    d' and d from the faces; each descended as Q_tgt @ W @ S_src."""
    f, d, mu = cc.field, cc.b.dim, cc.b.mult_mat()
    sp = cc.space(n)
    full = d ** (n + 1)
    tau_amb = Mat.from_entries(f, full, full, [
        ((r, (r % d ** n) * d + r // d ** n), f.from_int((-1) ** n)) for r in range(full)])
    tau = sp.Q @ tau_amb @ sp.S
    ident = Mat.identity(f, sp.dim)
    power, N = ident, ident
    for _ in range(n):
        power = tau @ power
        N = N + power
    ops = {"tau": tau, "tautilde": ident - tau, "N": N}
    if n >= 1:
        sp1 = cc.space(n - 1)
        faces = [kron_id(d ** i, mu, d ** (n - 1 - i)) for i in range(n)]
        dprime_amb = faces[0]
        for i, face in enumerate(faces[1:], 1):
            dprime_amb = dprime_amb + face if i % 2 == 0 else dprime_amb - face
        d_amb = dprime_amb + kron_id(1, mu, d ** (n - 1)) @ tau_amb
        ops["dprime"] = sp1.Q @ dprime_amb @ sp.S
        ops["d"] = sp1.Q @ d_amb @ sp.S
    return ops


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("key", ["kx|k", "ut2|k", "M2|k", "M2|diag", "ut2|diag"])
def test_lazy_operators_equal_the_eager_construction(key, field):
    # on M2 up to level 5, where the recursion for d' has run four times,
    # and over diag up to level 5, where d' sums five faces read through Q
    cc = CyclicComplex(*_face_case(key, field))
    for n in range(4 if key in ("kx|k", "ut2|k") else 6):
        ops = cc.operators(n)
        assert cc.operators(n) is not ops  # no level cache: each read is a new level
        keys = ["tau", "tautilde", "N"] + (["dprime", "d"] if n >= 1 else [])
        assert list(ops) == keys and len(ops) == len(keys)
        assert "d" in ops if n >= 1 else "d" not in ops
        eager = _eager_operators(cc, n)
        for name in keys:
            assert ops[name] is ops[name]
            assert ops[name] == eager[name], (key, n, name)


def _record_levels(monkeypatch, record=lambda level: level):
    """Every ``_Level`` built from now on, as ``record(level)``, in order."""
    levels = []
    init = cyclic._Level.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        levels.append(record(self))
    monkeypatch.setattr(cyclic._Level, "__init__", recording)
    return levels


def test_total_complex_builds_only_the_operators_it_reads(monkeypatch):
    # Tot_n reads N(q) only for q <= D - 1 and tau~, d' (so tau) for q <= D;
    # level D + 1 gives d alone, whose d.d certificate is still checked.  The
    # walk builds each level once, in ascending order, and hands each level
    # the ambient d' of the one below; no level builds an ambient tau, and
    # level D + 1, whose d' nothing reads, builds nothing: its d is summed
    # straight into d_{D+1}
    levels = _record_levels(monkeypatch)
    cc = CyclicComplex(matrix_algebra(QQ, 2))
    tc = cc.total(5)
    assert tc.d_squared.ok and set(tc.d) == set(range(1, 7))
    assert [level.n for level in levels] == list(range(7))

    def built(n):
        return {key for key, value in vars(levels[n]).items()
                if isinstance(value, Mat) and key != "_dprime_below"}
    assert built(0) == {"tau", "tautilde", "N"}
    assert all(built(q) == {"tau", "tautilde", "N", "dprime", "d", "_dprime_ambient"}
               for q in range(1, 5))
    assert built(5) == {"tau", "tautilde", "dprime", "d", "_dprime_ambient"}
    assert built(6) == set()
    for q in range(2, 7):
        assert levels[q]._dprime_below is levels[q - 1]._dprime_ambient, q


def test_total_complex_keeps_no_level(monkeypatch):
    # after the total complex and HC_0..4 the d_n are the only holders of
    # the bicomplex's matrices: no level is reachable any more
    levels = _record_levels(monkeypatch, weakref.ref)
    m2 = matrix_algebra(QQ, 2)
    cc = cyclic_complex(m2)
    tc = cc.total(5)
    assert [homology(tc, n).dim for n in range(5)] == [1, 0, 1, 0, 1]
    gc.collect()
    assert levels and [ref() for ref in levels] == [None] * len(levels)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("key", ["k", "kx", "ut2", "M2"])
def test_summed_top_differential_equals_the_lincomb_construction(key, field):
    """Over T = k level D + 1's d is summed straight into the rows of
    d_{D+1}: b_0 - 1 (x) d'_D + (-1)^(D+1) b_0 rotated.  Its block there
    equals, entry for entry and in entry order, the ``lincomb`` of the
    built terms, and so does d read alone at that level."""
    b = _PLAIN[key](field)
    d, mu = b.dim, b.mult_mat()
    one = field.one
    dprime = kron_id(1, mu, 1)  # d'_1 = b_0, then d'_m = b_0 - 1 (x) d'_{m-1}
    for D in range(4):
        n = D + 1
        cc = CyclicComplex(b)
        tc = cc.total(D)
        b0 = kron_id(1, mu, d ** (n - 1))
        perm = [(r % d ** n) * d + r // d ** n for r in range(d ** (n + 1))]
        mats, coeffs = ([b0], [one]) if n == 1 else ([b0, kron_id(d, dprime, 1)], [one, -one])
        expected = lincomb(mats + [b0.cols_permuted(perm, d ** (n + 1))],
                           coeffs + [field.from_int((-1) ** n)])
        block = tc.d[n].rows_at(range(d ** n)).cols_at(range(d ** (n + 1)))
        assert block == expected and list(block.items()) == list(expected.items()), (key, D)
        lone = cc.operators(n).d
        assert lone == expected and list(lone.items()) == list(expected.items()), (key, D)
        dprime = lincomb(mats, coeffs)


_P31 = 2 ** 31 - 19


def _criterion_2_pair(key, f):
    """The (B, T) pairs of acceptance criterion 2, built over the field f."""
    b, t = key.split("|")
    alg = _PLAIN[b](f)
    if t == "k":
        return alg, None
    if b == "M2":
        return alg, diagonal_subalgebra(alg)
    return alg, generated_subalgebra(alg, [[f.one, f.zero, f.zero], [f.zero, f.zero, f.one]])


@pytest.mark.parametrize("key", ["k|k", "kx|k", "ut2|k", "M2|k", "M2|diag", "ut2|diag"])
def test_total_complex_over_qq_reduces_to_the_one_over_fp(key):
    """Reduction mod p as an oracle across the two scalar paths: at D = 5
    every d_n over QQ, reduced mod p = 2^31 - 19, is d_n over GF(p) entry
    for entry.  The canonical coordinates commute with reduction only where
    ranks agree, so the ranks are compared first: the relation ranks behind
    each Tot_n, then the rank of each d_n.  A rank that drops mod p is a
    fact about p, reported as such."""
    fp = GF(_P31)
    tq = CyclicComplex(*_criterion_2_pair(key, QQ)).total(5)
    tp = CyclicComplex(*_criterion_2_pair(key, fp)).total(5)
    assert tq.d_squared.ok and tp.d_squared.ok
    for n in range(7):
        assert tq.tot_dim[n] == tp.tot_dim[n], f"a relation rank behind Tot_{n} drops mod p"
    for n in range(1, 7):
        assert tq.rank(n) == tp.rank(n), f"rank d_{n} drops mod p: {tq.rank(n)} -> {tp.rank(n)}"

    def reduced(v):
        return fp.from_int(v.numerator) * fp.inv(fp.from_int(v.denominator)) % _P31
    for n in range(1, 7):
        dq = tq.d[n]
        assert Mat.from_entries(fp, dq.nrows, dq.ncols,
                                ((ij, reduced(v)) for ij, v in dq.items())) == tp.d[n], (key, n)


def test_the_face_sum_is_formed_once_per_level(monkeypatch):
    # over diag d' and d read the faces through Q of the level below; the
    # total complex builds both from one sum at levels 1..D and d alone at
    # D + 1, and its differentials are those of separate reads
    calls = Counter()
    face_sum = cyclic._Level._dprime_read

    def counted(level):
        calls[level.n] += 1
        return face_sum(level)
    monkeypatch.setattr(cyclic._Level, "_dprime_read", counted)
    m2 = matrix_algebra(QQ, 2)
    t = diagonal_subalgebra(m2)
    tc = CyclicComplex(m2, t).total(5)
    assert calls == Counter(range(1, 7))
    cc = CyclicComplex(m2, t)
    for n in range(1, 7):
        ops = cc.operators(n)
        assert (ops["dprime"], ops["d"]) == (tc.cc.operators(n).dprime, tc.cc.operators(n).d)


def test_levels_over_diag_build_no_ambient_matrix(monkeypatch):
    # every circular space of M2 over diag is a proper quotient, so d', d
    # and tau are read through the target's Q: no ambient face is built
    # (cyclic's KronSum builds only the ambient d' and the lone d over a
    # plain level), and every Mat a level of the walk builds maps between
    # the quotients
    def ambient(*args):
        raise AssertionError("an ambient face was built")
    monkeypatch.setattr(cyclic, "KronSum", ambient)
    levels = _record_levels(monkeypatch)
    m2 = matrix_algebra(QQ, 2)
    cc = CyclicComplex(m2, diagonal_subalgebra(m2))
    assert cc.total(5).d_squared.ok
    assert [level.n for level in levels] == list(range(7))
    for n, level in enumerate(levels):
        assert level.sp.dim < level.sp.full_dim
        shapes = {(level.sp.dim, level.sp.dim)}
        if n >= 1:
            shapes.add((level.sp1.dim, level.sp.dim))
        cached = {key: m.shape for key, m in vars(level).items() if isinstance(m, Mat)}
        assert cached and set(cached.values()) <= shapes, (n, cached)
        assert not {"_dprime_ambient", "_dprime_below"} & set(cached)


def test_circular_spaces_over_k_keep_one_identity_as_q_and_s():
    # over T = k no relation cuts a circular space of M2, so its projection
    # and section are the identity, built once when first read
    cc = CyclicComplex(matrix_algebra(QQ, 2))
    cc.total(5)
    for n in range(7):
        sp = cc.space(n)
        assert sp.trivial and sp.Q is sp.S and sp.Q.is_identity(), n


def test_total_complex_over_k_builds_no_identity_q():
    # the total complex and its homology read no Q or S of a plain space:
    # neither a circular space nor a prefix it is a step on, nor the module
    cc = cyclic_complex(matrix_algebra(QQ, 2))
    tc = cc.total(5)
    assert [homology(tc, n).dim for n in range(5)] == [1, 0, 1, 0, 1]
    spaces = set()
    for n in range(7):
        sp = cc.space(n)
        while isinstance(sp, TensorSpace):
            spaces.add(sp)
            sp = sp.prefix
        assert sp is cc.b_mod
    assert len(spaces) == 13  # seven circular spaces, six balanced B^(x)k
    for sp in spaces:
        assert sp.trivial and not {"Q", "S"} & set(vars(sp)), sp
    assert "Q" not in vars(cc.b_mod)


_PLAIN = {"k": scalar_algebra, "kx": lambda f: quadratic_algebra(f, 1, 0),
          "ut2": upper_triangular_algebra, "M2": lambda f: matrix_algebra(f, 2)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_PLAIN)), st.sampled_from([QQ, GF(7)]), st.integers(0, 4))
def test_plain_tau_and_lone_d_match_the_two_step_builds(key, field, n):
    """On a plain level tau is the signed rotation, built from the index
    map, and d read alone (as at level D + 1) is one sum of the faces.
    Both equal, entry for entry and in entry order, what the two-step
    builds gave: tau as the rotated identity Q, signed; d as the cached
    ambient d' = b_0 - 1 (x) d'_{n-1} plus the signed rotated b_0."""
    b = _PLAIN[key](field)
    d, mu, size = b.dim, b.mult_mat(), b.dim ** (n + 1)
    level = CyclicComplex(b).operators(n)
    perm = [(r % d ** n) * d + r // d ** n for r in range(size)]  # b_0 moves last
    rot = Mat.identity(field, size).cols_permuted(perm, size)
    old_tau = rot if n % 2 == 0 else -rot
    assert level.tau == old_tau and list(level.tau.items()) == list(old_tau.items())
    assert "Q" not in vars(level.sp)
    if n == 0:
        return

    def old_dprime(m):
        b0 = kron_id(1, mu, d ** (m - 1))
        return b0 if m == 1 else b0 - kron_id(d, old_dprime(m - 1), 1)
    wrap = kron_id(1, mu, d ** (n - 1)).cols_permuted(perm, size)
    old_d = old_dprime(n) + wrap if n % 2 == 0 else old_dprime(n) - wrap
    assert level.d == old_d and list(level.d.items()) == list(old_d.items())
    assert set(vars(level)) & {"_dprime_ambient", "dprime", "tau"} == {"tau"}


# -- the extra degeneracy: a contracting homotopy for d' over T = k --------

@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("key", ["k", "kx", "ut2", "M2"])
def test_extra_degeneracy_contracts_the_ambient_dprime(key, field, n):
    """s_n = 1 (x) - : B^(x)n -> B^(x)(n+1) gives d'_{n+1} s_{n+1} + s_n d'_n = id
    on B^(x)(n+1), with d'_0 = 0: the bar complex is contractible (Loday,
    Cyclic Homology, 1.1).  This checks the engine's ambient d', built level
    by level as b_0 - 1 (x) d'_{n-1}, against the unit of B alone."""
    b = {"k": scalar_algebra, "kx": lambda f: quadratic_algebra(f, 1, 0),
         "ut2": upper_triangular_algebra, "M2": lambda f: matrix_algebra(f, 2)}[key](field)
    cc = CyclicComplex(b)
    d = b.dim

    def s(m):
        return kron_id(1, b.unit_col(), d ** m)

    homotopy = cc.operators(n + 1)._dprime_ambient @ s(n + 1)
    if n >= 1:
        homotopy = homotopy + s(n) @ cc.operators(n)._dprime_ambient
    assert homotopy == Mat.identity(field, d ** (n + 1))


# -- Connes' complex: an independent oracle for the HC dims ----------------

def connes_dims(cc, D):
    """dim HC_n for n < D from Connes' complex C^lambda_n = C_n / (1 - tau)C_n
    with b induced by the Hochschild boundary d (Connes, Publ. IHES 62, 1985;
    Loday, Cyclic Homology, 2.1).  It shares the circular spaces and the
    operators tau and d with the engine (the faces are covered by
    ``test_faces_match_the_textbook_formula_on_pure_tensors``) and is
    independent in the homological algebra: no bicomplex, N or tautilde.
    Asserts that d descends to C^lambda and that b.b = 0."""
    f = cc.field
    quots, b = [], {}
    for n in range(D + 1):
        one_minus_tau = Mat.identity(f, cc.space(n).dim) - cc.operators(n)["tau"]
        dim = cc.space(n).dim
        quots.append(QuotientSpace(
            f, dim, SubspaceBasis.from_vectors(f, dim, one_minus_tau.sparse_cols())))
        if n >= 1:
            d = cc.operators(n)["d"]
            # d maps (1 - tau)C_n into (1 - tau)C_{n-1}
            assert (quots[n - 1].proj @ d @ one_minus_tau).is_zero(), (cc.name, n)
            b[n] = quots[n - 1].proj @ d @ quots[n].sect
    for n in range(2, D + 1):
        assert (b[n - 1] @ b[n]).is_zero(), (cc.name, n)
    ranks = {0: 0, **{n: rank(m) for n, m in b.items()}}
    return [quots[n].dim - ranks[n] - ranks[n + 1] for n in range(D)]


def _skip_small_characteristic(field, D):
    # C^lambda computes HC only where n + 1 is invertible on every level
    # n <= D it uses (the rows of the bicomplex are then exact); over F_p
    # that needs p > D + 1
    if field.p is not None and field.p <= D + 1:
        pytest.skip(f"Connes' complex needs p > D + 1 = {D + 1} (p = {field.p})")


def natural_order_kernel(m):
    """ker m by the natural-order route: the free vectors of the rref of
    m's rows (e_f minus the pivot entries of column f, for each free column
    f) and the rref of their span; with the rank of m."""
    f = m.field
    rref = SubspaceBasis.from_vectors(f, m.ncols, m.transpose().sparse_cols())
    pivots = rref.pivot_cols
    rows = rref.mat.transpose().sparse_cols()
    vecs = []
    for c in sorted(set(range(m.ncols)) - set(pivots)):
        v = {c: f.one}
        v.update((pc, -row[c]) for pc, row in zip(pivots, rows) if c in row)
        vecs.append(v)
    return SubspaceBasis.from_vectors(f, m.ncols, vecs), rref.dim


def assert_rref_kernel(m, k):
    """K is a kernel of m (m K^T = 0) in reduced row echelon form: each
    row's first entry is a 1 at its pivot column, pivots ascend and no other
    row has an entry there."""
    assert (m @ k.mat.transpose()).is_zero()
    pivots = set(k.pivot_cols)
    assert k.pivot_cols == sorted(pivots)
    for pc, row in zip(k.pivot_cols, k.mat.transpose().sparse_cols()):
        assert min(row) == pc and row[pc] == k.field.one
        assert pivots.intersection(row) == {pc}


def test_kernels_of_the_criterion_2_differentials():
    """Over Q at D = 5, ``kernel`` (one column-reversed elimination) is the
    natural-order kernel on d_1..d_4 of the six (B, T) pairs, and ``rank``
    its rank; the kernel of d_5 is certified instead: m K^T = 0, K is in
    rref and dim K = tot_5 - rank d_5."""
    for b, t_pair in _criterion_2_pairs(QQ):
        tc = cyclic_complex(b, t_pair).total(5)
        name = tc.cc.name
        for n in range(1, 5):
            k = kernel(tc.d[n])
            want, rk = natural_order_kernel(tc.d[n])
            assert (k, k.pivot_cols, tc.rank(n)) == (want, want.pivot_cols, rk), (name, n)
        k = kernel(tc.d[5])
        assert_rref_kernel(tc.d[5], k)
        assert k.dim == tc.tot_dim[5] - tc.rank(5), name


def test_degree_5_homology_of_fix_nc_b_vanishes():
    """FIX-NC's B is all of M2, and HC is Morita invariant, so over Q
    HC_5(M2|k) = HC_5(k) = 0.  At D = 6 the kernel of d_5 (1364 x 5460)
    is certified and its class space is 0."""
    b = nc_fixture(QQ)["extension"].B
    assert b.dim == 4
    tc = cyclic_complex(b).total(6)
    h = homology(tc, 5)
    assert h.dim == 0
    assert tc.d[5].shape == (1364, 5460)
    assert_rref_kernel(tc.d[5], h.kernel)
    assert h.kernel.dim == tc.tot_dim[5] - tc.rank(5)
    assert h.class_space.dim == 0


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_connes_complex_dims_equal_hc_on_criterion_2(field):
    D = 5
    _skip_small_characteristic(field, D)
    for b, t_pair in _criterion_2_pairs(field):
        cc = cyclic_complex(b, t_pair)
        tc = cc.total(D)
        assert connes_dims(cc, D) == [homology(tc, n).dim for n in range(D)], cc.name


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_connes_complex_dims_equal_hc_on_fixture_hc(name):
    # the complex of `hc --degree 4`, as in test_rank_dims_equal_class_space_dims_on_fixture_hc
    ws = fixture_workspace(name)
    x = ws.extension()
    D = max(ws.options["max_degree"], 5)
    _skip_small_characteristic(x.B.field, D)
    cc = cyclic_complex(x.B, (x.T, x.incl_T_B))
    assert connes_dims(cc, D) == [homology(cc.total(D), n).dim for n in range(D)]


def test_no_circular_space_of_the_m2_diag_bicomplex_builds_its_section():
    """The total complex of M2|diag to D = 5 and HC_0..4 restrict every
    operator to the circular spaces by reading its columns at their free
    indices, so none of the seven circular spaces builds its section S."""
    m2 = matrix_algebra(QQ, 2)
    cc = cyclic_complex(m2, diagonal_subalgebra(m2))
    tc = cc.total(5)
    for n in range(5):
        homology(tc, n).dim
    circular = [sp for sp in cc.b_mod._tensor_spaces.values() if sp.circular is not None]
    assert len(circular) == 7
    assert [sp.name for sp in circular if "S" in vars(sp)] == []
