"""Oracle and property tests for the exact linear algebra substrate."""

import ast
import copy
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coralg.errors import DimensionMismatch, MemoryGuard
from coralg.exactla import (
    GF, QQ, Field, Mat, QuotientSpace, SubspaceBasis, guard_dim, inverse,
    kernel, kron_contract, kron_id, kron_vec, lincomb, mul_kron_id, rank, solve_right,
)

Q1 = QQ.one
Q0 = QQ.zero


def qmat(rows):
    return Mat.from_rows(QQ, [[QQ.from_int(x) for x in r] for r in rows])


def qvec(xs):
    return [QQ.from_int(x) for x in xs]


# -- naive dense oracle -------------------------------------------------

def naive_rref(rows):
    """Textbook dense Gaussian elimination, independent of the engine."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c] if not isinstance(rows[r][c], int) else None
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [row for row in rows if any(row)], pivots


def row_space(m):
    """The canonical rref of m's row space, the natural-order elimination
    of ``SubspaceBasis.from_vectors``."""
    return SubspaceBasis.from_vectors(m.field, m.ncols, m.to_lists())


def test_rref_identity_with_rhs():
    m = Mat.identity(QQ, 3)
    b = Mat.from_cols(QQ, [qvec([1, 0, 0])], 3)
    assert rank(m) == 3
    assert kernel(m).dim == 0
    assert solve_right(m, b).col(0) == qvec([1, 0, 0])


def test_rref_zero_matrix():
    m = Mat.zeros(QQ, 2, 2)
    b = Mat.zeros(QQ, 2, 1)
    assert rank(m) == 0
    assert kernel(m).dim == 2
    assert solve_right(m, b).col(0) == qvec([0, 0])


def test_rref_inconsistent_system():
    # hand elimination: [[1,2],[2,4]] reduces to [[1,2],[0,0]], b -> (1, 1): inconsistent
    m = qmat([[1, 2], [2, 4]])
    b = Mat.from_cols(QQ, [qvec([1, 3])], 2)
    assert rank(m) == 1
    assert row_space(m).pivot_cols == [0]
    assert solve_right(m, b) is None
    assert row_space(m).mat.row_list(0) == qvec([1, 2])


def test_rref_matches_naive_oracle():
    rng = random.Random(7)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[QQ.from_int(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
        m = Mat.from_rows(QQ, rows)
        oracle_rows, oracle_piv = naive_rref(rows)
        assert rank(m) == len(oracle_rows)
        assert row_space(m).pivot_cols == oracle_piv
        assert row_space(m).mat.to_lists() == oracle_rows


def test_back_elimination_clears_several_later_pivots_from_one_row():
    # rows go in by ascending pivot, so the echelon keeps each one as given:
    # row 0 holds the pivots of rows 1, 2 and 3, row 1 those of rows 2 and 3
    # (column 2 is free, so the later pivots are not a plain triangle)
    a = [[1, 2, 4, 3, -1, 5, 1],
         [0, 1, 1, -2, 3, 1, 2],
         [0, 0, 0, 2, 1, -3, 1],
         [0, 0, 0, 0, 3, 1, -1]]
    rhs = [[1, 0], [2, 1], [0, 3], [-1, 1]]
    rows = [[QQ.from_int(x) for x in r] for r in a]
    b = [[QQ.from_int(x) for x in r] for r in rhs]
    m = Mat.from_rows(QQ, rows)
    oracle_rows, oracle_piv = naive_rref(rows)
    assert row_space(m).pivot_cols == oracle_piv == [0, 1, 3, 4]
    assert row_space(m).mat.to_lists() == oracle_rows
    assert solve_right(m, Mat.from_rows(QQ, b)).to_lists() == naive_solve(rows, b, len(a[0]))
    gf = row_space(Mat.from_rows(F7, [[x % P7 for x in r] for r in a]))
    rref, pivots = naive_rref_mod(a, P7)
    assert (gf.pivot_cols, gf.mat.to_lists()) == (pivots, rref)


def naive_matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Q0) for col in zip(*b)] for row in a]


def naive_solve(a, b, ncols):
    """Particular solutions of a x = b, free variables zero, from the dense
    rref of the augmented matrix [a | b]; None when some column of b is
    inconsistent."""
    rows, pivots = naive_rref([ra + rb for ra, rb in zip(a, b)])
    if any(pc >= ncols for pc in pivots):
        return None
    x = [[Q0] * len(b[0]) for _ in range(ncols)]
    for row, pc in zip(rows, pivots):
        x[pc] = row[ncols:]
    return x


def naive_kernel(rref, pivots, ncols):
    """e_f minus the pivot entries of column f, for each free column f."""
    vecs = []
    for f in range(ncols):
        if f not in pivots:
            v = [Q0] * ncols
            v[f] = Q1
            for row, pc in zip(rref, pivots):
                v[pc] = -row[f]
            vecs.append(v)
    return vecs


@st.composite
def mixed_qq_case(draw):
    """Dense QQ matrices with entries a/b, b in {1, 2, 3}, most of them
    integral: a (n x k), b (k x m), c (n x k), a square s, an n-row rhs, a
    vector and two coefficients."""
    scalar = st.builds(lambda a, b: QQ.from_int(a) / QQ.from_int(b),
                       st.integers(-3, 3), st.sampled_from([1, 1, 1, 1, 2, 3]))
    n, k, m, sq = (draw(st.integers(1, 4)) for _ in range(4))

    def mat(r, c):
        return draw(st.lists(st.lists(scalar, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    return (mat(n, k), mat(k, m), mat(n, k), mat(sq, sq), mat(n, 2),
            draw(st.lists(scalar, min_size=k, max_size=k)), draw(scalar), draw(scalar))


@settings(max_examples=150, deadline=None)
@given(mixed_qq_case())
def test_mixed_rows_match_dense_fraction_oracle(case):
    """Integral QQ entries are stored as ints; every result must still be
    what dense Fraction arithmetic gives."""
    a, b, c, s, rhs, vec, x, y = case
    A, B, C, S, R = (Mat.from_rows(QQ, t) for t in (a, b, c, s, rhs))
    k = len(b)
    assert (A @ B).to_lists() == naive_matmul(a, b)
    assert A.apply(vec) == [sum((u * w for u, w in zip(row, vec)), Q0) for row in a]
    assert A.kron(B).to_lists() == [[u * w for u in ra for w in rb]
                                    for ra in a for rb in b]
    assert lincomb([A, C], [x, y]).to_lists() == [
        [x * u + y * w for u, w in zip(ra, rc)] for ra, rc in zip(a, c)]
    oracle_rows, oracle_piv = naive_rref(a)
    assert rank(A) == len(oracle_rows)
    assert row_space(A).pivot_cols == oracle_piv
    assert row_space(A).mat.to_lists() == oracle_rows
    kvecs = naive_kernel(oracle_rows, oracle_piv, k)
    assert kernel(A).mat.to_lists() == naive_rref(kvecs)[0]
    want = naive_solve(a, rhs, k)
    if want is None:
        assert solve_right(A, R) is None
    else:
        assert solve_right(A, R).to_lists() == want
    dim = len(s)
    if len(naive_rref(s)[0]) < dim:
        assert inverse(S) is None
    else:
        ident = [[Q1 if i == j else Q0 for j in range(dim)] for i in range(dim)]
        assert inverse(S).to_lists() == naive_solve(s, ident, dim)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_kernel_and_particular_properties(data):
    m = Mat.from_rows(QQ, [[QQ.from_int(x) for x in r] for r in data])
    k = kernel(m)
    for i in range(k.dim):
        assert all(not x for x in m.apply(k.mat.row_list(i)))
    # rref idempotence and canonicity under row scrambling
    rref = row_space(m).mat
    assert row_space(rref).mat == rref
    perm = list(range(m.nrows))
    random.Random(0).shuffle(perm)
    scr = Mat.from_rows(QQ, [m.row_list(i) for i in perm])
    two = Mat.identity(QQ, m.nrows).scale(QQ.from_int(2))
    assert row_space(two @ scr).mat == rref


def test_solve_right_and_inverse():
    m = qmat([[2, 1], [1, 1]])
    minv = inverse(m)
    assert minv @ m == Mat.identity(QQ, 2)
    assert m @ minv == Mat.identity(QQ, 2)
    x = solve_right(m, Mat.from_cols(QQ, [qvec([1, 0])], 2))
    assert m.apply(x.col(0)) == qvec([1, 0])
    assert inverse(qmat([[1, 2], [2, 4]])) is None
    # m X = I is inconsistent for a singular square m; a non-square m has
    # no two-sided inverse, even with a one-sided one
    assert inverse(Mat.zeros(QQ, 2, 2)) is None
    assert inverse(Mat.from_rows(F7, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])) is None
    assert inverse(qmat([[1, 0, 0], [0, 1, 0]])) is None
    assert inverse(qmat([[1, 0], [0, 1], [1, 1]])) is None


def test_gf_arithmetic_and_solve():
    f5 = GF(5)
    m = Mat.from_rows(f5, [[1, 2], [3, 4]])
    assert rank(m) == 2
    b = Mat.from_cols(f5, [[1, 0]], 2)
    x = solve_right(m, b)
    assert m.apply(x.col(0)) == [1, 0]
    with pytest.raises(ValueError):
        Field("prime-field", 6)
    with pytest.raises(ValueError):
        Field("prime-field", 1)


def test_scalar_serialization():
    assert QQ.fmt(QQ.parse("2/4")) == "1/2"
    assert QQ.fmt(QQ.parse("-3")) == "-3"
    f7 = GF(7)
    assert f7.fmt(f7.parse("-1")) == "6"
    assert f7.fmt(f7.parse("1/2")) == "4"


def _quotient(field, n, rels):
    return QuotientSpace(field, n, SubspaceBasis.from_vectors(field, n, rels))


def test_quotient_space_line():
    # dim 2, relations {(1,-1)}: projection (x,y) -> x+y in canonical coords
    q = _quotient(QQ, 2, [qvec([1, -1])])
    assert q.dim == 1
    assert q.project(qvec([3, 4])) == [QQ.from_int(7)]
    assert q.proj @ q.sect == Mat.identity(QQ, 1)
    assert q.project(qvec([1, -1])) == [Q0]


def test_quotient_space_trivial_cases():
    q = _quotient(QQ, 4, [])
    assert q.dim == 4
    assert q.proj == Mat.identity(QQ, 4)
    z = _quotient(QQ, 1, [qvec([1])])
    assert z.dim == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=3))
def test_quotient_space_properties(rels):
    q = _quotient(QQ, 4, [[QQ.from_int(x) for x in r] for r in rels])
    assert q.proj @ q.sect == Mat.identity(QQ, q.dim)
    assert rank(q.proj) == q.dim
    for r in rels:
        assert q.project([QQ.from_int(x) for x in r]) == [Q0] * q.dim
    # kernel of projection is exactly the relation span
    assert kernel(q.proj) == q.relations


def test_subspace_membership_and_sum():
    e1 = qvec([1, 0])
    e2 = qvec([0, 1])
    a = SubspaceBasis.from_vectors(QQ, 2, [e1, e2])
    assert a.membership(e1) == qvec([1, 0])


def test_dimension_mismatch_raised():
    with pytest.raises(DimensionMismatch):
        qmat([[1, 2]]) @ qmat([[1, 2]])
    with pytest.raises(DimensionMismatch):
        solve_right(qmat([[1]]), Mat.zeros(QQ, 2, 1))


def test_memory_guard():
    with pytest.raises(MemoryGuard):
        guard_dim(3_000_000)


def test_kron_vec_order():
    # leftmost factor slowest: (u kron v)[i*len(v)+j] = u[i]*v[j]
    u, v = qvec([1, 2]), qvec([3, 5])
    assert kron_vec(QQ, u, v) == qvec([3, 5, 6, 10])


@st.composite
def kron_contract_case(draw):
    """(field, F, G, inner, n, m, da, db): an n x inner matrix F with entries
    in k^da and an inner x m matrix G with entries in k^db, as lists of
    lists of public vectors, with small entries (so many are zero); with
    ``cancel`` and inner >= 2, F's column 1 repeats column 0 and G's row 1
    is minus row 0, so those terms cancel."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    n, inner, m = (draw(st.integers(1, 3)) for _ in range(3))
    da, db = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def vec(d):
        return [field.from_int(x) for x in draw(st.lists(st.integers(-2, 2), min_size=d,
                                                         max_size=d))]

    f = [[vec(da) for _ in range(inner)] for _ in range(n)]
    g = [[vec(db) for _ in range(m)] for _ in range(inner)]
    if inner >= 2 and draw(st.booleans()):
        for row in f:
            row[1] = list(row[0])
        g[1] = [[-x if field.p is None else -x % field.p for x in v] for v in g[0]]
    return field, f, g, inner, n, m, da, db


@settings(max_examples=150, deadline=None)
@given(kron_contract_case())
def test_kron_contract_is_the_sum_of_entry_krons(case):
    """Column i * m + j of kron_contract(F, G, inner) is the naive
    sum_k kron_vec(F_ik, G_kj), over QQ and GF(7), zero and cancelling
    entries included; its storage is normalized like every kernel's."""
    field, f, g, inner, n, m, da, db = case
    fm = Mat.from_cols(field, [v for row in f for v in row], da)
    gm = Mat.from_cols(field, [v for row in g for v in row], db)
    got = kron_contract(fm, gm, inner)
    assert got.shape == (da * db, n * m)
    for i, j in itertools.product(range(n), range(m)):
        want = [field.zero] * (da * db)
        for k in range(inner):
            want = [a + b for a, b in zip(want, kron_vec(field, f[i][k], g[k][j]))]
        if field.p is not None:
            want = [a % field.p for a in want]
        assert got.col(i * m + j) == want
    assert got == Mat.from_cols(field, [got.col(c) for c in range(n * m)], da * db)
    if field.p is not None:
        lo, hi = -((field.p - 1) // 2), field.p // 2
        assert all(lo <= v <= hi and v for r in got._rows for v in r.values())


def test_kron_contract_shapes():
    """The inner size must divide both column counts; inner = 0 is the
    product of two empty matrices."""
    with pytest.raises(DimensionMismatch):
        kron_contract(Mat.zeros(QQ, 1, 4), Mat.zeros(QQ, 2, 3), 2)
    assert kron_contract(Mat.zeros(QQ, 2, 0), Mat.zeros(QQ, 3, 0), 0).shape == (6, 0)


# -- F_p kernels against a naive mod-p oracle -----------------------------

P7 = 7
F7 = GF(P7)


def naive_rref_mod(rows, p):
    """Textbook dense Gauss-Jordan mod p, inverses by Fermat."""
    rows = [[x % p for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def naive_kernel_mod(rref, pivots, ncols, p):
    """e_f minus the pivot entries of column f, for each free column f."""
    vecs = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = -row[f] % p
        vecs.append(v)
    return vecs


def assert_reduced(m, p):
    """Every stored entry is a nonzero int in the balanced range
    [-((p - 1) // 2), p // 2] (a unique residue, no stored zeros), and the
    public view is the storage reduced mod p."""
    for r in m._rows:
        for v in r.values():
            assert type(v) is int and v and -((p - 1) // 2) <= v <= p // 2
    assert list(m.items()) == [((i, j), v % p) for i, r in enumerate(m._rows)
                               for j, v in r.items()]


#: Primes the F_p kernels are checked over: the smallest ones, where the
#: balanced range is {0, 1} or {-1, 0, 1}, and the benchmark's 2^31 - 19.
PRIMES = (2, 3, 7, 2**31 - 19)


def fp_scalar(p):
    """A public F_p scalar, weighted towards the edges of the balanced
    range: +-floor(p/2), p - 1 and (p + 1)/2, as residues in [0, p)."""
    edges = sorted({0, 1, p // 2, -(p // 2) % p, p - 1, (p + 1) // 2 % p})
    return st.one_of(st.sampled_from(edges), st.integers(0, p - 1))


@st.composite
def gfp_case(draw):
    p = draw(st.sampled_from(PRIMES))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))

    def mat(r, c):
        return draw(st.lists(st.lists(fp_scalar(p), min_size=c, max_size=c),
                             min_size=r, max_size=r))

    return p, mat(n, k), mat(k, m), mat(n, k), draw(fp_scalar(p))


@settings(max_examples=160, deadline=None)
@given(gfp_case())
def test_gfp_kernels_match_naive_mod_p_oracle(case):
    p, a, b, c, s = case
    field = GF(p)
    A, B, C = (Mat.from_rows(field, x) for x in (a, b, c))
    ab = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    plus = [[(x + y) % p for x, y in zip(r, t)] for r, t in zip(a, c)]
    minus = [[(x - y) % p for x, y in zip(r, t)] for r, t in zip(a, c)]
    scaled = [[s * x % p for x in r] for r in a]
    # coefficients s and -s on A cancel, leaving 3C
    comb = [[3 * y % p for y in r] for r in c]
    for got, want in ((A @ B, ab), (A + C, plus), (A - C, minus),
                      (-A, [[-x % p for x in r] for r in a]),
                      (A.scale(s), scaled),
                      (A.kron(B), [[x * y % p for x in ra for y in rb]
                                   for ra in a for rb in b]),
                      (lincomb([A, C, A], [s, 3 % p, -s % p]), comb)):
        assert got.to_lists() == want
        assert_reduced(got, p)
    rref, pivots = naive_rref_mod(a, p)
    assert rank(A) == len(rref)
    assert row_space(A).pivot_cols == pivots
    assert row_space(A).mat.to_lists() == rref
    assert_reduced(row_space(A).mat, p)
    kvecs = naive_kernel_mod(rref, pivots, len(a[0]), p)
    assert kernel(A).mat.to_lists() == naive_rref_mod(kvecs, p)[0]
    assert_reduced(kernel(A).mat, p)


@st.composite
def kernel_case(draw):
    """A matrix over QQ or GF(7) as dense rows with its column count: sparse
    (most entries zero), all-zero, or of full rank min(nrows, ncols), which
    is an echelon block with random pivot columns, padded by random rows
    when nrows > ncols and then shuffled; either dimension may be 0."""
    field = draw(st.sampled_from([QQ, F7]))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["sparse", "zero", "full"]))
    if field is QQ:
        def scalar(nums):
            return st.builds(lambda a, b: QQ.from_int(a) / QQ.from_int(b),
                             st.sampled_from(nums), st.integers(1, 3))
        entry, nonzero = scalar([0, 0, 0, 1, -1, 2, -3]), scalar([1, -1, 2, -3])
    else:
        entry, nonzero = st.sampled_from([0, 0, 0, 1, 2, 3, 6]), st.integers(1, P7 - 1)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if kind == "zero":
        rows = [[field.zero] * ncols for _ in range(nrows)]
    elif kind == "full":
        r = min(nrows, ncols)
        pivots = sorted(draw(st.permutations(range(ncols)))[:r])
        for row, piv in zip(rows, pivots):
            row[:piv] = [field.zero] * piv
            row[piv] = draw(nonzero)
        rows = draw(st.permutations(rows))
    return field, kind, rows, ncols


@settings(max_examples=250, deadline=None)
@given(kernel_case())
def test_kernel_and_rank_match_the_natural_order_reference(case):
    """``kernel`` (one column-reversed elimination) is the rref of the free
    vectors of the natural-order rref, by the dense oracle; ``rank`` is the
    oracle's rank; ``m @ K^T = 0``."""
    field, kind, rows, ncols = case
    m = Mat.from_rows(field, rows, ncols)
    if field is QQ:
        rref, pivots = naive_rref(rows)
        want = naive_rref(naive_kernel(rref, pivots, ncols))[0]
    else:
        rref, pivots = naive_rref_mod(rows, P7)
        want = naive_rref_mod(naive_kernel_mod(rref, pivots, ncols, P7), P7)[0]
    k = kernel(m)
    assert k.mat.shape == (len(want), ncols)
    assert k.mat.to_lists() == want
    assert k.pivot_cols == [next(j for j, x in enumerate(r) if x) for r in want]
    assert (m @ k.mat.transpose()).is_zero()
    assert rank(m) == len(rref) == ncols - k.dim
    if kind == "zero":
        assert rank(m) == 0 and k == SubspaceBasis.full(field, ncols)
    elif kind == "full":
        assert rank(m) == min(m.shape)
    if field is QQ:
        assert_normalized(k.mat)
    else:
        assert_reduced(k.mat, P7)


def naive_invariant_span(field, dim, vectors, mats):
    """Repeat span := span(span + m.span for every m) until it is stable."""
    span = SubspaceBasis.from_vectors(field, dim, vectors)
    while True:
        rows = span.mat.to_lists()
        grown = SubspaceBasis.from_vectors(
            field, dim, rows + [m.apply(r) for m in mats for r in rows])
        if grown == span:
            return span
        span = grown


@st.composite
def gf7_invariant_case(draw):
    dim = draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, P7 - 1), min_size=dim, max_size=dim)
    vectors = draw(st.lists(vec, max_size=3))
    mats = draw(st.lists(st.lists(vec, min_size=dim, max_size=dim), max_size=3))
    return dim, vectors, mats


@settings(max_examples=80, deadline=None)
@given(gf7_invariant_case())
def test_invariant_span_matches_naive_closure(case):
    dim, vectors, mats = case
    ms = [Mat.from_rows(F7, m) for m in mats]
    span = SubspaceBasis.invariant_span(F7, dim, vectors, ms)
    assert all(span.contains_vector(v) for v in vectors)
    assert all(span.contains_vector(m.apply(r)) for m in ms for r in span.mat.to_lists())
    assert span == naive_invariant_span(F7, dim, vectors, ms)
    assert span.pivot_cols == [min(r) for r in span.mat._rows]
    assert_reduced(span.mat, P7)
    sparse = [{j: x for j, x in enumerate(v) if x} for v in vectors]
    assert SubspaceBasis.invariant_span(F7, dim, sparse, ms) == span


@st.composite
def restrict_case(draw):
    """A field (QQ or GF(7)), an ambient dimension, generating vectors and
    square matrices; entries a/b over QQ, most of them integral."""
    field = draw(st.sampled_from([QQ, F7]))
    if field is QQ:
        scalar = st.builds(lambda a, b: QQ.from_int(a) / QQ.from_int(b),
                           st.integers(-2, 2), st.sampled_from([1, 1, 2]))
    else:
        scalar = st.integers(0, P7 - 1)
    dim = draw(st.integers(1, 5))
    vec = st.lists(scalar, min_size=dim, max_size=dim)
    vectors = draw(st.lists(vec, max_size=3))
    mats = draw(st.lists(st.lists(vec, min_size=dim, max_size=dim), min_size=1, max_size=3))
    return field, dim, vectors, [Mat.from_rows(field, m, dim) for m in mats]


@settings(max_examples=80, deadline=None)
@given(restrict_case())
def test_subspace_restrict_matches_per_row_membership(case):
    field, dim, vectors, mats = case
    span = SubspaceBasis.invariant_span(field, dim, vectors, mats)
    rows = span.mat.to_lists()
    for m in mats + [Mat.identity(field, dim)]:
        assert span.restrict(m) == Mat.from_cols(
            field, [span.membership(m.apply(r)) for r in rows], span.dim)
    # a map sending the first basis vector to e_j, j not a pivot: outside
    free = [j for j in range(dim) if j not in span.pivot_cols]
    if rows and free:
        leave = Mat.from_entries(field, dim, dim, [((free[0], span.pivot_cols[0]), field.one)])
        assert span.membership(leave.apply(rows[0])) is None
        assert span.restrict(leave) is None


@st.composite
def mat_case(draw):
    """A small matrix over QQ (entries a/b, most of them zero) or a GF(p) of
    ``PRIMES``, with a vector to apply it to and identity padding for
    kron_id."""
    field = draw(st.sampled_from([QQ] + [GF(p) for p in PRIMES]))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if field is QQ:
        scalar = st.builds(lambda a, b: QQ.from_int(a) / QQ.from_int(b),
                           st.sampled_from([0, 0, 0, 1, -1, 2, -3]), st.integers(1, 3))
    else:
        scalar = fp_scalar(field.p)
    data = draw(st.lists(st.lists(scalar, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    vec = draw(st.lists(scalar, min_size=ncols, max_size=ncols))
    pre, post = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return field, Mat.from_rows(field, data, ncols), vec, pre, post


def is_field_scalar(field, v):
    """QQ scalars are the QQ type (never int or float); GF(p) scalars are
    ints in [0, p)."""
    if field is QQ:
        return type(v) is type(QQ.one)
    return type(v) is int and 0 <= v < field.p


@settings(max_examples=200, deadline=None)
@given(mat_case())
def test_mat_public_surface_round_trips_and_keeps_scalar_types(case):
    field, m, vec, pre, post = case
    assert Mat.from_entries(field, m.nrows, m.ncols, m.items()) == m
    stored_cols = m.transpose()._rows
    if field is QQ:
        assert m.sparse_cols() == stored_cols
    else:
        assert_reduced(m, field.p)
        assert m.sparse_cols() == [{i: v % field.p for i, v in c.items()}
                                   for c in stored_cols]
    assert m.sparse_cols() == [{i: v for i, v in enumerate(m.col(j)) if v}
                               for j in range(m.ncols)]
    assert m.reshape(1, m.nrows * m.ncols).reshape(m.nrows, m.ncols) == m
    assert m.rows_at(range(m.nrows)) == m
    ident = Mat.identity(field, pre)
    assert kron_id(pre, m, post) == ident.kron(m).kron(Mat.identity(field, post))
    assert ident.is_identity() and not ident.scale(field.from_int(2)).is_identity()
    values = [m.get(i, j) for i in range(m.nrows) for j in range(m.ncols)]
    values += [v for j in range(m.ncols) for v in m.col(j)]
    values += [v for i in range(m.nrows) for v in m.row_list(i)]
    values += [v for row in m.to_lists() for v in row]
    values += [v for _, v in m.items()]
    values += m.apply(vec)
    assert all(is_field_scalar(field, v) for v in values)


@settings(max_examples=150, deadline=None)
@given(mat_case(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_mul_kron_id_is_the_product_with_kron_id(case, nrows, rng):
    """a @ kron_id(pre, f, post) without kron_id, against the product with
    the built kron_id; rows_at picks rows in any order, with repeats."""
    field, f, _, pre, post = case
    width = pre * f.nrows * post
    a = Mat.from_rows(field, [{j: field.from_int(rng.choice([0, 0, 1, -1, 2]))
                               for j in range(width)} for _ in range(nrows)], width)
    got = mul_kron_id(a, pre, f, post)
    assert got == a @ kron_id(pre, f, post)
    assert got.shape == (nrows, pre * f.ncols * post)
    if field is not QQ:
        assert_reduced(got, field.p)
    picks = [rng.randrange(nrows) for _ in range(nrows + 1)] if nrows else []
    assert got.rows_at(picks).to_lists() == [got.row_list(i) for i in picks]
    with pytest.raises(DimensionMismatch):
        mul_kron_id(Mat.zeros(field, 1, width + 1), pre, f, post)


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "GF7"])
def test_kron_id_of_an_identity_is_the_identity(field):
    for n, pre, post in itertools.product((0, 1, 3), (1, 2, 4), (1, 3)):
        ident = Mat.identity(field, n)
        got = kron_id(pre, ident, post)
        generic = Mat.identity(field, pre).kron(ident).kron(Mat.identity(field, post))
        assert got == generic and got.is_identity()
        if field is QQ:
            assert all(type(v) is int for r in got._rows for v in r.values())


@pytest.mark.parametrize("field", [QQ, F7], ids=["QQ", "GF7"])
def test_kron_id_of_a_non_identity_takes_the_generic_path(field):
    one, two = field.one, field.from_int(2)
    swap = Mat.from_rows(field, [[field.zero, one], [one, field.zero]])
    cycle = Mat.identity(field, 3).cols_permuted([1, 2, 0], 3)
    diag = Mat.from_rows(field, [[one, field.zero], [field.zero, two]])
    padded = Mat.from_rows(field, [[one, field.zero, field.zero], [field.zero, one, field.zero]])
    for m in (swap, cycle, diag, padded):
        assert not m.is_identity()
        for pre, post in ((1, 2), (2, 1), (3, 2)):
            got = kron_id(pre, m, post)
            assert got == Mat.identity(field, pre).kron(m).kron(Mat.identity(field, post))
            assert not got.is_identity()


@pytest.mark.parametrize("field", [QQ, F7, GF(2)], ids=["QQ", "GF7", "GF2"])
def test_is_identity_compares_with_the_stored_one(field, monkeypatch):
    one, two = field.one, field.from_int(2)
    assert Mat.identity(field, 3).is_identity() and Mat.identity(field, 0).is_identity()
    if field.p != 2:  # 2 (1/2) is a stored integral Fraction(1, 1) over QQ
        half = Mat.from_entries(field, 3, 3, [((i, i), field.inv(two)) for i in range(3)])
        doubled = half.scale(two)
        assert doubled.is_identity() and not half.is_identity()
        if field is QQ:
            assert {type(v) for r in doubled._rows for v in r.values()} == {type(one)}
    # over F_p an entry is compared as its balanced residue
    lifts = [1, 1 + 7, 1 - 7] if field.p == 7 else [1, 3, -1] if field.p == 2 else [1]
    for lift in lifts:
        assert Mat.from_entries(field, 2, 2, [((0, 0), lift), ((1, 1), 1)]).is_identity()
    for entries, shape in (([((0, 0), one), ((1, 1), two)], (2, 2)),
                           ([((0, 0), one), ((1, 1), one), ((0, 1), one)], (2, 2)),
                           ([((0, 0), one)], (2, 2)),
                           ([((0, 0), one), ((1, 1), one)], (2, 3)),
                           ([((0, 1), one), ((1, 0), one)], (2, 2))):
        assert not Mat.from_entries(field, *shape, entries).is_identity(), entries
    # an identity stored as ints is checked without one Fraction comparison
    calls = []
    eq = type(QQ.one).__eq__
    monkeypatch.setattr(type(QQ.one), "__eq__", lambda a, b: calls.append(1) or eq(a, b))
    assert Mat.identity(field, 50).is_identity() and not calls


@st.composite
def blocks_case(draw):
    """A target shape and up to four blocks placed in it, some at column
    offset 0 and some overlapping, over QQ or GF(7)."""
    field = draw(st.sampled_from([QQ, F7]))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        r, c = draw(st.integers(0, nrows)), draw(st.integers(0, ncols))
        roff = draw(st.integers(0, nrows - r))
        coff = draw(st.sampled_from([0, draw(st.integers(0, ncols - c))]))
        data = draw(st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, 5]),
                                      min_size=c, max_size=c), min_size=r, max_size=r))
        blocks.append((roff, coff, Mat.from_rows(
            field, [[field.from_int(x) for x in row] for row in data], c)))
    return field, nrows, ncols, blocks


@settings(max_examples=200, deadline=None)
@given(blocks_case())
def test_from_blocks_is_entrywise_placement(case):
    field, nrows, ncols, blocks = case
    placed = {}
    for roff, coff, m in blocks:  # a later block's nonzero entry wins
        for (i, j), v in m.items():
            placed[(roff + i, coff + j)] = v
    expected = Mat.from_entries(field, nrows, ncols, placed.items())
    got = Mat.from_blocks(field, nrows, ncols, blocks)
    assert got == expected and list(got.items()) == list(expected.items())


@settings(max_examples=120, deadline=None)
@given(mat_case(), st.data())
def test_cols_permuted_round_trips_with_the_inverse_permutation(case, data):
    field, m, _vec, extra, _post = case
    perm = data.draw(st.permutations(range(m.ncols)))
    inv = [0] * m.ncols
    for j, pj in enumerate(perm):
        inv[pj] = j
    moved = m.cols_permuted(perm, m.ncols)
    assert all(moved.col(perm[j]) == m.col(j) for j in range(m.ncols))
    assert moved.cols_permuted(inv, m.ncols) == m
    # into a wider matrix: the columns no label reaches are zero
    wide = m.cols_permuted([extra * j for j in range(m.ncols)], extra * m.ncols)
    assert wide == Mat.from_entries(field, m.nrows, extra * m.ncols,
                                    (((i, extra * j), v) for (i, j), v in m.items()))


def assert_qq_storage(*mats):
    """No float ever reaches a QQ row dict."""
    for m in mats:
        for r in m._rows:
            assert not any(isinstance(v, float) for v in r.values())


def assert_normalized(*mats):
    """Constructors store an integral QQ value as an int and keep the QQ
    type only for a non-integral one."""
    assert_qq_storage(*mats)
    for m in mats:
        for r in m._rows:
            for v in r.values():
                assert type(v) is int or (type(v) is type(Q1) and v.denominator > 1)


@settings(max_examples=120, deadline=None)
@given(mixed_qq_case(), st.integers(1, 6))
def test_qq_storage_holds_no_float_and_accessors_give_the_qq_type(case, n):
    a, b, c, s, rhs, vec, x, y = case
    A, B, C, S = (Mat.from_rows(QQ, t) for t in (a, b, c, s))
    nr, nc = A.shape
    built = [A, B, C, S, Mat.identity(QQ, n), Mat.from_cols(QQ, c, nc),
             Mat.from_entries(QQ, nr, nc, A.items()),
             Mat.from_rows(QQ, [{j: v for j, v in enumerate(r) if v} for r in a], nc)]
    assert_normalized(*built)
    sub = SubspaceBasis.from_vectors(QQ, nc, a)
    q = _quotient(QQ, nc, a)
    derived = [A + C, A - C, -A, A.scale(x), A @ B, A.kron(B), kron_id(2, A, 2),
               mul_kron_id(Mat.identity(QQ, 2 * nr), 2, A, 1),
               lincomb([A, C], [x, y]), A.transpose(), A.rows_at(range(nr)),
               A.reshape(1, nr * nc), Mat.from_blocks(QQ, nr + 1, nc + 1, [(1, 1, A)]),
               kernel(A).mat, q.proj, q.sect, sub.mat,
               SubspaceBasis.invariant_span(QQ, len(s), s[:1], [S]).mat]
    derived += [m for m in (solve_right(A, Mat.from_rows(QQ, rhs)), inverse(S)) if m is not None]
    assert_qq_storage(*derived)
    values = [v for m in built + derived for col in m.sparse_cols() for v in col.values()]
    for v in a:
        values += sub.membership(v)
    values += [QQ.inv(QQ.from_int(n)), QQ.inv(QQ.from_int(-n)), QQ.inv(n), QQ.inv(x or Q1)]
    assert all(type(v) is type(Q1) for v in values)
    assert QQ.inv(QQ.from_int(2)) == QQ.from_int(1) / QQ.from_int(2)


def test_mat_storage_stays_in_exactla():
    """Outside exactla (and this file's storage-invariant checks) no code
    reads or builds a Mat's row storage: no attribute ``rows``/``_rows``, no
    import or name of the echelon internals and no raw ``Mat(...)`` call
    with rows."""
    root = Path(__file__).resolve().parent.parent
    files = [p for p in sorted((root / "src" / "coralg").glob("*.py"))
             if p.name != "exactla.py"]
    files += [p for p in sorted((root / "tests").glob("*.py"))
              if p.name != "test_exactla.py"]
    internals = {"_Echelon", "_reversed_echelon"}
    offences = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.relative_to(root)}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr in {"rows", "_rows"} | internals:
                offences.append(f"{where} .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in internals:
                offences.append(f"{where} names {node.id}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                offences += [f"{where} imports {a.name}" for a in node.names
                             if a.name.rsplit(".", 1)[-1] in internals]
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "Mat" and (len(node.args) > 3
                                      or any(k.arg == "rows" for k in node.keywords)):
                    offences.append(f"{where} raw Mat(...) with rows")
    assert offences == []


def test_inverse_by_negative_exponent_agrees_with_fermat():
    """F_p inverses are pow(a, -1, p): equal to Fermat's pow(a, p - 2, p) on
    every nonzero residue of small primes and on edge and random residues of
    2^31 - 19, for the public residue and its negative (balanced)
    representative alike; the inverse of zero is an error."""
    rng = random.Random(21)
    for p in (2, 3, 5, 7, 2**31 - 19):
        field = GF(p)
        if p < 10:
            args = list(range(1, p))
        else:
            args = [1, 2, (p - 1) // 2, (p + 1) // 2]
            args += [rng.randrange(1, p) for _ in range(1000)]
        for a in args:
            want = pow(a, p - 2, p)
            for x in (a, a - p, -a, p - a):
                inv = field.inv(x)
                assert type(inv) is int and 0 <= inv < p
                assert inv == pow(x % p, p - 2, p)
            assert field.inv(a) == want
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


@pytest.mark.parametrize("p", [3, 7])
def test_a_nonzero_scalar_that_is_zero_mod_p_gives_the_zero_matrix(p):
    """c != 0 with c = 0 mod p: ``scale`` and ``lincomb`` test c after its
    reduction, so they return the zero matrix (they used to raise a bare
    KeyError from the row update) and a term with such a c adds nothing;
    ``from_rows`` and ``from_vectors`` store no such entry."""
    field = GF(p)
    m = Mat.from_rows(field, [[1, 2], [0, p - 1]])
    other = Mat.from_rows(field, [[0, 1], [1, 1]])
    zero = Mat.zeros(field, 2, 2)
    for c in (p, 2 * p, -p):
        assert m.scale(c) == zero
        assert lincomb([m], [c]) == zero
        assert lincomb([m, other], [c, 1]) == other
    assert m.scale(p + 1) == m and lincomb([m, other], [p + 1, -p]) == m
    assert Mat.from_rows(field, [[1, 2]]).scale(3 * p) == Mat.zeros(field, 1, 2)
    # the constructors drop such an entry too
    assert Mat.from_rows(field, [[p, 1], [-p, 2 * p]]).nnz() == 1
    assert SubspaceBasis.from_vectors(field, 2, [[p, 0], {1: -p}]).dim == 0


@settings(max_examples=80, deadline=None)
@given(restrict_case())
def test_from_columns_spans_the_public_columns(case):
    """The column span built in row storage equals the span of the columns
    read out as public scalars, for one Mat and for several."""
    field, dim, _vectors, mats = case
    cols = [c for m in mats for c in m.sparse_cols()]
    assert SubspaceBasis.from_columns(field, dim, mats) == \
        SubspaceBasis.from_vectors(field, dim, cols)
    assert SubspaceBasis.from_columns(field, dim, mats[:1]) == \
        SubspaceBasis.from_vectors(field, dim, mats[0].sparse_cols())
    with pytest.raises(DimensionMismatch):
        SubspaceBasis.from_columns(field, dim + 1, mats)


@settings(max_examples=80, deadline=None)
@given(restrict_case())
def test_eliminations_leave_their_inputs_unchanged(case):
    """The echelon reduces the rows it is given in place, so each entry
    point hands it rows of its own: kernel, rank, solve_right, from_columns
    and invariant_span leave their Mats (and sparse vectors) as they were."""
    field, dim, vectors, mats = case
    sparse = [{j: x for j, x in enumerate(v) if x} for v in vectors]
    before = copy.deepcopy([m._rows for m in mats]), copy.deepcopy(sparse)
    for m in mats:
        kernel(m)
        rank(m)
        solve_right(m, mats[-1])
    SubspaceBasis.from_columns(field, dim, mats)
    SubspaceBasis.invariant_span(field, dim, sparse, mats)
    assert ([m._rows for m in mats], sparse) == before


@st.composite
def balancing_case(draw):
    """A field (QQ, GF(7) or GF(2)), pre and post in {1, 2, 3} and up to
    three pairs (r, l), r of (pre x) x (pre y) and l of (post x) x (post y),
    so kron_id(1, r, post) and kron_id(pre, l, 1) have one shape: with
    x = y = 1 a junction's pair, with pre = post = 1 a circular one.  Some
    pairs are zero, some are two identities and some mix an identity with
    a drawn Mat; over QQ entries are a/b, most of them integral."""
    field = draw(st.sampled_from([QQ, F7, GF(2)]))
    if field is QQ:
        scalar = st.builds(lambda a, b: QQ.from_int(a) / QQ.from_int(b),
                           st.integers(-2, 2), st.sampled_from([1, 1, 2]))
    else:
        scalar = st.integers(0, field.p - 1)
    pre, post = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x, y = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def mat(nrows, ncols, kind):
        if kind == "zero":
            return Mat.zeros(field, nrows, ncols)
        if kind == "identity" and nrows == ncols:
            return Mat.identity(field, nrows)
        return Mat.from_rows(field, draw(st.lists(
            st.lists(scalar, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)),
            ncols)

    kinds = st.sampled_from(["zero", "identity", "drawn"])
    pairs = []
    for _ in range(draw(st.integers(0, 3))):
        rkind = draw(kinds)
        lkind = rkind if rkind != "drawn" and draw(st.booleans()) else draw(kinds)
        pairs.append((mat(pre * x, pre * y, rkind), mat(post * x, post * y, lkind)))
    return field, pre, post, pre * x * post, pairs


@settings(max_examples=150, deadline=None)
@given(balancing_case())
def test_from_balancing_spans_the_explicit_kron_id_differences(case):
    """The balancing span, formed column by column in row storage, is the
    span of the columns of the explicit kron_id differences, and leaves its
    Mats as they were; a pair of the wrong shape is refused."""
    field, pre, post, amb, pairs = case
    before = copy.deepcopy([(r._rows, l._rows) for r, l in pairs])
    got = SubspaceBasis.from_balancing(field, amb, pre, post, pairs)
    assert [(r._rows, l._rows) for r, l in pairs] == before
    explicit = [kron_id(1, r, post) - kron_id(pre, l, 1) for r, l in pairs]
    assert got == SubspaceBasis.from_columns(field, amb, explicit)
    assert got.pivot_cols == [min(r) for r in got.mat._rows]
    if pairs:
        with pytest.raises(DimensionMismatch):
            SubspaceBasis.from_balancing(field, amb + 1, pre, post, pairs)
        r, l = pairs[0]
        wide = Mat.zeros(field, l.nrows, l.ncols + 1)
        with pytest.raises(DimensionMismatch):
            SubspaceBasis.from_balancing(field, amb, pre, post, [(r, wide)])
