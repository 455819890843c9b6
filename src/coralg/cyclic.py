"""Circular tensor products, cyclic operators, the relative cyclic
bicomplex of a T-ring B, truncated total complexes, homology, class
arithmetic and the lambda projection HC_*(B) -> HC_*(B|T).

Conventions for the bicomplex (binding):

* entry C_{p,q} = B^{(*)T(q+1)} for p, q >= 0 and p + q <= D + 1
* vertical maps: column p carries the Hochschild boundary d (p even) or
  -d' (p odd), going down one row
* horizontal maps: tau~ = id - tau out of odd columns, N = sum tau^i out of
  positive even columns, going one column left
* total spaces Tot_n = direct sum of C_{p, n-p}, blocks ordered by p
  ascending; the total differential is the plain sum of the vertical and
  horizontal components (squares anticommute as drawn, so d.d = 0; this is
  verified, not assumed)
* cyclic operator: tau_n(b_0 (*) ... (*) b_n) = (-1)^n b_n (*) b_0 ... (*)
  b_{n-1}; d'_n contracts adjacent factors with alternating signs; d_n adds
  (-1)^n (b_n b_0) (*) b_1 ... (*) b_{n-1}
* faces, from B's multiplication map mu = ``Algebra.mult_mat()`` (dim
  B = d): the face b_i (i < n) is ``kron_id(d**i, mu, d**(n-1-i))`` on
  B^{(x)(n+1)} and d'_n = sum_{i<n} (-1)^i b_i.  d_n = d'_n + b_0 . tau_n,
  because tau_n moves b_n to the front and already carries the sign
  (-1)^n; tau_n permutes pure tensors, so b_0 . tau_n is b_0 with its
  columns relabelled (x, y, rest) -> (y, rest, x) (``Mat.cols_permuted``),
  signed, and no ambient tau is multiplied.  Every operator is formed in
  the coordinates of its target space and then descended:
  - only a plain target (T = k, where Q = S = I, and neither is built)
    has operators built on the ambient: d'_n comes from the level below
    as d'_n = b_0 - 1 (x) d'_{n-1} (d'_1 = b_0), one ``KronSum`` per
    level with neither term built, and is handed to the level above.
    Where d_n is read alone onto a trivial level (level D + 1 of a total
    complex over T = k, whose d' nothing reads), b_0, -1 (x) d'_{n-1} and
    the rotated b_0 are one ``KronSum``, which the total complex adds
    straight into the rows of d_{D+1}, and no d'_n is built;
  - over any other target each face is read through the target's Q as
    ``mul_kron_id(Q, d**i, mu, d**(n-1-i))`` (``kron_to_quotient``), so
    no ambient face is built and the cost scales with the quotient;
  - tau_n is the signed Q of level n with its columns relabelled the same
    way; on a plain level it is the signed rotation itself, built from the
    column relabelling with no Q read.
* operators are built when first read, on a level object that lives only
  while it is read: ``CyclicComplex`` keeps its circular spaces, not its
  levels.  The total complex truncated at D walks the levels upwards,
  places each level's blocks into every d_n that reads them and drops the
  level, so its d_n are the only holders of the bicomplex's matrices.  It
  reads N only up to level D - 1 and tau, tautilde, d' only up to level D,
  so it builds neither N at levels D and D + 1 nor the descended tau,
  tautilde and d' at level D + 1.  Every operator that is built is checked
  to descend to the circular quotients.
"""

from collections.abc import Mapping
from functools import cached_property
from itertools import chain

from .errors import ActionMismatch, DegreeMismatch, DegreeOutOfRange, NotACycle
from .exactla import (
    KronSum, Mat, QuotientSpace, SubspaceBasis, assemble, guard_dim, kernel, lincomb,
    rank, solve_right,
)
from .ncalg import (
    Report, _plain, descend, kron_to_quotient, leg_apply, regular_bimodule, tensor_space,
    trivial_subalgebra,
)

_OPERATORS = ("tau", "tautilde", "N", "dprime", "d")


def cyclic_complex(b, t_pair=None):
    """Memoized CyclicComplex factory (coordinates must be shared between
    the chg pipeline and the total complexes it feeds).  The memo lives on
    ``b`` and is keyed by the (T, inclusion) pair."""
    key = tuple(t_pair) if t_pair else None
    memo = b._cyclic_complexes
    cc = memo.get(key)
    if cc is None:
        cc = memo[key] = CyclicComplex(b, t_pair)
    return cc


class CyclicComplex:
    """Shared builder for the circular spaces and operators of one (B, T)."""

    def __init__(self, b, t_pair=None):
        self.b = b
        self.field = b.field
        if t_pair is None:
            t_pair = trivial_subalgebra(b)
        self.t, self.t_incl = t_pair
        self.b_mod = regular_bimodule(b).restrict(self.t, self.t_incl)
        self.name = f"{b.name}|{self.t.name}"
        self._spaces = {}
        self._d = {}

    def space(self, n):
        """B^{(*)T(n+1)}: the (n+1)-fold circular tensor power."""
        if n not in self._spaces:
            guard_dim(self.b.dim ** (n + 1), f"circular space level {n}")
            self._spaces[n] = tensor_space(
                [self.b_mod] * (n + 1), [self.t] * n, circular=self.t,
                name=f"{self.b.name}^(*){n + 1}")
        return self._spaces[n]

    def operators(self, n):
        """tau, tautilde, N at level n; dprime, d: level n -> n-1 (n >= 1).

        All matrices act on canonical circular coordinates.  Each read
        gives a new level, which builds an operator when it is first read
        and verifies it to descend to the quotient (relation vectors map to
        relation vectors); no level is kept here.
        """
        return _Level(self, n)

    # -- total complex ---------------------------------------------------

    def total(self, D):
        if D not in self._d:
            self._d[D] = TotalComplex(self, D)
        return self._d[D]


class _Level(Mapping):
    """The cyclic operators of one level, read as ``operators(n)[key]``:
    each is built, and checked to descend, when first read, and lives as
    long as the level.  tautilde and N are formed from the descended tau.
    d' and d are read in the coordinates of level n - 1 (``_dprime_read``);
    on a plain level n - 1 d' is the ambient one, formed from the ambient
    d' of level n - 1, which ``above`` hands over (a level built alone
    builds it afresh).  A reader of both builds them from one face sum
    (``vertical``); a reader of d alone over a plain level n - 1 onto a
    trivial level n gets one ``KronSum`` of the faces (``_lone_d``), and
    no d' is built."""

    def __init__(self, cc, n, dprime_below=None):
        self.cc, self.b, self.field, self.n = cc, cc.b, cc.field, n
        self.sp = cc.space(n)
        self.sp1 = cc.space(n - 1) if n >= 1 else None
        self._keys = _OPERATORS if n >= 1 else _OPERATORS[:3]
        self._dprime_below = dprime_below

    def above(self):
        """Level n + 1, handed the one matrix it reads of this level: the
        ambient d', where it was built."""
        return _Level(self.cc, self.n + 1, vars(self).get("_dprime_ambient"))

    def __getitem__(self, key):
        if key not in self._keys:
            raise KeyError(key)
        return getattr(self, key)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def _descend(self, W):
        m = descend(W, self.sp)
        if m is None:
            raise ActionMismatch(f"operator does not descend to {self.sp.name}")
        return m

    def _rotation(self):
        """The column relabelling (b_0, b_1, ..., b_n) -> (b_1, ..., b_n, b_0)
        on the pure tensors of B^(n+1): column b_0 d^n + r goes to r d + b_0."""
        d, size = self.b.dim, self.b.dim ** (self.n + 1)
        return list(chain.from_iterable(range(b0, size, d) for b0 in range(d)))

    def _rotated(self, m):
        return m.cols_permuted(self._rotation(), self.b.dim ** (self.n + 1))

    @property
    def _sign(self):
        return self.field.from_int(-1 if self.n % 2 else 1)

    def _face(self, i):
        """The face b_i = 1 (x) mu (x) 1 on B^(n+1), in the coordinates of
        level n - 1."""
        d = self.b.dim
        return kron_to_quotient(self.sp1, d ** i, self.b.mult_mat(), d ** (self.n - 1 - i))

    def _dprime_read(self):
        """d' in the coordinates of level n - 1: the ambient d' where that
        level is plain, else the sum of the faces read through its Q."""
        if _plain(self.sp1):
            return self._dprime_ambient
        W = self._face(0)
        for i in range(1, self.n):
            W = W + self._face(i) if i % 2 == 0 else W - self._face(i)
        return W

    def _b0_term(self, perm=None):
        """The face b_0 = mu (x) 1 on B^(n+1) as a ``KronSum`` term, its
        columns relabelled by ``perm``."""
        return (1, self.b.mult_mat(), self.b.dim ** (self.n - 1), perm)

    def _dprime_terms(self):
        """d' on B^(n+1) as ``KronSum`` terms: b_0 - 1 (x) d'_{n-1}, and
        d'_1 = b_0."""
        one = self.field.one
        if self.n == 1:
            return [self._b0_term()], [one]
        below = self._dprime_below
        if below is None:
            below = self.cc.operators(self.n - 1)._dprime_ambient
        return [self._b0_term(), (self.b.dim, below, 1, None)], [one, -one]

    @cached_property
    def _dprime_ambient(self):
        """d' on B^(n+1); level n + 1 reads it."""
        return KronSum(*self._dprime_terms()).mat()

    @cached_property
    def tau(self):
        # the last factor moves to the front, with sign (-1)^n: Q with its
        # columns rotated, which on a plain level is the signed rotation
        if _plain(self.sp):
            sign = self._sign
            return Mat.from_entries(self.field, self.sp.dim, self.sp.dim,
                                    (((i, j), sign) for i, j in enumerate(self._rotation())))
        rot = self._rotated(self.sp.Q)
        return self._descend(rot if self.n % 2 == 0 else -rot)

    @cached_property
    def tautilde(self):
        return Mat.identity(self.field, self.sp.dim) - self.tau

    @cached_property
    def N(self):
        # the sum of tau^i on the quotient (tau descends, so powers agree)
        powers = [Mat.identity(self.field, self.sp.dim)]
        for _ in range(self.n):
            powers.append(self.tau @ powers[-1])
        return lincomb(powers, [self.field.one] * len(powers))

    @cached_property
    def dprime(self):
        return self._descend(self._dprime_read())

    def _lone_d(self):
        """d read alone over a plain level n - 1 onto a trivial level n, as
        at level D + 1 of a total complex over T = k, whose d' nothing
        reads: the ``KronSum`` b_0 - 1 (x) d'_{n-1} + (-1)^n b_0 rotated,
        with no d' built.  None where d' is built or level n is a proper
        quotient.  On a trivial level n ``descend`` is the identity, so
        the sum is d as it stands."""
        if not (_plain(self.sp1) and self.sp.trivial) or "_dprime_ambient" in vars(self):
            return None
        terms, coeffs = self._dprime_terms()
        return KronSum(terms + [self._b0_term(self._rotation())], coeffs + [self._sign])

    @cached_property
    def d(self):
        lone = self._lone_d()
        return self._d_from(self._dprime_read()) if lone is None else lone.mat()

    def _d_from(self, W):
        # the last face (-1)^n (b_n b_0) (x) b_1 ... (x) b_{n-1} is b_0 after
        # tau, whose matrix is that of b_0 with its columns rotated
        wrap = self._rotated(self._face(0))
        return self._descend(W + wrap if self.n % 2 == 0 else W - wrap)

    def vertical(self):
        """Build d' and d from one ``_dprime_read``, where neither is built."""
        if "d" not in vars(self) and "dprime" not in vars(self):
            W = self._dprime_read()
            self.dprime, self.d = self._descend(W), self._d_from(W)


class TotalComplex:
    """Truncated total complex: entries C_{p,q}, p+q <= D+1, with total
    differentials d_n for 1 <= n <= D+1, the d.d = 0 certificate and
    ``rank(n)``, the rank of d_n, computed once per n when first asked.

    The d_n are the only holders of the bicomplex's matrices: the levels
    q = 0 .. D + 1 are built in ascending order, each level's blocks go
    into every d_n that reads them as they are built (``assemble``), and
    the level is dropped once level q + 1 is built, which keeps only its
    ambient d' (over T = k, to form its own).  So no more than level q and
    the ambient d' of level q - 1 are alive at once."""

    def __init__(self, cc, D):
        self.cc = cc
        self.D = D
        self.blocks, self.tot_dim = {}, {}
        for n in range(D + 2):
            off = 0
            blocks = []
            for p in range(n + 1):
                q = n - p
                dim = cc.space(q).dim
                blocks.append((p, q, off, dim))
                off += dim
            guard_dim(off, f"Tot_{n}")
            self.blocks[n] = blocks
            self.tot_dim[n] = off
        shapes = [(self.tot_dim[n - 1], self.tot_dim[n]) for n in range(1, D + 2)]
        self.d = dict(enumerate(assemble(cc.field, shapes, self._level_blocks()), 1))
        self.d_squared = Report(f"d.d=0 on {cc.name}")
        for n in range(2, D + 2):
            if not (self.d[n - 1] @ self.d[n]).is_zero():
                self.d_squared.fail("d-squared", n)
        self._ranks = {0: 0}

    def rank(self, n):
        if n not in self._ranks:
            self._ranks[n] = rank(self.d[n])
        return self._ranks[n]

    def _offset(self, n, p):
        return self.blocks[n][p][2:]

    def _level_blocks(self):
        """The blocks ``(n - 1, roff, coff, m)`` of every d_n, level by
        level: out of C_{p,q} the vertical d (p even) or -d' (p odd) and the
        horizontal tautilde (p odd) or N (p even, p >= 2).  Level D + 1
        gives d alone, as the ``KronSum`` ``_lone_d`` where it is one."""
        level = _Level(self.cc, 0)
        for q in range(self.D + 2):
            if 1 <= q <= self.D:  # levels whose d and d' are both read
                level.vertical()
            for p in range(self.D + 2 - q):
                n, coff = p + q, self._offset(p + q, p)[0]
                if q >= 1:
                    block = (level._lone_d() or level.d) if p % 2 == 0 else -level.dprime
                    yield n - 1, self._offset(n - 1, p)[0], coff, block
                if p >= 1:
                    block = level.tautilde if p % 2 == 1 else level.N
                    yield n - 1, self._offset(n - 1, p - 1)[0], coff, block
            if q <= self.D:
                level = level.above()

    def is_cycle(self, n, chain):
        return n == 0 or not any(self.d[n].apply(chain))

    def is_boundary(self, n, chain):
        if n + 1 not in self.d:
            raise DegreeOutOfRange(f"need d_{n + 1}: increase D")
        rhs = Mat.from_cols(self.cc.field, [chain], self.tot_dim[n])
        return solve_right(self.d[n + 1], rhs) is not None

    def classes_equal(self, n, x, y):
        return self.is_boundary(n, [a - b for a, b in zip(x, y)])


class HomologyClass:
    def __init__(self, degree, representative, class_coords):
        self.degree = degree
        self.representative = representative
        self.class_coords = class_coords

    def __repr__(self):
        return f"HomologyClass(deg {self.degree}, coords {self.class_coords})"


class HomologySpace:
    """ker(d_n)/im(d_{n+1}).  ``dim`` is tot_n - rank d_n - rank d_{n+1} (so
    d.d = 0 must be certified, else NotACycle); the kernel and the canonical
    class coordinates are built when first needed."""

    def __init__(self, tc, n):
        if n > tc.D - 1:
            raise DegreeOutOfRange(f"homology at {n} needs max degree >= {n + 1}")
        if not tc.d_squared.ok:
            raise NotACycle(f"d.d != 0 on {tc.cc.name}: boundaries are not all cycles")
        self.tc, self.n = tc, n
        self.dim = tc.tot_dim[n] - tc.rank(n) - tc.rank(n + 1)

    @cached_property
    def kernel(self):
        if self.n == 0:
            return SubspaceBasis.full(self.tc.cc.field, self.tc.tot_dim[0])
        return kernel(self.tc.d[self.n])

    @cached_property
    def class_space(self):
        """ker d_n modulo the columns of d_{n+1}, in kernel coordinates.
        Once d_n d_{n+1} = 0 is checked, every boundary is a cycle, so its
        coordinates in the rref kernel basis are its entries at the
        kernel's pivot columns: the rows of d_{n+1} there."""
        f, d, n, ker = self.tc.cc.field, self.tc.d, self.n, self.kernel
        if n and not (d[n] @ d[n + 1]).is_zero():
            raise NotACycle(f"a boundary is not a cycle in degree {n}")
        coords = d[n + 1].rows_at(ker.pivot_cols)
        return QuotientSpace(f, ker.dim, SubspaceBasis.from_columns(f, ker.dim, [coords]))

    def _lift(self, cls):
        """The class with coordinates ``cls`` and its canonical representative."""
        rep = self.kernel.mat.transpose().apply(self.class_space.represent(cls))
        return HomologyClass(self.n, rep, cls)

    def class_of(self, chain):
        """Canonical class coordinates of a cycle."""
        coords = self.kernel.membership(chain)
        if coords is None:
            raise NotACycle(f"chain is not a cycle in degree {self.n}")
        return self._lift(self.class_space.project(coords))

    def basis_classes(self):
        f = self.tc.cc.field
        return [self._lift([f.one if j == i else f.zero for j in range(self.dim)])
                for i in range(self.dim)]


def homology(tc, n):
    return HomologySpace(tc, n)


def lambda_projection(tc_k, tc_t):
    """The canonical chain surjections lambda_n: Tot_n(B|k) -> Tot_n(B|T),
    verified to commute with the differentials in every degree.

    Returns the per-degree block matrices; raises DegreeMismatch when the
    complexes do not share B or the truncation degree."""
    if tc_k.cc.b is not tc_t.cc.b or tc_k.D != tc_t.D:
        raise DegreeMismatch("lambda needs the same algebra and truncation")
    lam = {}
    f = tc_k.cc.field
    ident = Mat.identity(f, tc_k.cc.b.dim)  # the identity on the first leg
    for n in range(tc_k.D + 2):
        lam[n] = Mat.from_blocks(f, tc_t.tot_dim[n], tc_k.tot_dim[n], [
            (tc_t._offset(n, p)[0], coff,
             leg_apply(tc_k.cc.space(q), tc_t.cc.space(q), 0, 1, ident))
            for (p, q, coff, cdim) in tc_k.blocks[n]])
    for n in range(1, tc_k.D + 2):
        if tc_t.d[n] @ lam[n] != lam[n - 1] @ tc_k.d[n]:
            raise DegreeMismatch(f"lambda is not a chain map at degree {n}")
    return lam
