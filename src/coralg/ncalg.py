"""Finite-dimensional algebras by structure constants, bimodules, balanced
tensor products over a (noncommutative) ring, and an equivariant-map solver.

Conventions:

* An algebra element is a dense coordinate vector over the algebra's basis;
  the algebra is its multiplication ``mu`` (``mult_mat()``), a dim x dim^2
  matrix whose column i*dim + j is the vector of ``e_i * e_j``, and its unit.
* A module carries any number of declared left/right actions, keyed by the
  acting Algebra object.  ``left[s]`` matrices form a unital representation,
  ``right[t]`` matrices the matching anti-representation pattern, and every
  declared left action commutes with every declared right action.
* ``TensorSpace([M1,...,Mk], [T1,...,T_{k-1}], circular=T)`` is the balanced
  tensor product M1 (x)_{T1} ... (x)_{T_{k-1}} Mk, optionally factored by the
  circular relation  m * t ~ t * m.  Each space is one quotient step, in
  rref-canonical coordinates, on its memoized prefix (M1..M_{k-1}, or for
  a circular space the balanced M1..Mk); the composite of these
  left-nested steps is the binding coordinate convention for serialized
  data.  Pure-tensor basis order is lexicographic with the leftmost factor
  slowest.  The end factors' outer actions are pushed through the last
  step on demand, once per algebra; a circular space has none, and its
  relation reads those of its balanced prefix.  A step imposes the
  relation of every basis element of its algebra but those whose two
  declared actions are identities (``_relation_set``), so over k it
  imposes none.
* The ground field is realized as the one-dimensional algebra; a junction
  algebra of ``None`` means "over k" (no balancing relations).
* Opposites (memoized, ``x.op().op() is x``, named after the original's
  current name): ``Algebra.op()`` is mu with its columns permuted, column
  i*dim + j of mu_op being column j*dim + i of mu; ``Module.op()`` swaps
  the sides, keyed by opposite algebras.  A space whose factors are all
  opposite modules is the reversal view ``X.op()`` of the space X of the
  originals in reverse order: X's canonical coordinates, with the
  pure-tensor indices reversed.
"""

from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from math import prod
from types import MappingProxyType

from .errors import ActionMismatch, DimensionMismatch
from .exactla import (
    Mat, QuotientSpace, SubspaceBasis, _axpy, _public, guard_dim, kernel, kron_contract,
    kron_id, kron_vec, lincomb, mul_kron_id, solve_right,
)


class Report:
    """Accumulates located axiom failures; empty failures == valid."""

    def __init__(self, subject):
        self.subject = subject
        self.failures = []

    def fail(self, axiom, location=None):
        self.failures.append((axiom, location))

    def merge(self, other, prefix=None):
        for axiom, loc in other.failures:
            self.fail(axiom if prefix is None else f"{prefix}:{axiom}", loc)
        return self

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        if self.ok:
            return f"Report({self.subject}: ok)"
        return f"Report({self.subject}: {len(self.failures)} failures: {self.failures[:4]}...)"


def _fail_cols(report, axiom, residual):
    """Record one failure per nonzero column of a residual matrix."""
    for j in residual.nonzero_cols():
        report.fail(axiom, j)


class _Named:
    """The ``name`` of an algebra or module.  An opposite made by ``op()``
    has none of its own and reads its original's, so ``x.op().name`` is
    ``x.name + "^op"`` even after x is renamed."""

    @property
    def name(self):
        return f"{self._op.name}^op" if self._name is None else self._name

    @name.setter
    def name(self, name):
        self._name = name


class Algebra(_Named):
    """Unital associative algebra over a field, given by structure constants:
    ``mu``, the dim x dim^2 matrix of the multiplication (column i*dim + j
    is e_i e_j), and the unit.  Both are fixed at construction, and ``unit``
    is a new list on every read, so no memo can go stale."""

    def __init__(self, field, name, mu, unit):
        self.field = field
        self.name = name
        self.dim = mu.nrows
        self._mu = mu
        self._unit = tuple(unit)
        self._left_mats = None
        self._cyclic_complexes = {}  # memo of cyclic.cyclic_complex
        self._op = None

    def __repr__(self):
        return f"Algebra({self.name}, dim {self.dim})"

    @property
    def unit(self):
        return list(self._unit)

    def op(self):
        """The opposite algebra on the same basis: e_i *op e_j = e_j e_i."""
        if self._op is None:
            d = self.dim
            mu_op = self._mu.cols_permuted([j * d + i for i in range(d) for j in range(d)], d * d)
            o = Algebra(self.field, None, mu_op, self._unit)
            o._op, self._op = self, o
        return self._op

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v

    def mul_vec(self, a, b):
        return self._mu.apply(kron_vec(self.field, a, b))

    def left_mult_mats(self):
        """L[i] = matrix of left multiplication by e_i: mu's columns i*dim + j."""
        if self._left_mats is None:
            d = self.dim
            self._left_mats = [self._mu.cols_at(range(i * d, (i + 1) * d)) for i in range(d)]
        return self._left_mats

    def right_mult_mats(self):
        """R[j] = matrix of right multiplication by e_j (left in A^op)."""
        return self.op().left_mult_mats()

    def mult_mat(self):
        """dim x dim^2 matrix of the multiplication; column i*dim+j = e_i e_j."""
        return self._mu

    def unit_col(self):
        return Mat.from_cols(self.field, [self._unit], self.dim)

    def left_mult_by(self, vec):
        return lincomb(self.left_mult_mats(), vec)

    def right_mult_by(self, vec):
        return lincomb(self.right_mult_mats(), vec)

    def right_mult_by_matrix(self, fmat, n):
        """The matrix of v -> v F on the row vectors v of alg^n, laid out
        block by block (index a * dim + t), for the n x n matrix F over alg
        given as one Mat whose column a * n + c is F_ac: block (c, a) is
        right multiplication by F_ac."""
        d = self.dim
        return Mat.from_blocks(self.field, n * d, n * d, [
            (c * d, a * d, self.right_mult_by(fmat.col(a * n + c)))
            for a in range(n) for c in range(n)])


def scalar_algebra(field, name="k"):
    return Algebra(field, name, Mat.identity(field, 1), [field.one])


def validate_algebra(a):
    """Associativity on all basis triples and both unit laws, located, as
    residuals of the multiplication."""
    rep = Report(a.name)
    d, mu = a.dim, a.mult_mat()
    for col in (mu @ kron_id(1, mu, d) - mu @ kron_id(d, mu, 1)).nonzero_cols():
        rep.fail("associativity", (col // (d * d), col // d % d, col % d))
    ident, u = Mat.identity(a.field, d), a.unit_col()
    left = set((mu @ u.kron(ident) - ident).nonzero_cols())
    right = set((mu @ ident.kron(u) - ident).nonzero_cols())
    for i in range(d):
        if i in left:
            rep.fail("left-unit", i)
        if i in right:
            rep.fail("right-unit", i)
    return rep


class AlgebraMorphism:
    """Unital algebra map source -> target as a matrix on coordinates."""

    def __init__(self, source, target, matrix):
        if matrix.shape != (target.dim, source.dim):
            raise DimensionMismatch("morphism matrix shape")
        self.source = source
        self.target = target
        self.matrix = matrix

    def apply(self, vec):
        return self.matrix.apply(vec)

    def then(self, other):
        if other.source is not self.target:
            raise ActionMismatch("morphism composition mismatch")
        return AlgebraMorphism(self.source, other.target, other.matrix @ self.matrix)

    @classmethod
    def identity(cls, a):
        return cls(a, a, Mat.identity(a.field, a.dim))


def validate_morphism(m):
    """m(e_i e_j) = m(e_i) m(e_j) on all basis pairs, located, and m(1) = 1."""
    rep = Report(f"{m.source.name}->{m.target.name}")
    src, tgt, f = m.source, m.target, m.matrix
    for col in (f @ src.mult_mat() - tgt.mult_mat() @ f.kron(f)).nonzero_cols():
        rep.fail("multiplicative", divmod(col, src.dim))
    if m.apply(src.unit) != tgt.unit:
        rep.fail("unit", None)
    return rep


class _OpActions(Mapping):
    """Actions of an opposite module or space: alg^op on one side is alg on
    the other side of the original, read and declared in the original's dict."""

    def __init__(self, actions):
        self._actions = actions

    def __getitem__(self, alg):
        return self._actions[alg.op()]

    def __setitem__(self, alg, mats):
        self._actions[alg.op()] = mats

    def __iter__(self):
        return (alg.op() for alg in self._actions)

    def __contains__(self, alg):
        return alg.op() in self._actions

    def __len__(self):
        return len(self._actions)


class _OuterActions(Mapping):
    """An end factor's actions on a tensor space, pushed through its last
    step (its proj and free columns) when first read: ``alg``'s i-th matrix
    is ``proj @ kron_id(pre, m_i, post)`` read at the free columns
    (``@ sect``; the bare kron_id where no relation was imposed), m_i read live
    from the prefix's left action (pre = 1) or the last factor's declared
    right action (post = 1).  With Q = proj (Q' (x) I), S = (S' (x) I) sect
    and Q' S' = I this is Q (m (x) I) S or Q (I (x) m) S, the map
    ``leg_apply`` induces, whether or not m descends."""

    def __init__(self, step, actions, pre, post):
        self._step, self._actions, self._pre, self._post = step, actions, pre, post
        self._pushed = {}

    def __getitem__(self, alg):
        mats = self._pushed.get(alg)
        if mats is None:
            mats = [kron_id(self._pre, m, self._post) for m in self._actions[alg]]
            if self._step is not None:
                proj, cols = self._step
                mats = [(proj @ m).cols_at(cols) for m in mats]
            self._pushed[alg] = mats
        return mats

    def __contains__(self, alg):
        return alg in self._actions

    def __iter__(self):
        return iter(self._actions)

    def __len__(self):
        return len(self._actions)


class Module(_Named):
    """A k-module with declared left/right algebra actions.

    Module elements are dense coordinate vectors.  ``left[alg][i]`` is the
    matrix of the action of the i-th basis element of ``alg``.  Actions for
    new algebras may be added at any time, but a declared action is never
    changed: the tensor-space memo (see ``tensor_space``) relies on that.

    A module is also a one-factor space without relations (``dims``, ``Q``,
    ``S``, ``free``, ``trivial``, ``outer_left``/``outer_right`` are its
    actions).
    """

    is_op = False
    trivial = True

    def __init__(self, field, name, dim):
        self.field = field
        self.name = name
        self.dim = dim
        self.dims = [dim]
        self.free = range(dim)
        self.left = self.outer_left = {}
        self.right = self.outer_right = {}
        self._tensor_spaces = {}  # memo of tensor_space, for spaces led by self
        self._op = None

    def __repr__(self):
        return f"Module({self.name}, dim {self.dim})"

    def op(self):
        """The opposite module, sides swapped; an action declared on either
        one is the opposite action of the other."""
        if self._op is None:
            o = Module(self.field, None, self.dim)
            o.left = o.outer_left = _OpActions(self.right)
            o.right = o.outer_right = _OpActions(self.left)
            o.is_op = True
            o._op, self._op = self, o
        return self._op

    @cached_property
    def Q(self):
        return Mat.identity(self.field, self.dim)

    S = property(lambda self: self.Q)

    def _declare(self, actions, side, alg, mats):
        """Add an action; re-declaring the same matrices is a no-op."""
        old = actions.get(alg)
        if old is None:
            actions[alg] = mats
        elif old != mats:
            raise ActionMismatch(
                f"{self.name}: {alg.name} already acts on the {side} differently")
        return self

    def add_left(self, alg, mats):
        return self._declare(self.left, "left", alg, mats)

    def add_right(self, alg, mats):
        return self._declare(self.right, "right", alg, mats)

    def restrict(self, sub, morphism):
        """Declare both actions of ``sub`` through the existing actions of
        ``morphism.target``; repeating the call is a no-op."""
        imgs = [morphism.apply(sub.basis_vector(i)) for i in range(sub.dim)]
        self.add_left(sub, [self.left_action_of(morphism.target, v) for v in imgs])
        return self.add_right(sub, [self.right_action_of(morphism.target, v) for v in imgs])

    def left_action_of(self, alg, vec):
        return lincomb(self.left[alg], vec)

    def right_action_of(self, alg, vec):
        return lincomb(self.right[alg], vec)

    def left_collapse_mat(self, alg):
        """[S, M] -> M collapse: column (s*dim + m) = e_s acting on e_m."""
        mats = self.left[alg]
        cols = [mats[s].col(m) for s in range(alg.dim) for m in range(self.dim)]
        return Mat.from_cols(self.field, cols, self.dim)

    def right_collapse_mat(self, alg):
        """[M, S] -> M collapse: column (m*dimS + s) = e_m acted by e_s."""
        mats = self.right[alg]
        cols = [mats[s].col(m) for m in range(self.dim) for s in range(alg.dim)]
        return Mat.from_cols(self.field, cols, self.dim)

    def basis_vector(self, i):
        v = [self.field.zero] * self.dim
        v[i] = self.field.one
        return v


def regular_bimodule(a, name=None):
    """The algebra as a bimodule over itself."""
    m = Module(a.field, name or a.name, a.dim)
    m.add_left(a, a.left_mult_mats())
    m.add_right(a, a.right_mult_mats())
    return m


def validate_module(m, lalg=None, ralg=None):
    """Unital (anti-)representation and commutation checks for a bimodule."""
    rep = Report(m.name)
    # e_i e_j acts as e_i then e_j on the left, as e_j then e_i on the right
    for side, alg, rep_label in (("left", lalg, "representation"),
                                 ("right", ralg, "antirepresentation")):
        if alg is None:
            continue
        mats, mu = (m.left if side == "left" else m.right)[alg], alg.mult_mat()
        if lincomb(mats, alg.unit) != Mat.identity(m.field, m.dim):
            rep.fail(f"{side}-unital", None)
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod_ij = mats[i] @ mats[j] if side == "left" else mats[j] @ mats[i]
                if prod_ij != lincomb(mats, mu.col(i * alg.dim + j)):
                    rep.fail(f"{side}-{rep_label}", (i, j))
    if lalg is not None and ralg is not None:
        for i in range(lalg.dim):
            for j in range(ralg.dim):
                if m.left[lalg][i] @ m.right[ralg][j] != \
                        m.right[ralg][j] @ m.left[lalg][i]:
                    rep.fail("bimodule-commute", (i, j))
    return rep


def generated_subalgebra(a, generators):
    """Smallest unital subalgebra containing the generators.

    Returns (Algebra in rref-canonical basis, inclusion AlgebraMorphism);
    the basis spans all words in the generators: the span of the unit and
    the generators closed under right multiplication by each generator.
    """
    f = a.field
    sub_basis = SubspaceBasis.invariant_span(f, a.dim, [a.unit] + list(generators),
                                             [a.right_mult_by(g) for g in generators])
    emb = sub_basis.mat.transpose()  # column u: the basis vector b_u in a
    # column u*dim + v of the subalgebra's mu: the coordinates of b_u b_v
    cols = [sub_basis.membership(c) for c in (a.mult_mat() @ emb.kron(emb)).sparse_cols()]
    assert None not in cols, "closure invariant violated"
    sub = Algebra(f, f"{a.name}-sub", Mat.from_cols(f, cols, sub_basis.dim),
                  sub_basis.membership(a.unit))
    return sub, AlgebraMorphism(sub, a, emb)


def trivial_subalgebra(a):
    """span{1_A} with its inclusion; the default T."""
    return generated_subalgebra(a, [])


# ---------------------------------------------------------------------------
# Balanced tensor spaces
# ---------------------------------------------------------------------------

def _relation_set(alg, right, left):
    """The basis indices of alg whose relation a step imposes: none over k
    (alg None), else all but those x whose declared actions
    ``right[alg][x]`` and ``left[alg][x]`` are both identities, whose
    relation is zero (pushed through a quotient, an identity stays one)."""
    if alg is None:
        return []
    r, l = right[alg], left[alg]
    return [x for x in range(alg.dim) if not (r[x].is_identity() and l[x].is_identity())]


def _require_actions(name, factors, junctions, circular):
    """ActionMismatch unless every action the space's relations read is declared."""
    first, last = factors[0], factors[-1]
    if circular is not None and not (circular in last.right and circular in first.left):
        raise ActionMismatch(f"{name}: circular algebra {circular.name} must act on both ends")
    for t, m, nxt in zip(junctions, factors, factors[1:]):
        if t is not None and t not in m.right:
            raise ActionMismatch(f"{name}: left side lacks a right {t.name}-action")
        if t is not None and t not in nxt.left:
            raise ActionMismatch(f"{name}: {nxt.name} lacks a left {t.name}-action")


class TensorSpace:
    """Left-nested balanced tensor product with canonical quotient data.

    Attributes:
      dims        factor dimensions
      full_dim    product of dims (ambient k-tensor dimension)
      dim         quotient dimension
      Q           projection full -> quotient (canonical coordinates)
      free        the ambient index of each quotient coordinate
      S           section quotient -> full, built from ``free`` when first
                  read: column i is the basis vector at free[i], so S is
                  zero on pivot coordinates (a plain space's S is its Q);
                  it lifts a map's target, while a restriction reads the
                  map's columns at ``free`` (``descend``, ``leg_apply``)
      prefix      the space this one is one step on (see below)
      outer_left  left actions of the first factor's algebras {alg: [Mat]}
      outer_right right actions of the last factor's algebras; both read
                  their actions live and push them through the last step
                  (see ``_OuterActions``), and are empty after a circular
                  quotient, where they are no longer well defined
      trivial     True when there are no relations (Q is invertible, S = Q^-1;
                  except on a reversal view both are one identity Mat, which
                  such a plain space builds only when Q or S is first read)

    A space is one quotient step on its prefix.  With k >= 2 factors the
    prefix is the memoized space of the first k - 1 factors (the first
    module when k = 2), and the step tensors it with the last factor over
    the last junction T, imposing m t (x) n - m (x) t n: the columns of
    ``kron_id(1, R_t, dN) - kron_id(dim prefix, L_t, 1)``, R_t the
    prefix's ``outer_right``.  A circular space's step imposes R_t - L_t
    on its prefix, the balanced space of the same factors, read on that
    space's ``outer_right`` and ``outer_left``; a one-factor space is its
    module.  t runs over ``_relation_set``, the whole basis of T less the
    pairs of identities, so over T = k a step costs nothing, and the
    relations are formed and reduced in row storage
    (``SubspaceBasis.from_balancing``).  The space's Q is the step's
    projection after ``kron_id(1, prefix.Q, dN)``; a plain prefix's Q is
    not read, so the projection alone is Q, and a step without relations
    on a plain prefix stores none.  Spaces with the same first factors
    share prefixes.  The step's section selects its free columns a of
    prefix (x) k^dN, so the space's free indices are
    ``prefix.free[a // dN] * dN + a % dN`` (dN = 1 on a circular step).
    """

    def __init__(self, factors, junctions, circular=None, name=""):
        if len(junctions) != len(factors) - 1:
            raise DimensionMismatch("need one junction per adjacent factor pair")
        field = factors[0].field
        if any(m.field != field for m in factors):
            raise ActionMismatch("mixed fields in tensor space")
        self.field = field
        self.factors = factors
        self.junctions = junctions
        self.circular = circular
        self.dims = [m.dim for m in factors]
        self.full_dim = guard_dim(prod(self.dims), f"tensor space {name or '?'}")
        self.name = name or "(x)".join(m.name for m in factors)
        _require_actions(self.name, factors, junctions, circular)
        last = factors[-1]
        if circular is None and len(factors) > 1:  # a junction step
            prefix = (factors[0] if len(factors) == 2
                      else _memoized(factors[:-1], junctions[:-1], None, ""))
            t, pre, post = junctions[-1], prefix.dim, last.dim
            right, left, declared = prefix.outer_right, last.left, (factors[-2].right, last.left)
        else:  # the circular step, or a one-factor space
            prefix = factors[0] if len(factors) == 1 else _memoized(factors, junctions, None, "")
            t, pre, post = circular, 1, 1
            right, left = prefix.outer_right, prefix.outer_left
            declared = last.right, factors[0].left
        xs = _relation_set(t, *declared)
        amb = prefix.dim * post
        if xs:
            rels = SubspaceBasis.from_balancing(field, amb, pre, post,
                                                [(right[t][x], left[t][x]) for x in xs])
            qs = QuotientSpace(field, amb, rels)
            step, cols = (qs.proj, qs.free_cols), qs.free_cols
            self.Q = qs.proj if _plain(prefix) else qs.proj @ kron_id(1, prefix.Q, post)
        else:  # no relation: on a plain prefix Q = S = I, built when first read
            step, cols = None, range(amb)
            if not _plain(prefix):
                self.Q = kron_id(1, prefix.Q, post)
        self.free = cols if _plain(prefix) else [
            prefix.free[a // post] * post + a % post for a in cols]
        self.prefix = prefix
        self.dim = len(cols)
        self.trivial = self.dim == self.full_dim
        if circular is None:
            self.outer_left = _OuterActions(step, prefix.outer_left, 1, post)
            self.outer_right = _OuterActions(step, last.right, pre, 1)
        else:
            self.outer_left = self.outer_right = MappingProxyType({})
        self._op = None

    @cached_property
    def Q(self):
        """The identity: only a plain space stores no Q."""
        return Mat.identity(self.field, self.dim)

    @cached_property
    def S(self):
        if _plain(self):
            return self.Q
        one = self.field.one
        return Mat.from_entries(self.field, self.full_dim, self.dim,
                                (((f, i), one) for i, f in enumerate(self.free)))

    def __repr__(self):
        return f"TensorSpace({self.name}, {self.full_dim} -> {self.dim})"

    def op(self):
        """The reversal view (see ``_ReversalView``); ``op().op() is self``."""
        if self._op is None:
            self._op = _ReversalView(self)
        return self._op

    def embed_pure(self, vecs):
        """Coordinates of v1 (x) ... (x) vk."""
        if len(vecs) != len(self.factors):
            raise DimensionMismatch("wrong number of tensor legs")
        full = _public(self.field, vecs[0])
        for v in vecs[1:]:
            full = kron_vec(self.field, full, v)
        if len(full) != self.full_dim:
            raise DimensionMismatch(f"pure tensor of length {len(full)} in {self.name}")
        return project_vec(self, full)

    def embed_contracted(self, f, g, inner):
        """Coordinates of the columns of ``kron_contract(f, g, inner)`` on
        a two-factor space: column i * m + j is sum_k F_ik (x) G_kj, the
        ``embed_pure`` of a sum of pure tensors, for every (i, j) at once."""
        prods = kron_contract(f, g, inner)
        return prods if _plain(self) else self.Q @ prods

    def flat_index(self, idxs):
        flat = 0
        for i, d in zip(idxs, self.dims):
            flat = flat * d + i
        return flat


class _ReversalView(TensorSpace):
    """X.op() for a TensorSpace X: the opposite factors of X in reverse
    order, in X's canonical coordinates.  Q is X's Q with its columns, and
    ``free`` (so S's rows) is X's, re-indexed by the factor reversal; the
    outer actions are X's, sides swapped, keyed by opposite algebras."""

    def __init__(self, orig):
        self.field = orig.field
        self.factors = [m.op() for m in reversed(orig.factors)]
        self.junctions = [None if t is None else t.op() for t in reversed(orig.junctions)]
        self.circular = None if orig.circular is None else orig.circular.op()
        self.dims = orig.dims[::-1]
        self.full_dim, self.dim, self.trivial = orig.full_dim, orig.dim, orig.trivial
        self.name = f"{orig.name}^op"
        to_view = _reversal_perm(self.dims)
        self.Q = Mat.from_entries(self.field, orig.dim, orig.full_dim,
                                  (((i, to_view[j]), x) for (i, j), x in orig.Q.items()))
        self.free = [to_view[f] for f in orig.free]
        self.outer_left = _OpActions(orig.outer_right)
        self.outer_right = _OpActions(orig.outer_left)
        self._op = orig


def _reversal_perm(dims):
    """perm[v] = the pure-tensor index over ``dims`` of the tensor whose
    index over the reversed dims is v."""
    perm, stride = [0], 1
    for d in reversed(dims):
        perm = [p + i * stride for p in perm for i in range(d)]
        stride *= d
    return perm


def tensor_space(factors, junctions, circular=None, name=""):
    """Memoized TensorSpace factory; the memo lives on the first factor,
    keyed by the other factors, the junctions and the circular algebra.
    A declared action never changes and the outer actions are read live,
    so an action declared after the build shows on the memoized space.
    When every factor is an opposite module the space is the reversal view
    of the space of the originals in reverse order."""
    if factors and all(m.is_op for m in factors):
        return tensor_space([m.op() for m in reversed(factors)],
                            [None if t is None else t.op() for t in reversed(junctions)],
                            None if circular is None else circular.op(), name).op()
    return _memoized(factors, junctions, circular, name)


def _memoized(factors, junctions, circular, name):
    """``tensor_space``'s memo with no reversal view: a prefix read here
    has its own left-nested coordinates, even with all factors opposite."""
    key = (tuple(factors[1:]), tuple(junctions), circular)
    memo = factors[0]._tensor_spaces
    sp = memo.get(key)
    if sp is None:
        sp = memo[key] = TensorSpace(list(factors), list(junctions), circular, name)
    return sp


def _plain(sp):
    """Q = S = I: a module, or a space without relations that is not a
    reversal view (whose Q and S permute)."""
    return sp.trivial and not isinstance(sp, _ReversalView)


def project_vec(sp, vec):
    """``sp.Q.apply(vec)`` for a dense vector of the field's scalars: the
    vector itself on a plain space, whose identity Q is not built."""
    return vec if _plain(sp) else sp.Q.apply(vec)


def kron_to_quotient(sp, pre, f, post):
    """``sp.Q @ kron_id(pre, f, post)``: kron_id is built only where Q is
    the identity, and is otherwise read through Q (``mul_kron_id``)."""
    return kron_id(pre, f, post) if _plain(sp) else mul_kron_id(sp.Q, pre, f, post)


def descend(W, src):
    """The map ``W @ src.S`` (W's columns at ``src.free``) induced on src's
    quotient by W, given on src's full ambient; None unless it @ src.Q is W."""
    M = W if _plain(src) else W.cols_at(src.free)
    if src.trivial or M @ src.Q == W:
        return M
    return None


def leg_apply(src, tgt, pos, span, fmat):
    """Induced map src -> tgt from ``fmat`` acting on the full k-tensor of
    factors [pos, pos+span) of src: ``kron_to_quotient(tgt, ...)`` read at
    ``src.free`` (``@ src.S``).  ``span = 0`` inserts a new leg (fmat must
    be a column).  The caller knows that the map descends to src's
    quotient; where it does not, ``descend`` is the check."""
    dims = src.dims
    expect = prod(dims[pos:pos + span])
    if fmat.ncols != expect:
        raise DimensionMismatch(
            f"leg map consumes {fmat.ncols}, factors give {expect}")
    W = kron_to_quotient(tgt, prod(dims[:pos]), fmat, prod(dims[pos + span:]))
    return W if _plain(src) else W.cols_at(src.free)


def contract(sp, f):
    """The contraction sp -> M, m (x) x -> m . f(x), of sp's first factor M
    by f, a map from the other factors to R, sp's first junction.  The
    left-hand x (x) m -> f(x) . m (M last) is ``contract(sp.op(), f)``."""
    m, alg = sp.factors[0], sp.junctions[0]
    return leg_apply(sp, m, 0, len(sp.dims), m.right_collapse_mat(alg) @ kron_id(m.dim, f, 1))


# ---------------------------------------------------------------------------
# Equivariant map solving
# ---------------------------------------------------------------------------

# one term of an Equation: sign * J @ kron(I_pre, X, I_post) @ U
Term = namedtuple("Term", "J U sign pre post", defaults=(1, 1, 1))


class Equation:
    """sum of Terms applied to the unknown X equals rhs.

    Every term is sign * J @ kron(I_pre, X, I_post) @ U: pre = post = 1 is
    J @ X @ U, post = d is J @ (X kron I_d) @ U and pre = d is
    J @ (I_d kron X) @ U.  ``label`` names the condition: it is the axiom
    ``check_equations`` reports a failure under.
    """

    def __init__(self, terms, rhs=None, label=""):
        self.terms = terms
        self.rhs = rhs
        self.label = label


def evaluate_equation(X, eq):
    """The residual matrix of one Equation at a concrete X (zero = holds)."""
    total = None
    for t in eq.terms:
        val = kron_id(t.pre, X, t.post)
        val = val if t.J.is_identity() else t.J @ val
        val = val if t.U.is_identity() else val @ t.U
        if t.sign < 0:
            val = -val
        total = val if total is None else total + val
    if eq.rhs is not None:
        total = total - eq.rhs
    return total


def check_equations(report, X, eqs):
    """Record, under each equation's label, the nonzero residual columns of
    X: a verifier evaluates the Equations its solver poses."""
    for eq in eqs:
        _fail_cols(report, eq.label, evaluate_equation(X, eq))


class AffineSolutionSet:
    """All solutions X = particular + span(homogeneous) of a linear system
    in an unknown (tgt_dim x src_dim)-matrix; particular has free variables
    set to zero (deterministic).  ``homogeneous`` is ``kernel`` of the
    system matrix, built when first read; the matrix is dropped then."""

    def __init__(self, field, tgt_dim, src_dim, particular, system):
        self.field = field
        self.tgt_dim = tgt_dim
        self.src_dim = src_dim
        self.particular = particular
        self._system = system

    @cached_property
    def homogeneous(self):
        h = kernel(self._system)
        del self._system
        return h

    @property
    def is_empty(self):
        return self.particular is None

    @property
    def freedom(self):
        return self.homogeneous.dim

    @cached_property
    def directions(self):
        """The homogeneous basis, each row-major flat vector as a matrix."""
        h = self.homogeneous.mat
        return [h.rows_at([i]).reshape(self.tgt_dim, self.src_dim)
                for i in range(h.nrows)]

    def point(self, coeffs=()):
        """particular + sum coeffs[i] * homogeneous[i]."""
        if self.particular is None:
            return None
        terms = [(self.directions[i], c) for i, c in enumerate(coeffs) if c]
        return lincomb([self.particular] + [m for m, _ in terms],
                       [self.field.one] + [c for _, c in terms])

    def __repr__(self):
        st = "empty" if self.is_empty else f"dim {self.freedom}"
        return f"AffineSolutionSet({self.tgt_dim}x{self.src_dim}, {st})"


def hom_solve(field, src_dim, tgt_dim, equations):
    """Solve the joint linear system for the unknown matrix X, whose entry
    (n, i) is the unknown n * src_dim + i; each equation contributes one
    row per entry of its residual, row-major."""
    nunk = tgt_dim * src_dim
    entries, rhs, nrows = [], [], 0
    for eq in equations:
        if not eq.terms:
            continue
        # (o, unknown n*src_dim + i) -> {dd: coefficient} for equation row o*dom_dim + dd
        coeffs = {}
        for t in eq.terms:
            J, U, post = t.J, t.U, t.post
            # U's rows are (a, i, c) and J's columns (a, n, c): a < pre,
            # c < post, i a source and n a target index of X
            urows_by_ac = {}
            for (r, dd), v in U.items():
                a, ic = divmod(r, src_dim * post)
                i, c = divmod(ic, post)
                urows_by_ac.setdefault((a, c), {}).setdefault(i, {})[dd] = v
            for (o, anc), jv in J.items():
                a, nc = divmod(anc, tgt_dim * post)
                n, c = divmod(nc, post)
                s = jv if t.sign > 0 else -jv
                for i, urow in urows_by_ac.get((a, c), {}).items():
                    _axpy(coeffs.setdefault((o, n * src_dim + i), {}), s, urow, field.p)
        dom_dim = U.ncols
        entries.extend(((nrows + o * dom_dim + dd, unknown), v)
                       for (o, unknown), col in coeffs.items() for dd, v in col.items())
        if eq.rhs is not None:
            rhs.extend(((nrows + o * dom_dim + dd, 0), v) for (o, dd), v in eq.rhs.items())
        nrows += J.nrows * dom_dim
    system = Mat.from_entries(field, nrows, nunk, entries)
    particular = solve_right(system, Mat.from_entries(field, nrows, 1, rhs))
    if particular is not None:
        particular = particular.reshape(tgt_dim, src_dim)
    return AffineSolutionSet(field, tgt_dim, src_dim, particular, system)


# -- equation constructors -------------------------------------------------

def eqs_linear(alg, src, tgt, side):
    """Left or right alg-linearity of X: src -> tgt (TensorSpace or Module)."""
    field = src.field
    I_t = Mat.identity(field, tgt.dim)
    I_s = Mat.identity(field, src.dim)
    eqs = []
    for i in range(alg.dim):
        sm = (src.outer_left if side == "left" else src.outer_right)[alg][i]
        tm = (tgt.outer_left if side == "left" else tgt.outer_right)[alg][i]
        eqs.append(Equation([Term(I_t, sm), Term(tm, I_s, -1)],
                            label=f"{side}-linear[{i}]"))
    return eqs


def eq_value(src_vec, tgt_vec, field, tgt_dim):
    """X(src_vec) = tgt_vec."""
    R = Mat.from_cols(field, [src_vec], len(src_vec))
    return Equation([Term(Mat.identity(field, tgt_dim), R)],
                    rhs=Mat.from_cols(field, [tgt_vec], tgt_dim),
                    label="value")


def eq_right_colinear(rho_src, rho_tgt, src, tgt, src_C_space, tgt_C_space, c_dim, label):
    """rho_tgt . X = (X tensor C) . rho_src, both sides into tgt_C_space;
    on the op() of all four spaces it is left colinearity."""
    U = kron_id(1, src.Q, c_dim) @ (src_C_space.S @ rho_src)
    J = kron_to_quotient(tgt_C_space, 1, tgt.S, c_dim)
    return Equation([Term(rho_tgt, Mat.identity(src.field, src.dim)),
                     Term(J, U, -1, post=c_dim)], label=label)


# ---------------------------------------------------------------------------
# Projectivity via dual bases
# ---------------------------------------------------------------------------

class DualBasis:
    """{w_i, chi_i} with x = sum chi_i(x) . w_i (left) or
    x = sum w_i . chi_i(x) (right)."""

    def __init__(self, side, ws, chis, projective, generator):
        self.side = side
        self.ws = ws
        self.chis = chis
        self.projective = projective
        self.generator = generator
        self.faithfully_flat = projective and generator

    def __len__(self):
        return len(self.ws)


def projective_dual_basis(module, alg, side="left"):
    """Dual-basis data for a finitely generated one-sided module.

    Solves for a one-sided-linear section of the free cover built on the
    full basis of the module, so absence of a solution is a certificate of
    non-projectivity.  Flags: projective; generator (trace ideal equals the
    algebra); faithfully flat = projective and generator.  The right-sided
    data of M over S is the left-sided data of M^op over S^op.
    """
    if side == "right":
        db = projective_dual_basis(module.op(), alg.op(), "left")
        db.side = "right"
        return db
    field = module.field
    generators = [module.basis_vector(i) for i in range(module.dim)]
    g = len(generators)
    dS = alg.dim
    cover_dim = g * dS
    cols = [act.apply(gen) for gen in generators for act in module.left[alg]]
    pi = Mat.from_cols(field, cols, module.dim)
    free = Module(field, f"{alg.name}^{g}", cover_dim)
    free.add_left(alg, [kron_id(g, m, 1) for m in alg.left_mult_mats()])
    eqs = eqs_linear(alg, module, free, "left")
    eqs.append(Equation([Term(pi, Mat.identity(field, module.dim))],
                        rhs=Mat.identity(field, module.dim), label="section"))
    sol = hom_solve(field, module.dim, cover_dim, eqs)
    projective = not sol.is_empty
    ws, chis = [], []
    if projective:
        sigma = sol.particular
        for i in range(g):
            chis.append(sigma.rows_at(range(i * dS, (i + 1) * dS)))
            ws.append(list(generators[i]))
    hom_alg = hom_solve(field, module.dim, dS,
                        eqs_linear(alg, module, regular_bimodule(alg), "left"))
    trace = _trace_ideal(alg, hom_alg)
    generator = trace.dim == dS
    return DualBasis("left", ws, chis, projective, generator)


def _trace_ideal(alg, hom_set):
    """Two-sided ideal spanned by values of all one-sided-linear maps M -> S."""
    pts = [] if hom_set.particular is None else [hom_set.particular]
    pts += hom_set.directions
    vals = [col for pt in pts for col in pt.sparse_cols()]
    return SubspaceBasis.invariant_span(alg.field, alg.dim, vals,
                                        alg.left_mult_mats() + alg.right_mult_mats())


def verify_dual_basis(module, alg, db):
    """x = sum chi_i(x) w_i (left) / sum w_i chi_i(x) (right), exactly:
    sum_i of the left collapse of chi_i (x) w_i is the identity; the right
    identity is the left one over M^op."""
    field = module.field
    if db.side == "right":
        module, alg = module.op(), alg.op()
    d = module.dim
    total = sum((chi.kron(Mat.from_cols(field, [w], d)) for w, chi in zip(db.ws, db.chis)),
                Mat.zeros(field, alg.dim * d, d))
    return (module.left_collapse_mat(alg) @ total).is_identity()
