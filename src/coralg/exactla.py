"""Exact sparse linear algebra over Q and F_p.

Conventions, binding for the whole package:

* Scalars over Q are ``fractions.Fraction`` values; scalars over F_p are
  plain ints in ``[0, p)``.  Both are falsy exactly when zero, which the
  sparse kernels rely on.
* The row storage (``Mat._rows`` and the echelon rows) keeps each value in
  the form that makes its arithmetic cheapest.  Over F_p a value is its
  balanced residue, the unique int in ``[-((p - 1) // 2), p // 2]``
  (``{0, 1}`` for p = 2), so the structure constants' -1 stays the small
  int -1 instead of p - 1.  Over Q the constructors and ``kernel`` store
  an integral value as a plain int, a non-integral one as a Fraction;
  arithmetic results may hold an integral Fraction, equal to that int but
  on the slower path.  Each field picks its converter pair once:
  ``_to_stored`` normalizes the constructors' entries and the scalars
  entering a kernel, and ``_to_public`` turns a stored value (or, over
  F_p, any int) back into the field's scalar for every accessor.  Every
  stored form equals its value, so equality, the zero test and every rref
  are the same as on the public scalars.
* Scalars combine with native operators; ``Field`` holds no per-scalar
  arithmetic, only the boundary helpers (``from_int``, ``inv``, ``parse``,
  ``fmt``).  Constants come from ``from_int``, so a QQ value outside the
  row storage is never a bare int.
* One private kernel does all vector arithmetic: ``_axpy`` updates a
  sparse row dict in place, reduces a value to its balanced residue only
  when p is given and the value leaves the balanced range, and drops the
  zeros it creates.  Dense vectors are lists of public scalars: they are
  reduced where they leave a Mat (every accessor converts its values with
  ``_to_public``), and list arithmetic on them is passed through
  ``_public`` when its result is read as a vector rather than handed to a
  Mat.
* A matrix represents a linear map; column ``j`` is the image of the j-th
  basis vector.  Vectors are dense python lists.  An n x m matrix whose
  entries lie in k^d is one d x (n * m) Mat whose column i * m + j is the
  (i, j) entry; ``kron_contract`` multiplies two of them.
* Matrices store only nonzero entries, one dict per row.  That storage
  (``Mat._rows``) is read and built only in this module.  Elsewhere a Mat
  is built by ``zeros``, ``identity``, ``from_entries``, ``from_rows``,
  ``from_cols``, ``from_blocks`` (several at once by ``assemble``),
  ``kron_id``, ``KronSum`` (a ``lincomb`` of relabelled ``kron_id`` with
  no term built), ``mul_kron_id`` (a product ``a @ kron_id(pre, f, post)``
  with no row of kron_id built), ``kron_contract``, ``cols_permuted`` or
  an operation on other matrices,
  and read by ``get``, ``col``, ``row_list``, ``to_lists``, ``items``,
  ``sparse_cols``, ``nonzero_cols``, ``rows_at``, ``cols_at``,
  ``reshape``, ``apply``, ``nnz``, ``is_zero`` and ``is_identity``.  No Mat is mutated after
  construction.
* Subspaces are always presented by their unique reduced row echelon basis
  (pivot columns ascending), so subspace equality is basis equality and
  canonical coordinates are plain lists of scalars.  The span of the
  columns of some Mats is ``SubspaceBasis.from_columns``, which reduces
  the stored columns with no public-scalar round trip, and the span of
  the balancing relations ``kron_id(1, r, post) - kron_id(pre, l, 1)`` is
  ``SubspaceBasis.from_balancing``, which forms each column from one
  column of r and one of l.  The smallest subspace that contains some
  vectors and is invariant under some Mats is
  ``SubspaceBasis.invariant_span``, grown by one breadth-first worklist.
* Quotients use the non-pivot ("free") coordinates of the rref of the
  relation span; the section picks the representative with zero pivot
  coordinates.  ``QuotientSpace(field, n, SubspaceBasis.from_columns(...))``
  is the quotient by a column span.
* Scalars serialize as strings: ``"a/b"`` for reduced rationals with b > 1,
  ``"n"`` for integers (reduced mod p over a prime field).

Everything here is immutable after construction and all operations are pure.
"""

from fractions import Fraction as _QQ_SCALAR
from functools import cached_property

from .errors import DimensionMismatch, MemoryGuard

#: Hard guard on any ambient dimension this module is asked to materialize.
DIMENSION_GUARD = 2_000_000


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _qq_in(v):
    """A QQ value as the row storage holds it: an int when integral."""
    return int(v) if v.denominator == 1 else v


def _qq_out(v):
    """A stored QQ value as the QQ scalar type."""
    return _QQ_SCALAR(v) if type(v) is int else v


#: p -> (lo, hi), the bounds -((p - 1) // 2) and p // 2 of the balanced
#: residues mod p, for every p a Field was built for: the kernels are handed
#: only p, and computing the bounds on each call costs more than this lookup.
_BALANCED = {}


def _fp_in(p):
    """The converter of an int to its balanced residue mod p, the one in
    [lo, hi]; registers the bounds for the kernels."""
    lo, hi = _BALANCED.setdefault(p, ((p >> 1) + 1 - p, p >> 1))

    def stored(v):
        return v if lo <= v <= hi else (v - lo) % p + lo
    return stored


class Field:
    """A FieldSpec: the rationals, or a prime field F_p with 2 <= p < 2**31.

    ``p`` is None over Q; it is the modulus every kernel reduces by.
    ``_to_stored`` and ``_to_public`` convert one scalar into and out of
    the row storage (see the module docstring).
    """

    def __init__(self, kind, p=None):
        if kind not in ("rationals", "prime-field"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "prime-field":
            if p is None or not (2 <= p < 2**31) or not _is_prime(p):
                raise ValueError(f"modulus {p!r} is not a prime in [2, 2^31)")
        elif p is not None:
            raise ValueError("rationals take no modulus")
        self.kind = kind
        self.p = p
        if kind == "rationals":
            self.zero = _QQ_SCALAR(0)
            self.one = _QQ_SCALAR(1)
            self._to_stored, self._to_public = _qq_in, _qq_out
        else:
            self.zero = 0
            self.one = 1 % p
            self._to_stored, self._to_public = _fp_in(p), p.__rmod__

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return self.one / a
        return pow(a, -1, self.p)

    def from_int(self, n):
        return _QQ_SCALAR(n) if self.p is None else n % self.p

    def parse(self, s):
        """Parse ``"a/b"`` or ``"n"`` (ints also accepted directly)."""
        if isinstance(s, int):
            return self.from_int(s)
        s = s.strip()
        if self.p is None:
            return _QQ_SCALAR(s)
        if "/" in s:
            a, b = s.split("/")
            return self.from_int(int(a)) * self.inv(self.from_int(int(b))) % self.p
        return self.from_int(int(s))

    def fmt(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field("rationals")


def GF(p):
    return Field("prime-field", p)


def guard_dim(n, what="space"):
    if n > DIMENSION_GUARD:
        raise MemoryGuard(f"{what} would have dimension {n} > {DIMENSION_GUARD}")
    return n


def _public(field, values):
    """A list of stored values (over F_p, of any ints) as a new list of the
    field's scalars."""
    return list(map(field._to_public, values))


def _axpy(dst, c, src, p):
    """``dst += c * src`` in place on sparse dicts, for a nonzero scalar c;
    when p is set, a value leaving the balanced range is reduced to its
    balanced residue, and entries that cancel are dropped.  This is the one
    sparse row update of the package, one loop per field kind.  Returns
    ``dst``."""
    if p is None:
        for j, v in src.items():
            w = dst.get(j)
            w = c * v if w is None else w + c * v
            if w:
                dst[j] = w
            else:
                del dst[j]
        return dst
    lo, hi = _BALANCED[p]
    for j, v in src.items():
        w = dst.get(j)
        w = c * v if w is None else w + c * v
        if not lo <= w <= hi:
            w = (w - lo) % p + lo
        if w:
            dst[j] = w
        else:
            del dst[j]
    return dst


class Mat:
    """Sparse exact matrix; row dicts hold only nonzero entries.

    The row storage ``_rows`` is private to this module: other modules build
    a Mat through the named constructors and read it through the accessors.
    """

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field, nrows, ncols, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows if rows is not None else [{} for _ in range(nrows)]

    # -- constructors ---------------------------------------------------
    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, nrows, ncols)

    @classmethod
    def identity(cls, field, n):
        one = field._to_stored(field.one)
        return cls(field, n, n, [{i: one} for i in range(n)])

    @classmethod
    def from_entries(cls, field, nrows, ncols, entries):
        """The matrix with the entries ``((i, j), v)``, streamed straight into
        the rows; zeros are skipped and a repeated (i, j) keeps its last v."""
        rows = [{} for _ in range(nrows)]
        stored = field._to_stored
        for (i, j), v in entries:
            if v and (v := stored(v)):  # over F_p, a nonzero v may be 0 mod p
                rows[i][j] = v
        return cls(field, nrows, ncols, rows)

    @classmethod
    def from_rows(cls, field, data, ncols=None):
        """Dense list-of-lists (or list of dicts) -> Mat."""
        nrows = len(data)
        if ncols is None:
            if nrows == 0:
                raise DimensionMismatch("cannot infer ncols from empty data")
            ncols = len(data[0])
        rows = []
        for r in data:
            if not isinstance(r, dict) and len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            rows.append(_sparse(field, r, ncols))
        return cls(field, nrows, ncols, rows)

    @classmethod
    def from_cols(cls, field, cols, nrows):
        return cls.from_entries(field, nrows, len(cols),
                                (((i, j), v) for j, c in enumerate(cols)
                                 for i, v in enumerate(c)))

    @classmethod
    def from_blocks(cls, field, nrows, ncols, blocks):
        """Block assembly: each ``(roff, coff, m)`` places m with its (0, 0)
        entry at (roff, coff); where blocks overlap the later one wins.  A
        ``KronSum`` m is added there instead (see ``assemble``)."""
        rows = [{} for _ in range(nrows)]
        for roff, coff, m in blocks:
            _place(rows, roff, coff, m)
        return cls(field, nrows, ncols, rows)

    # -- access ---------------------------------------------------------
    def get(self, i, j):
        return self.field._to_public(self._rows[i].get(j, self.field.zero))

    def col(self, j):
        """Column j as a dense list."""
        z = self.field.zero
        return _public(self.field, [r.get(j, z) for r in self._rows])

    def row_list(self, i):
        z = self.field.zero
        r = self._rows[i]
        return _public(self.field, [r.get(j, z) for j in range(self.ncols)])

    def to_lists(self):
        return [self.row_list(i) for i in range(self.nrows)]

    def items(self):
        """The nonzero entries as ``((i, j), v)``, row by row."""
        out = self.field._to_public
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                yield (i, j), out(v)

    def sparse_cols(self):
        """Every column as a new sparse dict (the rows of the transpose)."""
        out = self.field._to_public
        return [dict(zip(c, map(out, c.values()))) for c in self.transpose()._rows]

    def nonzero_cols(self):
        """The indices of the nonzero columns, ascending."""
        return sorted({j for r in self._rows for j in r})

    def rows_at(self, rows):
        """The rows with the indices ``rows``, in that order, as a new matrix."""
        own = self._rows
        return Mat(self.field, len(rows), self.ncols, [dict(own[i]) for i in rows])

    def cols_at(self, cols):
        """The columns with the distinct indices ``cols``, in that order, as
        a new matrix: ``self @ S`` for the S whose column i is the basis
        vector at ``cols[i]``, with no row of S built."""
        at = {j: i for i, j in enumerate(cols)}
        return Mat(self.field, self.nrows, len(at),
                   [{at[j]: v for j, v in r.items() if j in at} for r in self._rows])

    def reshape(self, nrows, ncols):
        """The same entries, read row-major, in an nrows x ncols matrix."""
        if nrows * ncols != self.nrows * self.ncols:
            raise DimensionMismatch(f"reshape {self.shape} to {(nrows, ncols)}")
        n = self.ncols
        return Mat.from_entries(self.field, nrows, ncols,
                                ((divmod(i * n + j, ncols), v) for (i, j), v in self.items()))

    def nnz(self):
        return sum(len(r) for r in self._rows)

    def is_zero(self):
        return all(not r for r in self._rows)

    def is_identity(self):
        one = self.field._to_stored(self.field.one)  # the int 1: no Fraction.__eq__ per row
        return self.nrows == self.ncols and all(
            len(r) == 1 and r.get(i) == one for i, r in enumerate(self._rows))

    # -- algebra ----------------------------------------------------------
    def _check_same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def _plus(self, c, other):
        """self + c * other, for a nonzero scalar c."""
        self._check_same_shape(other)
        p = self.field.p
        c = self.field._to_stored(c)
        rows = [_axpy(dict(ra), c, rb, p) for ra, rb in zip(self._rows, other._rows)]
        return Mat(self.field, self.nrows, self.ncols, rows)

    def __add__(self, other):
        return self._plus(self.field.one, other)

    def __sub__(self, other):
        return self._plus(self.field.from_int(-1), other)

    def __neg__(self):
        return self.scale(self.field.from_int(-1))

    def scale(self, c):
        c = self.field._to_stored(c)
        if not c:
            return Mat(self.field, self.nrows, self.ncols)
        p = self.field.p
        return Mat(self.field, self.nrows, self.ncols,
                   [_axpy({}, c, r, p) for r in self._rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        p = self.field.p
        orows = other._rows
        rows = []
        for ra in self._rows:
            acc = {}
            for k, a in ra.items():
                _axpy(acc, a, orows[k], p)
            rows.append(acc)
        return Mat(self.field, self.nrows, other.ncols, rows)

    def apply(self, vec):
        """Matrix times dense column vector -> dense list."""
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"{self.shape} applied to length {len(vec)}")
        zero = self.field.zero
        out = []
        for r in self._rows:
            s = zero
            for j, v in r.items():
                x = vec[j]
                if x:
                    s += v * x
            out.append(s)
        return _public(self.field, out)

    def transpose(self):
        rows = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self._rows):
            for j, v in r.items():
                rows[j][i] = v
        return Mat(self.field, self.ncols, self.nrows, rows)

    def cols_permuted(self, perm, ncols):
        """The nrows x ncols matrix whose column ``perm[j]`` is column j of
        self; ``perm`` is a list mapping range(self.ncols) injectively into
        range(ncols).  Only column labels change, so no entry is combined."""
        return Mat(self.field, self.nrows, ncols,
                   [{perm[j]: v for j, v in r.items()} for r in self._rows])

    def kron(self, other):
        """Kronecker product; index (i1,i2) -> i1*other.nrows + i2, same for columns."""
        guard_dim(self.nrows * other.nrows, "kron")
        p = self.field.p
        lo, hi = _BALANCED.get(p, (None, None))
        rows = [{} for _ in range(self.nrows * other.nrows)]
        on = other.ncols
        for i1, r1 in enumerate(self._rows):
            if not r1:
                continue
            base_i = i1 * other.nrows
            for i2, r2 in enumerate(other._rows):
                if not r2:
                    continue
                tgt = rows[base_i + i2]
                for j1, v1 in r1.items():
                    bj = j1 * on
                    for j2, v2 in r2.items():
                        w = v1 * v2
                        if p is not None and not lo <= w <= hi:
                            w = (w - lo) % p + lo
                        tgt[bj + j2] = w
        return Mat(self.field, self.nrows * other.nrows, self.ncols * other.ncols, rows)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.shape == other.shape
                and self.field == other.field and self._rows == other._rows)

    def __hash__(self):
        return id(self)

    def __repr__(self):
        if self.nrows * self.ncols <= 64:
            body = "; ".join(" ".join(self.field.fmt(v) for v in self.row_list(i))
                             for i in range(self.nrows))
            return f"Mat({self.nrows}x{self.ncols}: {body})"
        return f"Mat({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def kron_id(pre, f, post):
    """kron(I_pre, f, I_post) built directly, sparse; an identity f gives
    ``Mat.identity`` of the product size, with no row of f copied."""
    if pre == post == 1:
        return f
    if f.is_identity():
        return Mat.identity(f.field, pre * f.nrows * post)
    nc = f.ncols
    rows = [{(a * nc + j) * post + c: v for j, v in r.items()}
            for a in range(pre) for r in f._rows for c in range(post)]
    return Mat(f.field, pre * f.nrows * post, pre * nc * post, rows)


def _kron_rows(pre, f, post, perm, coff):
    """The rows of ``kron_id(pre, f, post)``, made one at a time, with
    column k relabelled ``perm[k]`` (as ``Mat.cols_permuted``; None keeps
    it) and then moved right by ``coff``."""
    nc = f.ncols
    for a in range(pre):
        for r in f._rows:
            for c in range(post):
                base = a * nc * post + c
                if perm is None:
                    yield {coff + base + j * post: v for j, v in r.items()}
                else:
                    yield {coff + perm[base + j * post]: v for j, v in r.items()}


class KronSum:
    """The sum of ``coeffs[i]`` times ``kron_id(pre, f, post)`` with its
    columns relabelled by ``perm`` (a permutation of them, or None), for
    ``terms[i] = (pre, f, post, perm)``, with no term built: ``assemble``
    adds each term's rows, made one at a time, straight into the rows the
    sum is placed at, term after term as ``lincomb`` adds built terms, so
    every row holds the same entries in the same order.  ``mat()`` is the
    sum on its own."""

    def __init__(self, terms, coeffs):
        shapes = {(pre * f.nrows * post, pre * f.ncols * post) for pre, f, post, _ in terms}
        if len(shapes) != 1:
            raise DimensionMismatch(f"terms of shapes {sorted(shapes)} in one sum")
        (self.nrows, self.ncols), = shapes
        self.field, self.terms, self.coeffs = terms[0][1].field, terms, coeffs

    def _add_into(self, rows, coff):
        p = self.field.p
        stored = self.field._to_stored
        for (pre, f, post, perm), c in zip(self.terms, self.coeffs):
            c = c and stored(c)  # a nonzero c may still be 0 mod p
            if c:
                for dst, src in zip(rows, _kron_rows(pre, f, post, perm, coff)):
                    _axpy(dst, c, src, p)

    def mat(self):
        return Mat.from_blocks(self.field, self.nrows, self.ncols, [(0, 0, self)])


def assemble(field, shapes, blocks):
    """One Mat per ``(nrows, ncols)`` in ``shapes``, from the blocks
    ``(k, roff, coff, m)`` read in turn: a Mat m is placed in matrix k with
    its (0, 0) entry at (roff, coff), where blocks overlap the later one
    winning, and a ``KronSum`` m is added into the rows there.  Each block
    is let go once placed, so a generator of blocks that builds them as
    they are read holds no more than the block it is building."""
    mats = [[{} for _ in range(nrows)] for nrows, _ in shapes]
    for k, roff, coff, m in blocks:
        _place(mats[k], roff, coff, m)
        del m
    return [Mat(field, nrows, ncols, rows) for (nrows, ncols), rows in zip(shapes, mats)]


def _place(rows, roff, coff, m):
    """Place the Mat m into ``rows`` with its (0, 0) entry at (roff, coff),
    overwriting what is there, or add the ``KronSum`` m there."""
    rows = rows[roff:roff + m.nrows]
    if isinstance(m, KronSum):
        m._add_into(rows, coff)
        return
    for tgt, r in zip(rows, m._rows):
        tgt.update({coff + j: v for j, v in r.items()} if coff else r)


def mul_kron_id(a, pre, f, post):
    """``a @ kron_id(pre, f, post)``, with no row of kron_id built: the entry
    of a row of ``a`` at (x * f.nrows + y) * post + z adds that multiple of
    row y of f, its column j relabelled (x * f.ncols + j) * post + z."""
    nr, nc = f.nrows, f.ncols
    if a.ncols != pre * nr * post:
        raise DimensionMismatch(f"{a.shape} @ kron_id({pre}, {f.shape}, {post})")
    p = a.field.p
    frows = f._rows
    rows = []
    for ra in a._rows:
        acc = {}
        for k, v in ra.items():
            xy, z = divmod(k, post)
            x, y = divmod(xy, nr)
            base = x * nc * post + z
            _axpy(acc, v, {base + j * post: w for j, w in frows[y].items()}, p)
        rows.append(acc)
    return Mat(a.field, a.nrows, pre * nc * post, rows)


def _dense(field, rowdict, n):
    """A sparse dict (of stored values, or over F_p of any ints) as a dense
    vector of the field's scalars, of length n."""
    v = [field.zero] * n
    out = field._to_public
    for j, x in rowdict.items():
        v[j] = out(x)
    return v


def kron_vec(field, u, v):
    """Kronecker product of dense vectors, leftmost factor slowest."""
    return _public(field, [a * b for a in u for b in v])


def kron_contract(f, g, inner):
    """The product of an n x inner matrix F and an inner x m matrix G whose
    entries lie in k^a and k^b, each given as one Mat whose column
    i * ncols + j is its (i, j) entry: the (a * b) x (n * m) Mat whose
    column i * m + j is sum_k F_ik (x) G_kj (``kron`` index order).  It is
    ``f.kron(g) @ K`` for the 0/1 matrix K that keeps the column pairs
    (i, k), (k', j) with k = k' and sums over k, built with neither."""
    n, m = (f.ncols // inner, g.ncols // inner) if inner else (0, 0)
    if (n * inner, m * inner) != (f.ncols, g.ncols):
        raise DimensionMismatch(f"{f.shape} and {g.shape} over {inner} inner indices")
    guard_dim(f.nrows * g.nrows, "kron_contract")
    p = f.field.p
    # each row of g as {k: {j: value}}, the entries of its inner row k
    g_by_k = []
    for r in g._rows:
        by_k = {}
        for kj, v in r.items():
            k, j = divmod(kj, m)
            by_k.setdefault(k, {})[j] = v
        g_by_k.append(by_k)
    rows = []
    for r1 in f._rows:
        for by_k in g_by_k:
            acc = {}
            for ik, v in r1.items():
                i, k = divmod(ik, inner)
                blk = by_k.get(k)
                if blk:
                    _axpy(acc, v, {i * m + j: w for j, w in blk.items()}, p)
            rows.append(acc)
    return Mat(f.field, f.nrows * g.nrows, n * m, rows)


def lincomb(mats, coeffs):
    """sum of coeffs[i] * mats[i]; ``mats`` is non-empty, all of one shape."""
    first = mats[0]
    p = first.field.p
    rows = [{} for _ in range(first.nrows)]
    stored = first.field._to_stored
    for i, c in enumerate(coeffs):
        c = c and stored(c)  # a nonzero c may still be 0 mod p
        if c:
            first._check_same_shape(mats[i])
            for dst, src in zip(rows, mats[i]._rows):
                _axpy(dst, c, src, p)
    return Mat(first.field, first.nrows, first.ncols, rows)


class _Echelon:
    """Incremental row echelon form; ``close()`` yields the canonical rref.

    Rows are dicts; every inserted row is first reduced against the current
    pivots.  A row may carry an augmented part, to which the same reduction
    is applied (``solve_right``).
    """

    def __init__(self, field):
        self.field = field
        self.rows = []          # echelon rows, pivot normalized to 1
        self.augs = []
        self.pivot_of_row = []  # pivot column per row
        self.pivot_rows = {}    # pivot column -> row index

    def _reduce(self, row, aug):
        p = self.field.p
        while True:
            hit = None
            for j in row:
                if j in self.pivot_rows:
                    hit = j
                    break
            if hit is None:
                return row, aug
            ri = self.pivot_rows[hit]
            c = -row[hit]
            _axpy(row, c, self.rows[ri], p)
            if aug is not None:
                _axpy(aug, c, self.augs[ri], p)

    def add(self, row, aug=None):
        """Insert a row (a dict without zeros, which the echelon now owns:
        a caller that keeps it passes a copy) with its augmented part aug
        (a dict or None); returns True if the rank grew.  When it did not,
        aug is left reduced in place: the combination of augmented parts
        that goes with the zero row."""
        self._reduce(row, aug)
        if not row:
            return False
        piv = min(row)
        if row[piv] != 1:  # normalize the pivot to 1
            c = self.field._to_stored(self.field.inv(row[piv]))
            p = self.field.p
            row = _axpy({}, c, row, p)
            row[piv] = 1
            if aug is not None:
                aug = _axpy({}, c, aug, p)
        self.rows.append(row)
        self.augs.append(aug if aug is not None else {})
        self.pivot_of_row.append(piv)
        self.pivot_rows[piv] = len(self.rows) - 1
        return True

    @property
    def rank(self):
        return len(self.rows)

    def close(self):
        """Back-eliminate to the unique rref; sort rows by pivot column."""
        order = sorted(range(len(self.rows)), key=lambda i: self.pivot_of_row[i])
        rows = [self.rows[i] for i in order]
        augs = [self.augs[i] for i in order]
        pivots = [self.pivot_of_row[i] for i in order]
        pivot_rows = {pc: i for i, pc in enumerate(pivots)}
        p = self.field.p
        # the rows below row i are already reduced, so each holds no pivot
        # column but its own: eliminating one of row i's pivot entries leaves
        # its others as they are, and row i needs only the pivot columns it
        # holds, taken in ascending order
        for i in range(len(rows) - 1, -1, -1):
            row, aug = rows[i], augs[i]
            for j in sorted(j for j in row if j > pivots[i] and j in pivot_rows):
                k = pivot_rows[j]
                c = row[j]
                _axpy(row, -c, rows[k], p)
                _axpy(aug, -c, augs[k], p)
        self.rows, self.augs, self.pivot_of_row = rows, augs, pivots
        self.pivot_rows = pivot_rows
        return self


def _sparse(field, v, dim):
    """A vector of length ``dim``, a dense list or a sparse dict, as a new
    sparse dict without zeros, normalized like the row storage."""
    if isinstance(v, dict):
        entries = v.items()
    elif len(v) != dim:
        raise DimensionMismatch("vector length != ambient dim")
    else:
        entries = enumerate(v)
    stored = field._to_stored
    return {j: y for j, x in entries if x and (y := stored(x))}


class SubspaceBasis:
    """A subspace given by its canonical rref basis (rows of ``mat``)."""

    def __init__(self, field, ambient_dim, mat, pivot_cols):
        self.field = field
        self.ambient_dim = ambient_dim
        self.mat = mat
        self.pivot_cols = list(pivot_cols)

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        """The span of ``vectors`` (dense lists or sparse dicts)."""
        ech = _Echelon(field)
        for v in vectors:
            ech.add(_sparse(field, v, ambient_dim))
        return cls._from_echelon(field, ambient_dim, ech)

    @classmethod
    def from_columns(cls, field, ambient_dim, mats):
        """The span of the columns of every Mat in ``mats`` (each with
        ``ambient_dim`` rows), reduced in row storage: no column is read
        out as public scalars."""
        ech = _Echelon(field)
        for m in mats:
            if m.nrows != ambient_dim:
                raise DimensionMismatch(f"columns of length {m.nrows} in k^{ambient_dim}")
            for col in m.transpose()._rows:
                if col:
                    ech.add(col)
        return cls._from_echelon(field, ambient_dim, ech)

    @classmethod
    def from_balancing(cls, field, ambient_dim, pre, post, pairs):
        """The span of the columns of ``kron_id(1, r, post) - kron_id(pre, l, 1)``
        for every pair ``(r, l)`` of Mats, with neither kron_id nor the
        difference built: column a * post + c of the first term is column a
        of r with row i moved to i * post + c, and column b * l.ncols + m of
        the second is column m of l moved down by b * l.nrows."""
        p = field.p
        minus_one = field._to_stored(field.from_int(-1))
        ech = _Echelon(field)
        for r, l in pairs:
            shape = (r.nrows * post, r.ncols * post)
            if shape != (pre * l.nrows, pre * l.ncols) or shape[0] != ambient_dim:
                raise DimensionMismatch(f"pair {r.shape}, {l.shape} in k^{ambient_dim}")
            rcols, lcols = r.transpose()._rows, l.transpose()._rows
            for j in range(shape[1]):
                a, c = divmod(j, post)
                b, m = divmod(j, l.ncols)
                rcol, lcol = rcols[a], lcols[m]
                if not (rcol or lcol):
                    continue
                col = {i * post + c: v for i, v in rcol.items()}
                if lcol:
                    _axpy(col, minus_one, {b * l.nrows + i: v for i, v in lcol.items()}, p)
                if col:
                    ech.add(col)
        return cls._from_echelon(field, ambient_dim, ech)

    @classmethod
    def invariant_span(cls, field, ambient_dim, vectors, mats):
        """The smallest subspace containing ``vectors`` (dense lists or
        sparse dicts) and invariant under every square Mat in ``mats``,
        grown breadth first in row storage: the images of a row are formed
        only when it raises the rank, so every image of the span is in the
        span when the worklist is exhausted."""
        p = field.p
        images = [m.transpose()._rows for m in mats]
        ech = _Echelon(field)
        todo = []
        for vec in vectors:
            row = _sparse(field, vec, ambient_dim)
            if ech.add(dict(row)):
                todo.append(row)
        for row in todo:  # grows as it is read
            for cols in images:
                img = {}
                for j, x in row.items():
                    _axpy(img, x, cols[j], p)
                if ech.add(dict(img)):
                    todo.append(img)
        return cls._from_echelon(field, ambient_dim, ech)

    @classmethod
    def _from_echelon(cls, field, ambient_dim, ech):
        ech.close()
        mat = Mat(field, ech.rank, ambient_dim, [dict(r) for r in ech.rows])
        return cls(field, ambient_dim, mat, ech.pivot_of_row)

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim, Mat.identity(field, ambient_dim),
                   list(range(ambient_dim)))

    @property
    def dim(self):
        return self.mat.nrows

    def membership(self, v):
        """Coordinates of v (a dense list or a sparse dict) in this basis,
        or None if v is outside."""
        residue = _sparse(self.field, v, self.ambient_dim)
        p = self.field.p
        coords = [self.field.zero] * self.dim
        for i, piv in enumerate(self.pivot_cols):
            c = residue.get(piv)
            if not c:
                continue
            coords[i] = c
            _axpy(residue, -c, self.mat._rows[i], p)
        if residue:
            return None
        return _public(self.field, coords)

    def restrict(self, m):
        """The matrix of the square Mat ``m`` on this subspace, in its
        canonical coordinates, or None when m does not preserve it."""
        cols = [self.membership(img) for img in (self.mat @ m.transpose())._rows]
        if None in cols:
            return None
        return Mat.from_cols(self.field, cols, self.dim)

    def contains_vector(self, v):
        return self.membership(v) is not None

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis)
                and self.ambient_dim == other.ambient_dim and self.mat == other.mat)

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in k^{self.ambient_dim})"


def _free_vectors(field, ncols, pivot_cols, rref_rows):
    """The free columns f of an rref and, for each, e_f minus the pivot
    entries of column f: a kernel basis, and the rows of the canonical
    quotient projection by the row space."""
    pivset = set(pivot_cols)
    free = [f for f in range(ncols) if f not in pivset]
    # column f's pivot entries, keyed in pivot order: rows are read in
    # pivot order, so each column's dict is filled in that order
    cols = {}
    for piv, row in zip(pivot_cols, rref_rows):
        for f, x in row.items():
            if f not in pivset:
                cols.setdefault(f, {})[piv] = x
    one, minus_one = (field._to_stored(field.from_int(n)) for n in (1, -1))
    vecs = []
    for f in free:
        v = {f: one}
        _axpy(v, minus_one, cols.get(f, {}), field.p)
        vecs.append(v)
    return free, vecs


def _reversed_echelon(m):
    """The rows of m inserted into one elimination with column j relabelled
    ``m.ncols - 1 - j``: its rank is m's, and its rref holds ker m (see
    ``kernel``)."""
    last = m.ncols - 1
    ech = _Echelon(m.field)
    for r in m._rows:
        ech.add({last - j: v for j, v in r.items()})
    return ech


def kernel(m):
    """The canonical rref basis of ker m, from one elimination.  With the
    columns reversed, each free vector of the rref is 1 at its free column
    f and nonzero only at pivot columns below f; relabelled back, f is its
    leading column and every other entry lies at no other vector's leading
    column, so the free vectors, in reverse order, are already the rref."""
    n, last = m.ncols, m.ncols - 1
    ech = _reversed_echelon(m).close()
    free, vecs = _free_vectors(m.field, n, ech.pivot_of_row, ech.rows)
    stored = m.field._to_stored  # the elimination may leave an integral Fraction
    rows = [{last - j: stored(v) for j, v in vec.items()} for vec in reversed(vecs)]
    return SubspaceBasis(m.field, n, Mat(m.field, len(rows), n, rows),
                         [last - f for f in reversed(free)])


def rank(m):
    """The rank of m, by the elimination of ``kernel`` left unclosed."""
    return _reversed_echelon(m).rank


def solve_right(m, b):
    """X with m @ X = b, free variables zero, or None if some column of b is
    inconsistent: one elimination of m augmented by b."""
    if b.nrows != m.nrows:
        raise DimensionMismatch("rhs row count differs from matrix")
    ech = _Echelon(m.field)
    for r, aug in zip(m._rows, b._rows):
        aug = dict(aug)
        if not ech.add(dict(r), aug) and aug:  # 0 = aug: inconsistent
            return None
    ech.close()
    return Mat.from_entries(m.field, m.ncols, b.ncols,
                            (((piv, j), v) for piv, aug in zip(ech.pivot_of_row, ech.augs)
                             for j, v in aug.items()))


def inverse(m):
    """Two-sided inverse of a square matrix, or None: m X = I is
    inconsistent exactly when m is singular."""
    if m.nrows != m.ncols:
        return None
    return solve_right(m, Mat.identity(m.field, m.nrows))


class QuotientSpace:
    """Canonical quotient of k^ambient by the span of relation vectors.

    Coordinates are the non-pivot coordinates of the rref of the relation
    span; ``proj @ sect = identity`` and ``ker proj = span(relations)``.
    """

    def __init__(self, field, ambient_dim, relations):
        self.field = field
        self.ambient_dim = ambient_dim
        self.relations = relations
        free, vecs = _free_vectors(field, ambient_dim, relations.pivot_cols,
                                   relations.mat._rows)
        self.free_cols = free
        self.dim = len(free)
        self.proj = Mat(field, self.dim, ambient_dim, vecs)

    @cached_property
    def sect(self):
        return Mat.from_entries(self.field, self.ambient_dim, self.dim,
                                (((f, i), self.field.one) for i, f in enumerate(self.free_cols)))

    def project(self, v):
        return self.proj.apply(v)

    def represent(self, coords):
        return self.sect.apply(coords)

    def __repr__(self):
        return f"QuotientSpace({self.ambient_dim} -> {self.dim})"
