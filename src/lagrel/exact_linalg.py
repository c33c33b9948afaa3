"""Exact rational linear algebra: canonical subspaces, forms, quotients.

Everything is computed over Q with one integer elimination kernel,
`_echelon`, which keeps primitive-integer reduced-row-echelon rows.  Two
equal subspaces therefore have identical (and identically hashable)
representations, no matter how they were constructed.  Rank, inverses and
solves read it directly; intersections, composites and kernels read the rows
of a stacked block's echelon that vanish on its first block
(`_eliminate_prefix`).  A nullspace is `_echelon`, then the free-column
read-off `_free_columns`, which alone turns canonical rows into equations
that decide membership.  The invariant solver runs its own sparse elimination.

A `Matrix` M is held as one integer matrix over one denominator: `den` > 0
and `ints` = den*M, with gcd(den, all of ints) = 1, which makes the pair
unique.  Products, transposes, solves and comparisons work on the integers.
`Fraction` appears only where data enters (`rational`, `_int_vector`) and
where results are read out (`Matrix.entries`, `Matrix.apply`,
`BilinearForm.pairing`).  `_int_vector` reads a query point once into
integers over one denominator, with no `Fraction` for a point of ints, and
`Polynomial.evaluate` and `separate` sum in integers over one denominator.
No floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence, Union

Rational = Union[int, str, Fraction]
Vector = tuple[Fraction, ...]
IntRow = tuple[int, ...]


def rational(value: Rational) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(value: Rational) -> str:
    """Serialize a rational as "p/q" with q > 0 and gcd(p, q) = 1."""
    q = rational(value)
    return f"{q.numerator}/{q.denominator}"


def as_vector(items: Iterable[Rational]) -> Vector:
    return tuple(rational(x) for x in items)


def vector_to_payload(vec: Sequence[Rational]) -> list[str]:
    return [format_rational(x) for x in vec]


# ---------------------------------------------------------------------------
# Integer row kernel.
#
# A subspace basis is a tuple of "primitive" integer rows: content 1, first
# nonzero entry positive, in fully reduced echelon order.  This is the image
# of the unique rational RREF basis under clearing denominators, hence
# canonical for the row space.
# ---------------------------------------------------------------------------


def _primitive(row: Sequence[int]) -> IntRow | None:
    """Divide out the content and normalize the sign; None for a zero row."""
    g = gcd(*row)
    if not g:
        return None
    if next(filter(None, row)) < 0:
        g = -g
    return tuple(row) if g == 1 else tuple([x // g for x in row])


def _int_vector(vec: Iterable[Rational]) -> tuple[int, list[int]]:
    """Common denominator d of a vector v, and the integer vector d*v; v is read once,
    and a v of ints is returned as (1, its entries) without making a Fraction."""
    items = list(vec)
    if all(type(x) is int for x in items):
        return 1, items
    fr = [rational(x) for x in items]
    d = lcm(*(x.denominator for x in fr))
    return d, [x.numerator * (d // x.denominator) for x in fr]


def _int_rows(vectors: Iterable[Sequence[Rational]]) -> list[list[int]]:
    """Clear denominators row by row (row spaces are scale invariant)."""
    return [_int_vector(vec)[1] for vec in vectors]


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[IntRow, ...]:
    """Canonical reduced echelon basis (primitive rows) of the row space."""
    basis: list[IntRow] = []
    pivots: list[int] = []
    for raw in rows:
        row = tuple(raw)
        for c, brow in zip(pivots, basis):
            a = row[c]
            if a:
                p = brow[c]
                row = tuple([x * p - y * a for x, y in zip(row, brow)])
        prim = _primitive(row)
        if prim is None:
            continue
        c = _pivot(prim)
        pos = bisect(pivots, c)
        pivots.insert(pos, c)
        basis.insert(pos, prim)
        p = prim[c]
        # the rows after pos have pivots right of c, hence zero at c
        for i in range(pos):
            brow = basis[i]
            a = brow[c]
            if a:
                basis[i] = _primitive(tuple([x * p - y * a for x, y in zip(brow, prim)]))
    return tuple(basis)


def _pivot(row: Sequence[int]) -> int:
    j = 0
    while not row[j]:
        j += 1
    return j


def _residual(row: Sequence[int], basis: Sequence[IntRow]) -> IntRow | None:
    """Primitive residual of an integer row modulo an echelon basis."""
    out = list(row)
    for brow in basis:
        c = _pivot(brow)
        a = out[c]
        if a:
            p = brow[c]
            out = [x * p - y * a for x, y in zip(out, brow)]
    return _primitive(out)


def _eliminate_prefix(rows: Iterable[Sequence[int]], n: int) -> tuple[IntRow, ...]:
    """Canonical basis of {v[n:] : v in the row space, v[:n] = 0}.

    These are the echelon rows pivoting at or right of column n, with the
    first n columns cut off: still primitive, reduced and in pivot order.
    """
    return tuple(row[n:] for row in _echelon(rows) if not any(row[:n]))


def _unit_row(n: int, j: int) -> IntRow:
    return tuple(1 if i == j else 0 for i in range(n))


def _free_columns(ech: Sequence[Sequence[int]], ncols: int) -> tuple[IntRow, ...]:
    """For each non-pivot column j of echelon rows (each zero at the others' pivots), an integer a,
    nonzero at j and at no other non-pivot column, with a.r = 0 for every row r: a basis of
    {x : M x = 0}, not canonical.  Of canonical rows of U they are equations: v in U iff all a.v = 0."""
    hits: list = [[] for _ in range(ncols)]  # column j: (c, r[j], r[c]) per row r with r[j] != 0, c its pivot
    for r in ech:
        c, *rest = compress(count(), r)  # the nonzero columns of r, its pivot first
        for j in rest:
            hits[j].append((c, r[j], r[c]))
        hits[c] = None
    out = []
    for j, col in enumerate(hits):
        if col is not None:
            scale = lcm(*[p for _, _, p in col])
            vec = [0] * ncols
            vec[j] = scale
            for c, x, p in col:
                vec[c] = -x * (scale // p)
            out.append(tuple(vec))
    return tuple(out)


def _nullspace(rows: Iterable[Sequence[int]], ncols: int) -> tuple[IntRow, ...]:
    """Free-column basis of {x : M x = 0} for the matrix with the given rows: `_echelon`, then
    `_free_columns`.  Callers that need a canonical basis pass it through Subspace or _echelon."""
    return _free_columns(_echelon(rows), ncols)


# ---------------------------------------------------------------------------
# Matrices over Q.
# ---------------------------------------------------------------------------


def _int_product(a: Sequence[IntRow], b: Sequence[IntRow], bcols: int) -> tuple[IntRow, ...]:
    """The integer product a b, for b with bcols columns."""
    cols = tuple(zip(*b)) if b else ((),) * bcols
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _matrix(den: int, ints: Iterable[Sequence[int]], cols: int) -> "Matrix":
    """The Matrix ints/den, brought to lowest terms with den > 0."""
    ints = tuple(tuple(row) for row in ints)
    g = gcd(den, *[gcd(*row) for row in ints])
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        ints = tuple(tuple(x // g for x in row) for row in ints)
    m = object.__new__(Matrix)
    m._set(den, ints, cols, None)
    return m


class Matrix:
    """Immutable exact rational matrix, held as integers over one denominator.

    `ints` is the integer matrix den*M (row-major) and `den` > 0, with
    gcd(den, every entry of ints) = 1, so equal matrices hold equal integers
    and `==` and `hash` never touch a Fraction.  `entries` is the Fraction
    read-out, built on first use and cached.
    """

    __slots__ = ("rows", "cols", "den", "ints", "_entries")

    def __init__(self, entries: Iterable[Iterable[Rational]], cols: int | None = None):
        ents = tuple(tuple(rational(x) for x in row) for row in entries)
        if ents:
            width = len(ents[0])
            if any(len(r) != width for r in ents):
                raise ValueError("ragged matrix")
            if cols is not None and cols != width:
                raise ValueError("explicit cols disagrees with entries")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit cols")
            width = cols
        # the lcm of reduced denominators leaves gcd(den, all of ints) = 1
        den = lcm(*(x.denominator for row in ents for x in row))
        ints = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in ents)
        self._set(den, ints, width, ents)

    def _set(self, den: int, ints: tuple[IntRow, ...], cols: int, entries) -> None:
        object.__setattr__(self, "rows", len(ints))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "_entries", entries)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return _matrix(1, (_unit_row(n, i) for i in range(n)), n)

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The entries as Fractions (read-out only; built once)."""
        if self._entries is None:
            d = self.den
            object.__setattr__(self, "_entries", tuple(tuple(Fraction(x, d) for x in row) for row in self.ints))
        return self._entries

    def transpose(self) -> "Matrix":
        return _matrix(self.den, zip(*self.ints) if self.rows else ((),) * self.cols, self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch")
        return _matrix(self.den * other.den, _int_product(self.ints, other.ints, other.cols), other.cols)

    def apply(self, vec: Sequence[Rational]) -> Vector:
        d, v = _int_vector(vec)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        d *= self.den
        return tuple(Fraction(sum(map(mul, row, v)), d) for row in self.ints)

    def rank(self) -> int:
        return len(_echelon(self.ints))

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        return _solve(self, Matrix.identity(self.rows), "singular matrix")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.ints))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def matrix_to_payload(m: Matrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.entries]


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon basis of the row space (zero rows dropped)."""
    return Subspace(m.cols, m.ints).basis


def solve_right(a: Matrix, b: Matrix) -> Matrix:
    """Unique exact solution X of A X = B; A must have full column rank."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    return _solve(a, b, "coefficient matrix does not have full column rank")


def _solve(a: Matrix, b: Matrix, rank_error: str) -> Matrix:
    """Echelon [d_B A | d_A B] (over gcd(d_A, d_B)) once; with pivots 0..n-1 exactly, row i reads off X[i]."""
    n = a.cols
    g = gcd(a.den, b.den)
    sa, sb = b.den // g, a.den // g
    ech = _echelon(
        tuple(x * sa for x in ra) + tuple(y * sb for y in rb) for ra, rb in zip(a.ints, b.ints)
    )
    pivots = [_pivot(r) for r in ech]
    if pivots[:n] != list(range(n)):
        raise ValueError(rank_error)
    if len(ech) > n:
        raise ValueError("inconsistent linear system")
    den = lcm(*(r[i] for i, r in enumerate(ech)))
    return _matrix(den, (tuple(x * (den // r[i]) for x in r[n:]) for i, r in enumerate(ech)), b.cols)


# ---------------------------------------------------------------------------
# Subspaces.
# ---------------------------------------------------------------------------


class Subspace:
    """Canonical subspace of Q^n.

    The stored rows are the primitive-integer image of the unique reduced
    row echelon basis, so two subspaces are equal as sets iff their `rows`
    tuples are identical.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: Iterable[Sequence[int]] = ()):
        rows = _echelon(rows)
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("row length disagrees with ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[Rational]], ambient_dim: int | None = None) -> "Subspace":
        vecs = [as_vector(v) for v in vectors]
        if ambient_dim is None:
            if not vecs:
                raise ValueError("ambient dimension required for an empty family")
            ambient_dim = len(vecs[0])
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length disagrees with ambient dimension")
        return cls(ambient_dim, _int_rows(vecs))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """The RREF basis over Q (leading coefficients 1)."""
        den = lcm(*(r[_pivot(r)] for r in self.rows))
        return _matrix(den, (tuple(x * (den // r[_pivot(r)]) for x in r) for r in self.rows), self.ambient_dim)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(_residual(r, self.rows) is None for r in other.rows)

    def transform(self, m: Matrix) -> "Subspace":
        """Image under an invertible linear map (applied to each basis vector)."""
        if m.cols != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace(m.rows, (tuple(sum(map(mul, mrow, r)) for mrow in m.ints) for r in self.rows))

    def sort_key(self):
        return (self.ambient_dim, len(self.rows), self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.rows))

    def __lt__(self, other: "Subspace") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _subspace(ambient_dim: int, rows: tuple[IntRow, ...]) -> Subspace:
    """The Subspace of rows that are already canonical (`_eliminate_prefix` rows), not echeloned again."""
    s = object.__new__(Subspace)
    object.__setattr__(s, "ambient_dim", ambient_dim)
    object.__setattr__(s, "rows", rows)
    return s


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(a.ambient_dim, a.rows + b.rows)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus intersection: the rows of [A|A; B|0] that vanish on the left block."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    if not a.rows or not b.rows:
        return Subspace(n)
    return _subspace(n, _eliminate_prefix([r + r for r in a.rows] + [r + (0,) * n for r in b.rows], n))


def basis_to_payload(s: Subspace) -> list[list[str]]:
    """The RREF basis as "p/q" rows, read off the primitive rows: entry x of a
    row with pivot p is x/p, and p > 0 makes the reduced denominator positive."""
    out = []
    for r in s.rows:
        p = r[_pivot(r)]
        out.append([f"{x // g}/{p // g}" for x in r for g in (gcd(x, p),)])
    return out


def subspace_to_payload(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": basis_to_payload(s)}


# ---------------------------------------------------------------------------
# Bilinear forms and quotients.
# ---------------------------------------------------------------------------


class BilinearForm:
    """Nondegenerate symmetric bilinear form, given by its Gram matrix G = H/e.

    Once G is checked, H = gram.ints is held as its diagonal `diag` and its
    off-diagonal nonzeros `off_diagonal`, as (i, j, H[i][j]).  `times_gram`,
    the one product with H, serves complements, quotients, reflections and
    the isotropy and isometry checks; no code outside this module reads gram.ints.
    """

    __slots__ = ("dim", "gram", "diag", "off_diagonal")

    def __init__(self, gram: Matrix):
        if gram.rows != gram.cols:
            raise ValueError("Gram matrix must be square")
        if gram.ints != tuple(zip(*gram.ints)):
            raise ValueError("Gram matrix must be symmetric")
        if gram.rank() != gram.rows:
            raise ValueError("Gram matrix must be invertible (nondegenerate form)")
        object.__setattr__(self, "dim", gram.rows)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "diag", tuple(row[i] for i, row in enumerate(gram.ints)))
        object.__setattr__(self, "off_diagonal", tuple(
            (i, j, x) for i, row in enumerate(gram.ints) for j, x in enumerate(row) if x and i != j))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BilinearForm is immutable")

    @classmethod
    def diagonal(cls, entries: Iterable[Rational]) -> "BilinearForm":
        diag = [rational(x) for x in entries]
        n = len(diag)
        return cls(Matrix(((diag[i] if i == j else 0 for j in range(n)) for i in range(n)), cols=n))

    def pairing(self, u: Sequence[Rational], v: Sequence[Rational]) -> Fraction:
        du, uu = _int_vector(u)
        dv, vv = _int_vector(v)
        if len(uu) != self.dim or len(vv) != self.dim:
            raise ValueError("vector length disagrees with form dimension")
        return Fraction(self.int_pairing(uu, vv), du * dv * self.gram.den)

    def times_gram(self, rows: Iterable[Sequence[int]]) -> list[list[int]]:
        """The integer rows r H, for H = gram.ints: the diagonal scales r, then
        each off-diagonal entry H[i][j] adds r[i] H[i][j] to column j."""
        diag, off = self.diag, self.off_diagonal
        out = []
        for r in rows:
            rh = list(map(mul, r, diag))
            for i, j, x in off:
                rh[j] += r[i] * x
            out.append(rh)
        return out

    def int_pairing(self, u: Sequence[int], v: Sequence[int]) -> int:
        """u^T H v = gram.den * <u|v>, from the diagonal and off-diagonal entries as in `times_gram`."""
        total = sum(map(mul, map(mul, u, self.diag), v))
        for i, j, x in self.off_diagonal:
            total += u[i] * x * v[j]
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, BilinearForm) and self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"BilinearForm(dim {self.dim})"


def orth_complement(form: BilinearForm, u: Subspace) -> Subspace:
    """{v : <v|x> = 0 for all x in U}."""
    if u.ambient_dim != form.dim:
        raise ValueError("ambient dimension mismatch")
    n = form.dim
    return Subspace(n, _nullspace(form.times_gram(u.rows), n))


class QuotientSpace(NamedTuple):
    """Coordinates on V0/V1 for a coisotropic V0 with V1 = V0-perp.

    `section` has as columns the deterministic leftmost-pivot complement U of
    V1 inside V0.  `projection` = Gram_U^-1 U G reads off the coordinates t of
    v = sum t_j u_j + k (k in V1), since <u_i|v> = (Gram_U t)_i; on V0 its
    kernel is exactly V1 (on all of V it is U-perp).
    """

    kernel: Subspace
    projection: Matrix
    section: Matrix
    induced_form: BilinearForm

    @property
    def dim(self) -> int:
        return self.projection.rows


@lru_cache(maxsize=4)
def quotient(form: BilinearForm, v0: Subspace) -> QuotientSpace:
    """Quotient of a coisotropic V0 by V1 = V0-perp, with the induced form.

    Memoized on (form, v0), both immutable and canonically hashed; the shared result is immutable."""
    if v0.ambient_dim != form.dim:
        raise ValueError("ambient dimension mismatch")
    n = form.dim
    v1 = orth_complement(form, v0)
    if not v0.contains(v1):
        raise ValueError("subspace is not coisotropic")
    u_rows = []
    for r in v0.rows:
        res = _residual(r, v1.rows)
        if res is not None:
            u_rows.append(res)
    u_rows = _echelon(u_rows)
    q = len(u_rows)
    section = _matrix(1, zip(*u_rows) if q else ((),) * n, q)
    # U H and U H U^T for G = H / e: the e's cancel in Gram_U^-1 U G
    uh = form.times_gram(u_rows)
    gram = tuple(tuple(sum(map(mul, row, u)) for u in u_rows) for row in uh)
    induced = BilinearForm(_matrix(form.gram.den, gram, q))
    projection = solve_right(_matrix(1, gram, q), _matrix(1, uh, n))
    return QuotientSpace(v1, projection, section, induced)
