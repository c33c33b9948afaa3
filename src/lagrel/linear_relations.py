"""Linear Lagrangian relations: composition, atypicality, idempotents.

A linear relation on (V, <.|.>) is a subspace L of V x V.  It is Lagrangian
when the pairing ((v,w),(v',w')) -> <v|v'> - <w|w'> vanishes on L and
dim L = dim V.  Relations compose like multivalued maps; graphs of
isometries are exactly the invertible (atypicality 0) elements.
"""

from __future__ import annotations

import random
from collections import deque
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exact_linalg import (
    BilinearForm,
    Matrix,
    Rational,
    Subspace,
    Vector,
    _eliminate_prefix,
    _free_columns,
    _int_vector,
    _matrix,
    _primitive,
    _subspace,
    as_vector,
    orth_complement,
    quotient,
    solve_right,
)


class ClosureBoundExceeded(RuntimeError):
    """Raised when a closure walk (a relation's or a group's) outgrows its bound."""


class Isometry:
    """Invertible linear map g with g^T G g = G, checked exactly in integers."""

    __slots__ = ("form", "matrix")

    def __init__(self, form: BilinearForm, matrix: Matrix):
        if matrix.rows != form.dim or matrix.cols != form.dim:
            raise ValueError("matrix shape disagrees with form dimension")
        # with g = M/d and G = H/e in lowest terms, g^T G g = G iff M^T H M = d^2 H;
        # both sides are symmetric because H is, so the entries j >= i decide it
        n = form.dim
        cols = tuple(zip(*matrix.ints))
        d2 = matrix.den * matrix.den
        target = [[0] * n for _ in range(n)]
        for i, x in enumerate(form.diag):
            target[i][i] = d2 * x
        for i, j, x in form.off_diagonal:
            target[i][j] = d2 * x
        for i, row in enumerate(form.times_gram(cols)):
            if [sum(map(mul, row, c)) for c in cols[i:]] != target[i][i:]:
                raise ValueError("matrix is not an isometry of the form")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Isometry is immutable")

    @classmethod
    def identity(cls, form: BilinearForm) -> "Isometry":
        return cls(form, Matrix.identity(form.dim))

    @classmethod
    def reflection(cls, form: BilinearForm, v: Sequence[Rational]) -> "Isometry":
        """Reflection in an anisotropic vector: x -> x - (2<v|x>/<v|v>) v."""
        _, u = _int_vector(v)
        if len(u) != form.dim:
            raise ValueError("vector length disagrees with form dimension")
        refl = _reflection(form, u)
        if refl is None:
            raise ValueError("cannot reflect in an isotropic vector")
        return refl

    def apply(self, v: Sequence[Rational]) -> Vector:
        return self.matrix.apply(v)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other."""
        return Isometry(self.form, self.matrix @ other.matrix)

    def inverse(self) -> "Isometry":
        return Isometry(self.form, self.matrix.inverse())

    def is_identity(self) -> bool:
        return self.matrix == Matrix.identity(self.form.dim)

    def __eq__(self, other) -> bool:
        return isinstance(other, Isometry) and self.form == other.form and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.form, self.matrix))

    def __repr__(self) -> str:
        return f"Isometry({self.matrix!r})"


def _reflection(form: BilinearForm, u: Sequence[int]) -> Isometry | None:
    """The reflection in the integer vector u, None when u is isotropic.

    For the form's integer Gram matrix H it is (N I - 2 u (H u)^T) / N with
    N = u^T H u; it depends only on the line of u.
    """
    hu = form.times_gram((u,))[0]
    norm = sum(map(mul, hu, u))
    if norm == 0:
        return None
    n = form.dim
    ints = [[(norm if i == j else 0) - 2 * u[i] * hu[j] for j in range(n)] for i in range(n)]
    return Isometry(form, _matrix(norm, ints, n))


def generate_group(form: BilinearForm, gens: Iterable[Isometry], max_order: int) -> tuple[Isometry, ...]:
    """The group generated by isometries of form, sorted; RootSystem.weyl_group's closure.

    BFS over products s w of `Matrix` values, whose lowest-terms integers make
    equal elements hash equal.  Each distinct element is wrapped in a checked
    Isometry exactly once.  Past max_order elements it raises ClosureBoundExceeded.
    """
    steps = list(dict.fromkeys(g.matrix for g in gens))
    ident = Matrix.identity(form.dim)
    group = {ident}
    queue = deque([ident])
    while queue:
        w = queue.popleft()
        for s in steps:
            prod = s @ w
            if prod not in group:
                if len(group) >= max_order:
                    raise ClosureBoundExceeded("Weyl group generation exceeded its bound")
                group.add(prod)
                queue.append(prod)
    return _sorted_group([Isometry(form, m) for m in group])


def _sorted_group(isos: Sequence[Isometry]) -> tuple[Isometry, ...]:
    """isos in their entries' order, each entry x/d compared as the integer x*(L/d), L the lcm of the d."""
    big = lcm(*(g.matrix.den for g in isos))
    return tuple(sorted(isos, key=lambda g: tuple(x * (big // g.matrix.den) for row in g.matrix.ints for x in row)))


def _int_pair(x: Sequence[Rational], y: Sequence[Rational], n: int) -> tuple[int, list[int]]:
    """q = dx*dy and the integer row q*(x, y) of a pair of points of V, each read once (ValueError unless dim V = n)."""
    (dx, ix), (dy, iy) = _int_vector(x), _int_vector(y)
    if len(ix) != n or len(iy) != n:
        raise ValueError("vector length disagrees with relation dimension")
    return dx * dy, [a * dy for a in ix] + [b * dx for b in iy]


class LinearRelation:
    """A linear relation on V, held as a canonical subspace of V + V."""

    def __init__(self, form: BilinearForm, space: Subspace):
        if space.ambient_dim != 2 * form.dim:
            raise ValueError("relation subspace must live in V x V")
        self.form = form
        self.space = space

    @property
    def n(self) -> int:
        return self.form.dim

    @property
    def dim(self) -> int:
        return self.space.dim

    def _halves(self) -> tuple[list, list]:
        n = self.n
        first = [r[:n] for r in self.space.rows]
        second = [r[n:] for r in self.space.rows]
        return first, second

    @cached_property
    def p1(self) -> Subspace:
        """The heads of L's canonical rows that pivot in the first block, made primitive: canonical already."""
        n = self.n
        return _subspace(n, tuple(_primitive(r[:n]) for r in self.space.rows if any(r[:n])))

    @cached_property
    def p2(self) -> Subspace:
        return Subspace(self.n, self._halves()[1])

    @cached_property
    def k2(self) -> Subspace:
        """{x : (x, 0) in L}, the image in V of Ker(p2|L).

        One `_echelon` of the rows (y | x), one per basis row (x, y) of L:
        its rows that vanish on the y block span the x with (x, 0) in L.
        """
        n = self.n
        return _subspace(n, _eliminate_prefix((r[n:] + r[:n] for r in self.space.rows), n))

    @cached_property
    def _equations(self) -> tuple[tuple[int, ...], ...]:
        """Integer rows a with (x, y) in L iff a.(x, y) = 0 for each, read off L's canonical rows once."""
        return _free_columns(self.space.rows, 2 * self.n)

    @cached_property
    def is_isotropic(self) -> bool:
        """A H A^T = B H B^T for the halves (A | B) of the basis rows, on the upper triangles."""
        first, second = self._halves()
        ah, bh = self.form.times_gram(first), self.form.times_gram(second)
        d = len(first)
        return all(sum(map(mul, ah[i], first[j])) == sum(map(mul, bh[i], second[j]))
                   for i in range(d) for j in range(i, d))

    @cached_property
    def is_lagrangian(self) -> bool:
        return self.dim == self.n and self.is_isotropic

    @cached_property
    def atypicality(self) -> int:
        """dim Ker(p1|L); equal to dim Ker(p2|L) on a Lagrangian relation (`kernel_dims_equal`)."""
        if not self.is_lagrangian:
            raise ValueError("atypicality is defined for Lagrangian relations")
        return self.dim - self.p1.dim

    def sort_key(self):
        return self.space.sort_key()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearRelation)
            and self.form == other.form
            and self.space == other.space
        )

    def __hash__(self) -> int:
        return hash((self.form, self.space))

    def __lt__(self, other: "LinearRelation") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"LinearRelation(n={self.n}, dim={self.dim})"


def diagonal(form: BilinearForm) -> LinearRelation:
    """The identity relation {(v, v)}."""
    n = form.dim
    rows = [tuple(1 if j in (i, n + i) else 0 for j in range(2 * n)) for i in range(n)]
    return LinearRelation(form, Subspace(2 * n, rows))


def graph(iso: Isometry) -> LinearRelation:
    """Graph {(v, g v)} of an isometry: graph(g) o the diagonal."""
    return _then_isometry(diagonal(iso.form), iso.matrix)


def inverse(rel: LinearRelation) -> LinearRelation:
    n = rel.n
    rows = [r[n:] + r[:n] for r in rel.space.rows]
    return LinearRelation(rel.form, Subspace(2 * n, rows))


def compose(first: LinearRelation, second: LinearRelation) -> LinearRelation:
    """The relation (second o first) = {(x, z) : (x,y) in first, (y,z) in second}.

    One `_echelon` of the stacked block with a row (y | x | 0) per basis row
    (x, y) of first and a row (-y | 0 | z) per basis row (y, z) of second.
    Its row space holds (s.A2 - t.B1 | s.A1 | t.B2) for all coefficients s, t
    over the bases' halves, so its vectors that vanish on the middle block
    are the composite.  The middle block comes first, so the echelon rows
    zero on it are those pivoting right of it; cut off, they are already the
    composite's canonical rows (`_eliminate_prefix`).
    """
    if first.form != second.form:
        raise ValueError("relations live over different forms")
    n = first.n
    zero = (0,) * n
    block = [r[n:] + r[:n] + zero for r in first.space.rows]
    block += [tuple(-y for y in r[:n]) + zero + r[n:] for r in second.space.rows]
    return LinearRelation(first.form, _subspace(2 * n, _eliminate_prefix(block, n)))


def idempotent_relation(form: BilinearForm, coisotropic: Subspace) -> LinearRelation:
    """The idempotent {(v, v + w) : v in V0, w in V0-perp} for coisotropic V0.

    V0-perp and the coisotropy check are those of the memoized `quotient`."""
    v1 = quotient(form, coisotropic).kernel
    n = form.dim
    rows = [r + r for r in coisotropic.rows]
    rows += [(0,) * n + r for r in v1.rows]
    return LinearRelation(form, Subspace(2 * n, rows))


def classify_idempotent(rel: LinearRelation) -> Subspace:
    """Recover V0 with rel = E_{V0} for a Lagrangian idempotent with p1 = p2.

    Idempotents with p1 != p2 exist (compose a collapse with an isometry
    moving its base while fixing the middle classes), so equal images are a
    genuine hypothesis, not a convenience.
    """
    if not rel.is_lagrangian:
        raise ValueError("not a Lagrangian relation")
    if compose(rel, rel) != rel:
        raise ValueError("relation is not idempotent")
    v0 = rel.p1
    if rel.p2 != v0:
        raise ValueError("idempotent has distinct images; not a plain collapse")
    if idempotent_relation(rel.form, v0).space != rel.space:
        raise AssertionError("idempotent does not match its collapse form")
    return v0


def isometry_of_graph(rel: LinearRelation) -> Isometry:
    """Read g off its graph: p1 = V, so canonical row i is (d_i e_i | d_i g e_i)."""
    if not rel.is_lagrangian or rel.atypicality != 0:
        raise ValueError("relation is not the graph of an isometry")
    n = rel.n
    rows = rel.space.rows
    den = lcm(*(r[i] for i, r in enumerate(rows)))
    gt = _matrix(den, (tuple(x * (den // r[i]) for x in r[n:]) for i, r in enumerate(rows)), n)
    return Isometry(rel.form, gt.transpose())


def canonical_data(rel: LinearRelation) -> tuple[Subspace, Subspace, Matrix]:
    """Complete invariant (p1, p2, induced isometry between the quotients).

    alpha is not re-checked: relation_from_data raises when it is not an isometry.
    """
    if not rel.is_lagrangian:
        raise ValueError("canonical data is defined for Lagrangian relations")
    v0 = rel.p1
    v0p = rel.p2
    q = quotient(rel.form, v0)
    qp = quotient(rel.form, v0p)
    n = rel.n
    xs = _matrix(1, (r[:n] for r in rel.space.rows), n) @ q.projection.transpose()
    ys = _matrix(1, (r[n:] for r in rel.space.rows), n) @ qp.projection.transpose()
    alpha = solve_right(xs, ys).transpose()
    return v0, v0p, alpha


def relation_from_data(form: BilinearForm, v0: Subspace, v0p: Subspace, alpha: Matrix) -> LinearRelation:
    """Rebuild the Lagrangian relation with p1 = V0, p2 = V0' and quotient map alpha."""
    q = quotient(form, v0)
    qp = quotient(form, v0p)
    if alpha.rows != qp.dim or alpha.cols != q.dim:
        raise ValueError("quotient map has the wrong shape")
    n = form.dim
    # row i is (section e_i, section' alpha e_i), both sides scaled to integers
    first, second = q.section, qp.section @ alpha
    rows = [
        tuple(second.den * x for x in a) + tuple(first.den * y for y in b)
        for a, b in zip(zip(*first.ints), zip(*second.ints))
    ]
    zero = (0,) * n
    rows += [r + zero for r in q.kernel.rows]
    rows += [zero + r for r in qp.kernel.rows]
    rel = LinearRelation(form, Subspace(2 * n, rows))
    if not rel.is_lagrangian:
        raise ValueError("data does not assemble into a Lagrangian relation")
    return rel


# ---------------------------------------------------------------------------
# JSON payloads.
# ---------------------------------------------------------------------------


def relation_from_payload(payload: dict, form: BilinearForm) -> LinearRelation:
    if "form" in payload:
        given = Matrix(payload["form"], cols=form.dim)
        if given != form.gram:
            raise ValueError("nested relation form disagrees with the file form")
    space = Subspace.from_vectors(
        [as_vector(r) for r in payload["space"]],
        ambient_dim=2 * form.dim,
    )
    return LinearRelation(form, space)


# ---------------------------------------------------------------------------
# Seeded random generation for test corpora.
#
# Lagrangian relations are generated constructively as graph-of-isometry
# composed with an idempotent, which realizes the general decomposition
# without needing a decision procedure over Q.
# ---------------------------------------------------------------------------


def suite_form(dim: int) -> BilinearForm:
    """The split diagonal form used by the randomized suites in dimension dim."""
    neg = dim // 2
    return BilinearForm.diagonal([1] * (dim - neg) + [-1] * neg)


def random_isometry(form: BilinearForm, rng: random.Random, max_reflections: int = 3) -> Isometry | None:
    """A product of 0..max_reflections random reflections, the first one applied first; None for none.

    Each reflection vector is redrawn until anisotropic.  Its entries x/q draw x
    from -3..3 and q from (1, 1, 1, 2), and it is held as the integer vector of
    the 2x/q, which spans the same line.
    """
    iso = None
    for _ in range(rng.randint(0, max_reflections)):
        refl = None
        while refl is None:
            u = [rng.randint(-3, 3) * (2 // rng.choice((1, 1, 1, 2))) for _ in range(form.dim)]
            refl = _reflection(form, u)
        iso = refl if iso is None else refl.compose(iso)
    return iso


def _split_indices(form: BilinearForm) -> tuple[list[int], list[int]] | None:
    """The +1 and -1 coordinates of a diag(+-1) form; None for another form."""
    den = form.gram.den
    pos = [i for i, x in enumerate(form.diag) if x == den]
    neg = [i for i, x in enumerate(form.diag) if x == -den]
    if form.off_diagonal or len(pos) + len(neg) != form.dim:
        return None
    return pos, neg


def _random_iso_span(form: BilinearForm, rng: random.Random) -> Subspace:
    """g(span of e_i +- e_j) over k random pairs of a +1 coordinate i and a -1 coordinate j
    of a diag(+-1) form, g = random_isometry(form, rng, 2); zero for k = 0 or another form."""
    split = _split_indices(form)
    k = 0 if split is None else rng.randint(0, min(map(len, split)))
    if k == 0:
        return Subspace(form.dim)
    pos, neg = split
    vectors = []
    for i, j in zip(rng.sample(pos, k), rng.sample(neg, k)):
        vec = [0] * form.dim
        vec[i] = 1
        vec[j] = rng.choice((1, -1))
        vectors.append(vec)
    span = Subspace(form.dim, vectors)
    twist = random_isometry(form, rng, max_reflections=2)
    return span if twist is None else span.transform(twist.matrix)


def _then_rows(rows: Iterable[Sequence[int]], g: Matrix, n: int) -> list[tuple[int, ...]]:
    """The rows (d x | M y) of graph(g) o R, g = M/d, for rows (x | y) that span R."""
    return [tuple(g.den * x for x in r[:n]) + tuple(sum(map(mul, m, r[n:])) for m in g.ints) for r in rows]


def _then_isometry(rel: LinearRelation, g: Matrix) -> LinearRelation:
    """graph(g) o rel = {(x, g y) : (x, y) in rel}, read off rel's rows."""
    return LinearRelation(rel.form, Subspace(2 * rel.n, _then_rows(rel.space.rows, g, rel.n)))


def random_lagrangian(form: BilinearForm, rng: random.Random) -> LinearRelation:
    """g o E_V0 for V0 = V1-perp, V1 a random twisted iso-span, and a random isometry g.

    E_V0 = {(v, v + w) : v in V0, w in V1} is spanned by the rows (v | v) and (0 | w).
    An iso-span that is not isotropic gives a relation that is not Lagrangian.
    """
    v1 = _random_iso_span(form, rng)
    n = form.dim
    rows = [r + r for r in orth_complement(form, v1).rows] + [(0,) * n + r for r in v1.rows]
    g = random_isometry(form, rng)
    return LinearRelation(form, Subspace(2 * n, rows if g is None else _then_rows(rows, g.matrix, n)))


def random_pairs(seed: int, count: int) -> Iterator[tuple[BilinearForm, LinearRelation, LinearRelation]]:
    """The seeded corpus of `verify monoid`: count triples (form, a, b), dim V = 2 + (i mod 5)."""
    rng = random.Random(seed)
    forms = [suite_form(dim) for dim in range(2, 7)]
    for i in range(count):
        form = forms[i % 5]
        yield form, random_lagrangian(form, rng), random_lagrangian(form, rng)
