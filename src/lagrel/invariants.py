"""Graded invariant rings of Lagrangian equivalence relations.

Because every component of a relation is a linear subspace of V x V, the
invariant condition f(x) = f(y) is homogeneous-degree preserving, so the
(possibly non-Noetherian) ring C[V]^R is computed one graded slice at a
time by one lazy sweep, invariant_slices: the constraints of the relation's
generators (every non-diagonal component of one built without them) are
expanded symbolically in integers, one degree further per step, as sparse
rows; one fraction-free elimination per degree takes the rows of all the
generators, and the slice is read off its free columns.  Each relation
object keeps its sweep and the slices swept so far, so repeated queries on
one object sweep each degree once.
invariant_space(R, d) is the sweep's degree-d slice.  Generators suffice: an
f constant on L1 and on L2 is constant on L1 o L2, through the middle point,
and on the transpose, and closure() makes every component a word in the
generators and their inverses.  Bases are normalized in graded
lexicographic order for reproducibility.

C[V]^W of a finite group W of isometries is computed by the same solver, as
the invariants of the relation made of the graphs of the elements of W.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, count, islice, product
from math import gcd, lcm, prod
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exact_linalg import (
    Matrix,
    Rational,
    Subspace,
    Vector,
    _echelon,
    _int_rows,
    _int_vector,
    _pivot,
    _primitive,
    format_rational,
    quotient,
    rational,
    solve_right,
)
from .linear_relations import Isometry, LinearRelation, graph
from .relation_monoid import LagrangianEquivalenceRelation


def monomials(num_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the given total degree, in descending lex order."""
    if degree == 0:
        return ((0,) * num_vars,)
    if num_vars == 0:
        return ()
    out = []
    for combo in combinations_with_replacement(range(num_vars), degree):
        exp = [0] * num_vars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return tuple(sorted(out, reverse=True))


class Polynomial:
    """Sparse exact polynomial in a fixed number of variables."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: dict | None = None):
        clean = {}
        for exp, coeff in (terms or {}).items():
            c = rational(coeff)
            if len(exp) != num_vars:
                raise ValueError("exponent length disagrees with variable count")
            if c:
                clean[tuple(exp)] = c
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return Polynomial(self.num_vars, terms)

    def evaluate(self, point: Sequence[Rational]) -> Fraction:
        """The value at a point, read once as integers over one denominator (see `_int_values`)."""
        d, p = _int_vector(point)
        if len(p) != self.num_vars:
            raise ValueError("point length disagrees with variable count")
        den, deg, (total,) = self._int_values([(d, p)])
        return Fraction(total, den * d ** deg)

    def _int_values(self, points: Sequence[tuple[int, Sequence[int]]]) -> tuple[int, int, list[int]]:
        """L, D and, per point p/d, sum c.numerator * (L / c.denominator) * d^(D - |e|) * p^e over the
        terms c x^e: the value times L * d^D, for L the lcm of the denominators and D the degree."""
        den, deg = lcm(*(c.denominator for c in self.terms.values())), self.degree()
        totals = [0] * len(points)
        for e, c in self.terms.items():
            num, short = c.numerator * (den // c.denominator), deg - sum(e)
            for k, (d, p) in enumerate(points):
                totals[k] += num * d ** short * prod(map(pow, p, e))
        return den, deg, totals

    def coefficient_row(self, index: dict[tuple[int, ...], int], width: int) -> list[Fraction]:
        row = [Fraction(0)] * width
        for e, c in self.terms.items():
            row[index[e]] = c
        return row

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, tuple(sorted(self.terms.items()))))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            factors = [f"x{i}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
            body = "*".join(factors) if factors else "1"
            if c == 1 and factors:
                bits.append(body)
            elif c == -1 and factors:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}" if factors else f"{c}")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def polynomial_to_payload(poly: Polynomial) -> dict[str, str]:
    """{exponent vector: "p/q"} map with comma-joined exponent keys."""
    return {
        ",".join(str(k) for k in e): format_rational(c)
        for e, c in sorted(poly.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
    }


# ---------------------------------------------------------------------------
# Graded invariant solver.
#
# For one component L with basis rows (x_k | y_k), the points of L are
# (X^T t, Y^T t), so f is constant on L-classes iff f(X^T t) - f(Y^T t)
# vanishes identically in t.  The coefficient of each t-monomial in that
# polynomial is one sparse linear constraint {monomial index: int} on the
# coefficients of f.  The constraints of all the relation's generators (see
# the module docstring) go through one sparse elimination per degree, and the
# slice is read off its free columns.
# ---------------------------------------------------------------------------


def _compose_linear(polys: Sequence[Polynomial], m: Matrix) -> list[Polynomial]:
    """Each of polys with x_i = sum_j m[i][j] t_j substituted, in m.cols variables; the
    substitution is expanded once, one degree at a time, for all of them."""
    if any(p.num_vars != m.rows for p in polys):
        raise ValueError("substitution matrix has the wrong number of rows")
    nonzeros = [[(j, w) for j, w in enumerate(row) if w] for row in m.ints]
    sub = {(0,) * m.rows: {(0,) * m.cols: 1}}
    terms: list[dict] = [{} for _ in polys]
    for d in range(max((p.degree() for p in polys), default=0) + 1):
        if d:
            sub = _substitute(sub, _degree_table(monomials(m.rows, d)), nonzeros)
        factor = m.den ** d
        for p, out in zip(polys, terms):  # a t-monomial of degree d gets terms of degree d only
            for e, c in p.terms.items():
                if sum(e) == d:
                    for texp, w in sub[e].items():
                        out[texp] = out.get(texp, 0) + c * w / factor
    return [Polynomial(m.cols, t) for t in terms]


def _degree_table(mons: Sequence[tuple[int, ...]]) -> list[tuple]:
    """(e, i, e - e_i) for each exponent e of one positive degree, i the first variable of e."""
    firsts = (next(k for k, v in enumerate(e) if v) for e in mons)
    return [(e, i, e[:i] + (e[i] - 1,) + e[i + 1:]) for e, i in zip(mons, firsts)]


def _substitute(prev: dict, table: Sequence[tuple], nonzeros: Sequence[Sequence[tuple[int, int]]]) -> dict:
    """exp -> {t-exp: int coeff} of x^exp composed with an integer matrix m, for the exponents
    of one degree's table, from the degree below's: x^e = x_i * x^(e - e_i), and nonzeros[i]
    lists the (j, w) with w = m[i][j] != 0."""
    sub = {}
    for e, i, rest in table:
        acc: dict[tuple[int, ...], int] = {}
        row = nonzeros[i]
        for texp, c in prev[rest].items():
            for j, w in row:
                key = texp[:j] + (texp[j] + 1,) + texp[j + 1:]
                acc[key] = acc.get(key, 0) + c * w
        sub[e] = {k: v for k, v in acc.items() if v}
    return sub


def _content_free(row: dict[int, int]) -> dict[int, int]:
    """The sparse row without its zero entries, divided by its content."""
    row = {j: v for j, v in row.items() if v}
    g = gcd(*row.values())
    return row if g <= 1 else {j: v // g for j, v in row.items()}


def _cancel(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """p * row - a * prow, with a = row[c] and p = prow[c]: zero at c."""
    a, p = row[c], prow[c]
    out = {j: v * p for j, v in row.items()} if p != 1 else dict(row)
    for j, v in prow.items():
        out[j] = out.get(j, 0) - a * v
    return out


def _eliminate(rows: Iterable[dict[int, int]], pivots: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Fold sparse integer rows {column: int} into pivots, a fully reduced fraction-free echelon:
    primitive rows keyed by their pivot, the row's last nonzero column, each zero at every other
    pivot.  Returns pivots."""
    for row in rows:
        for c in [c for c, v in row.items() if v and c in pivots]:  # pivot rows vanish at other pivots
            row = _cancel(row, pivots[c], c)
        row = _content_free(row)
        if row:
            c = max(row)
            for k, prow in pivots.items():  # a pivot row holding c has its pivot right of c
                if c in prow:
                    pivots[k] = _content_free(_cancel(prow, row, c))
            pivots[c] = row
    return pivots


def _kernel_rows(pivots: dict[int, dict[int, int]], ncols: int) -> tuple:
    """_echelon(_nullspace(rows, ncols)) for the rows folded into pivots by _eliminate.

    Free column j gives L at j and -r[j] * L / r[c] at the pivot c of each pivot row r
    with r[j] != 0, L the lcm of those r[c], over its content.  Each such c lies right of
    j, so the row is zero at every other free column and leads with L > 0 at j: these
    are the canonical reduced echelon rows of the nullspace, in pivot order.
    """
    hits: dict[int, list] = {}
    for c, r in pivots.items():
        for j in r:  # j = c is a pivot column, never read
            hits.setdefault(j, []).append((c, r))
    out = []
    for j in range(ncols):
        if j not in pivots:
            col = hits.get(j, ())
            scale = lcm(*(r[c] for c, r in col))
            vec = [0] * ncols
            vec[j] = scale
            for c, r in col:
                vec[c] = -r[j] * (scale // r[c])
            out.append(_primitive(vec))
    return tuple(out)


def _rows_to_polynomials(rows: Iterable[Sequence[int]], mons: tuple, num_vars: int) -> list[Polynomial]:
    out = []
    for r in rows:
        pivot = r[_pivot(r)]
        terms = {mons[i]: Fraction(x, pivot) for i, x in enumerate(r) if x}
        out.append(Polynomial(num_vars, terms))
    return out


def _sweep(n: int, generators: Sequence[LinearRelation]) -> Iterator[list[Polynomial]]:
    """Bases of the degree 0, 1, 2, ... slices of the invariants of the generators in n variables.

    Each half of a generator's substitution grows by one degree per step, from
    one exponent table per degree, so a sweep to degree D expands every
    generator once.  The sweep holds no reference to the relation, so the memo
    that keeps it makes no reference cycle.
    """
    halves = [[[[(k, r[h + i]) for k, r in enumerate(comp.space.rows) if r[h + i]] for i in range(n)]
               for h in (0, n)] for comp in generators]
    subs = [[{(0,) * n: {(0,) * comp.space.dim: 1}}] * 2 for comp in generators]
    for degree in count(0):
        mons = monomials(n, degree)
        if degree:
            table = _degree_table(mons)
            subs = [[_substitute(s, table, nz) for s, nz in zip(pair, nzs)] for pair, nzs in zip(subs, halves)]
        pivots: dict[int, dict[int, int]] = {}
        for pair in subs:
            if len(pivots) == len(mons):  # the slice is already zero
                break
            rows: dict[tuple[int, ...], dict[int, int]] = {}
            for col, e in enumerate(mons):
                for sign, sub in zip((1, -1), pair):
                    for texp, w in sub[e].items():
                        row = rows.setdefault(texp, {})
                        row[col] = row.get(col, 0) + sign * w
            _eliminate(rows.values(), pivots)
        yield _rows_to_polynomials(_kernel_rows(pivots, len(mons)), mons, n)


def invariant_slices(relation: LagrangianEquivalenceRelation) -> Iterator[list[Polynomial]]:
    """Bases of the degree 0, 1, 2, ... slices of the invariant ring of R, lazily.

    The relation object keeps the slices computed so far and the one sweep
    that extends them: a call reads that memo first and sweeps only past its
    highest degree.  The memo is per object, not per value, since two equal
    relations may have different generators.  Each slice is a fresh list.
    The memo takes no lock: one relation is not swept from two threads at once.
    """
    memo = relation.__dict__.get("_slice_memo")
    if memo is None:
        memo = relation.__dict__["_slice_memo"] = ([], _sweep(relation.n, relation.generators))
    done, sweep = memo
    for degree in count(0):
        if degree == len(done):
            try:
                done.append(next(sweep))
            except BaseException:  # an interrupted sweep cannot resume: the next call starts over
                relation.__dict__.pop("_slice_memo", None)
                raise
        yield list(done[degree])


def invariant_space(relation: LagrangianEquivalenceRelation, degree: int) -> list[Polynomial]:
    """Basis of the homogeneous degree-d slice of the invariant ring of R: the sweep's slice d."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return next(islice(invariant_slices(relation), degree, None))


def weyl_invariant_space(group: Sequence[Isometry], degree: int) -> list[Polynomial]:
    """Slice of C[V]^W: the invariants of the relation made of the graphs of W."""
    if not group:
        raise ValueError("need at least one isometry to infer the space")
    return invariant_space(LagrangianEquivalenceRelation(group[0].form, map(graph, group)), degree)


def span_rows(polys: Sequence[Polynomial], degree: int) -> tuple:
    """Canonical integer rows of the coefficient span of homogeneous polynomials."""
    if not polys:
        return ()
    n = polys[0].num_vars
    mons = monomials(n, degree)
    index = {e: i for i, e in enumerate(mons)}
    rows = [p.coefficient_row(index, len(mons)) for p in polys]
    return _echelon(_int_rows(rows))


def contains_polynomial(basis: Sequence[Polynomial], poly: Polynomial, degree: int) -> bool:
    """Exact membership of poly in the span of a homogeneous basis."""
    rows = span_rows(basis, degree)
    with_poly = span_rows(list(basis) + [poly], degree)
    return len(rows) == len(with_poly)


# ---------------------------------------------------------------------------
# Discriminant polynomial, restriction, separation, products.
# ---------------------------------------------------------------------------


class DiscriminantPolynomial(NamedTuple):
    polynomial: Polynomial
    degree: int
    hyperplanes: tuple[Subspace, ...]


def discriminant_polynomial(relation: LagrangianEquivalenceRelation) -> DiscriminantPolynomial:
    """Product of the linear forms cutting the W-orbit of discriminant hyperplanes.

    An empty discriminant gives T = 1, of degree 0.  That T lies in C[V]^R,
    hence in C[V]^W, is a test on catalog entries, not a step here.
    """
    if not relation.is_one_regular()[0]:
        raise ValueError("relation is not 1-regular with a codimension-1 witness")
    n = relation.n
    t = Polynomial(n, {(0,) * n: 1})
    orbit = relation.discriminant()
    for h in orbit:
        (normal,) = _kernel_rows(_eliminate(map(dict, map(enumerate, h.rows)), {}), n)
        t = t * Polynomial(n, {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(normal)})
    lead = t.terms[max(t.terms)]  # T is homogeneous, so its lex-largest monomial leads in graded lex
    t = Polynomial(n, {e: c / lead for e, c in t.terms.items()})
    return DiscriminantPolynomial(t, len(orbit), orbit)


def restriction_map(relation: LagrangianEquivalenceRelation, v0: Subspace, degree: int) -> Matrix:
    """Matrix of restrict-to-V0-then-descend between the chosen graded bases.  The relation object
    keeps its reduction by each V0, so the reduction's slice memo serves every degree."""
    reductions = relation.__dict__.setdefault("_reductions", {})
    reduced = reductions[v0] if v0 in reductions else reductions.setdefault(v0, relation.reduce(v0))
    q = quotient(relation.form, v0)
    source = invariant_space(relation, degree)
    target = invariant_space(reduced, degree)
    t_mons = monomials(q.dim, degree)
    t_index = {e: i for i, e in enumerate(t_mons)}
    target_rows = [p.coefficient_row(t_index, len(t_mons)) for p in target]
    images = [f.coefficient_row(t_index, len(t_mons)) for f in _compose_linear(source, q.section)]
    # columns: the target basis, and one right-hand side per source image
    return solve_right(
        Matrix(target_rows, cols=len(t_mons)).transpose(),
        Matrix(images, cols=len(t_mons)).transpose(),
    )


class Separation(NamedTuple):
    status: str  # "equivalent" | "separated" | "exhausted"
    degree: int | None = None
    polynomial: Polynomial | None = None
    values: tuple[Fraction, Fraction] | None = None


def separate(relation: LagrangianEquivalenceRelation, x: Sequence[Rational],
             y: Sequence[Rational], d_max: int = 6) -> Separation:
    """Search for an invariant separating x from y, degree by degree.

    Related points get "equivalent" from membership alone: every invariant
    agrees on them by definition.  For unrelated points the search walks one
    sweep of slices and is a semi-decision bounded by d_max.
    """
    x, y = tuple(x), tuple(y)  # a generator is read once; membership and the evaluation pass read integers
    if relation.membership(x, y):
        return Separation("equivalent")
    (dx, _), (dy, _) = points = _int_vector(x), _int_vector(y)
    for d, basis in zip(range(1, d_max + 1), islice(invariant_slices(relation), 1, None)):
        for f in basis:
            den, deg, (tx, ty) = f._int_values(points)
            if tx * dy ** deg != ty * dx ** deg:  # f(x) = tx / (den dx^deg), f(y) = ty / (den dy^deg)
                return Separation("separated", d, f, (Fraction(tx, den * dx ** deg), Fraction(ty, den * dy ** deg)))
    return Separation("exhausted")


def product_invariant_check(a: LagrangianEquivalenceRelation,
                            b: LagrangianEquivalenceRelation, degree: int) -> bool:
    """dim Inv_d(a x b) == sum over i+j=d of dim Inv_i(a) * dim Inv_j(b)."""
    dims_a = [len(s) for s in islice(invariant_slices(a), degree + 1)]
    dims_b = [len(s) for s in islice(invariant_slices(b), degree + 1)]
    right = sum(dims_a[i] * dims_b[degree - i] for i in range(degree + 1))
    return len(invariant_space(a.product(b), degree)) == right


def rational_point_stream(num_vars: int) -> Iterable[Vector]:
    """Deterministic stream of rational points covering growing integer boxes: the
    shell max |x_i| = r of each radius r in turn, in lexicographic order."""
    if num_vars == 0:
        yield ()
        return
    for radius in count(0):
        for p in product(range(-radius, radius + 1), repeat=num_vars):
            if max(map(abs, p)) == radius:
                yield tuple(map(Fraction, p))


def independent_evaluation_points(polys: Sequence[Polynomial]) -> list[Vector]:
    """First points of rational_point_stream making the evaluation matrix of an independent family invertible."""
    k = len(polys)
    if k == 0:
        return []
    chosen: list[Vector] = []
    rows: list[list[Fraction]] = []
    for pt in rational_point_stream(polys[0].num_vars):
        cand = rows + [[f.evaluate(pt) for f in polys]]
        if len(_echelon(_int_rows(cand))) == len(cand):
            rows = cand
            chosen.append(pt)
            if len(chosen) == k:
                return chosen
    raise ValueError("point stream exhausted before finding an invertible evaluation matrix")
