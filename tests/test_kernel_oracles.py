"""The integer matrix representation and elimination kernel against independent oracles.

`Matrix` holds integers over one denominator, and `Matrix.inverse`,
`solve_right`, `_nullspace`, `subspace_intersect`, `compose` and
`LinearRelation.k2` all read their answers off `_echelon`; the invariant
solver's sparse elimination must reproduce `_echelon(_nullspace(...))`.  Two
oracles compute the same objects by independent code: plain `Fraction`
loops written out below, and sympy's exact linear algebra.  Any
disagreement (including which error a singular, rank-deficient or
inconsistent system raises) is a bug in the representation or the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagrel.exact_linalg import (
    BilinearForm,
    Matrix,
    Subspace,
    _echelon,
    _eliminate_prefix,
    _nullspace,
    _pivot,
    _primitive,
    solve_right,
    subspace_intersect,
)
from lagrel.invariants import _eliminate, _kernel_rows
from lagrel.linear_relations import Isometry, LinearRelation, compose, suite_form

try:
    import sympy
except ImportError:  # the Fraction oracles below still run
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

# zeros are drawn often so that singular and rank-deficient inputs are common
entries = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=3))


def to_sympy(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for r in m.entries for x in r])


def from_sympy(m) -> Matrix:
    return Matrix([[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)], cols=m.cols)


@st.composite
def matrices(draw, rows: int, cols: int):
    body = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if cols > 1 and draw(st.booleans()):
        # force a dependent column: the last one repeats a multiple of the first
        k = draw(entries)
        for row in body:
            row[-1] = k * row[0]
    return Matrix(body, cols=cols)


@needs_sympy
@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: matrices(n, n)))
def test_inverse_matches_sympy(m):
    s = to_sympy(m)
    if s.det() == 0:
        with pytest.raises(ValueError, match="^singular matrix$"):
            m.inverse()
    else:
        inv = m.inverse()
        assert inv == from_sympy(s.inv())
        assert m @ inv == Matrix.identity(m.rows)


def test_inverse_rejects_non_square():
    with pytest.raises(ValueError, match="^only square matrices invert$"):
        Matrix([[1, 2, 3], [4, 5, 6]]).inverse()


@st.composite
def systems(draw):
    r = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    a = draw(matrices(r, c))
    if draw(st.booleans()):
        b = a @ draw(matrices(c, k))  # consistent by construction
    else:
        b = draw(matrices(r, k))
    return a, b


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_right_matches_sympy(system):
    a, b = system
    sa, sb = to_sympy(a), to_sympy(b)
    if sa.rank() < a.cols:
        with pytest.raises(ValueError, match="^coefficient matrix does not have full column rank$"):
            solve_right(a, b)
    elif sa.row_join(sb).rank() > sa.rank():
        with pytest.raises(ValueError, match="^inconsistent linear system$"):
            solve_right(a, b)
    else:
        # full column rank: the normal equations have the same unique solution
        expected = (sa.T * sa).inv() * sa.T * sb
        x = solve_right(a, b)
        assert x == from_sympy(expected)
        assert a @ x == b


def test_solve_right_row_count_mismatch():
    with pytest.raises(ValueError, match="^row count mismatch$"):
        solve_right(Matrix([[1, 0], [0, 1]]), Matrix([[1]]))


def test_solve_right_zero_unknowns():
    empty = Matrix([(), ()], cols=0)
    assert solve_right(empty, Matrix([[0], [0]])) == Matrix((), cols=1)
    with pytest.raises(ValueError, match="^inconsistent linear system$"):
        solve_right(empty, Matrix([[0], [1]]))


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda c: st.tuples(
            st.just(c),
            st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=c, max_size=c), max_size=5),
        )
    )
)
def test_nullspace_matches_sympy(case):
    ncols, rows = case
    kernel = _nullspace(rows, ncols)
    for v in kernel:
        assert all(sum(x * y for x, y in zip(r, v)) == 0 for r in rows)
    expected = sympy.Matrix(len(rows), ncols, [x for r in rows for x in r]).nullspace()
    assert len(kernel) == len(expected)
    assert Subspace(ncols, kernel) == Subspace.from_vectors(
        [[Fraction(int(x.p), int(x.q)) for x in v] for v in expected], ambient_dim=ncols
    )
    # the free-column basis: one vector per non-pivot column j, nonzero at j and zero
    # at every other non-pivot column
    pivots = {_pivot(r) for r in _echelon(rows)}
    free = [j for j in range(ncols) if j not in pivots]
    assert len(kernel) == len(free)
    for j, v in zip(free, kernel):
        assert [v[c] != 0 for c in free] == [c == j for c in free]


# ---------------------------------------------------------------------------
# The (den, ints) representation against plain Fraction loops.
# ---------------------------------------------------------------------------

# mixed denominators, and zeros often enough for singular inputs
mixed = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=7))


def ref_matmul(a, b, cols):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)] for row in a]


def ref_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def ref_reduce(a, width):
    """Fraction Gauss-Jordan on the rows of a; returns (reduced rows, pivot columns)."""
    rows = [list(r) for r in a]
    pivots = []
    for c in range(width):
        p = next((i for i in range(len(pivots), len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        r = len(pivots)
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def ref_solve(a, b, n, k):
    """X with A X = B, or the error the kernel must raise."""
    rows, pivots = ref_reduce([ra + rb for ra, rb in zip(a, b)], n + k)
    if [c for c in pivots if c < n] != list(range(n)):
        return "rank"
    if len(pivots) > n:
        return "inconsistent"
    return [rows[i][n:] for i in range(n)]


def check_canonical(m: Matrix, entries):
    """den > 0, gcd(den, ints) = 1, the right shape, and ints / den is entries."""
    assert m.den > 0
    assert gcd(m.den, *(x for row in m.ints for x in row)) == 1
    assert m.rows == len(entries) and all(len(row) == m.cols for row in m.ints)
    assert [[Fraction(x, m.den) for x in row] for row in m.ints] == [list(r) for r in entries]
    assert m.entries == tuple(tuple(r) for r in entries)
    assert m == Matrix(entries, cols=m.cols) and hash(m) == hash(Matrix(entries, cols=m.cols))


@st.composite
def shaped(draw, rows: int, cols: int):
    return [[draw(mixed) for _ in range(cols)] for _ in range(rows)]


@st.composite
def products(draw):
    r, k, c = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    return r, k, c, draw(shaped(r, k)), draw(shaped(k, c)), draw(shaped(1, k))[0]


@settings(max_examples=200, deadline=None)
@given(products())
def test_matrix_operations_match_fraction_loops(case):
    # 0 x n and n x 0 shapes are drawn too: canonical_data builds them
    r, k, c, a, b, v = case
    ma, mb = Matrix(a, cols=k), Matrix(b, cols=c)
    check_canonical(ma, a)
    check_canonical(mb, b)
    check_canonical(ma @ mb, ref_matmul(a, b, c))
    check_canonical(ma.transpose(), ref_transpose(a, k))
    assert ma.transpose().transpose() == ma
    assert ma.apply(v) == tuple(sum((row[j] * v[j] for j in range(k)), Fraction(0)) for row in a)
    assert ma.rank() == len(ref_reduce(a, k)[1])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(lambda n: shaped(n, n)))
def test_inverse_matches_fraction_loops(a):
    n = len(a)
    m = Matrix(a, cols=n)
    expected = ref_solve(a, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)], n, n)
    if expected == "rank":
        with pytest.raises(ValueError, match="^singular matrix$"):
            m.inverse()
    else:
        check_canonical(m.inverse(), expected)


@st.composite
def fraction_systems(draw):
    r, n, k = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    a = draw(shaped(r, n))
    if draw(st.booleans()):
        b = ref_matmul(a, draw(shaped(n, k)), k)  # consistent by construction
    else:
        b = draw(shaped(r, k))
    return r, n, k, a, b


@settings(max_examples=200, deadline=None)
@given(fraction_systems())
def test_solve_right_matches_fraction_loops(system):
    r, n, k, a, b = system
    expected = ref_solve(a, b, n, k)
    ma, mb = Matrix(a, cols=n), Matrix(b, cols=k)
    if expected == "rank":
        with pytest.raises(ValueError, match="^coefficient matrix does not have full column rank$"):
            solve_right(ma, mb)
    elif expected == "inconsistent":
        with pytest.raises(ValueError, match="^inconsistent linear system$"):
            solve_right(ma, mb)
    else:
        check_canonical(solve_right(ma, mb), expected)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.integers(min_value=1, max_value=5),
)
@example([1, Fraction(-1, 3), 2], [1, 4, 0, 0], 2)  # <v|v> = -13/12 < 0
def test_one_matrix_reached_by_different_routes(diag, ints, scale):
    form = BilinearForm.diagonal(diag)
    n = form.dim
    v = [Fraction(x, scale) for x in ints[:n]]
    norm = form.pairing(v, v)
    if norm == 0:
        return
    r = Isometry.reflection(form, v).matrix
    # the textbook formula, entry by entry in Fractions
    gv = [diag[j] * v[j] for j in range(n)]
    literal = Matrix([[Fraction(int(i == j)) - 2 * v[i] * gv[j] / norm for j in range(n)] for i in range(n)])
    check_canonical(r, literal.entries)
    routes = [
        literal,
        Isometry.reflection(form, [x * scale for x in v]).matrix,  # a rescaled vector
        Isometry.reflection(form, [-x for x in v]).matrix,
        Matrix.identity(n) @ r,
        r @ r @ r,  # r is an involution
        r.transpose().transpose(),
        r.inverse(),
        solve_right(Matrix.identity(n), r),
    ]
    for m in routes:
        assert m == r and hash(m) == hash(r)
        assert (m.den, m.ints) == (r.den, r.ints)
    assert r @ r == Matrix.identity(n)


# ---------------------------------------------------------------------------
# Composites, kernels and intersections against Fraction fiber products.
#
# `compose`, `LinearRelation.k2` and `subspace_intersect` each read their
# answer off one `_echelon` of a stacked block (`_eliminate_prefix`).  The
# oracles below solve for the coefficients instead, by Fraction Gauss-Jordan
# on the spanning rows as drawn, and push them through the other block.
# ---------------------------------------------------------------------------


def ref_nullspace(rows, width):
    """A Fraction basis of {v : M v = 0} for the matrix M with the given rows."""
    reduced, pivots = ref_reduce([[Fraction(x) for x in r] for r in rows], width)
    basis = []
    for j in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[j] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][j]
        basis.append(v)
    return basis


def ref_combine(coeffs, rows, width):
    """The combination sum_i coeffs[i] rows[i], of the given width."""
    return [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(width)]


small = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))


@st.composite
def relation_rows(draw, n: int):
    """Spanning rows (x | y) of a relation on Q^n: random, dim 0, full, or with a rank-deficient half."""
    shape = draw(st.sampled_from(("random", "zero", "full", "x-only", "y-only", "coupled")))
    if shape == "zero":
        return []
    if shape == "full":
        return [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    rows = [[draw(small) for _ in range(2 * n)] for _ in range(draw(st.integers(min_value=1, max_value=2 * n)))]
    for row in rows:
        if shape == "x-only":
            row[n:] = [0] * n
        elif shape == "y-only":
            row[:n] = [0] * n
        elif shape == "coupled":
            row[n:] = [row[0]] * n  # a y half of rank at most 1
    return rows


def relation(n: int, rows) -> LinearRelation:
    return LinearRelation(suite_form(n), Subspace(2 * n, rows))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), relation_rows(n), relation_rows(n))))
def test_compose_matches_fiber_product(case):
    n, a, b = case
    # (s, t) with s.A2 = t.B1: the nullspace of the n x (da + db) matrix [A2; -B1]^T
    middle = ref_transpose([r[n:] for r in a] + [[-y for y in r[:n]] for r in b], n)
    image = []
    for coeffs in ref_nullspace(middle, len(a) + len(b)):
        s, t = coeffs[:len(a)], coeffs[len(a):]
        image.append(ref_combine(s, [r[:n] for r in a], n) + ref_combine(t, [r[n:] for r in b], n))
    assert compose(relation(n, a), relation(n, b)).space == Subspace.from_vectors(image, ambient_dim=2 * n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(st.just(n), relation_rows(n))))
def test_k2_is_the_kernel_of_the_second_projection(case):
    n, rows = case
    # {x : (x, 0) in L}: coefficients s with s.Y = 0, pushed through X
    coeffs = ref_nullspace(ref_transpose([r[n:] for r in rows], n), len(rows))
    kernel = [ref_combine(s, [r[:n] for r in rows], n) for s in coeffs]
    assert relation(n, rows).k2 == Subspace.from_vectors(kernel, ambient_dim=n)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=4).flatmap(
                lambda m: st.lists(st.lists(small, min_size=n + m, max_size=n + m), max_size=5)),
        )
    )
)
def test_eliminate_prefix_is_the_part_vanishing_on_the_prefix(case):
    n, rows = case
    width = len(rows[0]) if rows else n
    out = _eliminate_prefix(rows, n)
    # {v[n:] : v in the row space, v[:n] = 0}, from the coefficients that kill the prefix
    coeffs = ref_nullspace(ref_transpose([r[:n] for r in rows], n), len(rows))
    tails = [ref_combine(s, [r[n:] for r in rows], width - n) for s in coeffs]
    assert Subspace(width - n, out) == Subspace.from_vectors(tails, ambient_dim=width - n)
    assert _echelon(out) == out  # already canonical, with no second pass


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(st.just(n), *(st.lists(st.lists(small, min_size=n, max_size=n), max_size=n)
                                      for _ in range(2)))))
def test_subspace_intersect_matches_annihilators(case):
    # v lies in A and in B iff every annihilator of A or of B kills it
    n, a, b = case
    annihilators = ref_nullspace(a, n) + ref_nullspace(b, n)
    expected = Subspace.from_vectors(ref_nullspace(annihilators, n), ambient_dim=n)
    assert subspace_intersect(Subspace(n, a), Subspace(n, b)) == expected
    assert Subspace(n, _eliminate_prefix([r + r for r in a] + [r + [0] * n for r in b], n)) == expected


def test_primitive_edge_rows():
    assert _primitive(()) is None
    assert _primitive((0, 0, 0)) is None
    assert _primitive((0, -4, 6, 0)) == (0, 2, -3, 0)
    assert _primitive((-1, 2)) == (1, -2)
    row = (0, 3, -2, 5)
    assert _primitive(row) is row  # content 1 and a positive lead: the row itself
    assert _primitive([0, 3, -2, 5]) == row


@settings(max_examples=200, deadline=None)
@given(st.lists(small, max_size=6), st.integers(min_value=-6, max_value=6).filter(bool))
def test_primitive_divides_out_the_signed_content(row, k):
    prim = _primitive([k * x for x in row])
    if not any(row):
        assert prim is None
        return
    assert gcd(*prim) == 1 and next(x for x in prim if x) > 0
    assert prim == _primitive(row) == _primitive([-x for x in row])
    scale = Fraction(next(x for x in row if x), next(x for x in prim if x))
    assert [Fraction(x) for x in row] == [scale * x for x in prim]


# ---------------------------------------------------------------------------
# The slice solver's sparse elimination (`invariants._eliminate`, read off by
# `invariants._kernel_rows`) against `_echelon(_nullspace(...))` and sympy.
# ---------------------------------------------------------------------------


@st.composite
def sparse_systems(draw):
    """(ncols, rows as {column: int}, split): dense or sparse rows with zero entries, zero and
    repeated rows and negative leads, folded in two batches split at `split`."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    dense = draw(st.booleans())
    value = st.integers(min_value=-3, max_value=3)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if rows and draw(st.integers(min_value=0, max_value=4)) == 0:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif dense:
            rows.append(dict(enumerate(draw(st.lists(value, min_size=ncols, max_size=ncols)))))
        else:
            rows.append(draw(st.dictionaries(st.integers(min_value=0, max_value=ncols - 1), value, max_size=3)))
    return ncols, rows, draw(st.integers(min_value=0, max_value=len(rows)))


@needs_sympy
@settings(max_examples=250, deadline=None)
@given(sparse_systems())
@example((3, [], 0))  # no rows: the whole space
@example((3, [{0: 1, 2: 1}, {1: -2, 2: 1}, {0: 2, 2: -4}], 1))  # full rank: no slice
@example((4, [{}, {1: 0}, {0: -2, 3: 4}, {0: -2, 3: 4}, {0: 0, 1: 0, 2: 0, 3: 0}], 3))  # zero and repeated rows
@example((4, [{0: -3, 1: 2, 3: -1}, {1: -1, 2: 5}], 0))  # negative leads
def test_sparse_slice_solve_matches_echelon_nullspace_and_sympy(case):
    ncols, rows, split = case
    pivots = _eliminate(rows[split:], _eliminate(rows[:split], {}))
    for c, r in pivots.items():  # primitive, keyed by the last nonzero, zero at every other pivot
        assert max(r) == c and 0 not in r.values() and gcd(*r.values()) == 1
        assert not any(k in r for k in pivots if k != c)
    dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    kernel = _kernel_rows(pivots, ncols)
    assert kernel == _echelon(_nullspace(dense, ncols))
    basis = sympy.Matrix(dense or [[0] * ncols]).nullspace()
    expected = []
    if basis:
        for row in sympy.Matrix.hstack(*basis).T.rref()[0].tolist():
            scale = lcm(*(int(x.q) for x in row))
            ints = [int(x * scale) for x in row]
            expected.append(tuple(x // gcd(*ints) for x in ints))
    assert kernel == tuple(expected)
