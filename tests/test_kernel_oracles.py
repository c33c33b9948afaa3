"""The integer elimination kernel against sympy's exact linear algebra.

`Matrix.inverse`, `solve_right` and `_nullspace` all read their answers off
`_echelon`; sympy computes the same objects by independent code, so any
disagreement (including which error a singular, rank-deficient or
inconsistent system raises) is a bug in the kernel.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrel.exact_linalg import Matrix, Subspace, _nullspace, solve_right

sympy = pytest.importorskip("sympy")

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
    # already canonical: re-reducing the rows changes nothing
    assert Subspace(ncols, kernel).rows == kernel
