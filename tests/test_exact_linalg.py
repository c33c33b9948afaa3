"""Canonical subspace arithmetic, forms and quotients."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrel.exact_linalg import (
    BilinearForm,
    Matrix,
    Subspace,
    _int_product,
    format_rational,
    matrix_to_payload,
    orth_complement,
    quotient,
    rational,
    rref,
    solve_right,
    subspace_intersect,
    subspace_sum,
)

from conftest import full_space, random_coisotropic, rebased_form

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)


def test_rational_codec():
    assert rational("3/6") == Fraction(1, 2)
    assert rational(-4) == Fraction(-4)
    assert format_rational(Fraction(-3, 6)) == "-1/2"
    assert format_rational(5) == "5/1"
    with pytest.raises(TypeError):
        rational(0.5)


def test_matrix_payload_round_trip():
    m = Matrix([[1, Fraction(1, 2)], [0, -3]])
    assert Matrix(matrix_to_payload(m)) == m


def test_rref_identity_is_fixed():
    m = Matrix.identity(3)
    assert rref(m) == m


def test_rref_drops_dependent_rows():
    m = Matrix([[2, 4], [1, 2]])
    assert rref(m) == Matrix([[1, 2]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=5, max_size=5), min_size=1, max_size=5))
def test_rref_idempotent(rows):
    m = Matrix(rows, cols=5)
    r = rref(m)
    assert rref(r) == r


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(rationals, min_size=6, max_size=6), min_size=1, max_size=4),
    st.lists(st.lists(rationals, min_size=6, max_size=6), min_size=1, max_size=4),
)
def test_grassmann_dimension_formula(rows_a, rows_b):
    a = Subspace.from_vectors(rows_a, ambient_dim=6)
    b = Subspace.from_vectors(rows_b, ambient_dim=6)
    s = subspace_sum(a, b)
    i = subspace_intersect(a, b)
    assert s.dim + i.dim == a.dim + b.dim
    assert s.contains(a) and s.contains(b)
    assert a.contains(i) and b.contains(i)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=1, max_size=4), st.randoms())
def test_canonical_under_row_shuffle(rows, rnd):
    a = Subspace.from_vectors(rows, ambient_dim=4)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    scaled = [[2 * x for x in r] for r in shuffled]
    b = Subspace.from_vectors(scaled, ambient_dim=4)
    assert a == b
    assert a.basis == b.basis


def test_canonical_under_change_of_basis():
    rng = random.Random(19)
    for _ in range(30):
        dim = rng.randint(2, 6)
        k = rng.randint(1, dim)
        rows = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(dim)] for _ in range(k)]
        a = Subspace.from_vectors(rows, ambient_dim=dim)
        k = a.dim
        if k == 0:
            continue
        # multiply the canonical basis by a random invertible coefficient matrix
        while True:
            coeffs = Matrix(
                [[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
            )
            if coeffs.rank() == k:
                break
        mixed = [
            tuple(sum(coeffs.entries[i][j] * Fraction(a.rows[j][t]) for j in range(k))
                  for t in range(dim))
            for i in range(k)
        ]
        b = Subspace.from_vectors(mixed, ambient_dim=dim)
        assert a == b and a.basis == b.basis


def test_sum_intersect_trivial_cases():
    e1 = Subspace.from_vectors([[1, 0]])
    e2 = Subspace.from_vectors([[0, 1]])
    assert subspace_sum(e1, e2) == full_space(2)
    assert subspace_intersect(e1, e2) == Subspace(2)
    assert subspace_sum(e1, e1) == e1
    assert subspace_intersect(e1, e1) == e1


def test_subspace_dim_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_sum(full_space(2), full_space(3))


def split_form(dim):
    neg = dim // 2
    return BilinearForm.diagonal([1] * (dim - neg) + [-1] * neg)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_orth_complement_involution(dim):
    rng = random.Random(dim)
    form = split_form(dim)
    for _ in range(20):
        k = rng.randint(0, dim)
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(k)]
        u = Subspace.from_vectors(vecs, ambient_dim=dim)
        perp = orth_complement(form, u)
        assert u.dim + perp.dim == dim
        assert orth_complement(form, perp) == u


def test_orth_complement_of_zero_is_everything():
    form = split_form(3)
    assert orth_complement(form, Subspace(3)) == full_space(3)


def test_hyperbolic_isotropic_line_is_self_orthogonal():
    form = BilinearForm(Matrix([[0, 1], [1, 0]]))
    line = Subspace.from_vectors([[1, 0]])
    assert orth_complement(form, line) == line


def test_gl11_isotropic_line_is_self_orthogonal():
    form = BilinearForm.diagonal([1, -1])
    line = Subspace.from_vectors([[1, -1]])
    assert form.pairing((1, -1), (1, -1)) == 0
    assert orth_complement(form, line) == line


def test_times_gram_and_int_pairing_match_the_dense_product():
    # the suite forms, a non-unit diagonal, and each of them rebased to a dense form with denominators
    rng = random.Random(29)
    forms = [split_form(dim) for dim in range(2, 7)] + [BilinearForm.diagonal(["-4/3", 1, "1/3"])]
    forms += [rebased_form(form, rng)[0] for form in forms]
    assert all(form.off_diagonal and form.gram.den > 1 for form in forms[6:])
    for form in forms:
        n, h = form.dim, form.gram.ints
        rows = [(0,) * n] + [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(12)]
        assert form.times_gram(rows) == [list(r) for r in _int_product(rows, h, n)]
        assert form.times_gram([]) == []
        for u in rows:
            for v in rows:
                assert form.int_pairing(u, v) == sum(u[i] * h[i][j] * v[j] for i in range(n) for j in range(n))


def test_bilinear_form_rejects_degenerate():
    with pytest.raises(ValueError):
        BilinearForm(Matrix([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        BilinearForm(Matrix([[0, 1], [2, 0]]))


def test_quotient_of_full_space_is_identity():
    form = split_form(3)
    q = quotient(form, full_space(3))
    assert q.dim == 3
    assert q.projection == Matrix.identity(3)
    assert q.induced_form.gram == form.gram


def test_quotient_gl21_hyperplane():
    # (e1 - e3)-perp inside diag(1,1,-1): dimension-1 quotient, nondegenerate
    form = BilinearForm.diagonal([1, 1, -1])
    v0 = orth_complement(form, Subspace.from_vectors([[1, 0, -1]]))
    assert v0.dim == 2
    q = quotient(form, v0)
    assert q.dim == 1
    assert q.induced_form.gram.rank() == 1
    # section is a right inverse of the projection on the quotient
    assert q.projection.apply(q.section.apply((Fraction(1),))) == (Fraction(1),)


def test_quotient_requires_coisotropic():
    form = split_form(4)
    bad = Subspace.from_vectors([[1, 0, 0, 0]])
    with pytest.raises(ValueError):
        quotient(form, bad)


def rebased_coisotropics(seed):
    """Seeded coisotropics of split forms in the coordinates x' = T x for a rational
    invertible T: the Gram matrix T^-T G T^-1 is not diagonal, and V0' = T V0."""
    rng = random.Random(seed)
    for dim in (2, 3, 4, 5, 6):
        form = split_form(dim)
        for _ in range(4):
            moved, t = rebased_form(form, rng)
            yield moved, random_coisotropic(form, rng).transform(t)


def test_quotient_kernel_is_projection_kernel():
    rng = random.Random(11)
    form = split_form(4)
    cases = [(form, orth_complement(form, Subspace.from_vectors([[1, 0, rng.choice([1, -1]), 0]])))
             for _ in range(10)]
    rebased = list(rebased_coisotropics(12))
    assert sum(v0.dim < form.dim for form, v0 in rebased) >= 10
    for form, v0 in cases + rebased:
        q = quotient(form, v0)
        for r in q.kernel.rows:
            assert not any(q.projection.apply(tuple(Fraction(x) for x in r)))
        assert q.kernel == orth_complement(form, v0)
        assert q.projection @ q.section == Matrix.identity(q.dim)
        assert q.section.transpose() @ form.gram @ q.section == q.induced_form.gram


def test_quotient_memo_returns_what_a_fresh_computation_returns():
    form = split_form(4)
    for iso in ([1, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, 1]):
        v0 = orth_complement(form, Subspace.from_vectors([iso]))
        cached = quotient(form, v0)
        assert quotient(form, v0) is cached
        fresh = quotient.__wrapped__(form, v0)
        assert fresh is not cached
        for field in ("kernel", "projection", "section", "induced_form"):
            assert getattr(fresh, field) == getattr(cached, field)


def test_quotient_memo_tells_forms_apart():
    # the same V0 under two forms of one dimension: a memo keyed by V0 alone returns the first
    v0 = full_space(2)
    plus = quotient(BilinearForm.diagonal([1, 1]), v0)
    split = quotient(BilinearForm.diagonal([1, -1]), v0)
    assert plus.induced_form.gram == Matrix([[1, 0], [0, 1]])
    assert split.induced_form.gram == Matrix([[1, 0], [0, -1]])


def test_solve_right_round_trip():
    a = Matrix([[1, 2], [0, 1], [3, 1]])
    x = Matrix([[2, 1], [-1, 4]])
    b = a @ x
    assert solve_right(a, b) == x
    with pytest.raises(ValueError):
        solve_right(Matrix([[1, 1], [1, 1]]), Matrix([[1, 0], [0, 1]]))
