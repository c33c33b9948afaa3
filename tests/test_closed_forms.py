"""Closed-form oracles for the Weyl groups and for C[V]^R of the gl and osp families.

Each check compares the library with a formula from the literature, not with
a second path through the library:

- Molien's series (1/|W|) sum_w 1/det(I - t w) of `RootSystem.weyl_group`
  against prod 1/(1 - t^d_i) over the degrees of W (Molien 1897; Stanley,
  Bull. AMS 1, 1979), for catalog and exceptional systems;
- the slice dimensions of C[V]^R for gl(m|n) against the number of partitions
  of d with lambda_{m+1} <= n (Berele-Regev, Adv. Math. 64, 1987);
- the slices of gl(m|n) against the span of products of the supersymmetric
  power sums p_k = sum x_i^k - sum (-y_j)^k (Stembridge, J. Algebra 95, 1985);
- the slices of osp(p|q) against products of p_2k = sum x_i^2k - sum y_j^2k,
  with the E terms for even p (Sergeev, Represent. Theory 3, 1999).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice

import pytest

from conftest import EXCEPTIONAL, built_relation, exceptional
from lagrel import Polynomial, catalog, invariant_slices
from lagrel.invariants import span_rows

MOLIEN_DEGREE = 10


def _partitions(d: int, largest: int | None = None):
    """The partitions of d as non-increasing tuples."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest or d), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


def _det_i_minus_tw(a) -> list[Fraction]:
    """Coefficients of det(I - t A), by Faddeev-LeVerrier on the characteristic polynomial.

    With det(lambda I - A) = sum_k c_{n-k} lambda^{n-k}, the recursion
    M_k = A M_{k-1} + c_{n-k+1} I, c_{n-k} = -tr(A M_k)/k gives c_{n-1}, ...,
    c_0, and det(I - t A) = sum_k c_{n-k} t^k.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        m = [[am[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) / k)
    return coeffs


def _inverse_series(poly: list[Fraction], degree: int) -> list[Fraction]:
    """The power series 1/poly up to t^degree, for poly(0) = 1."""
    out = [Fraction(1)]
    for d in range(1, degree + 1):
        out.append(-sum(poly[k] * out[d - k] for k in range(1, min(d, len(poly) - 1) + 1)))
    return out


def molien_series(group, degree: int) -> list[Fraction]:
    total = [Fraction(0)] * (degree + 1)
    for w in group:
        for d, c in enumerate(_inverse_series(_det_i_minus_tw(w.matrix.entries), degree)):
            total[d] += c
    return [c / len(group) for c in total]


def free_series(degrees, degree: int) -> list[int]:
    """prod 1/(1 - t^e) over the degrees e, up to t^degree."""
    out = [1] + [0] * degree
    for e in degrees:
        for d in range(e, degree + 1):
            out[d] += out[d - e]
    return out


def weyl_degrees(name: str, p: int, q: int) -> list[int]:
    """Degrees of W: S_m x S_n for gl(m|n); B_m x B_n for osp(2m+1|2n); D_m x B_n for osp(2m|2n)."""
    if name == "gl":
        return list(range(1, p + 1)) + list(range(1, q + 1))
    m, odd = divmod(p, 2)
    b_n = [2 * i for i in range(1, q // 2 + 1)]
    if odd:
        return [2 * i for i in range(1, m + 1)] + b_n
    d_m = [2 * i for i in range(1, m)] + [m] if m else []
    return d_m + b_n


# degrees of W for the exceptional systems: A1^3, G2 x A1 and B3 x A1
EXCEPTIONAL_DEGREES = {"D(2|1;1)": [2, 2, 2], "D(2|1;2)": [2, 2, 2], "D(2|1;1/3)": [2, 2, 2],
                       "G(3)": [2, 6, 2], "F(4)": [2, 4, 6, 2]}
MOLIEN_SYSTEMS = [("gl", 2, 1), ("gl", 2, 2), ("gl", 3, 2), ("gl", 4, 1),
                  ("osp", 1, 2), ("osp", 2, 2), ("osp", 3, 2), ("osp", 4, 2),
                  ("osp", 4, 4), ("osp", 5, 4), ("osp", 6, 4)] + EXCEPTIONAL


@pytest.mark.parametrize("entry", MOLIEN_SYSTEMS, ids=lambda e: e if isinstance(e, str) else "%s-%d-%d" % e)
def test_weyl_group_molien_series_is_free(entry):
    if isinstance(entry, str):
        group, degrees = exceptional(entry).weyl_group, EXCEPTIONAL_DEGREES[entry]
    else:
        group, degrees = catalog(*entry).weyl_group, weyl_degrees(*entry)
    assert molien_series(group, MOLIEN_DEGREE) == free_series(degrees, MOLIEN_DEGREE)


# slice degrees by m + n, sized to keep the sweep near a second in total
GL_DEGREES = {1: 10, 2: 10, 3: 8, 4: 7, 5: 6}
GL_SYSTEMS = [(m, s - m) for s in GL_DEGREES for m in range(s + 1)]


def hook_count(d: int, m: int, n: int) -> int:
    """Partitions of d inside the (m, n)-hook: lambda_{m+1} <= n."""
    return sum(1 for lam in _partitions(d) if len(lam) <= m or lam[m] <= n)


@pytest.mark.parametrize("entry", GL_SYSTEMS, ids=lambda e: "gl-%d-%d" % e)
def test_gl_slice_dimensions_count_hook_partitions(entry):
    m, n = entry
    top = GL_DEGREES[m + n]
    dims = [len(s) for s in islice(invariant_slices(built_relation("gl", m, n)), top + 1)]
    assert dims == [hook_count(d, m, n) for d in range(top + 1)]


def power_sum(m: int, n: int, k: int) -> Polynomial:
    """p_k = sum x_i^k - sum (-y_j)^k on the coordinates (x_1..x_m, y_1..y_n)."""
    dim = m + n
    terms = {}
    for i in range(dim):
        exp = tuple(k if j == i else 0 for j in range(dim))
        terms[exp] = 1 if i < m else -((-1) ** k)
    return Polynomial(dim, terms)


STEMBRIDGE = [(1, 1, 8), (2, 1, 7), (1, 2, 7), (2, 2, 6), (3, 1, 6), (3, 2, 6)]


@pytest.mark.parametrize("entry", STEMBRIDGE, ids=lambda e: "gl-%d-%d-d%d" % e)
def test_gl_slices_are_spanned_by_power_sum_products(entry):
    m, n, top = entry
    sums = [power_sum(m, n, k) for k in range(1, top + 1)]
    slices = islice(invariant_slices(built_relation("gl", m, n)), 1, top + 1)
    for d, basis in enumerate(slices, start=1):
        products = []
        for lam in _partitions(d):
            prod = Polynomial(m + n, {(0,) * (m + n): 1})
            for k in lam:
                prod = prod * sums[k - 1]
            products.append(prod)
        assert span_rows(products, d) == span_rows(basis, d), f"degree {d}"


def _products(gens, degree: int, num_vars: int):
    """Every product, with repetition, of the (polynomial, degree) pairs gens whose degrees sum to degree."""
    if degree == 0:
        yield Polynomial(num_vars, {(0,) * num_vars: 1})
        return
    for i, (g, e) in enumerate(gens):
        if e <= degree:
            for rest in _products(gens[i:], degree - e, num_vars):
                yield g * rest


def power_sums_of_squares(m: int, n: int, k: int) -> Polynomial:
    """p_2k = sum x_i^2k - sum y_j^2k on the coordinates (x_1..x_m, y_1..y_n)."""
    dim = m + n
    return Polynomial(dim, {tuple(2 * k * (j == i) for j in range(dim)): 1 if i < m else -1 for i in range(dim)})


def elementary_of_squares(dim: int, variables, a: int) -> Polynomial:
    """e_a of the squares of the given coordinates."""
    return Polynomial(dim, {tuple(2 * (j in chosen) for j in range(dim)): 1
                            for chosen in map(set, combinations(variables, a))})


def osp_span(p: int, q: int, d: int) -> list[Polynomial]:
    """The degree-d part of the closed form of C[V]^R for osp(p|q), q = 2n.

    osp(2m+1|2n): products of the p_2k.  osp(2m|2n): those, plus E times products of
    the e_a(x^2) and e_b(y^2), with E = x_1...x_m prod (x_i^2 - y_j^2) (Sergeev 1999).
    """
    m, odd = divmod(p, 2)
    n = q // 2
    dim = m + n
    out = list(_products([(power_sums_of_squares(m, n, k), 2 * k) for k in range(1, d // 2 + 1)], d, dim))
    if not odd:
        e = Polynomial(dim, {tuple(int(j < m) for j in range(dim)): 1})
        for i in range(m):
            for j in range(m, dim):
                e = e * Polynomial(dim, {tuple(2 * (k == i) for k in range(dim)): 1,
                                         tuple(2 * (k == j) for k in range(dim)): -1})
        if e.degree() <= d:
            gens = [(elementary_of_squares(dim, range(m), a), 2 * a) for a in range(1, m + 1)]
            gens += [(elementary_of_squares(dim, range(m, dim), b), 2 * b) for b in range(1, n + 1)]
            out += [e * f for f in _products(gens, d - e.degree(), dim)]
    return out


OSP_CLOSED_FORMS = [(1, 2, 8), (3, 2, 8), (2, 2, 8), (4, 2, 8), (3, 4, 6), (4, 4, 6), (5, 2, 6), (6, 2, 6)]


@pytest.mark.parametrize("entry", OSP_CLOSED_FORMS, ids=lambda e: "osp-%d-%d-d%d" % e)
def test_osp_slices_have_closed_forms(entry):
    p, q, top = entry
    slices = islice(invariant_slices(built_relation("osp", p, q)), 1, top + 1)
    for d, basis in enumerate(slices, start=1):
        assert span_rows(osp_span(p, q, d), d) == span_rows(basis, d), f"degree {d}"
