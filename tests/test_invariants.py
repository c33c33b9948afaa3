"""Graded invariants: oracles first, then the production solver."""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from conftest import built_relation
from test_golden_reports import POINTS
from lagrel import invariants
from lagrel.exact_linalg import (
    BilinearForm,
    Matrix,
    Subspace,
    _echelon,
    _int_rows,
    orth_complement,
    rational,
)
from lagrel.invariants import (
    Polynomial,
    _compose_linear,
    Separation,
    contains_polynomial,
    discriminant_polynomial,
    independent_evaluation_points,
    invariant_slices,
    invariant_space,
    monomials,
    polynomial_to_payload,
    product_invariant_check,
    rational_point_stream,
    restriction_map,
    separate,
    span_rows,
    weyl_invariant_space,
)
from lagrel.linear_relations import Isometry, diagonal, generate_group, graph
from lagrel.relation_monoid import LagrangianEquivalenceRelation, closure
from lagrel.wgrs import catalog, rootsystem_from_payload


def compose_linear(poly, m):
    """poly with x = m t substituted: the package's one composition path on one polynomial."""
    return _compose_linear([poly], m)[0]


def reynolds_span(group, degree):
    """Oracle: span_rows of the group sums of every monomial of the degree."""
    n = group[0].form.dim
    sums = []
    for e in monomials(n, degree):
        total = Counter()
        for s in group:
            total.update(compose_linear(Polynomial(n, {e: 1}), s.matrix).terms)
        sums.append(Polynomial(n, total))
    return span_rows(sums, degree)


def term_degrees(p):
    """The total degrees of the terms of p: one value exactly when p is homogeneous and nonzero."""
    return {sum(e) for e in p.terms}


def verify_invariants(relation, polys):
    """Recheck symbolically that every polynomial is invariant on every component."""
    n = relation.n
    for comp in relation.components:
        rows = comp.space.rows
        m1 = Matrix([[r[i] for r in rows] for i in range(n)], cols=len(rows))
        m2 = Matrix([[r[n + i] for r in rows] for i in range(n)], cols=len(rows))
        if any(compose_linear(f, m1) != compose_linear(f, m2) for f in polys):
            return False
    return True


def polynomial_from_payload(payload, num_vars):
    terms = {}
    for key, val in payload.items():
        exp = tuple(int(k) for k in key.split(",")) if key else ()
        terms[exp] = rational(val)
    return Polynomial(num_vars, terms)


def test_degree_zero_is_constants(gl21):
    basis = invariant_space(gl21, 0)
    assert basis == [Polynomial(3, {(0, 0, 0): 1})]


def test_diagonal_relation_has_all_monomials():
    form = BilinearForm.diagonal([1, 1, -1])
    rel = closure(form, [])
    for d, basis in enumerate(islice(invariant_slices(rel), 4)):
        assert len(basis) == len(monomials(3, d))


def test_frozen_catalog_dimensions(gl21, gl22):
    # regression values computed by this solver and cross-checked against the
    # graded exact sequence identity
    assert [len(b) for b in islice(invariant_slices(gl21), 7)] == [1, 1, 2, 3, 5, 7, 10]
    assert [len(b) for b in islice(invariant_slices(gl22), 7)] == [1, 1, 2, 3, 5, 7, 11]


def test_invariants_agree_on_100_random_points_per_component(gl21):
    rng = random.Random(3)
    bases = dict(enumerate(islice(invariant_slices(gl21), 1, 4), start=1))
    for comp in gl21.components:
        for _ in range(100):
            t = [rng.randint(-3, 3) for _ in range(comp.dim)]
            point = [
                sum(t[k] * comp.space.rows[k][i] for k in range(comp.dim))
                for i in range(2 * gl21.n)
            ]
            x, y = point[: gl21.n], point[gl21.n :]
            for basis in bases.values():
                for f in basis:
                    assert f.evaluate(x) == f.evaluate(y)


def test_weyl_invariants_examples():
    # S2 swapping two coordinates of a definite plane
    form = BilinearForm.diagonal([1, 1])
    swap = Isometry(form, Matrix([[0, 1], [1, 0]]))
    ident = Isometry.identity(form)
    basis = weyl_invariant_space([ident, swap], 2)
    assert len(basis) == 2
    for f in basis:
        assert compose_linear(f, swap.matrix) == f


def test_weyl_invariants_match_reynolds(gl21, gl22):
    # A2 under the form diag(1, 3): W = S3 with reflection entries -1/2, so the
    # graphs of W are built from isometries with a denominator
    a2_skewed = rootsystem_from_payload({
        "gram": [["1", "0"], ["0", "3"]],
        "roots": [["2", "0"], ["-2", "0"], ["1", "1"], ["-1", "-1"], ["1", "-1"], ["-1", "1"]],
    })
    groups = [list(rel.weyl_group) for rel in (gl21, gl22)]
    groups += [list(catalog(*entry).weyl_group) for entry in (("gl", 3, 1), ("osp", 3, 2))]
    groups.append(list(a2_skewed.weyl_group))
    assert len(groups[-1]) == 6 and any(w.matrix.den == 2 for w in groups[-1])
    for group in groups:
        for d in (1, 2, 3, 4):
            a = weyl_invariant_space(group, d)
            assert span_rows(a, d) == reynolds_span(group, d)


def test_trivial_group_gives_all_monomials():
    form = BilinearForm.diagonal([1, -1])
    basis = weyl_invariant_space([Isometry.identity(form)], 3)
    assert len(basis) == len(monomials(2, 3))


def test_gl21_weyl_degree_one(gl21):
    basis = weyl_invariant_space(list(gl21.weyl_group), 1)
    assert len(basis) == 2


def test_invariants_contained_in_weyl_invariants(gl21, gl22):
    for rel in (gl21, gl22):
        group = list(rel.weyl_group)
        for d, basis in zip((1, 2, 3, 4), islice(invariant_slices(rel), 1, None)):
            weyl_basis = weyl_invariant_space(group, d)
            for f in basis:
                assert contains_polynomial(weyl_basis, f, d)


def test_discriminant_polynomial_gl11(gl11):
    disc = discriminant_polynomial(gl11)
    assert disc.degree == 1
    assert disc.polynomial == Polynomial(2, {(1, 0): 1, (0, 1): 1})


def test_discriminant_polynomial_gl21(gl21):
    disc = discriminant_polynomial(gl21)
    assert disc.degree == 2
    assert len(disc.hyperplanes) == 2
    # T = (x0 + x2)(x1 + x2)
    expected = Polynomial(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1})
    assert disc.polynomial == expected


@pytest.mark.parametrize("system", ["gl-1-1", "gl-1-2", "gl-2-1", "gl-2-2"])
def test_discriminant_times_weyl_invariants_are_invariants(system):
    _, m, n = system.split("-")
    rel = built_relation("gl", int(m), int(n))
    disc = discriminant_polynomial(rel)
    group = list(rel.weyl_group)
    slices = islice(invariant_slices(rel), disc.degree, None)
    for d, basis in zip((0, 1, 2), slices):  # d = 0: T itself lies in the slice of its degree
        for g in weyl_invariant_space(group, d):
            assert contains_polynomial(basis, disc.polynomial * g, d + disc.degree)


def test_discriminant_requires_one_regular(gl11):
    prod = gl11.product(gl11)
    with pytest.raises(ValueError):
        discriminant_polynomial(prod)


@pytest.mark.parametrize("entry", [("gl", 3, 0), ("gl", 1, 0), ("osp", 1, 2)])
def test_empty_discriminant_gives_one(entry):
    rel = built_relation(*entry)
    assert rel.is_one_regular() == (True, None)
    disc = discriminant_polynomial(rel)
    assert (disc.polynomial, disc.degree, disc.hyperplanes) == (Polynomial(rel.n, {(0,) * rel.n: 1}), 0, ())


def test_restriction_map_degree_zero_is_identity(gl21):
    ok, witness = gl21.is_one_regular()
    m = restriction_map(gl21, witness, 0)
    assert m == Matrix.identity(1)


def test_restriction_map_surjective_with_kernel_dims(gl21, gl22):
    for rel in (gl21, gl22):
        ok, witness = rel.is_one_regular()
        disc = discriminant_polynomial(rel)
        reduced = rel.reduce(witness)
        group = list(rel.weyl_group)
        slices = zip(range(7), invariant_slices(rel), invariant_slices(reduced))
        for d, source, target in slices:
            m = restriction_map(rel, witness, d)
            target_dim, source_dim = len(target), len(source)
            assert m.rank() == target_dim
            kernel_dim = source_dim - target_dim
            expected = (
                len(weyl_invariant_space(group, d - disc.degree))
                if d >= disc.degree
                else 0
            )
            assert kernel_dim == expected


def test_separate_equal_points(gl11):
    res = separate(gl11, (1, 0), (1, 0))
    assert res.status == "equivalent"


def test_separate_related_points(gl11):
    res = separate(gl11, (0, 0), (4, -4))
    assert res.status == "equivalent"


def test_separate_decides_related_points_by_membership_alone(monkeypatch):
    # a fresh relation: one whose slice memo is filled would sweep nothing anyway
    rel = catalog("gl", 2, 2).build_relation()
    solved = []
    kernel_rows = invariants._kernel_rows
    monkeypatch.setattr(invariants, "_kernel_rows",
                        lambda pivots, k: solved.append(k) or kernel_rows(pivots, k))
    assert separate(rel, (1, 2, 3, 4), (2, 1, 3, 4), 6).status == "equivalent"
    assert solved == []


# every related pair that `separate` is asked about in the CLI tests, the golden
# reports and the demos; `separate` answers them by membership, so the agreement
# of their invariants is checked here
RELATED_PAIRS = [(system, *related) for system, (_, related) in sorted(POINTS.items())] + [
    ("gl-2-2", "1,2,3,4", "2,1,3,4"),
    ("gl-2-1", "0,1,0", "0,1,0"),
    ("gl-1-1", "0,0", "4,-4"),
    ("gl-1-1", "1,0", "1,0"),
]


def test_related_points_agree_on_every_invariant():
    for system, x, y in RELATED_PAIRS:
        _, m, n = system.split("-")
        rel = built_relation("gl", int(m), int(n))
        xv, yv = (tuple(Fraction(part) for part in p.split(",")) for p in (x, y))
        assert rel.membership(xv, yv), (system, x, y)
        for d, basis in enumerate(islice(invariant_slices(rel), 1, 7), start=1):
            assert basis, (system, d)
            for f in basis:
                assert f.evaluate(xv) == f.evaluate(yv), (system, x, y, d)


def test_separate_distinct_points(gl11):
    res = separate(gl11, (1, 0), (0, 1))
    assert res.status == "separated"
    assert res.degree == 2
    fx, fy = res.values
    assert fx != fy
    # the unique degree-1 invariant takes equal values on these points, so the
    # first separator genuinely lives in degree 2
    (lin,) = invariant_space(gl11, 1)
    assert lin.evaluate((1, 0)) == lin.evaluate((0, 1))
    # and it separates (1, 0) from the origin, in degree 1
    res = separate(gl11, (1, 0), (0, 0), 1)
    assert (res.status, res.degree, res.polynomial, res.values) == ("separated", 1, lin, (1, 0))


def test_zero_polynomial_lies_in_every_span(gl11):
    # the zero polynomial adds no rank to a span, the empty span included
    for d in range(3):
        assert contains_polynomial(invariant_space(gl11, d), Polynomial(2), d)
    assert contains_polynomial([], Polynomial(2), 2)


def test_separate_exhausted_below_the_first_separating_degree(gl21):
    # unrelated points that the degree-1 invariant x0 + x1 + x2 separates: with d_max = 0
    # the search has no degree to try
    x, y = (1, 2, 3), (4, 5, 7)
    assert not gl21.membership(x, y)
    assert separate(gl21, x, y, d_max=0) == Separation("exhausted")
    assert separate(gl21, x, y, d_max=1).degree == 1


def test_separate_values_are_the_returned_polynomials_values():
    # points with denominators, some given as "p/q" strings: the values separate reports are
    # the returned polynomial's own, and every invariant before it agrees on the two points
    rng = random.Random(41)
    for entry in (("gl", 2, 1), ("gl", 2, 2), ("osp", 3, 2)):
        rel = built_relation(*entry)
        separated = 0
        for i in range(12):
            x, y = ([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rel.n)] for _ in "xy")
            res = separate(rel, [str(v) for v in x] if i % 2 else x, y, 4)
            if res.status == "separated":
                f = res.polynomial
                assert all(type(v) is Fraction for v in res.values)
                assert res.values == (f.evaluate(x), f.evaluate(y)) and res.values[0] != res.values[1]
                earlier = [g for d in range(1, res.degree + 1) for g in invariant_space(rel, d)]
                assert all(g.evaluate(x) == g.evaluate(y) for g in earlier[:earlier.index(f)])
                separated += 1
        assert separated >= 6, entry


def test_restriction_map_sweeps_each_relation_once(monkeypatch):
    # d = 0..8 on a fresh gl(3|2): the relation and its reduction each read off 9 slices
    rel = catalog("gl", 3, 2).build_relation()
    _, witness = rel.is_one_regular()
    solved = []
    kernel_rows = invariants._kernel_rows
    monkeypatch.setattr(invariants, "_kernel_rows", lambda pivots, k: solved.append(k) or kernel_rows(pivots, k))
    ranks = [restriction_map(rel, witness, d).rank() for d in range(9)]
    assert len(solved) == 18
    reduced = rel.reduce(witness)
    assert ranks == [len(b) for b in islice(invariant_slices(reduced), 9)]  # surjective in every degree


def test_product_with_point_relation(gl11):
    trivial = closure(BilinearForm.diagonal([1]), [])
    for d in range(4):
        assert product_invariant_check(gl11, trivial, d)


def test_independent_evaluation_points():
    polys = [Polynomial(2, {(2, 0): 1}), Polynomial(2, {(1, 1): 1}), Polynomial(2, {(0, 2): 1})]
    points = independent_evaluation_points(polys)
    assert len(points) == 3
    rows = [[f.evaluate(p) for f in polys] for p in points]
    assert len(_echelon(_int_rows(rows))) == 3


def test_point_stream_is_deterministic():
    a = []
    for i, p in enumerate(rational_point_stream(2)):
        a.append(p)
        if i > 10:
            break
    b = []
    for i, p in enumerate(rational_point_stream(2)):
        b.append(p)
        if i > 10:
            break
    assert a == b


def test_polynomial_algebra_basics():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 1}) * Polynomial(2, {(1, 0): 1, (0, 1): -1})
    assert p == Polynomial(2, {(2, 0): 1, (0, 2): -1})
    assert p.evaluate((3, 2)) == 5
    assert p.degree() == 2 and term_degrees(p) == {2}
    sub = compose_linear(p, Matrix([[1, 1], [1, -1]]))
    assert sub == Polynomial(2, {(1, 1): 4})


def test_polynomial_payload_round_trip():
    p = Polynomial(3, {(2, 0, 1): Fraction(-3, 2), (0, 0, 0): 1})
    assert polynomial_from_payload(polynomial_to_payload(p), 3) == p


def test_graded_invariant_basis(gl11):
    bases = list(islice(invariant_slices(gl11), 5))
    assert [len(b) for b in bases] == [1, 1, 2, 3, 4]
    assert bases[0] == [Polynomial(2, {(0, 0): 1})]
    assert verify_invariants(gl11, [f for b in bases for f in b])
    # the degree-1 slice is spanned by x0 + x1, so x0 alone is not invariant
    x0 = Polynomial(2, {(1, 0): 1})
    assert not verify_invariants(gl11, bases[1] + [x0])


def test_compose_linear_matches_evaluation_with_fractions():
    # non-integer substitution, non-homogeneous polynomial, more t-variables
    # than x-variables: compare with evaluating at m t directly
    rng = random.Random(5)

    def frac():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))

    for _ in range(25):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            deg = rng.randint(0, 4)
            exp = [0] * n
            for _ in range(deg):
                exp[rng.randrange(n)] += 1
            terms[tuple(exp)] = frac()
        p = Polynomial(n, terms)
        m = Matrix([[frac() for _ in range(k)] for _ in range(n)], cols=k)
        q = compose_linear(p, m)
        assert q.num_vars == k
        # one expansion of m for several polynomials gives what each gets alone
        assert _compose_linear([p, p * p, Polynomial(n)], m) == [q, compose_linear(p * p, m), Polynomial(k)]
        for _ in range(5):
            t = [frac() for _ in range(k)]
            assert q.evaluate(t) == p.evaluate(m.apply(t))


def fraction_evaluate(poly, point):
    """Oracle: the term-by-term Fraction evaluation that `Polynomial.evaluate` replaced."""
    p = tuple(rational(x) for x in point)
    if len(p) != poly.num_vars:
        raise ValueError("point length disagrees with variable count")
    total = Fraction(0)
    for e, c in poly.terms.items():
        val = c
        for x, k in zip(p, e):
            if k:
                val *= x ** k
        total += val
    return total


def test_evaluate_matches_the_fraction_oracle():
    # homogeneous, mixed-degree, zero and 0-variable polynomials, at int, negative,
    # Fraction and "p/q" points; equal values and equal strings
    rng = random.Random(31)

    def frac():
        return Fraction(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 6, 7)))

    def point(n):
        entries = [frac() for _ in range(n)]
        return [tuple(e.numerator for e in entries), tuple(entries),
                tuple(f"{e.numerator}/{e.denominator}" for e in entries),
                [rng.choice((e, str(e), e.numerator)) for e in entries]]

    polys = [Polynomial(0), Polynomial(0, {(): Fraction(-5, 3)}), Polynomial(3)]
    for _ in range(60):
        n = rng.randint(1, 4)
        homogeneous = rng.randint(0, 4) if rng.random() < 0.5 else None
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exp = [0] * n
            for _ in range(rng.randint(0, 4) if homogeneous is None else homogeneous):
                exp[rng.randrange(n)] += 1
            terms[tuple(exp)] = frac()
        polys.append(Polynomial(n, terms))
    assert any(len(term_degrees(p)) == 1 and p.degree() > 1 for p in polys)
    assert any(len(term_degrees(p)) > 1 for p in polys)
    for p in polys:
        for pt in point(p.num_vars) + point(p.num_vars):
            got, want = p.evaluate(pt), fraction_evaluate(p, pt)
            assert type(got) is Fraction and got == want and str(got) == str(want), (p, pt)
        for bad in ((0,) * (p.num_vars + 1), ("1/2",) * (p.num_vars + 2)):
            with pytest.raises(ValueError, match="^point length disagrees with variable count$"):
                p.evaluate(bad)


def test_compose_linear_with_zero_variables():
    p = Polynomial(2, {(0, 0): Fraction(3, 2), (1, 1): 5})
    assert compose_linear(p, Matrix([(), ()], cols=0)) == Polynomial(0, {(): Fraction(3, 2)})
    c = Polynomial(0, {(): Fraction(3, 2)})
    assert compose_linear(c, Matrix((), cols=2)) == Polynomial(2, {(0, 0): Fraction(3, 2)})


def test_restriction_map_empty_source_and_target_shapes(gl11):
    # gl(1|1) reduces to a point: every positive-degree target slice is empty
    ok, witness = gl11.is_one_regular()
    for d in range(1, 4):
        m = restriction_map(gl11, witness, d)
        assert (m.rows, m.cols) == (0, d)
    # osp(2|2) has no degree-1 invariants on either side
    rs = catalog("osp", 2, 2)
    v0 = orth_complement(rs.form, Subspace.from_vectors([rs.iso_roots[0]]))
    m = restriction_map(rs.build_relation(), v0, 1)
    assert (m.rows, m.cols) == (0, 0)
    assert restriction_map(rs.build_relation(), v0, 0) == Matrix.identity(1)


# catalog entry and highest degree: the slices from a closure's generators
# (the simple reflections and one idempotent per isotropic W-orbit) against
# the slices from all of its components
SLICE_PATHS = [
    ("gl", 1, 0, 6), ("gl", 1, 1, 6), ("gl", 1, 2, 6), ("gl", 2, 0, 6), ("gl", 2, 1, 6),
    ("gl", 2, 2, 6), ("gl", 3, 0, 6), ("gl", 3, 1, 6), ("gl", 4, 0, 6), ("osp", 3, 2, 6),
    ("gl", 3, 2, 4),
]


@pytest.mark.parametrize("name, m, n, max_degree", SLICE_PATHS)
def test_generators_and_all_components_give_the_same_slices(name, m, n, max_degree):
    rel = built_relation(name, m, n)
    every = LagrangianEquivalenceRelation(rel.form, rel.components)
    assert rel.generators or len(rel) == 1
    # built without generators, every non-diagonal component is one
    assert set(every.generators) == set(rel.components) - {diagonal(rel.form)}
    slices = zip(range(max_degree + 1), invariant_slices(rel), invariant_slices(every))
    for d, basis, every_basis in slices:
        assert basis == every_basis, d
        assert verify_invariants(rel, basis), d


def test_inverse_generator_adds_no_constraints(monkeypatch):
    # closure() lists the inverse of a 3-cycle right after it; an f invariant
    # under the cycle is invariant under its inverse, so the inverse's constraint
    # rows all reduce to zero against the cycle's pivots
    form = BilinearForm.diagonal([1, 1, 1])
    cycle = Isometry(form, Matrix([(0, 0, 1), (1, 0, 0), (0, 1, 0)]))
    rel = closure(form, [graph(cycle)])
    assert len(rel.generators) == 2
    every = LagrangianEquivalenceRelation(form, rel.components)
    expected = list(islice(invariant_slices(every), 1, 5))
    added = []
    eliminate = invariants._eliminate

    def count_pivots(rows, pivots):
        before = len(pivots)
        eliminate(rows, pivots)
        added.append(len(pivots) - before)
        return pivots

    monkeypatch.setattr(invariants, "_eliminate", count_pivots)
    assert list(islice(invariant_slices(rel), 1, 5)) == expected
    assert [len(b) for b in expected] == [1, 2, 4, 5]  # cyclic orbits of monomials
    # in each degree from 0, the cycle's constraints add every pivot and its inverse's none
    assert added == [0, 0, 2, 0, 4, 0, 6, 0, 10, 0]


def test_sweep_expands_each_degree_once(monkeypatch):
    # each degree's substitutions are built once, from the degree below, so a
    # sweep to degree 7 on gl(3|2) lists few monomials (a per-degree rebuild lists 777);
    # a fresh relation, so the memo of the shared one cannot hide degrees from the count
    rel = catalog("gl", 3, 2).build_relation()
    calls = []
    mons = invariants.monomials
    monkeypatch.setattr(invariants, "monomials", lambda n, d: calls.append(d) or mons(n, d))
    assert [len(b) for b in islice(invariant_slices(rel), 8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert len(calls) <= 228


# The slice memo: each relation object keeps the slices swept so far.

def fresh_gl21():
    return catalog("gl", 2, 1).build_relation()


def test_build_relation_sweeps_nothing():
    assert "_slice_memo" not in vars(fresh_gl21())


def test_interleaved_sweeps_and_a_sweep_after_separate_match_a_fresh_relation():
    expected = list(islice(invariant_slices(fresh_gl21()), 7))
    rel = fresh_gl21()
    a, b = invariant_slices(rel), invariant_slices(rel)
    got_a = [next(a), next(a), next(a)]
    got_b = [next(b)]
    got_a.append(next(a))
    got_b += [next(b) for _ in range(6)]
    got_a += [next(a) for _ in range(3)]
    assert got_a == expected and got_b == expected
    rel = fresh_gl21()
    assert separate(rel, (1, 0, 0), (3, 0, 0)).status == "separated"
    assert list(islice(invariant_slices(rel), 7)) == expected


def test_a_repeated_sweep_extends_only_past_the_memo(monkeypatch):
    rel = fresh_gl21()
    calls = []
    kernel_rows = invariants._kernel_rows
    degree_of = {len(monomials(3, d)): d for d in range(8)}  # one kernel read-off per degree
    monkeypatch.setattr(invariants, "_kernel_rows",
                        lambda pivots, k: calls.append(degree_of[k]) or kernel_rows(pivots, k))
    first = list(islice(invariant_slices(rel), 5))
    assert calls == [0, 1, 2, 3, 4]
    calls.clear()
    assert list(islice(invariant_slices(rel), 5)) == first
    assert invariant_space(rel, 3) == first[3]
    assert calls == []
    invariant_space(rel, 6)
    assert calls == [5, 6]


def test_a_swept_relation_is_freed_without_the_cycle_collector():
    # the memo's sweep holds only n and the generators, not the relation
    rel = fresh_gl21()
    list(islice(invariant_slices(rel), 4))
    ref = weakref.ref(rel)
    gc.disable()
    try:
        del rel
        assert ref() is None
    finally:
        gc.enable()


def test_mutating_a_returned_slice_does_not_change_the_memo():
    rel = fresh_gl21()
    slices = list(islice(invariant_slices(rel), 4))
    expected = [list(s) for s in slices]
    slices[2].clear()
    slices[3].append(Polynomial(3, {(0, 0, 0): 1}))
    assert list(islice(invariant_slices(rel), 4)) == expected
    assert invariant_space(rel, 2) == expected[2]


def test_an_interrupted_sweep_is_started_over(monkeypatch):
    expected = list(islice(invariant_slices(fresh_gl21()), 5))
    rel = fresh_gl21()
    kernel_rows = invariants._kernel_rows

    def interrupt_at_degree_3(pivots, ncols):
        if ncols == len(monomials(3, 3)):
            raise KeyboardInterrupt
        return kernel_rows(pivots, ncols)

    monkeypatch.setattr(invariants, "_kernel_rows", interrupt_at_degree_3)
    with pytest.raises(KeyboardInterrupt):
        list(islice(invariant_slices(rel), 5))
    monkeypatch.setattr(invariants, "_kernel_rows", kernel_rows)
    assert list(islice(invariant_slices(rel), 5)) == expected


def test_equal_relations_with_different_generators_keep_their_own_memo():
    # all of S3 as components; one transposition alone as generator slices differently
    form = BilinearForm.diagonal([1, 1, 1])
    s12 = Isometry.reflection(form, (1, -1, 0))
    s3 = [graph(w) for w in generate_group(form, [s12, Isometry.reflection(form, (0, 1, -1))], 6)]
    whole = LagrangianEquivalenceRelation(form, s3)
    partial = LagrangianEquivalenceRelation(form, s3, generators=[graph(s12)])
    assert whole == partial and hash(whole) == hash(partial)
    assert [len(b) for b in islice(invariant_slices(whole), 4)] == [1, 1, 2, 3]
    assert [len(b) for b in islice(invariant_slices(partial), 4)] == [1, 2, 4, 6]
    assert [len(b) for b in islice(invariant_slices(whole), 4)] == [1, 1, 2, 3]
