"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a PASS line with its measured numbers; stated time budgets
are asserted with a monotonic clock.  Shared corpora are built once.  Criteria
1-4, 6-8 and 11 assert on the checks that the `verify` suites tally.
"""

from __future__ import annotations

import random
import time
from itertools import islice

import pytest

from lagrel.cli import _tally, monoid_checks, reduction_checks, suite_product, wgrs_checks
from lagrel.exact_linalg import BilinearForm, Matrix, Subspace, _echelon
from lagrel.invariants import (
    discriminant_polynomial,
    invariant_slices,
    monomials,
    restriction_map,
    separate,
    weyl_invariant_space,
)
from lagrel.linear_relations import (
    classify_idempotent,
    compose,
    idempotent_relation,
    random_pairs,
)
from lagrel.relation_monoid import closure
from lagrel.wgrs import catalog

from conftest import built_relation

SEED = 20240229
PAIRS = 1000


@pytest.fixture(scope="module")
def checked():
    """The six monoid checks of `verify monoid` on its corpus at SEED, with each composite."""
    start = time.monotonic()
    results = [monoid_checks(form, a, b) for form, a, b in random_pairs(SEED, PAIRS)]
    return results, time.monotonic() - start


def failures(results, *names):
    """(pair index, check name) for every named check that failed."""
    return [(i, name) for i, (_, checks) in enumerate(results) for name in names if not checks[name]]


def catalog_entries(max_dim):
    out = [("gl", m, n) for m in range(0, max_dim + 1) for n in range(0, max_dim + 1)
           if 1 <= m + n <= max_dim]
    return out


CATALOG = catalog_entries(5) + [("osp", 3, 2)]


def test_criterion_01_monoid_laws(checked):
    results, elapsed = checked
    assert failures(results, "composition_lagrangian") == []
    assert elapsed < 30.0, f"monoid corpus took {elapsed:.1f}s"
    print(f"PASS criterion 1: {len(results)} compositions Lagrangian of full dim in {elapsed:.1f}s")


def test_criterion_02_atypicality(checked):
    results, _ = checked
    assert failures(results, "kernel_dims_equal", "atypicality_bounds") == []
    print(f"PASS criterion 2: kernel dims equal and atypicality bounds hold on {len(results)} pairs")


def test_criterion_03_structure_lemmas(checked):
    results, _ = checked
    # p1(L) = p1(K2)-perp, L^{-1} o L = E_{p1(L)}, canonical data is a complete invariant
    lemmas = ("image_is_kernel_complement", "inverse_composition_idempotent",
              "canonical_data_round_trip")
    assert failures(results, *lemmas) == []
    # idempotent compositions with equal images classify as collapses
    symmetric = [c for c, _ in results if c.p1 == c.p2 and compose(c, c) == c]
    assert all(classify_idempotent(c) == c.p1 for c in symmetric)
    print(f"PASS criterion 3: structure lemmas exact on {len(results)} pairs "
          f"({len(symmetric)} symmetric idempotents classified)")


@pytest.fixture(scope="module")
def built_catalog():
    """Each CATALOG root system with its relation, built once for both tallies, and the build time."""
    start = time.monotonic()
    systems = [(rs, rs.build_relation()) for rs in (catalog(*entry) for entry in CATALOG)]
    return systems, time.monotonic() - start


def tally_catalog(checks, built_catalog):
    """The tally of a per-entry check function over CATALOG, and the time it took with the builds."""
    systems, build_time = built_catalog
    start = time.monotonic()
    tally = _tally(check for rs, rel in systems for check in checks(rs, rel))
    return tally, build_time + time.monotonic() - start


@pytest.fixture(scope="module")
def wgrs_tally(built_catalog):
    return tally_catalog(lambda rs, rel: wgrs_checks(rs), built_catalog)


@pytest.fixture(scope="module")
def reduction_tally(built_catalog):
    return tally_catalog(reduction_checks, built_catalog)


def test_criterion_04_wgrs_closure(wgrs_tally):
    tally, elapsed = wgrs_tally
    assert tally["component_description"] == (len(CATALOG), 0)
    assert elapsed < 120.0, f"closures took {elapsed:.1f}s"
    print(f"PASS criterion 4: {len(CATALOG)} closures equal their (w, S) description, {elapsed:.1f}s")


def test_criterion_05_isoset_combinatorics():
    checked_cards = 0
    for name, m, n in catalog_entries(5):
        rs = catalog(name, m, n)
        mx = rs.maximal_isosets()
        assert {len(s) for s in mx} == {min(m, n)}
        checked_cards += 1
    transported = 0
    for name, m, n in catalog_entries(4):
        rs = catalog(name, m, n)
        mx = rs.maximal_isosets()
        v = tuple(0 for _ in range(m + n))
        for s in mx:
            for s_prime in mx:
                w = rs.transport_isoset(v, s, s_prime)
                assert {w.apply(r) for p in s for r in (p, tuple(-x for x in p))} == {
                    r for p in s_prime for r in (p, tuple(-x for x in p))}
                transported += 1
    print(f"PASS criterion 5: cardinality min(m,n) for {checked_cards} entries, "
          f"{transported} transport witnesses verified")


def test_criterion_06_two_step(wgrs_tally):
    assert wgrs_tally[0]["two_step_witness"] == (604, 0)
    print("PASS criterion 6: 604 two-step witnesses verified exactly")


def test_criterion_07_reduction_coherence(reduction_tally):
    tally, elapsed = reduction_tally
    assert tally["reduction_square"] == (37, 0)
    # reduce keeps exactly the components with E o L o E = L, per special coisotropic
    assert tally["reduction_filters"] == (72, 0)
    assert elapsed < 60.0, f"reduction squares took {elapsed:.1f}s"
    print(f"PASS criterion 7: 37 reduction squares commute and 72 reduction filters agree "
          f"exactly in {elapsed:.1f}s")


def test_criterion_08_semiregularity(reduction_tally):
    assert reduction_tally[0]["semiregular"] == (len(CATALOG), 0)
    print(f"PASS criterion 8: all {len(CATALOG)} catalog relations semiregular")


def baby_oracle_dimension(degree):
    # independent oracle: a homogeneous f is constant on the collapsed line
    # through v = (1, 0) iff f(v) = 0, one linear condition on the coefficients
    mons = monomials(2, degree)
    row = [[1 if e[1] == 0 else 0 for e in mons]]
    rank = len(_echelon(row))
    return len(mons) - rank


def test_criterion_09_baby_invariant_dimensions():
    form = BilinearForm(Matrix([[0, 1], [1, 0]]))
    line = Subspace.from_vectors([[1, 0]])
    baby = closure(form, [idempotent_relation(form, line)])
    gl11 = built_relation("gl", 1, 1)
    slices = zip(range(1, 7), islice(invariant_slices(baby), 1, None),
                 islice(invariant_slices(gl11), 1, None))
    for d, baby_basis, gl11_basis in slices:
        oracle = baby_oracle_dimension(d)
        assert oracle == d
        assert len(baby_basis) == oracle
        assert len(gl11_basis) == oracle
    print("PASS criterion 9: baby and gl(1|1) graded dimensions are 1..6, matching the oracle")


def test_criterion_10_graded_exact_sequence():
    start = time.monotonic()
    for name, m, n in (("gl", 2, 1), ("gl", 2, 2)):
        rel = built_relation(name, m, n)
        ok, witness = rel.is_one_regular()
        assert ok
        disc = discriminant_polynomial(rel)
        reduced = rel.reduce(witness)
        group = list(rel.weyl_group)
        for d, basis, reduced_basis in zip(range(7), invariant_slices(rel), invariant_slices(reduced)):
            dim_r, dim_red = len(basis), len(reduced_basis)
            dim_w = len(weyl_invariant_space(group, d - disc.degree)) if d >= disc.degree else 0
            assert dim_r == dim_w + dim_red, (name, d)
            rmap = restriction_map(rel, witness, d)
            assert rmap.rank() == dim_red, (name, d)
    elapsed = time.monotonic() - start
    assert elapsed < 180.0, f"graded sequence checks took {elapsed:.1f}s"
    print(f"PASS criterion 10: graded exact sequence and surjectivity for d<=6 in {elapsed:.1f}s")


def test_criterion_11_product_formula():
    assert suite_product(0)["product_dimension_formula"] == (5, 0)
    print("PASS criterion 11: product dimension formula exact for d<=4")


CURATED_GL21_PAIRS = [
    ((1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1)), ((2, 0, 0), (0, 0, 2)),
    ((1, 2, 3), (0, 3, 3)), ((1, 1, 0), (1, 0, 1)), ((0, 1, 0), (0, 0, -1)),
    ((1, 2, 0), (2, 2, 1)), ((3, 1, 2), (1, 3, 3)), ((1, 0, 1), (0, 0, 0)),
    ((2, 1, 0), (1, 1, 1)), ((1, 1, 1), (1, 1, -1)), ((0, 2, 1), (2, 0, -1)),
    ((5, 0, 0), (0, 5, 1)), ((1, -1, 0), (1, 1, -2)), ((2, 3, 1), (3, 2, -1)),
    ((0, 0, 2), (2, 0, 0)), ((1, 4, 0), (4, 1, 1)), ((2, 2, 2), (2, 2, -2)),
    ((1, 0, -2), (0, 1, 2)), ((3, 3, 0), (3, 0, 3)),
]


def test_criterion_12_detectability_sampling():
    from fractions import Fraction

    rel = built_relation("gl", 2, 1)
    rng = random.Random(SEED)
    bases = dict(enumerate(islice(invariant_slices(rel), 1, 7), start=1))

    def rat():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))

    related_checked = 0
    unrelated_separated = 0
    unrelated_total = 0
    for i in range(200):
        x = tuple(rat() for _ in range(3))
        if i % 2 == 0:
            # walk along a random component from x when possible
            comp = rng.choice(rel.components)
            t = [rat() for _ in range(comp.dim)]
            point = [
                sum(t[k] * comp.space.rows[k][j] for k in range(comp.dim))
                for j in range(6)
            ]
            x, y = tuple(point[:3]), tuple(point[3:])
        else:
            y = tuple(rat() for _ in range(3))
        if rel.membership(x, y):
            for d, basis in bases.items():
                for f in basis:
                    assert f.evaluate(x) == f.evaluate(y), (x, y, d)
            related_checked += 1
        else:
            unrelated_total += 1
            if any(f.evaluate(x) != f.evaluate(y) for d in bases for f in bases[d]):
                unrelated_separated += 1
    assert related_checked > 0
    for x, y in CURATED_GL21_PAIRS:
        assert not rel.membership(x, y)
        res = separate(rel, x, y, 6)
        assert res.status == "separated" and res.degree <= 6, (x, y)
    print(
        f"PASS criterion 12: {related_checked} related pairs agree on all invariants; "
        f"20 curated pairs separated (degree<=6); random unrelated pairs separated: "
        f"{unrelated_separated}/{unrelated_total} (reported, not gated)"
    )
