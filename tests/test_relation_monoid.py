"""Closure, Weyl groups, reduction, regularity, products."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import lcm

import pytest

from lagrel import linear_relations
from lagrel.exact_linalg import BilinearForm, Matrix, Subspace, _pivot, orth_complement, quotient, rational
from lagrel.linear_relations import (
    Isometry,
    LinearRelation,
    classify_idempotent,
    compose,
    diagonal,
    generate_group,
    graph,
    idempotent_relation,
    inverse,
    random_pairs,
)
from lagrel.relation_monoid import (
    ClosureBoundExceeded,
    LagrangianEquivalenceRelation,
    _map_halves,
    closure,
)
from lagrel import catalog

from conftest import EXCEPTIONAL, built_relation, exceptional_relation, full_space

GL11 = BilinearForm.diagonal([1, -1])


def gl11_idempotent():
    return idempotent_relation(GL11, Subspace.from_vectors([[1, -1]]))


def test_empty_closure_is_diagonal():
    rel = closure(GL11, [])
    assert len(rel) == 1
    assert diagonal(GL11) in rel


def test_order_two_reflection_closure():
    form = BilinearForm.diagonal([1])
    s = Isometry.reflection(form, (1,))
    rel = closure(form, [graph(s)])
    assert len(rel) == 2
    assert {c.space for c in rel.components} == {diagonal(form).space, graph(s).space}


def test_gl11_closure_is_two_components():
    rel = closure(GL11, [gl11_idempotent()])
    assert len(rel) == 2
    assert rel.verify_closed()


def test_closure_idempotent():
    rel = closure(GL11, [gl11_idempotent()])
    again = closure(GL11, list(rel.components))
    assert again == rel
    rel21 = catalog("gl", 2, 1).build_relation()
    again21 = closure(rel21.form, list(rel21.components))
    assert again21 == rel21


def test_closure_rejects_non_lagrangian_generator():
    not_lagrangian = LinearRelation(GL11, Subspace.from_vectors([[1, 0, 0, 0]], ambient_dim=4))
    with pytest.raises(ValueError):
        closure(GL11, [not_lagrangian])


def test_closure_bound_exceeded_on_infinite_group(monkeypatch):
    # either bound stops the boost's words: the depth bound once they reach depth 3 (7 components)
    from lagrel import relation_monoid

    form = BilinearForm(Matrix([[0, 1], [1, 0]]))
    boost = Isometry(form, Matrix([[2, 0], [0, "1/2"]]))
    with pytest.raises(ClosureBoundExceeded, match="closure exceeded 64 components"):
        closure(form, [graph(boost)], max_components=64)
    monkeypatch.setattr(relation_monoid, "MAX_ROUNDS", 3)
    with pytest.raises(ClosureBoundExceeded, match="closure exceeded 3 rounds"):
        closure(form, [graph(boost)], max_components=1000)


def test_closure_bound_counts_the_diagonal_and_the_generators():
    # the diagonal alone fills a bound of 1, so adding E breaks it
    with pytest.raises(ClosureBoundExceeded, match="closure exceeded 1 components"):
        closure(GL11, [gl11_idempotent()], 1)
    assert len(closure(GL11, [gl11_idempotent()], 2)) == 2


def test_closure_rejects_a_non_positive_bound():
    for bound in (0, -1):
        with pytest.raises(ValueError, match="closure bounds must be positive"):
            closure(GL11, [], bound)


def test_non_group_component_set_fails_verify_closed():
    # two transpositions of S3 without their products
    form = BilinearForm.diagonal([1, 1, 1])
    s12 = Isometry.reflection(form, (1, -1, 0))
    s23 = Isometry.reflection(form, (0, 1, -1))
    rel = LagrangianEquivalenceRelation(form, [graph(s12), graph(s23)])
    assert not rel.verify_closed()


def test_generators_that_miss_a_component_fail_verify_closed():
    # all of S3 as components, but one transposition as the only generator
    form = BilinearForm.diagonal([1, 1, 1])
    s12 = Isometry.reflection(form, (1, -1, 0))
    s3 = [graph(w) for w in generate_group(form, [s12, Isometry.reflection(form, (0, 1, -1))], 6)]
    rel = LagrangianEquivalenceRelation(form, s3)
    assert rel.verify_closed()
    assert len(rel.weyl_group) == 6
    assert not LagrangianEquivalenceRelation(form, s3, generators=[graph(s12)]).verify_closed()


def test_generator_outside_the_components_is_rejected():
    # a wrong generator list would give invariant_slices wrong slices
    form = BilinearForm.diagonal([1, 1, 1])
    s12 = graph(Isometry.reflection(form, (1, -1, 0)))
    s23 = graph(Isometry.reflection(form, (0, 1, -1)))
    with pytest.raises(ValueError, match="generator is not a component of the relation"):
        LagrangianEquivalenceRelation(form, [s12], generators=[s23])
    assert LagrangianEquivalenceRelation(form, [s12], generators=[s12]).generators == (s12,)


def test_weyl_groups_of_catalog(gl21, gl22):
    assert len(closure(GL11, [gl11_idempotent()]).weyl_group) == 1
    assert len(gl21.weyl_group) == 2
    assert len(gl22.weyl_group) == 4


def test_special_coisotropics_and_discriminant(gl11, gl21):
    assert gl11.special_coisotropics() == (Subspace.from_vectors([[1, -1]]), full_space(2))
    assert gl11.discriminant() == (Subspace.from_vectors([[1, -1]]),)
    disc = gl21.discriminant()
    assert len(disc) == 2
    assert all(u.dim == 2 for u in disc)
    # the two hyperplanes are swapped by the Weyl group
    s = next(w for w in gl21.weyl_group if not w.is_identity())
    assert disc[0].transform(s.matrix) == disc[1]


def test_every_symmetric_idempotent_component_is_classified(gl21, gl22):
    for rel in (gl21, gl22):
        skew = 0
        for comp in rel.components:
            if compose(comp, comp) == comp:
                if comp.p1 == comp.p2:
                    v0 = classify_idempotent(comp)
                    assert v0 in rel.special_coisotropics()
                else:
                    # idempotents with distinct images do occur in closures
                    skew += 1
                    with pytest.raises(ValueError):
                        classify_idempotent(comp)
        assert skew > 0
        for v0 in rel.special_coisotropics():
            assert idempotent_relation(rel.form, v0) in rel


def test_membership(gl11):
    assert gl11.membership((2, 1), (2, 1))
    assert gl11.membership((0, 0), (5, -5))
    assert not gl11.membership((1, 0), (0, 1))
    with pytest.raises(ValueError):
        gl11.membership((1, 0, 0), (0, 0, 1))


def reference_membership(rel, x, y):
    """Oracle: (x, y) lies on a component L iff L's rows and the pair span an n-dimensional space."""
    pair = [*map(rational, x), *map(rational, y)]
    den = lcm(*(v.denominator for v in pair))
    pair = [int(v * den) for v in pair]
    return any(Subspace(2 * rel.n, [*c.space.rows, pair]).dim == rel.n for c in rel.components)


def membership_points(rel, seed, rounds=12):
    """Seeded pairs: a point of a random component, integral in even rounds and rational in odd
    ones (then half given as "p/q" strings), and the same point moved in one coordinate."""
    rng = random.Random(seed)
    n = rel.n
    for i in range(rounds):
        rows = rng.choice(rel.components).space.rows
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if i % 2 else rng.randint(-3, 3) for _ in rows]
        point = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(2 * n)]
        moved = list(point)
        moved[rng.randrange(2 * n)] += rng.choice((1, Fraction(1, 3)))
        for p in (point, moved):
            yield ([str(v) for v in p[:n]] if i % 4 == 3 else p[:n]), p[n:]


MEMBERSHIP_CASES = {
    **{f"{name}-{m}-{k}": partial(built_relation, name, m, k)
       for name, m, k in (("gl", 2, 1), ("gl", 3, 2), ("osp", 3, 2), ("osp", 4, 2))},
    **{name: partial(exceptional_relation, name) for name in EXCEPTIONAL},
    "gl21 rebased": lambda: rebased(built_relation("gl", 2, 1), 3),
    "gl11 x gl21": lambda: product_of(("gl", 1, 1), ("gl", 2, 1)),
    "gl11 x gl21 rebased": lambda: semiregularity_case("gl11 x gl21 rebased"),
}


@pytest.mark.parametrize("name", MEMBERSHIP_CASES)
def test_membership_matches_the_rank_oracle(name):
    rel = MEMBERSHIP_CASES[name]()
    if "rebased" in name:  # canonical rows with non-unit pivots, from a form with denominators
        assert any(r[_pivot(r)] != 1 for c in rel.components for r in c.space.rows)
        assert rel.form.gram.den != 1
    answers = set()
    for x, y in membership_points(rel, f"membership-{name}"):
        got = rel.membership(x, y)
        assert got == reference_membership(rel, x, y), (x, y)
        answers.add(got)
    assert answers == {True, False}


def test_membership_reads_each_components_equations_once(monkeypatch):
    read = []
    free_columns = linear_relations._free_columns
    monkeypatch.setattr(linear_relations, "_free_columns", lambda rows, k: read.append(rows) or free_columns(rows, k))
    rel = catalog("gl", 2, 1).build_relation()
    assert closure(rel.form, rel.generators) == rel
    assert read == []
    assert not rel.membership((1, 0, 0), (0, 0, 1))  # <x|x> != <y|y>: rejected before any equation
    assert read == []
    for _ in range(2):  # an unrelated pair of equal norms visits every component
        assert not rel.membership((1, 0, 0), (1, 1, 1))
    assert rel.membership((0, 1, 0), (0, 1, 0))
    assert sorted(read) == sorted(c.space.rows for c in rel.components)


def test_reduce_by_full_space_is_identity(gl21):
    assert gl21.reduce(full_space(3)) == gl21


def test_reduce_gl21_hyperplane(gl21):
    v0 = orth_complement(gl21.form, Subspace.from_vectors([[1, 0, -1]]))
    red = gl21.reduce(v0)
    assert red.n == 1
    assert len(red) == 1
    assert len(red.weyl_group) == 1


def test_reduce_requires_special(gl21):
    with pytest.raises(ValueError):
        gl21.reduce(Subspace.from_vectors([[1, 0, 0], [0, 1, 0]]))


def test_one_regular(gl11, gl21, gl22):
    assert closure(GL11, []).is_one_regular() == (True, None)
    for rel in (gl11, gl21, gl22):
        ok, witness = rel.is_one_regular()
        assert ok and witness.dim == rel.n - 1
    prod = gl11.product(gl11)
    ok, _ = prod.is_one_regular()
    assert not ok
    assert prod.is_one_semiregular()


def test_codimension_two_discriminant_is_not_one_regular():
    # E for the Lagrangian V0 = span{e1+e3, e2+e4} under diag(1, 1, -1, -1): the one
    # discriminant subspace is V0 itself, of codimension 2, so there is no hyperplane witness
    form = BilinearForm.diagonal([1, 1, -1, -1])
    v0 = orth_complement(form, Subspace.from_vectors([[1, 0, 1, 0], [0, 1, 0, 1]]))
    rel = closure(form, [idempotent_relation(form, v0)])
    assert len(rel) == 2
    assert [u.dim for u in rel.discriminant()] == [2]
    assert rel.is_one_regular() == (False, None)


def test_reduced_weyl_group(gl11, gl21, gl22):
    # the stabilizer quotient {pi s sigma : s in W, s(V0) = V0} is the Weyl group of the reduction
    for rel, order in ((gl11, 1), (gl21, 1), (gl22, 1), (built_relation("gl", 3, 1), 2)):
        ok, witness = rel.is_one_regular()
        q = quotient(rel.form, witness)
        induced = {q.projection @ s.matrix @ q.section
                   for s in rel.weyl_group if witness.transform(s.matrix) == witness}
        reduced = rel.reduce(witness).weyl_group
        assert induced == {w.matrix for w in reduced} and len(reduced) == order


def test_product_structure(gl11):
    prod = gl11.product(gl11)
    assert prod.n == 4
    assert len(prod) == 4
    assert prod.verify_closed()
    trivial = closure(GL11, [])
    embedded = gl11.product(trivial)
    assert len(embedded) == len(gl11)
    rng = random.Random(2)
    for _ in range(50):
        x = tuple(rng.randint(-2, 2) for _ in range(4))
        y = tuple(rng.randint(-2, 2) for _ in range(4))
        expected = gl11.membership(x[:2], y[:2]) and gl11.membership(x[2:], y[2:])
        assert prod.membership(x, y) == expected


def test_semiregularity(gl11, gl21, gl22):
    for rel in (gl11, gl21, gl22):
        assert rel.is_one_semiregular()
    prod = gl11.product(gl11)
    assert prod.is_semiregular()
    # a given decomposition is verified rather than trusted
    blocks = [
        Subspace.from_vectors([[1, 0, 0, 0], [0, 1, 0, 0]], ambient_dim=4),
        Subspace.from_vectors([[0, 0, 1, 0], [0, 0, 0, 1]], ambient_dim=4),
    ]
    split = prod.split_by_decomposition(blocks)
    assert split is not None and all(factor.is_one_regular()[0] for factor in split)
    wrong = [
        Subspace.from_vectors([[1, 0, 0, 0], [0, 0, 1, 0]], ambient_dim=4),
        Subspace.from_vectors([[0, 1, 0, 0], [0, 0, 0, 1]], ambient_dim=4),
    ]
    assert prod.split_by_decomposition(wrong) is None
    # factors that do not span V, then factors that span V but are not orthogonal
    assert gl21.split_by_decomposition([Subspace.from_vectors([[1, 0, 0]])]) is None
    halves = [Subspace.from_vectors([[1, 0, 0], [0, 1, 0]]), Subspace.from_vectors([[1, 0, 1]])]
    assert gl21.split_by_decomposition(halves) is None


def test_atypicality_histogram(gl22):
    hist = gl22.atypicality_histogram()
    assert hist == {0: 4, 1: 16, 2: 4}
    assert sum(hist.values()) == len(gl22)


def test_relation_contains_diagonal_always():
    rel = LagrangianEquivalenceRelation(GL11, [gl11_idempotent()])
    assert diagonal(GL11) in rel


def product_of(*entries):
    rel = built_relation(*entries[0])
    for entry in entries[1:]:
        rel = rel.product(built_relation(*entry))
    return rel


def rebased(rel, seed):
    """rel in the coordinates x' = T x for a seeded random rational T: Gram T^-T G T^-1."""
    rng = random.Random(seed)
    n = rel.n
    while True:
        t = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        if t.rank() == n:
            break
    t_inv = t.inverse()
    form = BilinearForm(t_inv.transpose() @ rel.form.gram @ t_inv)
    comps = [LinearRelation(form, Subspace(2 * n, _map_halves(c.space.rows, n, t))) for c in rel.components]
    return LagrangianEquivalenceRelation(form, comps)


def p1_cases():
    """The seed 0-2 pairs of `verify monoid` with each pair's composite and inverse, then every
    component of gl(3|2), osp(4|2), G(3) and a rebased gl(2|1)."""
    for seed in range(3):
        for _, a, b in random_pairs(seed, 60):
            yield from (a, b, compose(a, b), inverse(a), inverse(b))
    for rel in (built_relation("gl", 3, 2), built_relation("osp", 4, 2), exceptional_relation("G(3)"),
                rebased(built_relation("gl", 2, 1), 5)):
        yield from rel.components


def test_p1_matches_the_echelon_of_the_first_halves():
    # p1 reads L's canonical rows that pivot in the first block; the oracle echelons every first half
    scaled = False
    for rel in p1_cases():
        n = rel.n
        want = Subspace(n, [r[:n] for r in rel.space.rows])
        assert rel.p1 == want and rel.p1.rows == want.rows, rel.space.rows
        scaled |= [r[:n] for r in rel.space.rows if any(r[:n])] != list(want.rows)
    assert scaled  # some heads have a content to divide out


# a product of 1-regular relations is 1-semiregular by definition; each one was
# reported not semiregular while supports of product components joined blocks
PRODUCTS = {
    "gl11 x gl21": (("gl", 1, 1), ("gl", 2, 1)),
    "gl21 x gl11": (("gl", 2, 1), ("gl", 1, 1)),
    "gl11 x gl12": (("gl", 1, 1), ("gl", 1, 2)),
    "gl11 x osp32": (("gl", 1, 1), ("osp", 3, 2)),
    "gl21 x gl21": (("gl", 2, 1), ("gl", 2, 1)),
    "gl11 x gl11 x gl21": (("gl", 1, 1), ("gl", 1, 1), ("gl", 2, 1)),
}
REBASED = {"gl11 x gl21 rebased": ("gl11 x gl21", 1), "gl11 x osp32 rebased": ("gl11 x osp32", 2)}


def semiregularity_case(name):
    if name in REBASED:
        base, seed = REBASED[name]
        return rebased(product_of(*PRODUCTS[base]), seed)
    return product_of(*PRODUCTS[name])


@pytest.mark.parametrize("name", list(PRODUCTS) + list(REBASED))
def test_products_of_catalog_relations_are_semiregular(name):
    rel = semiregularity_case(name)
    assert not rel.is_one_regular()[0]
    assert rel.is_one_semiregular()
    assert rel.is_semiregular()


@pytest.mark.parametrize("name", list(PRODUCTS) + list(REBASED))
def test_decomposition_factors_are_orthogonal_nondegenerate_and_split_closed(name):
    rel = semiregularity_case(name)
    form = rel.form
    factors = rel.find_semiregular_decomposition()
    assert factors is not None
    assert sum(f.dim for f in factors) == rel.n
    for i, a in enumerate(factors):
        gram = Matrix([[form.pairing(u, v) for v in a.rows] for u in a.rows])
        assert gram.rank() == a.dim
        for b in factors[i + 1:]:
            assert all(form.pairing(u, v) == 0 for u in a.rows for v in b.rows)
    split = rel.split_by_decomposition(factors)
    assert split is not None and len(split) == len(factors)
    assert all(factor.verify_closed() for factor in split)
    assert all(factor.is_one_regular()[0] for factor in split)


def inside_box(rel, v0):
    """The components contained in the 2n-dimensional box V0 x V0."""
    zero = (0,) * rel.n
    box = Subspace(2 * rel.n, [r + zero for r in v0.rows] + [zero + r for r in v0.rows])
    return tuple(c for c in rel.components if box.contains(c.space))


@pytest.mark.parametrize("entries", [(("gl", 2, 2),), (("osp", 3, 2),), (("gl", 1, 1), ("gl", 1, 1))])
def test_components_inside_is_the_box_definition(entries):
    rel = product_of(*entries)
    for v0 in rel.special_coisotropics():
        assert rel.components_inside(v0) == inside_box(rel, v0)
