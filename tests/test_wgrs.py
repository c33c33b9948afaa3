"""Root system axioms, combinatorics, induced relations, reduction."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, islice

import pytest

from conftest import EXCEPTIONAL, built_relation, exceptional
from lagrel import exact_linalg
from lagrel.exact_linalg import (
    BilinearForm,
    Matrix,
    Subspace,
    as_vector,
    basis_to_payload,
    matrix_to_payload,
    orth_complement,
    solve_right,
)
from lagrel.cli import _tally, reduction_checks
from lagrel.invariants import invariant_slices, separate
from lagrel.linear_relations import (
    ClosureBoundExceeded,
    Isometry,
    compose,
    generate_group,
    graph,
    idempotent_relation,
)
from lagrel.relation_monoid import _linked_classes, closure
from lagrel.wgrs import (
    RootSystem,
    catalog,
    rootsystem_from_payload,
    rootsystem_to_payload,
)


def neg(v):
    return tuple(-x for x in v)


def canonical_isoset(roots):
    """The sorted pairs of a set of roots, each as its member with a positive first nonzero entry."""
    return tuple(sorted({max(tuple(r), neg(r)) for r in roots}))


def indecomposable_components(rs):
    """Connected components of the non-orthogonality graph (each symmetric)."""
    groups = _linked_classes(rs.roots, lambda a, b: rs.form.pairing(a, b) != 0 or b == neg(a))
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def test_catalog_gl11():
    rs = catalog("gl", 1, 1)
    assert len(rs.roots) == 2
    assert len(rs.iso_roots) == 2
    assert rs.validate().ok


def test_catalog_gl21():
    rs = catalog("gl", 2, 1)
    assert len(rs.roots) == 6
    assert len(rs.aniso_roots) == 2
    assert len(rs.iso_roots) == 4


def test_catalog_osp12():
    rs = catalog("osp", 1, 2)
    assert rs.validate().ok
    assert rs.iso_roots == ()


def test_catalog_osp32():
    rs = catalog("osp", 3, 2)
    assert rs.validate().ok
    assert len(rs.iso_roots) == 4
    assert len(rs.weyl_group) == 4


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ValueError):
        catalog("gl", 0, 0)
    with pytest.raises(ValueError):
        catalog("osp", 3, 3)
    with pytest.raises(ValueError):
        catalog("so", 3, 0)


def test_classical_a1_validates():
    rs = RootSystem(BilinearForm.diagonal([1]), [(1,), (-1,)])
    assert rs.validate().ok


def test_flipped_form_degrades_to_anisotropic_pair():
    # gl(1|1) roots under a definite form: the pair is anisotropic but a
    # single symmetric pair still satisfies the axioms (a scaled A1), so the
    # isotropy bookkeeping, not validity, is what changes
    rs = RootSystem(BilinearForm.diagonal([1, 1]), [(1, -1), (-1, 1)])
    assert rs.validate().ok
    assert rs.iso_roots == ()
    assert len(rs.weyl_group) == 2


def test_validation_catches_reflection_escape():
    # anisotropic reflection closure genuinely failing
    rs = RootSystem(BilinearForm.diagonal([1, 1]), [(1, 0), (-1, 0), (1, 3), (-1, -3)])
    report = rs.validate()
    assert not report.ok
    assert any("reflection" in f or "shift" in f for f in report.failures)


def test_validation_catches_shift_failure():
    # isotropic alpha, non-orthogonal beta, neither beta + alpha nor
    # beta - alpha present
    rs = RootSystem(
        BilinearForm.diagonal([1, -1]),
        [(1, -1), (-1, 1), (1, 0), (-1, 0)],
    )
    report = rs.validate()
    assert not report.ok


def test_validation_catches_broken_symmetry():
    rs = RootSystem(BilinearForm.diagonal([1, -1]), [(1, -1)])
    report = rs.validate()
    assert not report.ok
    assert report.failures[0] == "symmetry: -(1/1, -1/1) missing"  # "p/q" entries, as in reports


def test_axiom_fuzzing_catalog():
    rng = random.Random(0)
    for name, a, b in (("gl", 2, 1), ("gl", 2, 2), ("osp", 3, 2)):
        rs = catalog(name, a, b)
        roots = list(rs.roots)
        for _ in range(5):
            mutated = list(roots)
            idx = rng.randrange(len(mutated))
            # drop a root together with nothing else: symmetry or closure breaks
            del mutated[idx]
            assert not RootSystem(rs.form, mutated).validate().ok


def test_weyl_group_orders():
    import math

    for m in range(0, 6):
        for n in range(0, 6):
            if not 1 <= m + n <= 5:
                continue
            rs = catalog("gl", m, n)
            assert len(rs.weyl_group) == math.factorial(m) * math.factorial(n)


@pytest.mark.parametrize("entry", [(m, n) for m in range(6) for n in range(6) if 1 <= m + n <= 5],
                         ids=lambda e: "gl-%d-%d" % e)
def test_gl_component_counts_have_closed_forms(entry):
    # C(m,k) C(n,k) m! n! components of atypicality k, which sum to (m + n)!
    # by Vandermonde's identity
    from math import comb, factorial

    m, n = entry
    rel = catalog("gl", m, n).build_relation()
    assert len(rel) == factorial(m + n)
    assert rel.atypicality_histogram() == {
        k: comb(m, k) * comb(n, k) * factorial(m) * factorial(n) for k in range(min(m, n) + 1)}


def test_indecomposable_components():
    assert len(indecomposable_components(catalog("gl", 1, 1))) == 1
    assert len(indecomposable_components(catalog("gl", 2, 2))) == 1
    # orthogonal union of two copies of gl(1|1)
    form = BilinearForm.diagonal([1, -1, 1, -1])
    roots = [(1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1)]
    rs = RootSystem(form, roots)
    assert rs.validate().ok
    assert len(indecomposable_components(rs)) == 2


def test_maximal_isosets_gl11():
    rs = catalog("gl", 1, 1)
    mx = rs.maximal_isosets()
    assert len(mx) == 1
    assert mx[0] == rs.iso_pairs
    assert len(mx[0]) == 1


def test_maximal_isosets_gl21():
    mx = catalog("gl", 2, 1).maximal_isosets()
    assert len(mx) == 2
    assert all(len(s) == 1 for s in mx)


def test_maximal_isosets_gl22():
    mx = catalog("gl", 2, 2).maximal_isosets()
    assert len(mx) == 2
    assert all(len(s) == 2 for s in mx)


DEFECT_ENTRIES = [("gl", 1, 1), ("gl", 2, 1), ("gl", 2, 2), ("gl", 3, 2), ("gl", 3, 0), ("osp", 3, 2),
                  ("osp", 4, 2), ("osp", 4, 4), ("osp", 5, 4), ("osp", 2, 2), ("osp", 6, 4)]


@pytest.mark.parametrize("entry", DEFECT_ENTRIES)
def test_defect_closed_form(entry):
    """The defect is min(m, n) for gl(m|n) and min(p // 2, q // 2) for osp(p|q)."""
    name, a, b = entry
    expected = min(a, b) if name == "gl" else min(a // 2, b // 2)
    assert catalog(*entry).defect() == expected


ISOSET_ENTRIES = ([("gl", m, n) for m in range(5) for n in range(5) if 1 <= m + n <= 4]
                  + [("osp", 3, 2), ("osp", 4, 2), ("osp", 6, 4)] + EXCEPTIONAL)


def reference_iso_sets(rs):
    """Every set of pairwise-orthogonal pairs from iso_pairs, by size, then in combinations order."""
    pairs = rs.iso_pairs
    return [s for k in range(len(pairs) + 1) for s in combinations(pairs, k)
            if all(rs.form.pairing(p, q) == 0 for p, q in combinations(s, 2))]


@pytest.mark.parametrize("entry", ISOSET_ENTRIES)
def test_maximal_isosets_contract(entry):
    rs = exceptional(entry) if isinstance(entry, str) else catalog(*entry)
    pairing = rs.form.pairing
    every = reference_iso_sets(rs)
    assert list(rs.iso_sets) == every
    rng = random.Random(0)
    vectors = [(0,) * rs.dim, *rs.iso_pairs]
    vectors += [tuple(rng.randint(-2, 2) for _ in range(rs.dim)) for _ in range(5)]
    for v in vectors:
        orth = {p for p in rs.iso_pairs if pairing(p, v) == 0}
        mx = rs.maximal_isosets(v)
        for s in mx:
            # an iso-set of pairs orthogonal to v ...
            assert set(s) <= orth
            assert s in every
            # ... that no further pair orthogonal to v extends
            assert not any(p not in s and all(pairing(p, q) == 0 for q in s) for p in orth)
        for t in every:
            if set(t) <= orth:
                assert any(set(t) <= set(s) for s in mx), (v, t)


def test_two_step_trivial_and_adjacent():
    rs = catalog("gl", 2, 1)
    beta = (Fraction(1), Fraction(0), Fraction(-1))
    beta_p = (Fraction(0), Fraction(1), Fraction(-1))
    assert rs.form.pairing(beta, beta_p) == -1
    w = rs.two_step_witness(beta, beta)
    assert w.is_identity()
    w = rs.two_step_witness(beta, beta_p)
    assert w.apply(beta) in (beta_p, neg(beta_p))
    # the witness is the reflection in e1 - e2
    assert w.apply((Fraction(1), Fraction(0), Fraction(0))) == (0, 1, 0)


def test_two_step_orthogonal_case():
    rs = catalog("gl", 2, 2)
    beta = (Fraction(1), Fraction(0), Fraction(-1), Fraction(0))
    beta_p = (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))
    assert rs.form.pairing(beta, beta_p) == 0
    w = rs.two_step_witness(beta, beta_p)
    assert w.apply(beta) in (beta_p, neg(beta_p))
    assert w.compose(w).is_identity()


def test_two_step_rejects_anisotropic():
    rs = catalog("gl", 2, 1)
    with pytest.raises(ValueError):
        rs.two_step_witness((1, -1, 0), (1, 0, -1))


def test_two_step_rejects_orthogonal_components():
    # gl(2|1) + gl(1|1): the anisotropic roots +-(e1 - e2) pair with beta only
    form = BilinearForm.diagonal([1, 1, -1, 1, -1])
    gl21 = [(1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1), (0, 1, -1), (0, -1, 1)]
    roots = [r + (0, 0) for r in gl21] + [(0, 0, 0, 1, -1), (0, 0, 0, -1, 1)]
    rs = RootSystem(form, roots)
    assert rs.validate().ok and len(indecomposable_components(rs)) == 2
    with pytest.raises(ValueError):
        rs.two_step_witness((1, 0, -1, 0, 0), (0, 0, 0, 1, -1))


WITNESS_SYSTEMS = ([("gl", m, n) for m in range(5) for n in range(5) if 2 <= m + n <= 6]
                   + [("osp", p, q) for p in range(7) for q in (2, 4)]
                   + ["D(2|1;1)", "D(2|1;2)", "D(2|1;1/3)", "G(3)"])
# sha256 over each system's name, the two_step_witness matrix of every ordered pair of
# its isotropic roots, the transport_isoset matrices (base vector 0) from its first maximal
# iso-set to each maximal iso-set and back, and the spaces of its relation_generators(), for WITNESS_SYSTEMS
WITNESS_DIGEST = "aa962fc1921ca4e80bf60b4d1626c3fe1e3cf10a595b792752e58a123a55be50"


def test_witness_and_generator_bytes():
    digest = hashlib.sha256()
    for entry in WITNESS_SYSTEMS:
        rs = exceptional(entry) if isinstance(entry, str) else catalog(*entry)
        digest.update(f"{entry}\n".encode())
        for b in rs.iso_roots:
            for bp in rs.iso_roots:
                digest.update(json.dumps(matrix_to_payload(rs.two_step_witness(b, bp).matrix)).encode())
        zero = (0,) * rs.dim
        first, *rest = rs.maximal_isosets()
        for s, sp in [(first, sp) for sp in rest] + [(s, first) for s in rest]:
            digest.update(json.dumps(matrix_to_payload(rs.transport_isoset(zero, s, sp).matrix)).encode())
        for g in rs.relation_generators():
            digest.update(json.dumps(basis_to_payload(g.space)).encode())
    assert digest.hexdigest() == WITNESS_DIGEST


def test_transport_isoset_identity_and_swap():
    rs = catalog("gl", 2, 1)
    mx = rs.maximal_isosets()
    v = (Fraction(0),) * 3
    w = rs.transport_isoset(v, mx[0], mx[0])
    assert w.is_identity()
    w = rs.transport_isoset(v, mx[0], mx[1])
    assert canonical_isoset(w.apply(p) for p in mx[0]) == mx[1]


def test_transport_isoset_with_base_vector():
    rs = catalog("gl", 2, 2)
    v = (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1))
    mx = rs.maximal_isosets(v)
    assert len(mx) == 2
    w = rs.transport_isoset(v, mx[0], mx[1])
    assert w.apply(v) == v
    assert canonical_isoset(w.apply(p) for p in mx[0]) == mx[1]


def test_transport_rejects_non_maximal():
    rs = catalog("gl", 2, 2)
    mx = rs.maximal_isosets()
    small = mx[0][:1]
    with pytest.raises(ValueError):
        rs.transport_isoset((Fraction(0),) * 4, small, mx[1])


def test_build_relation_counts(gl11, gl21):
    assert len(gl11) == 2
    assert len(gl21) == 6
    a1 = RootSystem(BilinearForm.diagonal([1]), [(1,), (-1,)])
    rel = a1.build_relation()
    assert len(rel) == 2
    assert len(rel.weyl_group) == 2


def test_build_relation_description_check():
    # the description audit runs without raising for small entries
    for name, a, b in (("gl", 1, 1), ("gl", 2, 1), ("osp", 3, 2)):
        rel = catalog(name, a, b).build_relation(check=True)
        assert rel.verify_closed()


DESCRIBED_SYSTEMS = ([("gl", m, n) for m in range(6) for n in range(6) if 1 <= m + n <= 5]
                     + [("osp", p, q) for p, q in ((1, 2), (2, 2), (3, 2), (4, 2), (3, 4))]
                     + ["D(2|1;1)", "D(2|1;2)", "D(2|1;1/3)", "G(3)", "F(4)"])


@pytest.mark.parametrize("entry", DESCRIBED_SYSTEMS, ids=str)
def test_description_is_the_closure(entry):
    # build_relation reads the components off the (w, S) description; the closure of
    # the generators is the independent reference, and verify_closed() audits the
    # smaller sets (F(4)'s 864 components would take over a minute)
    rs = exceptional(entry) if isinstance(entry, str) else catalog(*entry)
    rel = rs.build_relation()
    reference = closure(rs.form, rs.relation_generators())
    assert (rel.components, rel.generators) == (reference.components, reference.generators)
    if len(rel) <= 96:
        assert rel.verify_closed()


def test_class_membership_examples(gl11):
    rs = catalog("gl", 1, 1)
    ok, witness = rs.class_membership((0, 0), (3, -3))
    assert ok
    w, coeffs = witness
    assert w.is_identity() and coeffs == (Fraction(3),)
    ok, _ = rs.class_membership((2, 1), (2, 1))
    assert ok
    rs21 = catalog("gl", 2, 1)
    ok, _ = rs21.class_membership((1, 0, 0), (2, 0, -1))
    assert not ok


def test_class_membership_agrees_with_relation(gl21):
    rs = catalog("gl", 2, 1)
    rng = random.Random(17)
    for _ in range(500):
        x = tuple(rng.randint(-2, 2) for _ in range(3))
        y = tuple(rng.randint(-2, 2) for _ in range(3))
        ok, witness = rs.class_membership(x, y)
        assert ok == gl21.membership(x, y)
        if ok:
            assert_witness(rs, x, y, witness)


@pytest.mark.parametrize(
    "name,m,n",
    [("gl", 1, 1), ("gl", 2, 2), ("gl", 3, 1), ("gl", 3, 2), ("osp", 3, 2)],
)
def test_class_membership_agreement_other_entries(name, m, n):
    from conftest import built_relation

    rs = catalog(name, m, n)
    rel = built_relation(name, m, n)
    rng = random.Random(23)
    for _ in range(500):
        x = tuple(rng.randint(-2, 2) for _ in range(rs.dim))
        y = tuple(rng.randint(-2, 2) for _ in range(rs.dim))
        ok, witness = rs.class_membership(x, y)
        assert ok == rel.membership(x, y)
        if ok:
            assert_witness(rs, x, y, witness)


def assert_witness(rs, v, v_prime, witness):
    """v' = w(v + sum c_i p_i) over the pairs p_i of the first maximal iso-set orthogonal to v."""
    w, coeffs = witness
    pairs = rs.maximal_isosets(v)[0]
    assert len(coeffs) == len(pairs)
    shifted = [a + sum(c * p[i] for c, p in zip(coeffs, pairs)) for i, a in enumerate(as_vector(v))]
    assert w.apply(shifted) == as_vector(v_prime), (v, v_prime)


def test_class_membership_rejects_wrong_length():
    rs = catalog("gl", 2, 0)
    with pytest.raises(ValueError, match="vector length disagrees with form dimension"):
        rs.class_membership((1, 0, 5), (0, 1))
    with pytest.raises(ValueError, match="vector length disagrees with form dimension"):
        rs.class_membership((1, 0), (0, 1, 0))


@pytest.mark.parametrize("entry", [("gl", 2, 1), ("gl", 3, 0)])
def test_maximal_isosets_rejects_wrong_length(entry):
    rs = catalog(*entry)
    for v in ((0,) * (rs.dim - 1), (0,) * (rs.dim + 1)):
        with pytest.raises(ValueError, match="vector length disagrees with form dimension"):
            rs.maximal_isosets(v)


def reference_class_membership(rs, v, v_prime):
    """The per-element solve: the first w, in _weyl_and_inverses order, for which
    w^-1 v' - v solves against the columns of the first maximal iso-set."""
    vv, vp = as_vector(v), as_vector(v_prime)
    choices = rs.maximal_isosets(vv)
    pairs = choices[0] if choices else ()
    mat = Matrix([[p[i] for p in pairs] for i in range(rs.dim)], cols=len(pairs))
    for w, w_inv in rs._weyl_and_inverses:
        diff = [a - b for a, b in zip(w_inv.apply(vp), vv)]
        try:
            coeffs = solve_right(mat, Matrix([[d] for d in diff], cols=1))
        except ValueError:
            continue
        return True, (w, tuple(row[0] for row in coeffs.entries))
    return False, None


# pairwise-orthogonal isotropic roots a, b and a + b: the one maximal iso-set
# spans two dimensions with three pairs, so its matrix lacks full column rank
DEPENDENT_ISOSET = {
    "gram": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
    "roots": [[s * x for x in r] for r in ([1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]) for s in (1, -1)],
}


def related_point(rs, rng, x):
    """w(x + t a) for a random w in W and a random isotropic a orthogonal to x (if any)."""
    y = list(x)
    orth = [p for p in rs.iso_pairs if rs.form.pairing(p, x) == 0]
    if orth:
        a = rng.choice(orth)
        t = rng.randint(-3, 3)
        y = [u + t * b for u, b in zip(y, a)]
    return rng.choice(rs.weyl_group).apply(y)


def atypical_point(rs, rng):
    """A random point made orthogonal to a random isotropic root, when there is one."""
    x = [Fraction(rng.randint(-2, 2)) for _ in range(rs.dim)]
    if rs.iso_pairs:
        a = rng.choice(rs.iso_pairs)
        u = next(e for e in (tuple(int(i == j) for i in range(rs.dim)) for j in range(rs.dim))
                 if rs.form.pairing(e, a))
        c = rs.form.pairing(x, a) / rs.form.pairing(u, a)
        x = [xi - c * ui for xi, ui in zip(x, u)]
    return tuple(x)


def rebased(rs, seed):
    """A copy of rs with roots T r and Gram matrix T^-T G T^-1 for a seeded rational
    invertible T, so that its iso pairs have denominators."""
    rng = random.Random(seed)
    while True:
        t = Matrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rs.dim)]
                    for _ in range(rs.dim)], cols=rs.dim)
        if t.rank() == rs.dim:
            break
    t_inv = t.inverse()
    return RootSystem(BilinearForm(t_inv.transpose() @ rs.form.gram @ t_inv), [t.apply(r) for r in rs.roots])


BASIS_CHANGE = [("gl", 1, 1), ("gl", 2, 1), ("gl", 1, 2), ("gl", 2, 2), ("gl", 3, 1), ("gl", 3, 0),
                ("osp", 1, 2), ("osp", 2, 2), ("osp", 3, 2)]


def basis_free_summary(rs):
    """What a change of basis must keep: the component count and atypicality histogram, |W| read
    off the relation and closed from the roots, the discriminant's hyperplane count, 1-regularity,
    semiregularity and the slice dimensions to degree 5 (slice integers grow in a rational basis)."""
    rel = rs.build_relation()
    return (len(rel), rel.atypicality_histogram(), len(rel.weyl_group), len(rs.weyl_group),
            len(rel.discriminant()), rel.is_one_regular()[0], rel.is_semiregular(),
            [len(b) for b in islice(invariant_slices(rel), 6)])


@lru_cache(maxsize=None)
def catalog_summary(entry):
    return basis_free_summary(catalog(*entry))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("entry", BASIS_CHANGE, ids=lambda e: "-".join(map(str, e)))
def test_basis_change_keeps_the_summary(entry, seed):
    assert basis_free_summary(rebased(catalog(*entry), seed)) == catalog_summary(entry)


def membership_cases(rs, seed):
    """60 seeded rounds of (x, y) pairs: x atypical, y once related to x and once random."""
    rng = random.Random(seed)
    for _ in range(60):
        x = atypical_point(rs, rng)
        for y in (related_point(rs, rng, x), tuple(rng.randint(-2, 2) for _ in range(rs.dim))):
            yield x, y


def isoset_cases(rs, seed):
    """20 seeded rounds of (x, y) pairs with x orthogonal to every pair of a random iso-set of two
    or more pairs S, y once w(x + sum t_i p_i) over S and once random; none without such an S."""
    rng = random.Random(seed)
    large = [s for s in rs.iso_sets if len(s) >= 2]
    for _ in range(20 if large else 0):
        s = rng.choice(large)
        perp = orth_complement(rs.form, Subspace.from_vectors(s, rs.dim)).basis.entries
        c, t = [rng.randint(-2, 2) for _ in perp], [rng.randint(-3, 3) for _ in s]
        x = tuple(sum(ci * r[i] for ci, r in zip(c, perp)) for i in range(rs.dim))
        shifted = [a + sum(ti * p[i] for ti, p in zip(t, s)) for i, a in enumerate(x)]
        for y in (rng.choice(rs.weyl_group).apply(shifted), tuple(rng.randint(-2, 2) for _ in range(rs.dim))):
            yield x, y


REBASED = [("rebased", "gl", 2, 1), ("rebased", "gl", 2, 2), ("rebased", "gl", 3, 2), ("rebased", "osp", 3, 2)]


@pytest.mark.parametrize("entry", [("gl", 3, 2), ("gl", 2, 2), ("osp", 3, 2), ("gl", 3, 0), ("osp", 4, 2),
                                   "dependent"] + REBASED,
                         ids=lambda e: "-".join(map(str, e)) if e in REBASED else None)
def test_class_membership_matches_the_per_element_solve(entry):
    # the closure decides every answer; the per-element solve, which needs independent
    # pairs, also fixes the witness.  The rebased systems' iso pairs have denominators.
    # Where an iso-set has two or more pairs, some witness uses k >= 2 of them.
    if entry == "dependent":
        rs = rootsystem_from_payload(DEPENDENT_ISOSET)
    elif entry in REBASED:
        rs = rebased(catalog(*entry[1:]), f"rebased-{entry[1:]}")
        assert any(x.denominator != 1 for p in rs.iso_pairs for x in p)
    else:
        rs = catalog(*entry)
    rel = rs.build_relation()
    answers, widths = set(), set()
    for x, y in [*membership_cases(rs, f"class-membership-{entry}"), *isoset_cases(rs, f"isosets-{entry}")]:
        got = rs.class_membership(x, y)
        assert got[0] == rel.membership(x, y), (x, y)
        if entry != "dependent":
            want = reference_class_membership(rs, x, y)
            assert got[0] == want[0], (x, y)
            if want[0]:
                assert got[1][0].matrix == want[1][0].matrix and got[1][1] == want[1][1], (x, y)
        if got[0]:
            assert_witness(rs, x, y, got[1])
            widths.add(len(got[1][1]))
        else:
            assert got[1] is None
        answers.add(got[0])
    assert answers == {True, False}
    assert max(widths) >= 2 or all(len(s) < 2 for s in rs.iso_sets)


def test_class_membership_relates_zero_and_an_isotropic_root_of_a_dependent_isoset():
    rs = rootsystem_from_payload(DEPENDENT_ISOSET)
    pair = ((0, 0, 0, 0), (1, 0, 1, 0))
    assert rs.build_relation().membership(*pair)
    ok, witness = rs.class_membership(*pair)
    assert ok
    assert_witness(rs, *pair, witness)


A2_SKEWED = {
    "gram": [["1", "0"], ["0", "3"]],
    "roots": [["2", "0"], ["-2", "0"], ["1", "1"], ["-1", "-1"], ["1", "-1"], ["-1", "1"]],
}


def test_non_integral_weyl_group_is_closed():
    # A2 under the form diag(1, 3): W = S3, with reflection entries -1/2
    rs = rootsystem_from_payload(A2_SKEWED)
    assert rs.validate().ok
    weyl = rs.weyl_group
    assert len(weyl) == 6
    assert any(x.denominator != 1 for w in weyl for row in w.matrix.entries for x in row)
    matrices = {w.matrix for w in weyl}
    for s in weyl:
        for t in weyl:
            assert s.matrix @ t.matrix in matrices
    rel = rs.build_relation(check=True)
    assert rel.weyl_group == rs.weyl_group


F = Fraction
# per system: (x, y, related); the related gl pairs are w(x + t*alpha) for an
# isotropic alpha orthogonal to x, the A2 ones s_(1,1)(x), with entries -1/4 and -5/12
QUERY_POINTS = {
    ("gl", 2, 1): [((3, 5, -3), (5, 4, -4), True), ((1, 2, 3), (2, 1, 4), False),
                   ((F(1, 2), 2, F(-1, 2)), (2, F(3, 2), F(-3, 2)), True)],
    ("gl", 3, 2): [((1, 2, 4, -4, 7), (2, 7, 1, 7, -7), True), ((1, 2, 3, 4, 5), (1, 2, 3, 4, 6), False)],
    "A2": [((2, 0), (1, -1), True), ((F(1, 2), F(1, 3)), (F(-1, 4), F(-5, 12)), True), ((2, 0), (3, 0), False)],
}
# one point as an int tuple (when integral), a list, Fractions, "p/q" strings or a generator
POINT_FORMS = [tuple, list, lambda v: tuple(map(F, v)),
               lambda v: tuple(f"{F(x).numerator}/{F(x).denominator}" for x in v), lambda v: (x for x in v)]


def query_system(key):
    rs = rootsystem_from_payload(A2_SKEWED) if key == "A2" else catalog(*key)
    return rs, rs.build_relation() if key == "A2" else built_relation(*key)


def query_answers(rs, rel, x, y):
    """membership, class_membership (bool and witness) and the whole separation; x() and y() make the points."""
    sep = separate(rel, x(), y())
    return (rel.membership(x(), y()), rs.class_membership(x(), y()), sep,
            sep.values and tuple(map(str, sep.values)))


@pytest.mark.parametrize("key", list(QUERY_POINTS), ids=str)
def test_point_queries_do_not_depend_on_the_input_type(key):
    rs, rel = query_system(key)
    queries = ((rel.membership, "relation dimension"), (rs.class_membership, "form dimension"),
               (lambda a, b: separate(rel, a, b), "relation dimension"))
    for x, y, related in QUERY_POINTS[key]:
        want = query_answers(rs, rel, partial(tuple, x), partial(tuple, y))
        assert want[0] == want[1][0] == related and (want[2].status == "equivalent") == related
        for form in POINT_FORMS:
            assert query_answers(rs, rel, partial(form, x), partial(tuple, y)) == want, (x, y, form)
            assert query_answers(rs, rel, partial(tuple, x), partial(form, y)) == want, (x, y, form)
        floaty = (0.5,) + tuple(x[1:])
        for query, _ in queries:
            for args in ((floaty, y), (x, floaty)):
                with pytest.raises(TypeError, match="not an exact rational"):
                    query(*args)
    x = QUERY_POINTS[key][0][0]
    for query, text in queries:
        for bad in ((0,) * (rs.dim - 1), (0,) * (rs.dim + 1)):
            for args in ((bad, x), (x, bad), (iter(bad), x)):
                with pytest.raises(ValueError, match=f"^vector length disagrees with {text}$"):
                    query(*args)


def test_int_point_queries_make_no_fraction(monkeypatch):
    # after one warm-up of each query (W, iso-sets and slices are cached), int tuples
    # reach no `rational`: an `as_vector` pass in any query path would raise here
    cases = [(*query_system(key), partial(tuple, x), partial(tuple, y))
             for key in (("gl", 2, 1), ("gl", 3, 2)) for x, y, _ in QUERY_POINTS[key][:2]]
    answers = [query_answers(*case) for case in cases]

    def no_fraction(value):
        raise AssertionError(f"rational({value!r}) on an int query")

    monkeypatch.setattr(exact_linalg, "rational", no_fraction)
    assert [query_answers(*case) for case in cases] == answers
    assert {a[2].status for a in answers} == {"equivalent", "separated"}


@pytest.mark.parametrize("entry", [("gl", m, n) for m in range(5) for n in range(5) if 1 <= m + n <= 4]
                         + [("osp", 3, 2), "D(2|1;1/3)"],
                         ids=lambda e: e if isinstance(e, str) else "-".join(map(str, e)))
def test_relation_weyl_group_is_the_root_system_weyl_group(entry):
    # the relation reads W off its components; the root system closes its reflections;
    # the reports' weyl_order is the atypicality-0 count
    rs = exceptional(entry) if isinstance(entry, str) else catalog(*entry)
    rel = rs.build_relation()
    assert rel.weyl_group == rs.weyl_group
    assert rel.atypicality_histogram()[0] == len(rel.weyl_group)


def test_generate_group_bound():
    # S3 has 6 elements: a bound of 5 stops the walk, a bound of 6 does not
    form = BilinearForm.diagonal([1, 1, 1])
    gens = [Isometry.reflection(form, (1, -1, 0)), Isometry.reflection(form, (0, 1, -1))]
    with pytest.raises(ClosureBoundExceeded, match="Weyl group generation exceeded its bound"):
        generate_group(form, gens, 5)
    assert len(generate_group(form, gens, 6)) == 6


def test_weyl_group_is_built_once():
    rs = catalog("gl", 3, 1)
    assert rs.weyl_group is rs.weyl_group
    assert rs.iso_sets is rs.iso_sets


def test_describe_component(gl21):
    # each component is graph(w) o E_{S-perp} for an iso-set S and w in W, composed here
    # rather than read off E's rows as build_relation does
    rs = catalog("gl", 2, 1)
    for comp in gl21.components:
        assert any(
            compose(idempotent_relation(rs.form, orth_complement(rs.form, Subspace.from_vectors(s, rs.dim))),
                    graph(w)) == comp
            for s in rs.iso_sets for w in rs.weyl_group)


def test_reduce_by_root_gl11():
    rs = catalog("gl", 1, 1)
    red = rs.reduce_by_root((1, -1))
    assert red.dim == 0
    assert red.roots == ()


def test_reduce_by_root_gl21():
    rs = catalog("gl", 2, 1)
    red = rs.reduce_by_root((1, 0, -1))
    assert red.dim == 1
    assert red.roots == ()


def test_reduce_by_root_gl22_is_gl11():
    rs = catalog("gl", 2, 2)
    red = rs.reduce_by_root((1, 0, -1, 0))
    assert red.dim == 2
    assert len(red.roots) == 2
    assert all(red.form.pairing(r, r) == 0 for r in red.roots)
    assert red.validate().ok


def test_reduce_by_root_rejects_anisotropic():
    with pytest.raises(ValueError):
        catalog("gl", 2, 1).reduce_by_root((1, -1, 0))


# osp(2m|2n) with m >= 2 against osp(3|2); `verify reduction` runs only gl(1|1), gl(2|1) and gl(2|2)
OSP_REDUCTIONS = [("osp", 3, 2), ("osp", 4, 2), ("osp", 6, 2)]


@lru_cache(maxsize=None)
def reduction_tally(entry):
    return _tally(reduction_checks(catalog(*entry), built_relation(*entry)))


@pytest.mark.parametrize("entry", OSP_REDUCTIONS, ids=lambda e: "-".join(map(str, e)))
def test_reduction_filters_and_semiregularity_on_osp(entry):
    tally = reduction_tally(entry)
    assert tally["semiregular"] == (1, 0)
    assert tally["reduction_filters"][0] > 0 and tally["reduction_filters"][1] == 0


# per isotropic pair, rel.reduce(alpha-perp) has more components than rs.reduce_by_root(alpha)'s relation
SQUARE_FAILURES = {("osp", 4, 2): "0 of 4 pass: 2 components against 1",
                   ("osp", 6, 2): "0 of 6 pass: 8 components against 4"}


@pytest.mark.parametrize("entry", [
    pytest.param(e, marks=pytest.mark.xfail(strict=True, reason=SQUARE_FAILURES[e])) if e in SQUARE_FAILURES else e
    for e in OSP_REDUCTIONS], ids=lambda e: "-".join(map(str, e)))
def test_reduction_square_on_osp(entry):
    assert reduction_tally(entry)["reduction_square"] == (len(catalog(*entry).iso_pairs), 0)


def test_payload_round_trip():
    rs = catalog("osp", 3, 2)
    assert rootsystem_from_payload(rootsystem_to_payload(rs)) == rs


def test_transport_rejects_isoset_not_orthogonal_to_v():
    rs = catalog("gl", 2, 2)
    v = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    mx_v = rs.maximal_isosets(v)
    assert mx_v
    # maximal in V, but it holds a root through e1, which pairs with v
    wide = next(s for s in rs.maximal_isosets() if any(rs.form.pairing(p, v) for p in s))
    with pytest.raises(ValueError):
        rs.transport_isoset(v, wide, mx_v[0])
    with pytest.raises(ValueError):
        rs.transport_isoset(v, mx_v[0], wide)


LEAN_ENTRIES = ([("gl", m, n) for m in range(5) for n in range(5) if 1 <= m + n <= 5]
                + [("osp", p, q) for p, q in ((1, 2), (3, 2), (2, 2), (4, 2), (2, 4), (5, 2), (4, 4))])


def full_generators(rs):
    """Every anisotropic reflection's graph and every isotropic pair's idempotent."""
    gens = [graph(Isometry.reflection(rs.form, a)) for a in rs.aniso_pairs]
    gens += [idempotent_relation(rs.form, orth_complement(rs.form, Subspace.from_vectors([a])))
             for a in rs.iso_pairs]
    return gens


@pytest.mark.parametrize("entry", LEAN_ENTRIES, ids=lambda e: "-".join(map(str, e)))
def test_lean_generators_give_the_full_closure(entry):
    from conftest import built_relation

    rs = catalog(*entry)
    lean, full = rs.relation_generators(), full_generators(rs)
    assert len(lean) <= len(full)
    assert closure(rs.form, lean) == closure(rs.form, full)
    # each lean generator is its own inverse, so the closure keeps them as they are
    assert built_relation(*entry).generators == tuple(lean)


@pytest.mark.parametrize("entry", LEAN_ENTRIES, ids=lambda e: "-".join(map(str, e)))
def test_simple_reflections_generate_the_weyl_group(entry):
    rs = catalog(*entry)
    every = generate_group(rs.form, map(partial(Isometry.reflection, rs.form), rs.aniso_pairs), 10**5)
    assert generate_group(rs.form, rs.simple_reflections, 10**5) == every == rs.weyl_group
    # a simple root is not a sum of two positive roots, so the simple roots are independent
    assert len(rs.simple_reflections) == Subspace.from_vectors(rs.aniso_pairs, ambient_dim=rs.dim).dim


@pytest.mark.parametrize("entry", LEAN_ENTRIES, ids=lambda e: "-".join(map(str, e)))
def test_each_isotropic_pair_lies_in_one_representative_orbit(entry):
    rs = catalog(*entry)
    # the idempotent generators are E_{alpha-perp}, so alpha spans (alpha-perp)-perp
    reps = [orth_complement(rs.form, g.p1) for g in rs.relation_generators() if g.atypicality]
    orbits = [{line.transform(w.matrix) for w in rs.weyl_group} for line in reps]
    lines = [Subspace.from_vectors([a]) for a in rs.iso_pairs]
    assert all(sum(line in orbit for orbit in orbits) == 1 for line in lines)
    assert set().union(*orbits) == set(lines)


def test_generator_counts():
    counts = {entry: len(catalog(*entry).relation_generators())
              for entry in (("gl", 4, 1), ("gl", 3, 2), ("gl", 2, 2), ("gl", 1, 1), ("osp", 4, 4))}
    assert counts == {("gl", 4, 1): 4, ("gl", 3, 2): 4, ("gl", 2, 2): 3, ("gl", 1, 1): 1, ("osp", 4, 4): 5}


def test_lean_generators_on_fractional_reflections():
    # A2 under diag(1, 3): W = S3 from two simple reflections with entries -1/2
    rs = rootsystem_from_payload(A2_SKEWED)
    assert len(rs.simple_reflections) == 2
    assert closure(rs.form, rs.relation_generators()) == closure(rs.form, full_generators(rs))


def test_validate_failure_texts():
    # the failure texts as the Fraction-based validate printed them: a
    # non-integral system with fractional roots, a missing reflection image
    # (also under a negative norm) and a missing negative with a shift failure
    rs = RootSystem(BilinearForm.diagonal([2, 3]),
                    [(Fraction(1, 2), 0), (Fraction(-1, 2), 0),
                     (Fraction(1, 3), Fraction(1, 3)), (Fraction(-1, 3), Fraction(-1, 3))])
    assert rs.validate().failures == (
        "integrality: k((-1/2, 0/1),(-1/3, -1/3)) = 4/3 not integral",
        "integrality: k((-1/2, 0/1),(1/3, 1/3)) = -4/3 not integral",
        "integrality: k((-1/3, -1/3),(-1/2, 0/1)) = 6/5 not integral",
        "integrality: k((-1/3, -1/3),(1/2, 0/1)) = -6/5 not integral",
        "integrality: k((1/3, 1/3),(-1/2, 0/1)) = -6/5 not integral",
        "integrality: k((1/3, 1/3),(1/2, 0/1)) = 6/5 not integral",
        "integrality: k((1/2, 0/1),(-1/3, -1/3)) = -4/3 not integral",
        "integrality: k((1/2, 0/1),(1/3, 1/3)) = 4/3 not integral",
    )
    rs = RootSystem(BilinearForm.diagonal([1, -1]), [(1, 0), (-1, 0), (1, 3), (-1, -3)])
    assert rs.validate().failures == (
        "integrality: k((-1/1, -3/1),(-1/1, 0/1)) = -1/4 not integral",
        "integrality: k((-1/1, -3/1),(1/1, 0/1)) = 1/4 not integral",
        "reflection: s_(-1/1, 0/1)((-1/1, -3/1)) leaves the root set",
        "reflection: s_(-1/1, 0/1)((1/1, 3/1)) leaves the root set",
        "reflection: s_(1/1, 0/1)((-1/1, -3/1)) leaves the root set",
        "reflection: s_(1/1, 0/1)((1/1, 3/1)) leaves the root set",
        "integrality: k((1/1, 3/1),(-1/1, 0/1)) = 1/4 not integral",
        "integrality: k((1/1, 3/1),(1/1, 0/1)) = -1/4 not integral",
    )
    rs = RootSystem(BilinearForm.diagonal([1, -1]), [(1, -1), (1, 0), (-1, 0)])
    assert rs.validate().failures == (
        "symmetry: -(1/1, -1/1) missing",
        "reflection: s_(-1/1, 0/1)((1/1, -1/1)) leaves the root set",
        "reflection: s_(1/1, 0/1)((1/1, -1/1)) leaves the root set",
        "shift: neither (-1/1, 0/1)+-(1/1, -1/1) is a root",
        "shift: neither (1/1, 0/1)+-(1/1, -1/1) is a root",
    )
