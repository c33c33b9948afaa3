"""Shared fixtures: catalog relations are built once per session, and so is the
root data of the exceptional families, which the catalog does not carry; the
JSON payload of one relation, which the package reads but never writes; a form
rebased to dense coordinates; and the plain reference for the package's seeded
corpus generator."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from lagrel import BilinearForm, Isometry, Matrix, RootSystem, Subspace, catalog
from lagrel.exact_linalg import basis_to_payload, matrix_to_payload, orth_complement


@lru_cache(maxsize=None)
def built_relation(name: str, m: int, n: int):
    return catalog(name, m, n).build_relation()


def relation_to_payload(rel) -> dict:
    return {
        "form": matrix_to_payload(rel.form.gram),
        "space": basis_to_payload(rel.space),
    }


# The plain corpus generator, kept as the reference for `linear_relations.random_lagrangian`
# and `random_isometry`: Fraction entries, <v|v> tested with a Fraction pairing, each isometry
# starting from the identity, and the iso-span twisted by `Subspace.transform`.
def random_rational(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2)))


def random_anisotropic_vector(form, rng):
    while True:
        v = tuple(random_rational(rng) for _ in range(form.dim))
        if any(v) and form.pairing(v, v) != 0:
            return v


def reference_isometry(form, rng, max_reflections=3):
    iso = Isometry.identity(form)
    for _ in range(rng.randint(0, max_reflections)):
        iso = Isometry.reflection(form, random_anisotropic_vector(form, rng)).compose(iso)
    return iso


def rebased_form(form, rng):
    """form in the coordinates x' = T x of a seeded rational invertible T, and T: the Gram
    matrix T^-T G T^-1, which is dense and has denominators."""
    dim = form.dim
    while True:
        t = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)] for _ in range(dim)])
        if t.rank() == dim:
            break
    t_inv = t.inverse()
    return BilinearForm(t_inv.transpose() @ form.gram @ t_inv), t


def full_space(n: int) -> Subspace:
    """All of Q^n, spanned by the unit vectors."""
    return Subspace.from_vectors(Matrix.identity(n).entries)


def random_coisotropic(form, rng):
    """V1-perp for V1 = g(span of k vectors e_i +- e_j), i and j distinct +1 and -1 coordinates
    of a diag(+-1) form and g = reference_isometry(form, rng, 2); all of V when k = 0."""
    diag = [form.gram.entries[i][i] for i in range(form.dim)]
    pos = [i for i, x in enumerate(diag) if x == 1]
    neg = [i for i, x in enumerate(diag) if x == -1]
    k = rng.randint(0, min(len(pos), len(neg)))
    if k == 0:
        return full_space(form.dim)
    pis = rng.sample(pos, k)
    njs = rng.sample(neg, k)
    vectors = []
    for i, j in zip(pis, njs):
        vec = [0] * form.dim
        vec[i] = 1
        vec[j] = rng.choice((1, -1))
        vectors.append(vec)
    span = Subspace(form.dim, vectors).transform(reference_isometry(form, rng, max_reflections=2).matrix)
    return orth_complement(form, span)


EXCEPTIONAL = ["D(2|1;1)", "D(2|1;2)", "D(2|1;1/3)", "G(3)", "F(4)"]


@lru_cache(maxsize=None)
def exceptional(name: str) -> RootSystem:
    """Root data of D(2|1;alpha), G(3) and F(4), named as in EXCEPTIONAL (Kac 1977; Serganova 1996).

    D(2|1;alpha): form diag(-(1+alpha), 1, alpha), roots +-2e_i and +-e_1+-e_2+-e_3.
    G(3): Gram [[2,-1,0],[-1,2,0],[0,0,-2]] on (e_1, e_2, d) with e_3 = -e_1 - e_2;
    roots +-e_i, e_i - e_j, +-d, +-2d and +-e_i +- d.
    F(4): form diag(1,1,1,-3), roots +-e_i +- e_j, +-e_i, +-d and (+-e_1 +-e_2 +-e_3 +-d)/2.
    """
    signs = (1, -1)
    if name.startswith("D(2|1;"):
        a = Fraction(name[6:-1])
        form = BilinearForm.diagonal([-(1 + a), 1, a])
        roots = [tuple(2 * s * (j == i) for j in range(3)) for i in range(3) for s in signs]
        roots += product(signs, repeat=3)
    elif name == "G(3)":
        form = BilinearForm(Matrix([[2, -1, 0], [-1, 2, 0], [0, 0, -2]], cols=3))
        eps = [(1, 0), (0, 1), (-1, -1)]
        short = [(s * x, s * y) for x, y in eps for s in signs]
        roots = [e + (0,) for e in short]
        roots += [(a[0] - b[0], a[1] - b[1], 0) for a in eps for b in eps if a != b]
        roots += [(0, 0, t) for t in (1, -1, 2, -2)]
        roots += [e + (s,) for e in short for s in signs]
    elif name == "F(4)":
        form = BilinearForm.diagonal([1, 1, 1, -3])
        roots = [tuple(s * (k == i) for k in range(4)) for i in range(4) for s in signs]
        roots += [tuple(s * (k == i) + t * (k == j) for k in range(4))
                  for i in range(3) for j in range(i + 1, 3) for s in signs for t in signs]
        roots += [tuple(Fraction(s, 2) for s in p) for p in product(signs, repeat=4)]
    else:
        raise ValueError(f"unknown exceptional system: {name}")
    return RootSystem(form, roots)


@lru_cache(maxsize=None)
def exceptional_relation(name: str):
    return exceptional(name).build_relation()


@pytest.fixture(scope="session")
def gl11():
    return built_relation("gl", 1, 1)


@pytest.fixture(scope="session")
def gl21():
    return built_relation("gl", 2, 1)


@pytest.fixture(scope="session")
def gl22():
    return built_relation("gl", 2, 2)
