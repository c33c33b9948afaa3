"""Shared fixtures: catalog relations are built once per session, and so is the
root data of the exceptional families, which the catalog does not carry; and the
JSON payload of one relation, which the package reads but never writes."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from lagrel import BilinearForm, Matrix, RootSystem, catalog
from lagrel.exact_linalg import basis_to_payload, matrix_to_payload


@lru_cache(maxsize=None)
def built_relation(name: str, m: int, n: int):
    return catalog(name, m, n).build_relation()


def relation_to_payload(rel) -> dict:
    return {
        "form": matrix_to_payload(rel.form.gram),
        "space": basis_to_payload(rel.space),
    }


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
