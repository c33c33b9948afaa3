"""Closed component sets: closure, Weyl group, discriminant, reduction.

The equivalence relations of interest are finite unions of Lagrangian
components closed under composition and inverse.  Closure enumerates words
in the generators and deduplicates by canonical subspace.
"""

from lagrel import ClosureBoundExceeded, catalog, closure, graph
from lagrel.exact_linalg import BilinearForm, Matrix

print("== the induced relation of gl(2|2) ==")
rel = catalog("gl", 2, 2).build_relation()
print("components:", len(rel))
print("Weyl group order:", len(rel.weyl_group))
print("atypicality histogram:", rel.atypicality_histogram())

print("\n== special coisotropics and the discriminant ==")
print("special coisotropic dims:", [u.dim for u in rel.special_coisotropics()])
print("discriminant hyperplanes:", [u.dim for u in rel.discriminant()])
ok, witness = rel.is_one_regular()
print("1-regular:", ok, " witness codim:", rel.n - witness.dim)

print("\n== reduction to a smaller relation ==")
reduced = rel.reduce(witness)
print("reduction lives in dimension", reduced.n, "with", len(reduced), "components")
print("reduced Weyl group order:", len(reduced.weyl_group))

print("\n== membership is decided componentwise ==")
print("(e1, e1) related:", rel.membership((1, 0, 0, 0), (1, 0, 0, 0)))
print("(e1, e2) related:", rel.membership((1, 0, 0, 0), (0, 1, 0, 0)))
print("0 ~ 3(e1 - e3):", rel.membership((0, 0, 0, 0), (3, 0, -3, 0)))

print("\n== semiregularity ==")
print("relation is semiregular:", rel.is_semiregular())
prod = catalog("gl", 1, 1).build_relation().product(catalog("gl", 1, 1).build_relation())
print("product of two gl(1|1) relations: 1-regular?", prod.is_one_regular()[0],
      " 1-semiregular?", prod.is_one_semiregular())

print("\n== infinite closures fail loudly ==")
hyper = BilinearForm(Matrix([[0, 1], [1, 0]]))
from lagrel.linear_relations import Isometry
boost = Isometry(hyper, Matrix([[2, 0], [0, "1/2"]]))
try:
    closure(hyper, [graph(boost)], max_components=64)
except ClosureBoundExceeded as exc:
    print("caught:", exc)
