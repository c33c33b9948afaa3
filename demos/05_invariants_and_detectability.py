"""Graded invariant rings, the discriminant polynomial, point separation.

The invariant ring of a Lagrangian equivalence relation is graded; each
slice is the exact nullspace of the component constraints, and one lazy
sweep, invariant_slices, yields them degree by degree.  The discriminant
polynomial T generates the kernel of the restriction to a reduction, giving
the graded exact sequence checked below.  Separating invariants certify that
non-equivalent points really are non-equivalent.
"""

from itertools import islice

from lagrel import (
    catalog,
    discriminant_polynomial,
    invariant_slices,
    restriction_map,
    separate,
    weyl_invariant_space,
)
from lagrel.invariants import product_invariant_check

rel = catalog("gl", 2, 1).build_relation()

print("== graded dimensions ==")
bases = list(islice(invariant_slices(rel), 7))
print("dim C[V]^R in degrees 0..6:", [len(b) for b in bases])
print("degree-1 basis:", [str(f) for f in bases[1]])
print("degree-2 basis:", [str(f) for f in bases[2]])

print("\n== the discriminant polynomial ==")
disc = discriminant_polynomial(rel)
print("T =", disc.polynomial, " (degree", disc.degree, ")")
print("T vanishes on", len(disc.hyperplanes), "hyperplanes")

print("\n== graded exact sequence: 0 -> C[V]^W -(T)-> C[V]^R -> C[V']^R' -> 0 ==")
ok, witness = rel.is_one_regular()
reduced = rel.reduce(witness)
group = list(rel.weyl_group)
for d, reduced_basis in zip(range(7), invariant_slices(reduced)):
    dim_r, dim_red = len(bases[d]), len(reduced_basis)
    dim_w = len(weyl_invariant_space(group, d - disc.degree)) if d >= disc.degree else 0
    rank = restriction_map(rel, witness, d).rank()
    print(f"  d={d}: {dim_r} = {dim_w} + {dim_red}, restriction rank {rank} (surjective)")

print("\n== separation certificates ==")
for x, y in (((1, 0, 0), (0, 0, 1)), ((1, 2, 3), (0, 3, 3)), ((0, 1, 0), (0, 1, 0))):
    res = separate(rel, x, y, 6)
    if res.status == "separated":
        fx, fy = res.values
        print(f"  {x} vs {y}: separated in degree {res.degree} by {res.polynomial} ({fx} != {fy})")
    else:
        print(f"  {x} vs {y}: {res.status}")

print("\n== product formula ==")
gl11 = catalog("gl", 1, 1).build_relation()
print("dim Inv_d(R x R') = sum of products for d <= 4:",
      all(product_invariant_check(gl11, gl11, d) for d in range(5)))
