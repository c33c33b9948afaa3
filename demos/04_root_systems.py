"""Weak generalized root systems: axioms, iso-sets, witnesses, reduction."""

from fractions import Fraction

from lagrel import Subspace, catalog, orth_complement
from lagrel.wgrs import RootSystem
from lagrel.exact_linalg import BilinearForm

print("== catalog entries validate against the axioms ==")
for name, m, n in (("gl", 2, 1), ("gl", 2, 2), ("osp", 3, 2), ("osp", 1, 2)):
    rs = catalog(name, m, n)
    print(f"{name}({m}|{n}): {len(rs.roots)} roots, "
          f"{len(rs.iso_roots)} isotropic, Weyl order {len(rs.weyl_group)}, defect {rs.defect()}")

print("\n== broken systems are diagnosed ==")
bad = RootSystem(BilinearForm.diagonal([1, -1]), [(1, -1), (-1, 1), (1, 0), (-1, 0)])
report = bad.validate()
print("valid:", report.ok)
print("first failure:", report.failures[0])

print("\n== maximal iso-sets all have the defect cardinality ==")
rs = catalog("gl", 2, 2)
for s in rs.maximal_isosets():
    print("maximal iso-set pairs:", [tuple(map(str, p)) for p in s])

print("\n== the Weyl group carries one maximal iso-set onto the other ==")
s, s_prime = rs.maximal_isosets()
w = rs.transport_isoset((0, 0, 0, 0), s, s_prime)
print("w in W:", w in rs.weyl_group)
print("w(S) = S' up to sign:",
      {w.apply(p) for p in s} <= set(s_prime) | {tuple(-x for x in p) for p in s_prime})

print("\n== two-step witnesses move isotropic roots within the Weyl group ==")
beta = (Fraction(1), Fraction(0), Fraction(-1), Fraction(0))
beta_p = (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))
w = rs.two_step_witness(beta, beta_p)
print("w(beta) = +-beta':", w.apply(beta) in (beta_p, tuple(-x for x in beta_p)))
print("w is an involution:", w.compose(w).is_identity())

print("\n== equivalence classes: v' in W(v + span S) ==")
ok, witness = rs.class_membership((0, 0, 0, 0), (2, 0, -2, 0))
print("0 ~ 2(e1-e3):", ok, " coefficients:", [str(c) for c in witness[1]])
ok, _ = rs.class_membership((1, 0, 0, 0), (0, 0, 1, 0))
print("e1 ~ e3:", ok)

print("\n== reduction by an isotropic root mirrors relation reduction ==")
alpha = (1, 0, -1, 0)
red = rs.reduce_by_root(alpha)
print("gl(2|2) reduced by e1-e3:", len(red.roots), "roots in dimension", red.dim)
v0 = orth_complement(rs.form, Subspace.from_vectors([alpha]))
print("both reduction routes agree:",
      rs.build_relation().reduce(v0) == red.build_relation())
