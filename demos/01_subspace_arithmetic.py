"""Exact subspace arithmetic: canonical bases, complements, quotients.

Every subspace is stored as the unique reduced-row-echelon basis of its row
space, so equality is literal equality of representations and results are
identical no matter how the inputs were presented.
"""

from fractions import Fraction

from lagrel import BilinearForm, Matrix, Subspace, orth_complement, quotient, rref
from lagrel.exact_linalg import subspace_intersect, subspace_sum

print("== canonical form ==")
a = Subspace.from_vectors([[2, 4, 0], [1, 2, 1]])
b = Subspace.from_vectors([[1, 2, 1], [3, 6, 7], [4, 8, 2]])
print("same plane, two presentations:", a == b)
print("canonical basis:\n", a.basis)

print("\n== reduced row echelon form ==")
m = Matrix([[2, 4], [1, 2]])
print("rref of [[2,4],[1,2]] keeps one row:", rref(m))

print("\n== sums and intersections are exact ==")
e1 = Subspace.from_vectors([[1, 0, 0]])
plane = Subspace.from_vectors([[1, 1, 0], [0, 0, 1]])
print("dim(sum):", subspace_sum(e1, plane).dim)
print("dim(intersection):", subspace_intersect(e1, plane).dim)

print("\n== orthogonal complements under an indefinite form ==")
form = BilinearForm.diagonal([1, 1, -1])
iso = Subspace.from_vectors([[1, 0, 1]])
perp = orth_complement(form, iso)
print("isotropic line, <v|v> =", form.pairing((1, 0, 1), (1, 0, 1)))
print("its complement has dim", perp.dim, "and contains the line:", perp.contains(iso))

print("\n== quotient of a coisotropic subspace ==")
q = quotient(form, perp)
print("V0/V1 has dimension", q.dim)
print("induced Gram matrix:", q.induced_form.gram)
print("projection o section = identity:",
      q.projection.apply(q.section.apply((Fraction(1),))) == (Fraction(1),))
