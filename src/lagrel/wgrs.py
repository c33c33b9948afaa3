"""Weak generalized root systems and the equivalence relations they induce.

A root system here is a finite symmetric set of nonzero rational vectors with
integrality under reflections in anisotropic roots and the plus-or-minus
shift axiom for isotropic ones.  The induced relation is generated by the
Weyl reflections together with the translation idempotents E_{alpha-perp}
for isotropic alpha; build_relation reads its components graph(w) o E_{S-perp}
off w in W and iso-sets S.  Its generators are the simple reflections and one
E_{alpha-perp} per W-orbit of isotropic pairs; build_relation(check=True), which
`verify wgrs` runs, audits the description with verify_closed(): it must be their closure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .exact_linalg import (
    BilinearForm,
    Matrix,
    Rational,
    Subspace,
    Vector,
    _echelon,
    _free_columns,
    _int_vector,
    _pivot,
    _residual,
    as_vector,
    matrix_to_payload,
    orth_complement,
    quotient,
    vector_to_payload,
)
from .linear_relations import (
    Isometry,
    LinearRelation,
    _then_isometry,
    generate_group,
    graph,
    idempotent_relation,
)
from .relation_monoid import (
    MAX_COMPONENTS,
    LagrangianEquivalenceRelation,
    _admit,
    _linked_classes,
)


def _orient(v: Vector) -> Vector:
    """Canonical representative of {v, -v}: first nonzero coordinate positive."""
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    return v


class ValidationReport(NamedTuple):
    ok: bool
    failures: tuple[str, ...] = ()


class RootSystem:
    """Finite root list plus the ambient nondegenerate symmetric form."""

    def __init__(self, form: BilinearForm, roots: Iterable[Sequence[Rational]]):
        vecs = sorted({as_vector(r) for r in roots})
        for v in vecs:
            if len(v) != form.dim:
                raise ValueError("root length disagrees with form dimension")
            if not any(v):
                raise ValueError("roots must be nonzero")
        self.form = form
        self.roots = tuple(vecs)
        self._class_plans: dict[int, tuple] = {}  # class_membership's plans, by v's orthogonality mask

    @property
    def dim(self) -> int:
        return self.form.dim

    @cached_property
    def iso_roots(self) -> tuple[Vector, ...]:
        return tuple(v for v in self.roots if self.form.pairing(v, v) == 0)

    @cached_property
    def aniso_roots(self) -> tuple[Vector, ...]:
        return tuple(v for v in self.roots if self.form.pairing(v, v) != 0)

    @cached_property
    def iso_pairs(self) -> tuple[Vector, ...]:
        return tuple(sorted({_orient(v) for v in self.iso_roots}))

    @cached_property
    def _root_set(self) -> frozenset[Vector]:
        """The roots, for membership tests; built once per system."""
        return frozenset(self.roots)

    @cached_property
    def _iso_pair_ints(self) -> dict[Vector, tuple[int, list[int]]]:
        """Each of iso_pairs, in order, to its denominator d and integer row d*p."""
        return {p: _int_vector(p) for p in self.iso_pairs}

    def _orth_mask(self, iv: Sequence[int]) -> int:
        """The bit mask of the positions in iso_pairs of the pairs orthogonal to the integer row iv."""
        return sum(1 << i for i, (_, ip) in enumerate(self._iso_pair_ints.values()) if not self.form.int_pairing(ip, iv))

    @cached_property
    def _iso_set_masks(self) -> tuple[int, ...]:
        """Each of iso_sets as the bit mask of its pairs' positions in iso_pairs."""
        bit = {p: 1 << i for i, p in enumerate(self.iso_pairs)}
        return tuple(sum(bit[p] for p in s) for s in self.iso_sets)

    @cached_property
    def aniso_pairs(self) -> tuple[Vector, ...]:
        return tuple(sorted({_orient(v) for v in self.aniso_roots}))

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and self.form == other.form and self.roots == other.roots

    def __hash__(self) -> int:
        return hash((self.form, self.roots))

    def __repr__(self) -> str:
        return f"RootSystem(dim={self.dim}, roots={len(self.roots)})"

    # -- axioms ---------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """The axioms, paired in integers on the roots times their common denominator.

        Each failure names its roots as "(p/q, ...)" tuples, formatted only for a failure.
        """
        scale = lcm(*(x.denominator for r in self.roots for x in r))
        ints = [tuple(x.numerator * (scale // x.denominator) for x in r) for r in self.roots]
        rootset = set(ints)
        pair = self.form.int_pairing
        norms = [pair(a, a) for a in ints]

        def fmt(i: int) -> str:
            return "(" + ", ".join(vector_to_payload(self.roots[i])) + ")"

        failures = [f"symmetry: -{fmt(i)} missing"
                    for i, a in enumerate(ints) if tuple(-x for x in a) not in rootset]
        for i in sorted(range(len(ints)), key=lambda i: norms[i] == 0):  # anisotropic roots are checked first
            for j, b in enumerate(ints):
                ab = pair(ints[i], b)
                if norms[i]:
                    k, rem = divmod(2 * ab, norms[i])
                    if rem:
                        k = Fraction(2 * ab, norms[i])
                        failures.append(f"integrality: k({fmt(i)},{fmt(j)}) = {k} not integral")
                    elif tuple(y - k * x for x, y in zip(ints[i], b)) not in rootset:
                        failures.append(f"reflection: s_{fmt(i)}({fmt(j)}) leaves the root set")
                elif ab and not rootset.intersection({tuple(y + x for x, y in zip(ints[i], b)),
                                                      tuple(y - x for x, y in zip(ints[i], b))}):
                    failures.append(f"shift: neither {fmt(j)}+-{fmt(i)} is a root")
        return ValidationReport(not failures, tuple(failures))

    @cached_property
    def _valid(self) -> ValidationReport:
        return self.validate()

    def require_valid(self):
        report = self._valid
        if not report.ok:
            raise ValueError("not a weak generalized root system: " + "; ".join(report.failures[:3]))

    # -- reflections and the Weyl group ----------------------------------------

    @cached_property
    def simple_reflections(self) -> tuple[Isometry, ...]:
        """Reflections in the simple roots: the positive (lexicographically, as for the
        generic functional (M^(n-1), ..., M, 1)) anisotropic roots that are not a sum of
        two positive ones.  By integrality the anisotropic roots form a crystallographic
        root system (a W-invariant inner product gives the same k), so these generate W."""
        self.require_valid()
        pos = self.aniso_pairs
        sums = {tuple(x + y for x, y in zip(a, b)) for i, a in enumerate(pos) for b in pos[i:]}
        return tuple(Isometry.reflection(self.form, a) for a in pos if a not in sums)

    @cached_property
    def weyl_group(self) -> tuple[Isometry, ...]:
        """W, closed from the simple reflections by generate_group once per system.  Its graphs are
        components of the relation, so past the relation's default bound MAX_COMPONENTS it raises
        ClosureBoundExceeded; build_relation walks W first."""
        return generate_group(self.form, self.simple_reflections, MAX_COMPONENTS)

    @cached_property
    def _weyl_and_inverses(self) -> tuple[tuple[Isometry, Matrix], ...]:
        """(w, w^-1) for each w in weyl_group, in its order; built once per system."""
        return tuple((w, w.matrix.inverse()) for w in self.weyl_group)

    # -- combinatorics ----------------------------------------------------------

    @cached_property
    def iso_sets(self) -> tuple[tuple[Vector, ...], ...]:
        """All iso-sets, the empty one included, each the sorted tuple of its pairs from iso_pairs,
        sorted by (size, pairs); enumerated once per system."""
        out = []

        def extend(chosen: tuple[Vector, ...], rest: list[Vector]):
            out.append(chosen)
            for i, cand in enumerate(rest):
                nxt = [r for r in rest[i + 1:] if self.form.pairing(cand, r) == 0]
                extend(chosen + (cand,), nxt)

        extend((), list(self.iso_pairs))
        return tuple(sorted(out, key=lambda s: (len(s), s)))

    def maximal_isosets(self, v: Sequence[Rational] | None = None) -> tuple[tuple[Vector, ...], ...]:
        """The iso-sets orthogonal to v (all when v is None) that lie inside no other.

        Without v they must all have one cardinality; AssertionError is raised if not.
        Orthogonality to v and containment are tested on integers; a v of the wrong length raises ValueError.
        """
        self.require_valid()
        orth = -1  # every bit set: no pair is excluded
        if v is not None:
            _, iv = _int_vector(v)
            if len(iv) != self.dim:
                raise ValueError("vector length disagrees with form dimension")
            orth = self._orth_mask(iv)
        candidates = [(s, m) for s, m in zip(self.iso_sets, self._iso_set_masks) if m & orth == m]
        maximal = tuple(s for s, m in candidates if not any(m & t == m != t for _, t in candidates))
        if v is None and len({len(s) for s in maximal}) > 1:
            raise AssertionError("maximal iso-sets of different cardinality")
        return maximal

    def defect(self) -> int:
        return len(self.maximal_isosets()[0])

    # -- two-reflection witnesses -------------------------------------------------

    def _connecting_anisotropic(self, beta: Vector, beta_p: Vector) -> Vector:
        """The first anisotropic root non-orthogonal to both of two isotropic roots.

        Such a root joins beta and beta_p in the non-orthogonality graph, so
        none exists when they lie in orthogonal indecomposable components.
        """
        for d in self.aniso_roots:
            if self.form.pairing(d, beta) != 0 and self.form.pairing(d, beta_p) != 0:
                return d
        raise ValueError("no anisotropic root connects the two isotropic roots")

    def _shift_reflection(self, b: Vector, b_p: Vector) -> Isometry:
        """The reflection in b - b_p, or else in b + b_p, for non-orthogonal isotropic roots.

        The shift axiom makes one of the two a root, and its reflection carries b to
        b_p or -b_p; ValueError is raised when neither is a root.
        """
        for gamma in (tuple(x - y for x, y in zip(b, b_p)), tuple(x + y for x, y in zip(b, b_p))):
            if gamma in self._root_set:
                return Isometry.reflection(self.form, gamma)
        raise ValueError("shift axiom fails for a non-orthogonal isotropic pair")

    def two_step_witness(self, beta: Sequence[Rational], beta_p: Sequence[Rational]) -> Isometry:
        """w, a product of at most two anisotropic reflections, with w(beta) = +-beta_p.

        Each factor is a _shift_reflection.  In the orthogonal case beta1 = s_delta(beta),
        with delta from _connecting_anisotropic, is non-orthogonal to both roots, and
        w = s' o s with s from beta to beta1 and s' from s(beta) to beta_p.
        This w also satisfies w^2 = id and acts as the identity on
        span(beta, beta_p)-perp modulo span(beta, beta_p); each of these is
        checked, and a failed check raises AssertionError, under python -O too.
        Roots in orthogonal indecomposable components have no such delta, and
        ValueError is raised.
        """
        self.require_valid()
        b = as_vector(beta)
        bp = as_vector(beta_p)
        if b not in self._root_set or bp not in self._root_set:
            raise ValueError("arguments must be roots")
        if self.form.pairing(b, b) != 0 or self.form.pairing(bp, bp) != 0:
            raise ValueError("arguments must be isotropic roots")
        neg_bp = tuple(-x for x in bp)
        if bp == b or neg_bp == b:
            return Isometry.identity(self.form)
        if self.form.pairing(b, bp) != 0:
            w = self._shift_reflection(b, bp)
            if w.apply(b) not in (bp, neg_bp):
                raise AssertionError("two-step witness misses the target root")
            return w
        delta = self._connecting_anisotropic(b, bp)
        beta1 = Isometry.reflection(self.form, delta).apply(b)
        if beta1 not in self._root_set:
            raise AssertionError("s_delta(beta) is not a root")
        first = self._shift_reflection(b, beta1)
        w = self._shift_reflection(first.apply(b), bp).compose(first)
        if w.apply(b) not in (bp, neg_bp):
            raise AssertionError("two-step witness misses the target root")
        if not w.compose(w).is_identity():
            raise AssertionError("two-step witness is not an involution")
        span = Subspace.from_vectors([b, bp])
        q = quotient(self.form, orth_complement(self.form, span))
        if q.projection @ w.matrix @ q.section != Matrix.identity(q.dim):
            raise AssertionError("two-step witness moves the subquotient")
        return w

    # -- transport of iso-sets ----------------------------------------------------

    def transport_isoset(self, v: Sequence[Rational], s: tuple[Vector, ...],
                         s_prime: tuple[Vector, ...]) -> Isometry:
        """w in Stab_W(v) with w(S) = S', by swapping one pair at a time; S and S' are
        tuples from maximal_isosets(v)."""
        self.require_valid()
        maximal = self.maximal_isosets(v)
        if s not in maximal or s_prime not in maximal:
            raise ValueError("iso-set is not a maximal iso-set orthogonal to the base vector")
        current = s
        w = Isometry.identity(self.form)
        guard = 0
        while current != s_prime:
            guard += 1
            if guard > 4 * len(self.roots) + 4:
                raise RuntimeError("iso-set transport failed to converge")
            alpha = next(p for p in s_prime if p not in current)
            beta = next(
                (p for p in current if self.form.pairing(alpha, p) != 0),
                None,
            )
            if beta is None:
                raise ValueError("source iso-set is not maximal: nothing blocks the new pair")
            refl = self._shift_reflection(alpha, beta)
            current = tuple(sorted(_orient(refl.apply(p)) for p in current))
            w = refl.compose(w)
        return w

    # -- the induced equivalence relation -------------------------------------------

    def relation_generators(self) -> list[LinearRelation]:
        """Graphs of the simple reflections, then E_{alpha-perp} for the first pair alpha of
        each W-orbit in iso_pairs, linked by the simple reflections.  Their closure holds
        every reflection and, as graph(w) o E_{alpha-perp} o graph(w)^-1 = E_{(w alpha)-perp},
        every isotropic idempotent."""
        simple, pairs = self.simple_reflections, self.iso_pairs
        index = {a: i for i, a in enumerate(pairs)}
        moves = [{index[_orient(s.apply(a))] for s in simple} for a in pairs]
        orbits = _linked_classes(range(len(pairs)), lambda i, j: j in moves[i])
        return [graph(s) for s in simple] + [
            idempotent_relation(self.form, orth_complement(self.form, Subspace.from_vectors([pairs[orbit[0]]])))
            for orbit in orbits]

    def build_relation(self, max_components: int = MAX_COMPONENTS,
                       check: bool = False) -> LagrangianEquivalenceRelation:
        """The components graph(w) o E_{S-perp} over iso-sets S and w in W, each read off E's
        rows, bounded as by closure (W is walked first, under its own bound) and generated by
        relation_generators(); check=True audits it with verify_closed(), AssertionError if not."""
        if max_components <= 0:
            raise ValueError("closure bounds must be positive")
        self.require_valid()
        gens = self.relation_generators()
        pool: dict[Subspace, LinearRelation] = {}
        for s in self.iso_sets:
            e = idempotent_relation(self.form, orth_complement(self.form, Subspace.from_vectors(s, self.dim)))
            for w in self.weyl_group:
                _admit(pool, _then_isometry(e, w.matrix), max_components)
        rel = LagrangianEquivalenceRelation(self.form, pool.values(), gens)
        if check and not rel.verify_closed():
            raise AssertionError("closure disagrees with the Weyl/iso-set description")
        return rel

    def _class_plan(self, iv: Sequence[int]) -> tuple:
        """class_membership's plan for v, kept by v's orthogonality mask and shared by the masks
        whose first maximal iso-set S is the same: (S, the echelon of rows d (p_i | e_i | 0), d the
        denominator of the pair p_i, u's coordinates in `order`, head pivots first, and the
        equation of span S each completes, one per free column of the head)."""
        orth = self._orth_mask(iv)
        if orth not in self._class_plans:
            pairs = self.maximal_isosets(iv)[0]
            plan = next((p for p in self._class_plans.values() if p[0] == pairs), None)
            if plan is None:
                n, k = self.dim, len(pairs)
                cert = _echelon(p + [d * (j == i) for j in range(k)] + [0]
                                for i, (d, p) in enumerate(map(self._iso_pair_ints.get, pairs)))
                head = [r[:n] for r in cert if any(r[:n])]
                pivots = [_pivot(r) for r in head]
                order = pivots + [j for j in range(n) if j not in pivots]
                plan = pairs, cert, order, [()] * len(pivots) + list(_free_columns(head, n))
            self._class_plans[orth] = plan
        return self._class_plans[orth]

    def class_membership(self, v: Sequence[Rational], v_prime: Sequence[Rational]) -> tuple[bool, tuple[Isometry, tuple[Fraction, ...]] | None]:
        """Decide v' in W(v + span S) for one maximal iso-set S orthogonal to v.

        W acts by isometries and span S is totally isotropic and orthogonal to v, so
        a pair with <v|v> != <v'|v'> is rejected once W is built (an oversized W still
        raises) but before it is scanned.  Otherwise, with S's _class_plan, u = w^-1 v'
        - v is built in `order` for each w in W, in order, and w is rejected at the
        first failing equation.  The first w that passes reduces (u | 0 | 1) against
        the certificate once: u = sum c_i p_i with c = -tail / (last * scale).  The
        c_i are unique when S's pairs are independent; otherwise the echelon picks one.
        """
        self.require_valid()
        (dv, iv), (dp, ip) = _int_vector(v), _int_vector(v_prime)
        n = self.dim
        if len(iv) != n or len(ip) != n:
            raise ValueError("vector length disagrees with form dimension")
        weyl, pair = self._weyl_and_inverses, self.form.int_pairing
        if dp * dp * pair(iv, iv) != dv * dv * pair(ip, ip):
            return False, None
        _, cert, order, checks = self._class_plan(iv)
        for w, w_inv in weyl:
            # u = w^-1 v' - v, as integers over w_inv.den * dp * dv
            scale = w_inv.den * dp
            u = [0] * n
            for i, a in zip(order, checks):
                u[i] = dv * sum(map(mul, w_inv.ints[i], ip)) - scale * iv[i]
                if sum(map(mul, a, u)):
                    break
            else:
                res = _residual(u + [0] * len(cert) + [1], cert)
                den = res[-1] * scale * dv
                return True, (w, tuple(Fraction(-c, den) for c in res[n:-1]))
        return False, None

    # -- reduction by an isotropic root -----------------------------------------------

    def reduce_by_root(self, alpha: Sequence[Rational]) -> "RootSystem":
        """Root system induced on alpha-perp / Q alpha for an isotropic root alpha."""
        self.require_valid()
        a = as_vector(alpha)
        if a not in set(self.iso_roots):
            raise ValueError("not an isotropic root of this system")
        v0 = orth_complement(self.form, Subspace.from_vectors([a]))
        q = quotient(self.form, v0)
        images = set()
        for r in self.roots:
            if self.form.pairing(r, a) == 0:
                img = q.projection.apply(r)
                if any(img):
                    images.add(img)
        return RootSystem(q.induced_form, images)


# ---------------------------------------------------------------------------
# Catalog of standard families.
# ---------------------------------------------------------------------------


def _gl_roots(m: int, n: int) -> list[tuple[int, ...]]:
    """e_i - e_j for all i != j; dim V = m + n."""
    dim = m + n
    return [tuple((k == i) - (k == j) for k in range(dim))
            for i in range(dim) for j in range(dim) if i != j]


def _osp_roots(m: int, n: int, odd: bool) -> list[tuple[int, ...]]:
    """+-e_a +- e_b (a < b), +-2e_p on the last n coordinates, and for B(m|n) (odd)
    +-e_a on every coordinate; D(m|n) otherwise.  dim V = m + n."""
    dim = m + n

    def vec(*pairs) -> tuple[int, ...]:
        out = [0] * dim
        for idx, val in pairs:
            out[idx] += val
        return tuple(out)

    signs = (1, -1)
    roots = [vec((a, s), (b, t)) for a in range(dim) for b in range(a + 1, dim) for s in signs for t in signs]
    roots += [vec((p, 2 * s)) for p in range(m, dim) for s in signs]
    if odd:
        roots += [vec((a, s)) for a in range(dim) for s in signs]
    return roots


def catalog(name: str, *params: int) -> RootSystem:
    """Built-in families: gl(m|n) and osp(p|q) with q even."""
    if name == "gl":
        if len(params) != 2 or any(p < 0 for p in params) or sum(params) < 1:
            raise ValueError("gl needs parameters m n with m + n >= 1")
        m, n = params
        form = BilinearForm.diagonal([1] * m + [-1] * n)
        return RootSystem(form, _gl_roots(m, n))
    elif name == "osp":
        if len(params) != 2:
            raise ValueError("osp needs parameters p q")
        p, q = params
        if q % 2 != 0 or q < 0 or p < 0 or p + q < 1:
            raise ValueError("osp needs q even and p + q >= 1")
        m, odd = divmod(p, 2)
        n = q // 2
        form = BilinearForm.diagonal([1] * m + [-1] * n)
        return RootSystem(form, _osp_roots(m, n, bool(odd)))
    raise ValueError(f"unknown catalog family: {name}")


# ---------------------------------------------------------------------------
# JSON payloads.
# ---------------------------------------------------------------------------


def rootsystem_to_payload(rs: RootSystem) -> dict:
    return {
        "gram": matrix_to_payload(rs.form.gram),
        "roots": [vector_to_payload(r) for r in rs.roots],
    }


def rootsystem_from_payload(payload: dict) -> RootSystem:
    gram = payload["gram"]
    form = BilinearForm(Matrix(gram, cols=len(gram)))
    roots = [as_vector(r) for r in payload["roots"]]
    return RootSystem(form, roots)
