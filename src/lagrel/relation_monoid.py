"""Lagrangian equivalence relations as finite closed component sets.

A relation R is stored as the deduplicated set of its Lagrangian components,
each a canonical subspace of V x V.  Closure is a breadth-first walk over
words in the generators (the word set of an inverse-closed generating family
is automatically closed under composition and inverse), stopped by a hard
bound on the components and one on the BFS depth (MAX_ROUNDS).
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Sequence

from .exact_linalg import (
    BilinearForm,
    Matrix,
    Rational,
    Subspace,
    _echelon,
    _int_product,
    _matrix,
    orth_complement,
    quotient,
    subspace_intersect,
    subspace_sum,
)
from .linear_relations import (
    ClosureBoundExceeded,
    Isometry,
    LinearRelation,
    _int_pair,
    _sorted_group,
    compose,
    diagonal,
    inverse,
    isometry_of_graph,
)


# BFS depth bound of closure(): one infinite-order generator reaches it at about
# 20000 components, long before the default component bound.
MAX_ROUNDS = 10_000
MAX_COMPONENTS = 100_000


class LagrangianEquivalenceRelation:
    """A finite union of Lagrangian components closed under composition/inverse.

    The constructor deduplicates components by their canonical subspace,
    always includes the diagonal and rejects a generator that is not a
    component (invariant_slices takes its constraints from the generators);
    without generators, every non-diagonal component is one.  Closedness, and
    that the generators generate every component, are the builder's job; both
    are audited in one place, verify_closed().
    """

    def __init__(self, form: BilinearForm, components: Iterable[LinearRelation],
                 generators: Sequence[LinearRelation] = ()):
        by_space = {}
        unit = diagonal(form)
        by_space[unit.space] = unit
        for comp in components:
            if comp.form != form:
                raise ValueError("component form disagrees with the relation form")
            if not comp.is_lagrangian:
                raise ValueError("component is not Lagrangian")
            by_space[comp.space] = comp
        generators = tuple(generators)
        if any(g.space not in by_space for g in generators):
            raise ValueError("generator is not a component of the relation")
        self.form = form
        self.components = tuple(sorted(by_space.values()))
        self.generators = generators or tuple(c for c in self.components if c.space != unit.space)
        self._spaces = frozenset(by_space)

    @property
    def n(self) -> int:
        return self.form.dim

    def __len__(self) -> int:
        return len(self.components)

    def __contains__(self, rel: LinearRelation) -> bool:
        return rel.space in self._spaces

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LagrangianEquivalenceRelation)
            and self.form == other.form
            and self._spaces == other._spaces
        )

    def __hash__(self) -> int:
        return hash((self.form, self._spaces))

    def __repr__(self) -> str:
        return f"LagrangianEquivalenceRelation(n={self.n}, components={len(self)})"

    # -- basic structure ----------------------------------------------------

    @cached_property
    def weyl_group(self) -> tuple[Isometry, ...]:
        """W: the atypicality-0 components, as isometries of V, sorted.

        In a closed component set the invertible components form a group, so W
        is read off the components; verify_closed() audits the closedness.
        """
        return _sorted_group([isometry_of_graph(c) for c in self.components if c.atypicality == 0])

    def atypicality_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(c.atypicality for c in self.components).items()))

    def special_coisotropics(self) -> tuple[Subspace, ...]:
        """All p1(L) over components (equivalently all p2, by inverse closure)."""
        return tuple(sorted({c.p1 for c in self.components}))

    def discriminant(self) -> tuple[Subspace, ...]:
        """Inclusion-maximal proper special coisotropics; their union is the discriminant."""
        proper = [u for u in self.special_coisotropics() if u.dim < self.n]
        out = []
        for u in proper:
            if not any(v is not u and v.contains(u) for v in proper):
                out.append(u)
        return tuple(sorted(out))

    def membership(self, x: Sequence[Rational], y: Sequence[Rational]) -> bool:
        """Decide (x, y) in R on the integer pair by each component's equations a.(x, y) = 0, read
        off on its first query; a component is left at its first equation that fails."""
        pair = _int_pair(x, y, self.n)
        for c in self.components:
            for a in c._equations:
                if sum(map(mul, a, pair)):
                    break
            else:
                return True
        return False

    def verify_closed(self) -> bool:
        """Audit closure under inverse and under composition of every pair, then
        that the generators generate every component (weyl_group and
        invariant_slices rely on both)."""
        comps, spaces = self.components, self._spaces
        closed = (all(inverse(c).space in spaces for c in comps)
                  and all(compose(a, b).space in spaces for a in comps for b in comps))
        # reached only when closed, so the closure of the generators stays inside the set
        return closed and closure(self.form, self.generators) == self

    # -- reduction ----------------------------------------------------------

    def components_inside(self, v0: Subspace) -> tuple[LinearRelation, ...]:
        """The components with p1(L) and p2(L) in V0 (each distinct one tested once): the ones reduce(v0) keeps."""
        projections = {c.p1 for c in self.components} | {c.p2 for c in self.components}
        inside = {u for u in projections if v0.contains(u)}
        return tuple(c for c in self.components if c.p1 in inside and c.p2 in inside)

    def reduce(self, v0: Subspace) -> "LagrangianEquivalenceRelation":
        """Induced relation on V0/V1 for a special coisotropic V0 (some p1(L)).

        Maps components_inside(v0) to V0/V1; `verify reduction` checks that they
        are the components L with E o L o E = L (`reduction_filters`).
        """
        if v0 not in {c.p1 for c in self.components}:
            raise ValueError("subspace is not special coisotropic for this relation")
        n = self.n
        q = quotient(self.form, v0)
        reduced = (
            LinearRelation(q.induced_form,
                           Subspace(2 * q.dim, _map_halves(comp.space.rows, n, q.projection)))
            for comp in self.components_inside(v0)
        )
        return LagrangianEquivalenceRelation(q.induced_form, reduced)

    # -- regularity hierarchy -------------------------------------------------

    def is_one_regular(self) -> tuple[bool, Subspace | None]:
        """Empty discriminant, or a single W-orbit of codimension-1 subspaces."""
        disc = self.discriminant()
        if not disc:
            return True, None
        if any(u.dim != self.n - 1 for u in disc):
            return False, None
        rep = disc[0]
        orbit = {rep.transform(s.matrix) for s in self.weyl_group}
        if orbit == set(disc):
            return True, rep
        return False, None

    # -- products -------------------------------------------------------------

    def product(self, other: "LagrangianEquivalenceRelation") -> "LagrangianEquivalenceRelation":
        """Componentwise product relation on V x V'."""
        n, m = self.n, other.n
        gram = _block_diag(self.form.gram, other.form.gram)
        form = BilinearForm(gram)
        comps = []
        for a in self.components:
            for b in other.components:
                rows = []
                for r in a.space.rows:
                    rows.append(r[:n] + (0,) * m + r[n:] + (0,) * m)
                for r in b.space.rows:
                    rows.append((0,) * n + r[:m] + (0,) * n + r[m:])
                space = Subspace(2 * (n + m), rows)
                comps.append(LinearRelation(form, space))
        return LagrangianEquivalenceRelation(form, comps)

    # -- semiregularity ---------------------------------------------------------

    def component_support(self, comp: LinearRelation) -> Subspace:
        """span{v - w : (v, w) in L}: the directions the component moves."""
        n = self.n
        rows = [tuple(r[i] - r[n + i] for i in range(n)) for r in comp.space.rows]
        return Subspace(n, rows)

    def find_semiregular_decomposition(self) -> list[Subspace] | None:
        """Orthogonal decomposition candidate from the minimal component supports.

        Minimal supports (containing no other nonzero support) are grouped by
        non-orthogonality; each class span is grown to a nondegenerate subspace
        orthogonal to the other spans and earlier factors, and the orthogonal
        complement of the grown factors completes them.  The support of a
        product component L1 x L2 contains those of L1 x id and id x L2, so it is
        not minimal and cannot merge two blocks: no redundant span needs dropping.
        The result is only a candidate: split_by_decomposition decides.
        """
        sups = sorted({s for s in map(self.component_support, self.components) if s.dim})
        minimal = [s for s in sups if not any(t != s and s.contains(t) for t in sups)]
        classes = _linked_classes(minimal, lambda a, b: not _orthogonal_subspaces(self.form, a, b))
        spans = sorted(_span_of(self.n, group) for group in classes)
        factors: list[Subspace] = []
        for i, span in enumerate(spans):
            grown = _nondegenerate_growth(self.form, span, spans[:i] + spans[i + 1:] + factors)
            if grown is None:
                return None
            factors.append(grown)
        # the factors are pairwise orthogonal and nondegenerate, so is their complement
        rest = orth_complement(self.form, _span_of(self.n, factors))
        return sorted(factors + [rest] if rest.dim else factors)

    def split_by_decomposition(self, factors: Sequence[Subspace]) -> list["LagrangianEquivalenceRelation"] | None:
        """Factor relations if every component splits along the decomposition, else None.

        V must be the direct sum of the factors, which must be pairwise
        orthogonal, and each component the sum of its pieces in the blocks.  The
        pieces are then Lagrangian, and each factor relation is closed because
        composition and inverse act blockwise.
        """
        n = self.n
        stacked = [r for f in factors for r in f.rows]
        if len(stacked) != n or len(_echelon(stacked)) != n:
            return None
        if not all(_orthogonal_subspaces(self.form, a, b)
                   for i, a in enumerate(factors) for b in factors[i + 1:]):
            return None
        t = _matrix(1, stacked, n)
        gram_new = t @ self.form.gram @ t.transpose()
        ends = list(accumulate(f.dim for f in factors))
        offsets = list(zip([0] + ends[:-1], ends))
        coord = t.transpose().inverse()
        forms = [
            BilinearForm(_matrix(gram_new.den, (row[b0:b1] for row in gram_new.ints[b0:b1]), b1 - b0))
            for (b0, b1) in offsets
        ]
        factor_comps: list[dict] = [dict() for _ in factors]
        for comp in self.components:
            moved = Subspace(2 * n, _map_halves(comp.space.rows, n, coord))
            pieces = [Subspace(2 * (b1 - b0), [r[b0:b1] + r[n + b0:n + b1] for r in moved.rows])
                      for (b0, b1) in offsets]
            # moved lies in the direct sum of its block projections: equal iff dims agree
            if sum(piece.dim for piece in pieces) != moved.dim:
                return None
            for idx, piece in enumerate(pieces):
                factor_comps[idx][piece] = LinearRelation(forms[idx], piece)
        return [LagrangianEquivalenceRelation(form, comps.values())
                for form, comps in zip(forms, factor_comps)]

    def is_one_semiregular(self) -> bool:
        """1-regular, or splits along find_semiregular_decomposition into 1-regular factors."""
        ok, _ = self.is_one_regular()
        if ok:
            return True
        factors = self.find_semiregular_decomposition()
        if factors is None:
            return False
        split = self.split_by_decomposition(factors)
        return split is not None and all(r.is_one_regular()[0] for r in split)

    def is_semiregular(self) -> bool:
        """Every reduction by a special coisotropic is 1-semiregular."""
        return all(self.reduce(v0).is_one_semiregular() for v0 in self.special_coisotropics())


def _linked_classes(items: Sequence, linked: Callable[[object, object], bool]) -> list[list]:
    """Classes of the equivalence generated by linked(a, b) over pairs a before b.

    A union-find; each class keeps the items' order, and the classes come in
    the order of their first items.
    """
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(items):
        for j in range(i + 1, len(items)):
            if linked(a, items[j]):
                parent[find(i)] = find(j)
    classes: dict[int, list] = {}
    for i, item in enumerate(items):
        classes.setdefault(find(i), []).append(item)
    return list(classes.values())


def _block_diag(a: Matrix, b: Matrix) -> Matrix:
    n, m = a.rows, b.rows
    den = a.den * b.den
    rows = [tuple(x * b.den for x in r) + (0,) * m for r in a.ints]
    rows += [(0,) * n + tuple(x * a.den for x in r) for r in b.ints]
    return _matrix(den, rows, n + m)


def _map_halves(rows: Sequence[Sequence[int]], n: int, m: Matrix) -> list[tuple[int, ...]]:
    """Rows (m x | m y) for the rows (x | y) of a relation, up to the common factor m.den."""
    mt = m.transpose().ints
    xs = _int_product([r[:n] for r in rows], mt, m.rows)
    ys = _int_product([r[n:] for r in rows], mt, m.rows)
    return [x + y for x, y in zip(xs, ys)]


def _orthogonal_subspaces(form: BilinearForm, a: Subspace, b: Subspace) -> bool:
    bh = form.times_gram(b.rows)
    return all(sum(map(mul, ra, x)) == 0 for ra in a.rows for x in bh)


def _span_of(n: int, parts: Iterable[Subspace]) -> Subspace:
    rows = []
    for p in parts:
        rows.extend(p.rows)
    return Subspace(n, rows)


def _nondegenerate_growth(form: BilinearForm, span: Subspace, avoid: Sequence[Subspace]) -> Subspace | None:
    """Grow span to a nondegenerate subspace orthogonal to everything in avoid."""
    n = form.dim
    current = span
    allowed = orth_complement(form, _span_of(n, avoid))
    if not allowed.contains(current):
        return None
    for _ in range(n + 1):
        radical = subspace_intersect(current, orth_complement(form, current))
        if radical.dim == 0:
            return current
        r = radical.rows[0]
        partner = None
        for cand in allowed.rows:
            pr = form.int_pairing(cand, r)
            if pr != 0:
                # c - <c|c>/(2<c|r>) r, scaled by 2<c|r> to stay integral
                cc = form.int_pairing(cand, cand)
                partner = tuple(2 * pr * x - cc * y for x, y in zip(cand, r))
                break
        if partner is None:
            return None
        current = subspace_sum(current, Subspace(n, [partner]))
    return None


def closure(form: BilinearForm, generators: Iterable[LinearRelation],
            max_components: int = MAX_COMPONENTS) -> LagrangianEquivalenceRelation:
    """Smallest closed component set containing the generators, inverses and the diagonal.

    Enumerates all words in the inverse-closed generator family breadth
    first; the word set is closed under composition and inverse by
    construction.  Fails loudly when max_components or MAX_ROUNDS is hit,
    which is the signal for a (possibly) infinite closure.  The walk starts
    from the diagonal alone, so the component bound counts it and the generators.
    """
    if max_components <= 0:
        raise ValueError("closure bounds must be positive")
    unit = diagonal(form)
    gens: list[LinearRelation] = []
    seen_gens = {unit.space}
    for g in generators:
        if g.form != form:
            raise ValueError("generator form disagrees with the closure form")
        if not g.is_lagrangian:
            raise ValueError("generator is not Lagrangian")
        for cand in (g, inverse(g)):
            if cand.space not in seen_gens:
                seen_gens.add(cand.space)
                gens.append(cand)
    pool = {unit.space: unit}
    queue: deque[tuple[LinearRelation, int]] = deque([(unit, 0)])
    while queue:
        rel, depth = queue.popleft()
        if depth >= MAX_ROUNDS:
            raise ClosureBoundExceeded(f"closure exceeded {MAX_ROUNDS} rounds; the closure may be infinite")
        for g in gens:
            prod = compose(rel, g)
            if _admit(pool, prod, max_components):
                queue.append((prod, depth + 1))
    return LagrangianEquivalenceRelation(form, pool.values(), generators=tuple(gens))


def _admit(pool: dict[Subspace, LinearRelation], rel: LinearRelation, max_components: int) -> bool:
    """Add rel to pool under its space if new, and say so; a new one past max_components raises ClosureBoundExceeded."""
    if rel.space in pool:
        return False
    if len(pool) >= max_components:
        raise ClosureBoundExceeded(f"closure exceeded {max_components} components; the closure may be infinite")
    pool[rel.space] = rel
    return True
