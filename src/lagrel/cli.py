"""Command line front end: JSON analysis reports and verification suites.

Exit codes: 0 success, 1 invalid input or usage error, 2 closure or
Weyl-group bound exceeded.  All output is canonical (sorted keys, "p/q"
rationals), so identical inputs produce byte-identical reports.  Convention
note embedded in every report: the pairing on V x V is <v|v'> - <w|w'>.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from itertools import islice, starmap
from typing import Iterable, Iterator

from . import __version__
from .exact_linalg import (
    BilinearForm,
    Matrix,
    Subspace,
    as_vector,
    basis_to_payload,
    matrix_to_payload,
    orth_complement,
    rational,
    subspace_to_payload,
    vector_to_payload,
)
from .invariants import (
    Separation,
    contains_polynomial,
    discriminant_polynomial,
    independent_evaluation_points,
    invariant_slices,
    invariant_space,
    polynomial_to_payload,
    product_invariant_check,
    separate,
    weyl_invariant_space,
)
from .linear_relations import (
    LinearRelation,
    canonical_data,
    classify_idempotent,
    compose,
    idempotent_relation,
    inverse,
    random_pairs,
    relation_from_data,
    relation_from_payload,
)
from .relation_monoid import (
    MAX_COMPONENTS,
    ClosureBoundExceeded,
    LagrangianEquivalenceRelation,
    closure,
)
from .wgrs import (
    RootSystem,
    catalog,
    rootsystem_from_payload,
    rootsystem_to_payload,
)

BILINEAR_CONVENTION = "B((v,w),(v',w')) = <v|v'> - <w|w'>"


def _load_json(path: str) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    return json.loads(raw.decode("utf-8")), raw


def _relation_from_file(payload: dict, max_components: int):
    """Build the relation described by a wgrs or generator file."""
    if "roots" in payload:
        return rootsystem_from_payload(payload).build_relation(max_components)
    if "generators" in payload:
        gram = payload["form"]
        form = BilinearForm(Matrix(gram, cols=len(gram)))
        gens = [relation_from_payload(g, form=form) for g in payload["generators"]]
        return closure(form, gens, max_components)
    raise ValueError("input file needs either a 'roots' or a 'generators' key")


def _degree(text: str) -> int:
    """argparse type of --degree and --dmax: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(raw: bytes, body: dict, out: str | None) -> int:
    """Emit body under the header every report carries: the input's sha256, the version, the pairing."""
    _emit({
        "input_digest": hashlib.sha256(raw).hexdigest(),
        "tool_version": __version__,
        "bilinear_convention": BILINEAR_CONVENTION,
        **body,
    }, out)
    return 0


def _summary(rel: LagrangianEquivalenceRelation) -> dict:
    """The head of the analyze and wgrs relation reports.  weyl_order is the atypicality-0 count, which is
    len(rel.weyl_group): W is exactly those components read as isometries."""
    hist = rel.atypicality_histogram()
    return {"n": rel.n, "num_components": len(rel), "weyl_order": hist[0],
            "atypicality_histogram": {str(k): v for k, v in hist.items()}}


def cmd_analyze(args) -> int:
    if (args.x is None) != (args.y is None):
        raise ValueError("--x and --y must be given together")
    payload, raw = _load_json(args.input)
    rel = _relation_from_file(payload, args.max_components)
    report = {
        **_summary(rel),
        "discriminant": [subspace_to_payload(u) for u in rel.discriminant()],
        "one_regular": rel.is_one_regular()[0],
        "semiregular": rel.is_semiregular(),
        "invariant_dimensions": [len(b) for b in islice(invariant_slices(rel), args.degree + 1)],
    }
    if args.x is not None:
        x = _parse_vector(args.x)
        y = _parse_vector(args.y)
        report["separation"] = _separation_payload(separate(rel, x, y, args.dmax))
    return _report(raw, report, args.out)


def _parse_vector(text: str):
    return as_vector(text.split(","))


def _separation_payload(result: Separation) -> dict:
    out = {"status": result.status}
    if result.status == "separated":
        out["degree"] = result.degree
        out["polynomial"] = polynomial_to_payload(result.polynomial)
        out["values"] = [str(result.values[0]), str(result.values[1])]
    return out


def cmd_invariants(args) -> int:
    payload, raw = _load_json(args.input)
    rel = _relation_from_file(payload, args.max_components)
    bases = list(islice(invariant_slices(rel), args.degree + 1))
    report = {
        "n": rel.n,
        "invariant_dimensions": [len(b) for b in bases],
        "bases": {str(d): [polynomial_to_payload(p) for p in b] for d, b in enumerate(bases)},
    }
    return _report(raw, report, args.out)


def cmd_separate(args) -> int:
    payload, raw = _load_json(args.input)
    rel = _relation_from_file(payload, args.max_components)
    result = separate(rel, _parse_vector(args.x), _parse_vector(args.y), args.dmax)
    report = {"separation": _separation_payload(result), "membership": result.status == "equivalent"}
    return _report(raw, report, args.out)


def cmd_discriminant(args) -> int:
    payload, raw = _load_json(args.input)
    rel = _relation_from_file(payload, args.max_components)
    disc = discriminant_polynomial(rel)
    report = {
        "degree": disc.degree,
        "polynomial": polynomial_to_payload(disc.polynomial),
        "hyperplanes": [subspace_to_payload(h) for h in disc.hyperplanes],
    }
    return _report(raw, report, args.out)


# ---------------------------------------------------------------------------
# wgrs subcommands.
# ---------------------------------------------------------------------------


def cmd_wgrs_build(args) -> int:
    rs = catalog(args.family, int(args.m), int(args.n))
    _emit(rootsystem_to_payload(rs), args.out)
    return 0


def cmd_wgrs_validate(args) -> int:
    payload, raw = _load_json(args.input)
    rs = rootsystem_from_payload(payload)
    validation = rs.validate()
    report = {
        "valid": validation.ok,
        "failures": list(validation.failures),
        "num_roots": len(rs.roots),
        "isotropic_roots": [vector_to_payload(r) for r in rs.iso_roots],
    }
    _report(raw, report, args.out)
    return 0 if validation.ok else 1


def cmd_wgrs_relation(args) -> int:
    payload, raw = _load_json(args.input)
    rs = rootsystem_from_payload(payload)
    rel = rs.build_relation(args.max_components)
    report = {**_summary(rel), "components": [basis_to_payload(c.space) for c in rel.components]}
    return _report(raw, report, args.out)


def cmd_wgrs_reduce(args) -> int:
    payload, raw = _load_json(args.input)
    rs = rootsystem_from_payload(payload)
    iso = rs.iso_roots
    if not iso:
        raise ValueError("the root system has no isotropic roots to reduce by")
    if not 0 <= args.root < len(iso):
        raise ValueError(f"--root must index the isotropic root list (0..{len(iso) - 1})")
    reduced = rs.reduce_by_root(iso[args.root])
    _emit(rootsystem_to_payload(reduced), args.out)
    return 0


def cmd_wgrs_classes(args) -> int:
    payload, raw = _load_json(args.input)
    rs = rootsystem_from_payload(payload)
    v = _parse_vector(args.v)
    vp = _parse_vector(args.vprime)
    related, witness = rs.class_membership(v, vp)
    report = {"equivalent": related}
    if witness is not None:
        w, coeffs = witness
        report["witness"] = {
            "isometry": matrix_to_payload(w.matrix),
            "coefficients": [str(c) for c in coeffs],
        }
    return _report(raw, report, args.out)


# ---------------------------------------------------------------------------
# Verification suites (seeded, deterministic by default).
# ---------------------------------------------------------------------------


def _holds(check, *args) -> bool:
    """Whether check(*args) returns a true value without raising AssertionError or ValueError."""
    try:
        return bool(check(*args))
    except (AssertionError, ValueError):
        return False


def monoid_checks(
    form: BilinearForm, a: LinearRelation, b: LinearRelation
) -> tuple[LinearRelation, dict[str, bool]]:
    """The composite c = compose(a, b) and the six named monoid checks on the pair."""
    c = compose(a, b)
    return c, {
        "composition_lagrangian": c.is_lagrangian,
        "kernel_dims_equal": all(r.p1.dim == r.p2.dim for r in (a, b, c)),
        "atypicality_bounds": (
            max(a.atypicality, b.atypicality) <= c.atypicality <= a.atypicality + b.atypicality
        ),
        "image_is_kernel_complement": orth_complement(form, a.k2) == a.p1,
        "inverse_composition_idempotent": _holds(lambda: classify_idempotent(compose(a, inverse(a))) == a.p1),
        "canonical_data_round_trip": _holds(lambda: relation_from_data(form, *canonical_data(a)) == a),
    }


def _tally(checks: Iterable[tuple[str, bool]]) -> dict[str, tuple[int, int]]:
    """{name: (passed, failed)} over (name, ok) check results."""
    counts: dict[str, list[int]] = {}
    for name, ok in checks:
        counts.setdefault(name, [0, 0])[0 if ok else 1] += 1
    return {k: (v[0], v[1]) for k, v in counts.items()}


def suite_monoid(seed: int, pairs: int = 1000) -> dict[str, tuple[int, int]]:
    """Monoid laws, atypicality bounds and structure lemmas on random pairs."""
    return _tally(check for form, a, b in random_pairs(seed, pairs)
                  for check in monoid_checks(form, a, b)[1].items())


def wgrs_checks(rs: RootSystem) -> Iterator[tuple[str, bool]]:
    """(name, ok) per check of `verify wgrs` on rs, each run inside the call it names: build_relation(check=True)
    (the description against the closure of relation_generators()), maximal_isosets(), and
    two_step_witness on every ordered pair of isotropic roots; ok: a true value, nothing raised."""
    yield "component_description", _holds(lambda: rs.build_relation(check=True))
    yield "isoset_cardinality", _holds(rs.maximal_isosets)
    for beta in rs.iso_roots:
        for beta_p in rs.iso_roots:
            yield "two_step_witness", _holds(rs.two_step_witness, beta, beta_p)


def suite_wgrs(seed: int) -> dict[str, tuple[int, int]]:
    """Catalog closures match the graph/iso-set description; witnesses verify."""
    entries = [("gl", m, n) for m in range(0, 4) for n in range(0, 4) if 1 <= m + n <= 4]
    entries.append(("osp", 3, 2))
    return _tally(check for rs in starmap(catalog, entries) for check in wgrs_checks(rs))


def suite_invariants(seed: int) -> dict[str, tuple[int, int]]:
    """Graded dimensions and pointwise invariance on catalog relations."""
    rng = random.Random(seed)
    rel = catalog("gl", 1, 1).build_relation()
    dims = [len(b) for b in islice(invariant_slices(rel), 1, 7)]
    checks = [("baby_dimensions", dims == [1, 2, 3, 4, 5, 6])]
    rel21 = catalog("gl", 2, 1).build_relation()
    for d, basis in zip((1, 2, 3), islice(invariant_slices(rel21), 1, None)):
        weyl_basis = weyl_invariant_space(list(rel21.weyl_group), d)
        ok = all(contains_polynomial(weyl_basis, f, d) for f in basis)
        checks.append(("weyl_containment", ok))
        for comp in rel21.components:
            for _ in range(5):
                t = [rational(rng.randint(-3, 3)) for _ in range(comp.dim)]
                point = [
                    sum(t[k] * comp.space.rows[k][i] for k in range(comp.dim))
                    for i in range(2 * rel21.n)
                ]
                x, y = point[: rel21.n], point[rel21.n :]
                ok = all(f.evaluate(x) == f.evaluate(y) for f in basis)
                checks.append(("pointwise_invariance", ok))
    return _tally(checks)


def reduction_checks(rs: RootSystem, rel: LagrangianEquivalenceRelation) -> Iterator[tuple[str, bool]]:
    """(name, ok) per check of `verify reduction` on rs and rel = rs.build_relation(): reduce(V0)
    keeps the components with E_V0 o L o E_V0 = L, per special coisotropic V0; rel is
    semiregular; reducing by alpha-perp gives the relation of rs.reduce_by_root(alpha), per iso pair."""
    for v0 in rel.special_coisotropics():
        e = idempotent_relation(rs.form, v0)
        fixed = {c.space for c in rel.components if compose(compose(e, c), e).space == c.space}
        yield "reduction_filters", fixed == {c.space for c in rel.components_inside(v0)}
    yield "semiregular", rel.is_semiregular()
    for alpha in rs.iso_pairs:
        v0 = orth_complement(rs.form, Subspace.from_vectors([alpha]))
        yield "reduction_square", _holds(lambda: rel.reduce(v0) == rs.reduce_by_root(alpha).build_relation())


def suite_reduction(seed: int) -> dict[str, tuple[int, int]]:
    """Root-system reduction commutes with relation reduction on the catalog."""
    entries = (("gl", 1, 1), ("gl", 2, 1), ("gl", 2, 2))
    return _tally(check for rs in starmap(catalog, entries) for check in reduction_checks(rs, rs.build_relation()))


def suite_product(seed: int) -> dict[str, tuple[int, int]]:
    """Product dimension formula and evaluation-matrix utility."""
    rel = catalog("gl", 1, 1).build_relation()
    checks = [("product_dimension_formula", product_invariant_check(rel, rel, d)) for d in range(5)]
    basis = invariant_space(rel, 3)
    ok = _holds(lambda: len(independent_evaluation_points(basis)) == len(basis))
    return _tally(checks + [("evaluation_points", ok)])


SUITES = {
    "monoid": suite_monoid,
    "wgrs": suite_wgrs,
    "invariants": suite_invariants,
    "reduction": suite_reduction,
    "product": suite_product,
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        sys.stderr.write(f"unknown suite: {args.suite} (choose from {sorted(SUITES)})\n")
        return 1
    results = SUITES[args.suite](args.seed)
    failed = 0
    for name, (ok, bad) in sorted(results.items()):
        status = "PASS" if bad == 0 else "FAIL"
        print(f"{status} {name}: {ok} ok, {bad} failed (seed={args.seed})")
        failed += bad
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagrel",
        description="Exact toolkit for Lagrangian equivalence relations and their invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="relation or root-system JSON file")
        p.add_argument("--max-components", type=int, default=MAX_COMPONENTS)
        p.add_argument("--out", default=None)

    p = sub.add_parser("analyze", help="full structural report")
    common(p)
    p.add_argument("--degree", type=_degree, default=4)
    p.add_argument("--dmax", type=_degree, default=6)
    p.add_argument("--x", default=None, help="comma separated rationals")
    p.add_argument("--y", default=None, help="comma separated rationals")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("invariants", help="graded invariant bases")
    common(p)
    p.add_argument("--degree", type=_degree, default=4)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("separate", help="search for a separating invariant")
    common(p)
    p.add_argument("--dmax", type=_degree, default=6)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("discriminant", help="minimal W-invariant vanishing on the discriminant")
    common(p)
    p.set_defaults(func=cmd_discriminant)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    wg = sub.add_parser("wgrs", help="root system utilities")
    wgsub = wg.add_subparsers(dest="wgrs_command", required=True)

    p = wgsub.add_parser("build", help="emit a catalog root system")
    p.add_argument("family", choices=("gl", "osp"))
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wgrs_build)

    p = wgsub.add_parser("validate", help="check the root system axioms")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wgrs_validate)

    p = wgsub.add_parser("relation", help="build the induced equivalence relation")
    common(p)
    p.set_defaults(func=cmd_wgrs_relation)

    p = wgsub.add_parser("reduce", help="reduce by an isotropic root")
    p.add_argument("input")
    p.add_argument("--root", type=int, required=True, help="index into the isotropic root list")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wgrs_reduce)

    p = wgsub.add_parser("classes", help="decide equivalence of two points")
    p.add_argument("input")
    p.add_argument("--v", required=True)
    p.add_argument("--vprime", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_wgrs_classes)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ClosureBoundExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except KeyError as exc:  # str(KeyError("gram")) is "'gram'"
        sys.stderr.write(f"error: missing key {exc}\n")
        return 1
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
