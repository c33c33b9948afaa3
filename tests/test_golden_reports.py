"""Byte-level pins of every CLI report kind on three small catalog systems.

Each case runs `lagrel.cli.main` in-process with `--out` and compares the
sha256 of the written report with a digest recorded before the exact kernel
was unified.  A refactor of the linear algebra or the polynomial code must
leave all of them unchanged; a deliberate output change must re-record them
and say why.  One more pin covers the payload bytes of the seeded random
relations that `verify monoid` draws, and one more the stdout of the fixed
`verify` suites.  Three more pin reports whose slices reach degree 6 to 8 on
gl(2|2) and gl(3|2), recorded before the slice solver switched to the
closure's generators.  Three more pin the `discriminant` reports of gl(2|2)
and gl(3|2) and the `wgrs relation` report of gl(4|1), recorded before those
commands stopped re-deriving results they had already computed.  Two more
pin `analyze --degree 4` on generator files (the README's gl(1|1) example
and the gl(1|1) x gl(2|1) product), recorded before the relation's Weyl
group was read off its components.  One more pins the `wgrs build` payloads
of the gl and osp catalog over a small range, recorded before the catalog
roots were generated from their defining rules.  Two more pin `wgrs validate`
on the gl(2|1) catalog file and on that file with its first root dropped,
recorded before the seven report commands shared one envelope writer.
One more pins the canonical rows of all 1000 seed-1 pairs that `verify
monoid --seed 1` draws, recorded before the generator switched to integer
draws and read g o E_V0 off the twisted iso-span.  Two more pin `invariants`
on gl(3|2) to degree 10 and on gl(3|3) to degree 8, recorded before the
slice solver switched from dense per-generator nullspaces to one sparse
elimination per degree.  Seven more pin point queries: `wgrs classes` on
gl(3|2) and osp(4|2) for a related pair, an unrelated pair with
<v|v> = <v'|v'> and one whose norms differ, and `separate` on gl(2|1) for a
pair whose norms differ, recorded before those queries rejected a pair
whose norms differ without scanning W or the components.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from lagrel.cli import main
from lagrel.exact_linalg import matrix_to_payload
from lagrel.linear_relations import random_pairs

from conftest import built_relation, relation_to_payload

# system -> (unrelated pair, related pair), as comma-separated rationals
POINTS = {
    "gl-1-1": (("1,0", "0,1"), ("0,0", "2,-2")),
    "gl-2-1": (("1,0,0", "0,0,1"), ("1,0,1", "0,1,1")),
    "gl-1-2": (("1,0,0", "0,1,0"), ("1/2,-1/2,5", "3,-3,5")),
}


def _cases(unrelated, related):
    (x, y), (rx, ry) = unrelated, related
    return {
        "analyze": ["analyze", "--degree", "4", "--x", x, "--y", y],
        "analyze related": ["analyze", "--degree", "4", "--x", rx, "--y", ry],
        "invariants": ["invariants", "--degree", "4"],
        "separate": ["separate", "--x", x, "--y", y],
        "separate related": ["separate", "--x", rx, "--y", ry],
        "discriminant": ["discriminant"],
        "wgrs relation": ["wgrs", "relation"],
        "wgrs reduce": ["wgrs", "reduce", "--root", "0"],
        "wgrs classes": ["wgrs", "classes", "--v", x, "--vprime", y],
        "wgrs classes related": ["wgrs", "classes", "--v", rx, "--vprime", ry],
    }


GOLDEN = {
    "gl-1-1 catalog": "45420fb94427442831f0db006bf98d7d76cb20b535c845087c0b0f8474f62af1",
    "gl-1-1 analyze": "48f4bd709143a5188e1bf1490939ca95bd7ccbe6f28879b52e830cdb15094fac",
    "gl-1-1 analyze related": "f087a686bb6c6883400b024244ea74a04fb0add846facc2af9e998ffa6ee29be",
    "gl-1-1 invariants": "a0ab22e6b56f0f9f4a861ba798e713574d32a6cf630be5213fd8a6ee59421817",
    "gl-1-1 separate": "f307f62a31e1c2628df66dd55c8f7e58744b9be89da0a11ce0cc8a165410f123",
    "gl-1-1 separate related": "e87a948835ee23c3334aecd8832f777143955efd687b0dc08cfb80ee2c49b827",
    "gl-1-1 discriminant": "f1ed6b80eb50a7478b035a0551cbc7ec489d20245a3a29fc9f60cda0637ae068",
    "gl-1-1 wgrs relation": "4dc1bb713ab6c2258fa419c8348f343c94eb91cc26be22aec3dbc66d5a7939fb",
    "gl-1-1 wgrs reduce": "9a80edf4d188cf972677a18c24a8e2641955ba31f49e47f30a91611ae0d9afd9",
    "gl-1-1 wgrs classes": "8e531e4bbd87efe5926d840bcff75684df5115e7d1c7941755fa9da9d948e77b",
    "gl-1-1 wgrs classes related": "dd038dcea773fc7d2d2450f30d40db9c9734caa15d5a25b9d617999f85174ae4",
    "gl-2-1 catalog": "e4c4950e943f1defea3ebb54c9370cd05823485dfbe5072511431272553460d7",
    "gl-2-1 analyze": "a1c8ca98b54a5149f4a3e0074e702df2abd203716867f74bfe178a7c21dba1a5",
    "gl-2-1 analyze related": "2e4a3e2080d4945136e7a71a4d31c7f5a0643274c6dd81febcb254fd1c6b0e8c",
    "gl-2-1 invariants": "ff23d97dd839165eabbb17f693e758ae36b15cd2fab423c889adb3899342a2ba",
    "gl-2-1 separate": "74453ec00a27725bc57dc13f5c20ae76c27b0088f27dc52f4a7ada9bdf262cc3",
    "gl-2-1 separate related": "4af390cdc8d045fd745c8f306dcfb36d7a1e270e05355d0131452d92cfbd3d97",
    "gl-2-1 discriminant": "c3e38564dc18f2126718750f488473c7a854064c6376a6e1fcf09d7fd3fdbef9",
    "gl-2-1 wgrs relation": "2cb32af8b655360b9823d7c2fcb8c43f8af6fa667532e71c8918f27743552907",
    "gl-2-1 wgrs reduce": "b09fd66aac67e601dac7e62540456b848fd28dfada41fdbd9c343b299fb7cfda",
    "gl-2-1 wgrs classes": "fa10f5b8d1ebd21c54f0c9ec477b91a3d12bf71571ef0afa0467a325c40df624",
    "gl-2-1 wgrs classes related": "5e0a4ec32f85fff049f8e8561e0192522e58d2d1ccbb2f71713a45ef713ec13d",
    "gl-1-2 catalog": "5733ef35991cd73cc56778be9169ee25e58f5934e74b32a979d02ed1dd0815f1",
    "gl-1-2 analyze": "f76f3778209649cb84d6642434e10742238e65dd4f00f95b8d240811a6b53018",
    "gl-1-2 analyze related": "c553ac9e8c583785d98dc8d3b1e42b82a789e3c847eaf2bdcacfc2d224f79f3e",
    "gl-1-2 invariants": "48f22d3fbd6d51e4f18aa8faf38f1e208006db05f4bb479943dd8642a9adfbbf",
    "gl-1-2 separate": "df94a24a129c56fa94517cb432bec6eead6187cef528b85106c79a4b7612c42a",
    "gl-1-2 separate related": "65969f5e42e95e97a22f01069c8b35a2cfe89ff574376503fa1ea56ef1ccda25",
    "gl-1-2 discriminant": "c3458740020b3682d69e1dee1b23bad1b8ae28207178a4e869827b7e2495fe51",
    "gl-1-2 wgrs relation": "7c98e9026d9c6bd49b7380c56ed4f2625856f31c2ca2f4b6dfec112aab64045c",
    "gl-1-2 wgrs reduce": "6951b688f14cc3e4a72122457769825e127395285e3610a92894a3cc36c08cf6",
    "gl-1-2 wgrs classes": "884fb0c17adc3e753c94eda95c4814ce9845d4e73983e24acf8cb21552ff495c",
    "gl-1-2 wgrs classes related": "5085d95aa4be3ca18a7ec649f0aefce32b2637e73ca47464780091c391c52e29",
    "gl-2-2 analyze d6 related": "9772da27331e93a39bb0161867ddb78d17a8876d01f7d711a83f4f8ba9c2b31c",
    "gl-3-2 analyze d6": "0faeb5e1f3fff2267a1439bf41fe66e08a3fcf318087e3e727e1a4005bbd3338",
    "gl-2-2 invariants d8": "2d9ae9e7ad08b2c83262707b3733f88506b2e79fc25b837b00ed908487c4e9dd",
    "gl-3-2 invariants d10": "828a9b300ba85e23fb0c8478073afcb368a4072bf31eaa1b48e315611fc1c781",
    "gl-3-3 invariants d8": "bd2fe4866f52147a1d1bedf956311b28ce54b6891d7b8b1cd29cb8a8a37e048d",
    "gl-2-2 discriminant": "bd91df6777e1839c917dae83b42c304935cc671591177979459d31a667870d78",
    "gl-3-2 discriminant": "61a90e53000387c8e6ab59e6a3abaea84b7bd54596043c9ff7f886605024dd08",
    "gl-4-1 wgrs relation": "64a8d760872a1fca625781cae291e8d6d74a9eb86b036ce305529b3a5c85f709",
    "readme gl-1-1 analyze": "499ee95f6ad93401f2ea6c85edece32c3bd5777110bbe4566ffc9206c2cc0c95",
    "gl-1-1 x gl-2-1 analyze": "3482404e57e14f6217822334af651bfb7938eb58020e413220273c7ed1634608",
    "gl-2-1 wgrs validate": "0080cb1cf8d072773398eb9c39eeff5e24a9e19f43ec749b0fca65af2a3aadcc",
    "gl-2-1 wgrs validate first root dropped": "bacbbc4807cbe5c144279ffbd09939adab9c2907d52518e33de8fa006657751e",
    "gl-3-2 classes related": "d7d1b53ab02cfe6d4d14aa49cca4a6677f8616dc15a6a794360d99f1f4878778",
    "gl-3-2 classes equal norms": "b40b500a00b1efd63d4494297a3fdde214c4eb6af1a427b7ac6a52197b8b10a0",
    "gl-3-2 classes norms differ": "b40b500a00b1efd63d4494297a3fdde214c4eb6af1a427b7ac6a52197b8b10a0",
    "osp-4-2 classes related": "6c9e393ab5c15b2883fcfeb2591f373ee87acdc937ab1d82f7ebae4a59249420",
    "osp-4-2 classes equal norms": "3c75b6d7c1d8a15966602080d98df854ce364f92b15eee12de072ea2750a244e",
    "osp-4-2 classes norms differ": "3c75b6d7c1d8a15966602080d98df854ce364f92b15eee12de072ea2750a244e",
    "gl-2-1 separate norms differ": "677dd14845efb8e10a03e3029d7bfb5eeab79be8e372a8c23a2f9db6cf883caa",
}

# name -> (catalog entry, command): a related pair (its witness has one coefficient),
# an unrelated pair of equal norms and one whose norms differ
POINT_QUERIES = {
    "gl-3-2 classes related": (("gl", 3, 2), ["wgrs", "classes", "--v=1,2,4,-4,7", "--vprime=9/2,1,2,7,-9/2"]),
    "gl-3-2 classes equal norms": (("gl", 3, 2), ["wgrs", "classes", "--v=1,2,3,4,5", "--vprime=0,0,3,6,0"]),
    "gl-3-2 classes norms differ": (("gl", 3, 2), ["wgrs", "classes", "--v=1,2,3,4,5", "--vprime=1,2,3,4,6"]),
    "osp-4-2 classes related": (("osp", 4, 2), ["wgrs", "classes", "--v=2,5,-2", "--vprime=5,3,3"]),
    "osp-4-2 classes equal norms": (("osp", 4, 2), ["wgrs", "classes", "--v=1,2,3", "--vprime=0,0,2"]),
    "osp-4-2 classes norms differ": (("osp", 4, 2), ["wgrs", "classes", "--v=1,2,3", "--vprime=1,2,4"]),
    "gl-2-1 separate norms differ": (("gl", 2, 1), ["separate", "--x=1/2,1,0", "--y=1,0,0"]),
}

# reports on larger systems: invariant slices of degree 6 to 10, then commands
# that no longer build the (w, S) description or the discriminant's slice
LARGE_CASES = {
    "gl-2-2 analyze d6 related": ("gl-2-2", ["analyze", "--degree", "6", "--x=1,2,3,4", "--y=2,1,3,4"]),
    "gl-3-2 analyze d6": ("gl-3-2", ["analyze", "--degree", "6"]),
    "gl-2-2 invariants d8": ("gl-2-2", ["invariants", "--degree", "8"]),
    "gl-3-2 invariants d10": ("gl-3-2", ["invariants", "--degree", "10"]),
    "gl-3-3 invariants d8": ("gl-3-3", ["invariants", "--degree", "8"]),
    "gl-2-2 discriminant": ("gl-2-2", ["discriminant"]),
    "gl-3-2 discriminant": ("gl-3-2", ["discriminant"]),
    "gl-4-1 wgrs relation": ("gl-4-1", ["wgrs", "relation"]),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for system in POINTS:
        _, m, n = system.split("-")
        path = root / f"{system}.json"
        assert main(["wgrs", "build", "gl", m, n, "--out", str(path)]) == 0
        paths[system] = path
    return paths


@pytest.mark.parametrize("system", sorted(POINTS))
def test_catalog_file_bytes(system, catalog_files):
    assert _sha256(catalog_files[system]) == GOLDEN[f"{system} catalog"]


# sha256 over "family a b" lines, each followed by its `wgrs build` payload, for
# every gl(m|n) with 1 <= m + n <= 5 and every osp(p|q) with p <= 6, q in {0, 2, 4, 6}
CATALOG_BUILDS = "6a48bac6d57d21ca3419e2f109679b20b29ce6741dd575faf0712f4601cfcda7"


def test_catalog_build_bytes(tmp_path):
    entries = [("gl", m, n) for m in range(6) for n in range(6) if 1 <= m + n <= 5]
    entries += [("osp", p, q) for p in range(7) for q in (0, 2, 4, 6) if p + q >= 1]
    digest = hashlib.sha256()
    out = tmp_path / "rs.json"
    for family, a, b in entries:
        assert main(["wgrs", "build", family, str(a), str(b), "--out", str(out)]) == 0
        digest.update(f"{family} {a} {b}\n".encode() + out.read_bytes())
    assert digest.hexdigest() == CATALOG_BUILDS


@pytest.mark.parametrize("system", sorted(POINTS))
def test_report_bytes(system, catalog_files, tmp_path):
    mismatched = []
    for name, argv in _cases(*POINTS[system]).items():
        k = 2 if argv[0] == "wgrs" else 1  # the input file follows the command words
        out = tmp_path / "report.json"
        code = main(argv[:k] + [str(catalog_files[system])] + argv[k:] + ["--out", str(out)])
        assert code == 0, name
        if _sha256(out) != GOLDEN[f"{system} {name}"]:
            mismatched.append(name)
    assert mismatched == []


def test_slice_report_bytes(tmp_path):
    mismatched = []
    for name, (system, argv) in LARGE_CASES.items():
        _, m, n = system.split("-")
        path = tmp_path / f"{system}.json"
        if not path.exists():
            assert main(["wgrs", "build", "gl", m, n, "--out", str(path)]) == 0
        k = 2 if argv[0] == "wgrs" else 1
        out = tmp_path / "report.json"
        assert main(argv[:k] + [str(path)] + argv[k:] + ["--out", str(out)]) == 0, name
        if _sha256(out) != GOLDEN[name]:
            mismatched.append(name)
    assert mismatched == []


def test_point_query_report_bytes(tmp_path):
    mismatched = []
    for name, (entry, argv) in POINT_QUERIES.items():
        path = tmp_path / ("%s-%d-%d.json" % entry)
        if not path.exists():
            assert main(["wgrs", "build", *map(str, entry), "--out", str(path)]) == 0
        k = 2 if argv[0] == "wgrs" else 1
        out = tmp_path / "report.json"
        assert main(argv[:k] + [str(path)] + argv[k:] + ["--out", str(out)]) == 0, name
        if _sha256(out) != GOLDEN[name]:
            mismatched.append(name)
    assert mismatched == []


def test_generator_file_report_bytes(tmp_path):
    prod = built_relation("gl", 1, 1).product(built_relation("gl", 2, 1))
    files = {
        "readme gl-1-1 analyze": {
            "form": [["1/1", "0/1"], ["0/1", "-1/1"]],
            "generators": [{"space": [["1/1", "-1/1", "0/1", "0/1"], ["0/1", "0/1", "1/1", "-1/1"]]}],
        },
        "gl-1-1 x gl-2-1 analyze": {
            "form": matrix_to_payload(prod.form.gram),
            "generators": [{"space": matrix_to_payload(c.space.basis)} for c in prod.components],
        },
    }
    mismatched = []
    for name, payload in files.items():
        path, out = tmp_path / "generators.json", tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert main(["analyze", str(path), "--degree", "4", "--out", str(out)]) == 0, name
        if _sha256(out) != GOLDEN[name]:
            mismatched.append(name)
    assert mismatched == []


def test_validate_report_bytes(catalog_files, tmp_path):
    """`wgrs validate` exits 0 on a valid system and 1, still writing its report, on an invalid one."""
    out = tmp_path / "report.json"
    assert main(["wgrs", "validate", str(catalog_files["gl-2-1"]), "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN["gl-2-1 wgrs validate"]
    payload = json.loads(catalog_files["gl-2-1"].read_text())
    payload["roots"] = payload["roots"][1:]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert main(["wgrs", "validate", str(broken), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["valid"] is False
    assert len(report["failures"]) == 5
    assert report["failures"][0] == "symmetry: -(1/1, 0/1, -1/1) missing"
    assert _sha256(out) == GOLDEN["gl-2-1 wgrs validate first root dropped"]


# relation_to_payload of the first 50 pairs of `verify monoid --seed 1`
RANDOM_CORPUS = "f72b7dc55ab02eed9b64723d4cb568115622954d45275a489f618f586d71c0aa"


def test_random_corpus_bytes():
    """The seeded corpus behind `verify monoid` and the acceptance criteria 1-3.

    `verify monoid` passes on any Lagrangian relations, so a change in which
    relations the generator draws would go unnoticed without this pin.
    """
    digest = hashlib.sha256()
    for _, a, b in random_pairs(1, 50):
        for rel in (a, b):
            digest.update(json.dumps(relation_to_payload(rel), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == RANDOM_CORPUS


FULL_CORPUS = "5709d33b3e4917ec0014c61ef95bc263b355dde0e7a4e4602b70e8aabee82486"


def test_full_seed_1_corpus():
    # every pair `verify monoid --seed 1` checks, as the canonical integer rows of a and b
    digest = hashlib.sha256()
    for _, a, b in random_pairs(1, 1000):
        digest.update(repr((a.space.rows, b.space.rows)).encode() + b"\n")
    assert digest.hexdigest() == FULL_CORPUS


# stdout of `lagrel verify <suite>` at the default seed 0
VERIFY_STDOUT = {
    "wgrs": (
        "PASS component_description: 13 ok, 0 failed (seed=0)\n"
        "PASS isoset_cardinality: 13 ok, 0 failed (seed=0)\n"
        "PASS two_step_witness: 188 ok, 0 failed (seed=0)\n"
    ),
    "invariants": (
        "PASS baby_dimensions: 1 ok, 0 failed (seed=0)\n"
        "PASS pointwise_invariance: 90 ok, 0 failed (seed=0)\n"
        "PASS weyl_containment: 3 ok, 0 failed (seed=0)\n"
    ),
    "reduction": (
        "PASS reduction_filters: 12 ok, 0 failed (seed=0)\n"
        "PASS reduction_square: 7 ok, 0 failed (seed=0)\n"
        "PASS semiregular: 3 ok, 0 failed (seed=0)\n"
    ),
    "product": (
        "PASS evaluation_points: 1 ok, 0 failed (seed=0)\n"
        "PASS product_dimension_formula: 5 ok, 0 failed (seed=0)\n"
    ),
}


@pytest.mark.parametrize("suite", sorted(VERIFY_STDOUT))
def test_verify_stdout_bytes(suite, capsys):
    """The check counts of each fixed suite; `verify wgrs` is the only caller
    that runs `two_step_witness` on every isotropic pair of osp(3|2)."""
    assert main(["verify", suite]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT[suite]
