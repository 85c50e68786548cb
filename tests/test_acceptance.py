"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 replays the generated-ternary table B1..B11 and pins
the exact set of entries where the transcription disagrees with exact
recomputation: seven entries in rows B1, B7, B8 and B11, among them the
B8 gamma^1_{211} erratum.  Each of them is re-derived by direct product
expansion, independent of the closed-form recursion, and the pinned set
must equal catalog.DOCUMENTED_TABLE_MISMATCHES.  The transcribed catalog
data itself is never edited.
"""

import random
import time
from fractions import Fraction
from itertools import product

from trialg import ring as rg
from trialg.catalog import (
    ASSOC_BINARY_ITEMS,
    B2_TOTASSOC_POINTS,
    B4_TOTASSOC_POINTS,
    DOCUMENTED_TABLE_MISMATCHES,
    FAMILIES,
    ISO_SAMPLE_POINTS,
    NONASSOC_GENERATOR_PAIRS,
    TOTASSOC_ITEMS,
    catalog_get,
    table1_verify,
    totassoc_scan,
)
from trialg.generate import expressibility_residual, generate_nary, symbolic_system
from trialg.identities import (
    binary_assoc_residual,
    is_totally_associative,
    quintuple_oracle,
)
from trialg.iso import iso_search
from trialg.msc import (
    BasisChange,
    Matrix,
    Msc,
    basis_vector,
    eval_product,
    transform,
)
from trialg.polysolve import (
    PolySystem,
    buchberger,
    certify_expressibility,
    groebner_selfcheck,
    solve_ff_exhaustive,
)

from conftest import rand_basis_change, rand_matrix, rand_msc

F = Fraction
Q = rg.QQ


def _verdict(num: int, label: str, ok: bool, elapsed: float) -> str:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s]"
    print(line)
    return line


# The entries of B1..B11 where the transcribed table disagrees with exact
# recomputation, as (row, l, (i, j, k), transcribed, recomputed).  For B8,
# mu(e1, e1) = a1*e1 and mu(e2, e1) = -a1*e2, so mu(e2, mu(e1, e1)) = -a1^2*e2:
# gamma^1_{211} is 0, not a1^2, and gamma^2_{211} is -a1^2, not 0.
TABLE_DISCREPANCIES = frozenset({
    ("table1:A1", 1, (2, 1, 2), "a2^2 - a1*a4 - a2", "a2^2 - a1*a4 + a2"),
    ("table1:A7", 1, (1, 1, 2), "b1 + 1", "1"),
    ("table1:A7", 2, (1, 1, 2), "1", "b1 + 1"),
    ("table1:A8", 1, (2, 1, 1), "a1^2", "0"),
    ("table1:A8", 2, (2, 1, 1), "0", "-a1^2"),
    ("table1:A11", 1, (2, 1, 1), "-1", "0"),
    ("table1:A11", 2, (2, 1, 1), "0", "-1"),
})


def _direct_expansion_discrepancies():
    """Every table entry that differs from mu(e_i, mu(e_j, e_k)), expanded
    with eval_product over the family's own polynomial ring."""
    found = set()
    for n in range(1, 12):
        binary, table = FAMILIES[f"A{n}"].msc, FAMILIES[f"B{n}"].msc
        basis = [basis_vector(binary.ring, 2, r) for r in (1, 2)]
        for col, (i, j, k) in enumerate(product((1, 2), repeat=3)):
            inner = eval_product(binary, (basis[j - 1], basis[k - 1]))
            direct = eval_product(binary, (basis[i - 1], inner))
            for l in (1, 2):
                transcribed = table.mat.rows[l - 1][col]
                if transcribed != direct[l - 1]:
                    found.add((f"table1:A{n}", l, (i, j, k),
                               str(transcribed), str(direct[l - 1])))
    return found


def _flag_diff(found, expected=TABLE_DISCREPANCIES):
    return f"missing {sorted(expected - found)}, extra {sorted(found - expected)}"


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    report = table1_verify()
    by_id = {c["id"]: c for c in report.claims}

    must_match = [f"table1:A{i}" for i in (2, 3, 4, 5, 6, 9, 10)]
    rows_not_matching = [i for i in must_match if by_id[i]["status"] != "pass"]
    a12_zero = (
        by_id["table1:A12"]["status"] == "pass"
        and by_id["table1:A12"]["evidence"]["generated_zero"]
    )
    flags = {
        (cid, m["l"], tuple(m["ijk"]), m["table"], m["computed"])
        for cid, claim in by_id.items()
        for m in claim["evidence"].get("mismatches", ())
    }
    direct = _direct_expansion_discrepancies()
    pinned = {
        (cid, l, ijk, t, g)
        for cid, records in DOCUMENTED_TABLE_MISMATCHES.items()
        for l, ijk, t, g in records
    }
    undocumented = [
        c["id"] for c in report.claims
        if c["status"] != "pass" and not c["documented"]
    ]
    elapsed = time.perf_counter() - t0

    ok = (
        not rows_not_matching
        and a12_zero
        and flags == TABLE_DISCREPANCIES
        and direct == TABLE_DISCREPANCIES
        and pinned == TABLE_DISCREPANCIES
        and not undocumented
        and elapsed < 1.0
    )
    _verdict(1, "table reproduction", ok, elapsed)
    assert not rows_not_matching, f"rows {rows_not_matching} do not reproduce"
    assert a12_zero, "A12 does not generate the zero ternary algebra"
    assert flags == TABLE_DISCREPANCIES, f"replay flags: {_flag_diff(flags)}"
    assert direct == TABLE_DISCREPANCIES, f"direct expansion: {_flag_diff(direct)}"
    assert pinned == TABLE_DISCREPANCIES, (
        f"DOCUMENTED_TABLE_MISMATCHES: {_flag_diff(pinned)}"
    )
    assert not undocumented, f"flagged rows not documented: {undocumented}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_2_totally_associative_list():
    t0 = time.perf_counter()
    members_ok = True
    for _tag, family, values, _rows in TOTASSOC_ITEMS:
        entry = FAMILIES[family]
        spec = entry.specialize(dict(zip(entry.params, values)))
        members_ok = members_ok and is_totally_associative(spec)
    scan_ok = (
        totassoc_scan("B2") == list(B2_TOTASSOC_POINTS)
        and totassoc_scan("B4") == list(B4_TOTASSOC_POINTS)
    )
    elapsed = time.perf_counter() - t0
    ok = members_ok and scan_ok and elapsed < 1.0
    _verdict(2, "totally associative list", ok, elapsed)
    assert members_ok, "a listed member fails total associativity"
    assert scan_ok, "default-grid scans do not reproduce the listed tuples"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_3_associative_binary_cross_check():
    t0 = time.perf_counter()
    assoc_ok = True
    for _tag, family, values, _rows in ASSOC_BINARY_ITEMS:
        entry = FAMILIES[family]
        spec = entry.specialize(dict(zip(entry.params, values)))
        assoc_ok = assoc_ok and binary_assoc_residual(spec).is_zero()
    pairs_ok = True
    for family, values, ternary in NONASSOC_GENERATOR_PAIRS:
        entry = FAMILIES[family]
        binary = entry.specialize(dict(zip(entry.params, values)))
        pairs_ok = pairs_ok and not binary_assoc_residual(binary).is_zero()
        pairs_ok = pairs_ok and is_totally_associative(generate_nary(binary, 3))
    elapsed = time.perf_counter() - t0
    ok = assoc_ok and pairs_ok and elapsed < 1.0
    _verdict(3, "associative binary cross-check", ok, elapsed)
    assert assoc_ok, "a listed associative algebra has a nonzero residual"
    assert pairs_ok, "a non-associative generator pair fails its claim"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_4_inexpressibility_evidence():
    t0 = time.perf_counter()
    system = symbolic_system(catalog_get("Cstar"))
    sweep_ok = True
    for p in (5, 7):
        out = solve_ff_exhaustive(system, p)
        sweep_ok = (
            sweep_ok
            and out.status == "no_solution_mod_p"
            and out.effort["exhaustive"] is True
            and out.effort["assignments"] == p ** 8
        )
    pipeline = certify_expressibility(catalog_get("Cstar"), primes=(5, 7))
    groebner_stage = pipeline.evidence[-1]
    groebner_recorded = groebner_stage.status in (
        "certified_empty_over_closure", "inconclusive",
    )
    elapsed = time.perf_counter() - t0
    ok = sweep_ok and groebner_recorded and elapsed < 30.0
    _verdict(4, "inexpressibility evidence", ok, elapsed)
    assert sweep_ok, "an exhaustive sweep found a solution or was not exhaustive"
    assert groebner_recorded, "no Groebner outcome recorded"
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_5_collision_claims():
    t0 = time.perf_counter()
    cdagger = catalog_get("Cdagger")
    b4_unit = catalog_get("B4", {"a1": 1, "b2": 1})
    a4_third = catalog_get("A4", {"a1": F(1, 3), "b2": F(-1, 3)})
    a5_third = catalog_get("A5", {"a1": F(1, 3)})
    a4_plus = catalog_get("A4", {"a1": 1, "b2": 1})
    a4_minus = catalog_get("A4", {"a1": 1, "b2": -1})
    residuals_ok = all(
        expressibility_residual(m, c).is_zero()
        for m, c in (
            (a4_third, cdagger), (a5_third, cdagger),
            (a4_plus, b4_unit), (a4_minus, b4_unit),
        )
    )
    searches_ok = all(
        not iso_search(a, b, p)
        for a, b in ((a4_plus, a4_minus), (a4_third, a5_third))
        for p in (5, 7, 11)
    )
    elapsed = time.perf_counter() - t0
    ok = residuals_ok and searches_ok and elapsed < 5.0
    _verdict(5, "collision claims", ok, elapsed)
    assert residuals_ok, "a collision residual is nonzero"
    assert searches_ok, "a collision generator pair has an isomorphism witness"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_6_cstar_not_isomorphic_to_generated():
    t0 = time.perf_counter()
    cstar = catalog_get("Cstar")
    targets = [catalog_get(n) for n in ("B9", "B10", "B11")]
    for name in ("B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8"):
        entry = FAMILIES[name]
        for values in ISO_SAMPLE_POINTS[name]:
            targets.append(entry.specialize(dict(zip(entry.params, values))))
    empty_ok = all(
        not iso_search(cstar, target, p) for target in targets for p in (5, 7)
    )
    elapsed = time.perf_counter() - t0
    ok = empty_ok and elapsed < 10.0
    _verdict(6, "no isomorphism onto generated algebras", ok, elapsed)
    assert empty_ok, "a search found an isomorphism witness"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    gf5 = rg.prime_field(5)
    gf3 = rg.prime_field(3)
    rng = random.Random(2024)

    oracle_ok = all(
        is_totally_associative(A) == quintuple_oracle(A)[0]
        for A in (rand_msc(gf5, 2, 3, rng) for _ in range(200))
    )

    equivariance_ok = True
    for _ in range(100):
        M = rand_msc(gf5, 2, 2, rng)
        g = rand_basis_change(gf5, 2, rng)
        equivariance_ok = equivariance_ok and (
            generate_nary(transform(M, g), 3) == transform(generate_nary(M, 3), g)
        )

    kron_ok = True
    for _ in range(100):
        a, b, c, d = (rand_matrix(gf5, 2, 2, rng) for _ in range(4))
        kron_ok = kron_ok and a.kron(b) * c.kron(d) == (a * c).kron(b * d)

    group = []
    elems = [rg.RingElem(gf3, v) for v in range(3)]
    for a, b, c, d in product(elems, repeat=4):
        if not (a * d - b * c).is_zero():
            group.append(BasisChange(Matrix(gf3, [[a, b], [c, d]])))
    A3 = rand_msc(gf3, 2, 3, rng)
    action_ok = transform(A3, BasisChange.identity(gf3, 2)) == A3 and all(
        transform(transform(A3, h), g) == transform(A3, g.compose(h))
        for g in group for h in group
    )

    elapsed = time.perf_counter() - t0
    ok = oracle_ok and equivariance_ok and kron_ok and action_ok and elapsed < 10.0
    _verdict(7, "property suites", ok, elapsed)
    assert oracle_ok, "residual check and quintuple oracle disagree"
    assert equivariance_ok, "generation is not equivariant under basis change"
    assert kron_ok, "Kronecker mixed-product property fails"
    assert action_ok, "group-action laws fail over GL(2, GF(3))"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_8_groebner_engine_soundness():
    t0 = time.perf_counter()
    fixtures = (
        (["x"], ["x - 2"], ["x - 2"]),
        (["x"], ["x", "x + 1"], ["1"]),
        (["x", "y"], ["x^2 - 1", "x*y - 1"], ["x - y", "y^2 - 1"]),
        (["x", "y"], ["x^2 + y^2 - 1", "x - y"], None),
        (["x", "y", "z"], ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"], None),
    )
    bases_ok = True
    selfcheck_ok = True
    for names, texts, expected in fixtures:
        out = buchberger(PolySystem.from_strings(names, texts))
        if expected is not None:
            bases_ok = bases_ok and [str(b) for b in out.basis] == expected
        if out.effort["completed"]:
            selfcheck_ok = selfcheck_ok and groebner_selfcheck(out.basis)
    certified = buchberger(
        PolySystem.from_strings(["x"], ["x", "x + 1"])
    ).status == "certified_empty_over_closure"
    elapsed = time.perf_counter() - t0
    ok = bases_ok and selfcheck_ok and certified and elapsed < 1.0
    _verdict(8, "Groebner engine soundness", ok, elapsed)
    assert bases_ok, "a fixture basis does not match"
    assert selfcheck_ok, "an S-polynomial fails to reduce to zero"
    assert certified, "the inconsistent pair is not certified empty"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
