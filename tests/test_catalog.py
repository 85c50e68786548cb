import random
from fractions import Fraction

import pytest

from trialg import ring as rg
from trialg.catalog import (
    ASSOC_BINARY_ITEMS,
    B2_TOTASSOC_POINTS,
    B4_TOTASSOC_POINTS,
    DOCUMENTED_DISPLAY_MISMATCHES,
    DOCUMENTED_TABLE_MISMATCHES,
    FAMILIES,
    TOTASSOC_ITEMS,
    catalog_dump,
    catalog_get,
    catalog_names,
    claims_verify,
    paper_replay,
    table1_verify,
    totassoc_scan,
)
from trialg.generate import generate_nary
from trialg.identities import is_totally_associative
from trialg.msc import Msc, msc_from_doc, msc_to_doc

Q = rg.QQ
F = Fraction


def test_catalog_names_complete():
    names = catalog_names()
    assert len(names) == 26
    assert {"A1", "A12", "B1", "B11", "Cstar", "Cdagger", "Ex52"} <= set(names)


def test_catalog_get_a9_exact():
    a9 = catalog_get("A9")
    assert a9.mat.to_strings() == [["1/3", "0", "0", "0"], ["1", "2/3", "-1/3", "0"]]
    assert a9.ring == Q


def test_catalog_get_specialization():
    b4 = catalog_get("B4", {"a1": 1, "b2": 1})
    assert b4 == catalog_get("Ex52")


def test_catalog_get_errors():
    with pytest.raises(ValueError, match="unknown catalog name"):
        catalog_get("Z9")
    with pytest.raises(ValueError, match="missing"):
        catalog_get("A4", {"a1": 0})
    with pytest.raises(ValueError, match="unknown parameters"):
        catalog_get("A4", {"a1": 0, "b2": 0, "zz": 1})
    with pytest.raises(ValueError, match="unknown parameters"):
        catalog_get("A9", {"a1": 0})


def test_family_specializations_roundtrip_codec():
    rng = random.Random(5150)
    for name, entry in FAMILIES.items():
        for _ in range(3 if entry.params else 1):
            point = {
                p: F(rng.randint(-5, 5), rng.randint(1, 5)) for p in entry.params
            }
            spec = entry.specialize(point)
            assert msc_from_doc(msc_to_doc(spec)) == spec


def test_symbolic_templates_roundtrip_codec():
    for name in ("A1", "B1", "B4"):
        tmpl = catalog_get(name)
        assert msc_from_doc(msc_to_doc(tmpl)) == tmpl


def test_table1_verify_flags_exactly_the_documented_rows():
    report = table1_verify()
    assert report.clean
    by_id = {c["id"]: c for c in report.claims}
    assert len(report.claims) == 12
    for i in (2, 3, 4, 5, 6, 9, 10):
        assert by_id[f"table1:A{i}"]["status"] == "pass"
    assert by_id["table1:A12"]["status"] == "pass"
    for claim_id, expected in DOCUMENTED_TABLE_MISMATCHES.items():
        claim = by_id[claim_id]
        assert claim["status"] == "fail" and claim["documented"]
        got = tuple(
            (m["l"], tuple(m["ijk"]), m["table"], m["computed"])
            for m in claim["evidence"]["mismatches"]
        )
        assert got == expected


def test_matching_rows_equal_generated_templates():
    for i in (2, 3, 4, 5, 6, 9, 10):
        assert catalog_get(f"B{i}") == generate_nary(catalog_get(f"A{i}"), 3)


def test_documented_mismatches_confirmed_by_direct_expansion():
    # Re-derive every pinned discrepancy without the closed-form recursion:
    # evaluate mu(e_i, mu(e_j, e_k)) on the specialized binary algebra and
    # compare against both the transcribed and the recomputed entry, at a
    # parameter point where the two disagree.
    from trialg.msc import basis_vector, eval_product

    points = {
        "A1": {"a1": F(2, 5), "a2": F(3, 7), "a4": F(-1, 2), "b1": F(5, 3)},
        "A7": {"b1": F(4, 9)},
        "A8": {"a1": F(3, 4)},
        "A11": {},
    }
    for claim_id, mismatches in DOCUMENTED_TABLE_MISMATCHES.items():
        name = claim_id.split(":")[1]
        entry = FAMILIES[name]
        table = FAMILIES["B" + name[1:]]
        point = points[name]
        binary = entry.specialize(point) if entry.params else entry.msc
        basis = [basis_vector(Q, 2, n) for n in (1, 2)]
        for l, (i, j, k), table_str, computed_str in mismatches:
            inner = eval_product(binary, (basis[j - 1], basis[k - 1]))
            direct = eval_product(binary, (basis[i - 1], inner))[l - 1]
            table_val = rg.parse_scalar(table_str, table.msc.ring)
            comp_val = rg.parse_scalar(computed_str, table.msc.ring)
            if table.params:
                table_val = rg.substitute(table_val, point)
                comp_val = rg.substitute(comp_val, point)
            assert direct == comp_val
            assert direct != table_val


def test_totassoc_scan_default_grids():
    assert totassoc_scan("B2") == list(B2_TOTASSOC_POINTS)
    assert totassoc_scan("B4") == list(B4_TOTASSOC_POINTS)


def test_totassoc_scan_restricted_grid():
    grid = [[F(0), F(1, 2)], [F(0)], [F(-1, 2), F(0), F(1, 2)]]
    assert totassoc_scan("B2", grid) == list(B2_TOTASSOC_POINTS)


def test_totassoc_scan_empty_grid():
    assert totassoc_scan("B4", []) == []


def test_totassoc_scan_is_monotone_under_grid_growth():
    bigger = list(totassoc_scan("B4", list(
        (F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(2))
    )))
    assert set(B4_TOTASSOC_POINTS) <= set(bigger)


def test_totassoc_scan_guards():
    with pytest.raises(ValueError):
        totassoc_scan("A9")
    with pytest.raises(ValueError):
        totassoc_scan("A4")  # binary family
    with pytest.raises(ValueError):
        totassoc_scan("B2", [[F(0)], [F(0)]])  # wrong axis count


def test_totassoc_constraints_groebner_pins_the_b2_variety():
    # The reduced basis forces b1 = 0, a1 in {0, 1/2} and b2^2 = a1/2, so
    # the three scanned tuples are the whole solution set over the
    # algebraic closure, not just over the grid.
    from trialg.catalog import totassoc_constraints
    from trialg.polysolve import buchberger, solve_ff_exhaustive

    system = totassoc_constraints("B2")
    out = buchberger(system)
    assert out.effort["completed"]
    assert [str(b) for b in out.basis] == [
        "b1", "b2^2 - 1/2*a1", "a1*b2 - 1/2*b2", "a1^2 - 1/2*a1",
    ]
    for p in (11, 13):
        sols = solve_ff_exhaustive(system, p)
        assert len(sols.witnesses) == len(B2_TOTASSOC_POINTS)


def test_totassoc_constraints_groebner_pins_the_b4_count():
    from trialg.catalog import totassoc_constraints
    from trialg.polysolve import buchberger, solve_ff_exhaustive

    system = totassoc_constraints("B4")
    out = buchberger(system)
    assert out.effort["completed"]
    # the univariate generator factors as a1^2 (a1 - 1)(a1 - 1/2)
    assert str(out.basis[-1]) == "a1^4 - 3/2*a1^3 + 1/2*a1^2"
    for p in (11, 13):
        sols = solve_ff_exhaustive(system, p)
        assert len(sols.witnesses) == len(B4_TOTASSOC_POINTS)


def test_listed_members_match_templates_except_documented_display():
    documented = {
        (tag, l, ijk): (shown, computed)
        for tag, l, ijk, shown, computed in DOCUMENTED_DISPLAY_MISMATCHES["totassoc:display"]
    }
    for tag, family, values, rows in TOTASSOC_ITEMS:
        entry = FAMILIES[family]
        spec = entry.specialize(dict(zip(entry.params, values)))
        displayed = Msc.from_strings(Q, 2, 3, rows)
        assert is_totally_associative(spec)
        if displayed != spec:
            for l in range(2):
                for c in range(8):
                    shown = displayed.mat.rows[l][c]
                    comp = spec.mat.rows[l][c]
                    if shown != comp:
                        from trialg.msc import column_tuple
                        key = (tag, l + 1, column_tuple(2, 3, c))
                        assert key in documented
                        assert documented[key] == (str(shown), str(comp))


def test_assoc_binary_items_match_their_templates():
    for tag, family, values, rows in ASSOC_BINARY_ITEMS:
        entry = FAMILIES[family]
        spec = entry.specialize(dict(zip(entry.params, values)))
        assert Msc.from_strings(Q, 2, 2, rows) == spec


def test_claims_verify_is_clean():
    report = claims_verify()
    assert report.clean
    by_id = {c["id"]: c for c in report.claims}
    assert by_id["bullet:inexpressible-Cstar"]["status"] == "pass"
    assert by_id["bullet:Cstar-not-isomorphic"]["status"] == "pass"
    assert by_id["bullet:collision-Cdagger"]["status"] == "pass"
    assert by_id["bullet:collision-B4-unit"]["status"] == "pass"
    assert by_id["totassoc:members"]["status"] == "pass"
    assert by_id["totassoc:display"]["status"] == "fail"
    assert by_id["totassoc:display"]["documented"] is True
    assert by_id["assoc:binary-list"]["status"] == "pass"
    assert by_id["assoc:nonassociative-generators"]["status"] == "pass"
    assert by_id["iso:A2-sign-flip"]["status"] == "pass"
    assert by_id["iso:A6-sign-flip"]["status"] == "pass"


@pytest.mark.parametrize("kwargs, message", [
    ({"primes": (5, 5)}, "prime '5' given more than once"),
    ({"collision_primes": (5, 7, 5)}, "prime '5' given more than once"),
    ({"primes": ()}, "empty prime list"),
    ({"collision_primes": ()}, "empty prime list"),
])
@pytest.mark.parametrize("replay", [claims_verify, paper_replay])
def test_replay_refuses_the_prime_lists_the_cli_refuses(replay, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        replay(groebner=False, **kwargs)


def test_paper_replay_report_shape():
    report = paper_replay(primes=(5,), collision_primes=(5,), groebner=False)
    assert report.clean
    assert report.summary["total"] >= 20
    ids = [c["id"] for c in report.claims]
    assert ids == sorted(ids, key=ids.index)  # stable, insertion-ordered
    assert "table1:A8" in ids and "totassoc:scan-B4" in ids


def test_catalog_dump_bundle():
    bundle = catalog_dump()
    assert set(bundle["families"]) == set(catalog_names())
    entry = bundle["families"]["A9"]
    assert entry["params"] == []
    assert entry["msc"]["entries"][0][0] == "1/3"
    assert all("provenance" in fam for fam in bundle["families"].values())
