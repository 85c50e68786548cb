"""The pruned total-associativity scan against a test of every grid point.

catalog.totassoc_scan walks the grid depth first and drops a prefix as soon
as a residual entry whose parameters are all assigned fails.  The oracle
below is the plain loop over the full Cartesian product; both must return
the same points in the same order, repeated grid values included.
"""

from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from trialg import catalog, polysolve
from trialg import ring as rg
from trialg.catalog import FAMILIES, totassoc_scan
from trialg.identities import total_assoc_residuals
from trialg.polysolve import PolySystem

F = Fraction
SCAN_FAMILIES = tuple(f"B{i}" for i in range(1, 9))
VALUES = (F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1), F(2))

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=15)


def brute_force_scan(family, grid=None):
    axes = catalog._scan_axes(FAMILIES[family], grid)
    constraints = [e.v for e in catalog.totassoc_constraints(family).polys]
    return [point for point in iter_product(*axes)
            if all(rg._poly_eval(t, point) == 0 for t in constraints)]


@pytest.mark.parametrize("family", SCAN_FAMILIES)
def test_scan_matches_brute_force_on_the_default_grid(family):
    assert totassoc_scan(family) == brute_force_scan(family)


@pytest.mark.parametrize("family", SCAN_FAMILIES)
def test_constraints_deduplicate_like_ring_elements(family):
    # the reference dedupes on RingElem equality; totassoc_constraints keys
    # on integer coefficient pairs and must keep the same entries in order
    seen, reference = set(), []
    for residual in total_assoc_residuals(FAMILIES[family].msc):
        for row in residual.mat.rows:
            for x in row:
                if not x.is_zero() and x not in seen:
                    seen.add(x)
                    reference.append(x)
    reference.sort(key=lambda e: (len(e.v), sorted(e.v)))
    assert [str(e) for e in catalog.totassoc_constraints(family).polys] == \
        [str(e) for e in reference]


@pytest.mark.parametrize("family", SCAN_FAMILIES)
@SETTINGS
@given(data=st.data())
def test_scan_matches_brute_force_on_drawn_grids(family, data):
    values = st.lists(st.sampled_from(VALUES), max_size=5)
    if data.draw(st.booleans(), label="flat"):
        grid = data.draw(values, label="grid")
    else:
        n = len(FAMILIES[family].params)
        grid = data.draw(st.lists(values, min_size=n, max_size=n), label="axes")
    assert totassoc_scan(family, grid) == brute_force_scan(family, grid)


@pytest.mark.parametrize("family", ["B2", "B5"])
@pytest.mark.parametrize("kind", ["constant", "first", "both"])
def test_scan_tests_constants_and_first_parameter_entries(monkeypatch, family, kind):
    ring = FAMILIES[family].msc.ring
    first = rg.variable(ring, ring.vars[0]) - rg.from_fraction(ring, F(1, 2))
    polys = {"constant": [rg.one(ring)], "first": [first], "both": [first, rg.one(ring)]}[kind]
    monkeypatch.setattr(catalog, "totassoc_constraints", lambda _: PolySystem(ring, polys))
    hits = totassoc_scan(family)
    assert hits == brute_force_scan(family)
    assert bool(hits) == (kind == "first")


def test_scan_budget_is_checked_exactly():
    one = F(1)
    # B1's entries free of b1 reject every (1, 1, 1) prefix, so the
    # 10^5-point grid at the limit is cheap to walk
    assert catalog._MAX_SCAN_POINTS == 10 ** 5
    assert totassoc_scan("B1", [[one] * 10, [one] * 10, [one] * 10, [one] * 100]) == []
    with pytest.raises(ValueError, match="grid of 100001 points exceeds the scan budget"):
        totassoc_scan("B1", [[one] * 11, [one], [one], [one] * 9091])
    with pytest.raises(ValueError, match="exceeds the scan budget"):
        totassoc_scan("B1", list(range(100)))


# wide rationals: numerators up to 10^12 over denominators that are coprime
# from axis to axis, mixed with values that hit B2 and B4 points
AXIS_DENOMINATORS = ((1, 7, 49), (11, 121), (1, 13, 169), (17, 289))
HIT_VALUES = (F(0), F(1, 2), F(-1, 2), F(1), F(-1))


@st.composite
def wide_axis(draw, denominators):
    wide = st.builds(F, st.integers(-10 ** 12, 10 ** 12), st.sampled_from(denominators))
    axis = draw(st.lists(st.one_of(st.sampled_from(HIT_VALUES), wide), max_size=4))
    if axis:  # repeated values are listed once per repetition
        axis += draw(st.lists(st.sampled_from(axis), max_size=2))
    return axis


@pytest.mark.parametrize("family", SCAN_FAMILIES)
@SETTINGS
@given(data=st.data())
def test_scan_matches_brute_force_on_wide_rational_grids(family, data):
    n = len(FAMILIES[family].params)
    if data.draw(st.booleans(), label="flat"):
        grid = data.draw(wide_axis(AXIS_DENOMINATORS[0] + AXIS_DENOMINATORS[1]), label="grid")
    else:
        grid = [data.draw(wide_axis(AXIS_DENOMINATORS[i]), label=f"axis {i}") for i in range(n)]
    assert totassoc_scan(family, grid) == brute_force_scan(family, grid)


def test_scan_walks_in_integers_and_returns_the_grid_values(monkeypatch):
    grid = [[F(1, 2), F(10 ** 12, 7), F(-1, 2), F(1, 2)], [F(0), F(-3, 11), F(0)],
            [F(1, 2), F(-1, 2), F(5, 13)]]
    expected = brute_force_scan("B2", grid)
    assert len(expected) == 8

    def refuse(*args):
        raise AssertionError("the scan substituted Fractions")

    monkeypatch.setattr(rg, "_poly_eval", refuse)
    hits = totassoc_scan("B2", grid)
    assert hits == expected
    assert all(type(x) is F for point in hits for x in point)


def test_scan_evaluates_the_integer_form_over_one_common_denominator(monkeypatch):
    # axes with different denominators are put over their common lcm, and
    # every entry is tested by polysolve's integer evaluator, whose dpows
    # are D^top, ..., D, 1 (a term of degree d is homogenized by D^(top - d))
    grid = [[F(1, 2), F(-2, 3), F(0)], [F(0), F(1, 5), F(-3, 7)], [F(1, 2), F(-1, 2), F(4, 11)]]
    expected = brute_force_scan("B2", grid)
    assert expected == [(F(1, 2), F(0), F(-1, 2)), (F(1, 2), F(0), F(1, 2))]
    denominators = set()
    int_value = polysolve._int_value

    def spy(terms, values, dpows):
        denominators.add(dpows[-2])
        return int_value(terms, values, dpows)

    assert not hasattr(catalog, "_int_value")
    monkeypatch.setattr(polysolve, "_int_value", spy)
    assert totassoc_scan("B2", grid) == expected
    assert denominators == {2 * 3 * 5 * 7 * 11}
