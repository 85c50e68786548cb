"""Deciding solvability of small polynomial systems.

Two engines back every verdict:

* an exhaustive finite-field sweep: the p^k assignments of the k variables
  are enumerated depth first in lexicographic order (first variable most
  significant), and a partial assignment is dropped as soon as it fails a
  polynomial whose variables are all assigned.  The polynomials tested at
  one level share one monomial table: each expansion forms the values of
  the level's distinct monomials once and evaluates the level as integer
  products, coefficient matrix x monomial values, first for the level's
  first polynomial alone and then for all the others on its survivors.
  The products run in int64 with lazy reduction: an array is reduced mod p
  only when the next product or sum could pass 2^63 - 1.  One sweep core,
  _sweep, checks the modulus, compiles, enumerates and re-checks every hit;
  solve_ff_exhaustive and the isomorphism search of iso.py both go through
  it, and its row budget (_MAX_TOTAL_ROWS) is the only limit on the size of
  a sweep.  A separate straightforward per-assignment evaluator exists
  purely as an independent cross-check.

* a bounded Buchberger engine for Q[vars] in graded reverse
  lexicographic order, with the normal selection strategy, coprime-lead
  and chain criteria, run fraction free over Z (Bareiss-style): every
  polynomial it forms is a positive integer multiple of the one the same
  steps form over Q, and each element joins the basis as its primitive
  part, the same over Z as over Q, so the pairs, counters and reduced
  basis are those of the run over Q.  A reduced basis {1} certifies that
  the system has no solution over the algebraic closure; hitting a cap
  yields "inconclusive", never a wrong verdict.  Its monomials are packed
  ints (_Packing): one field per variable under a guard bit, the total
  degree on top, so that products, quotients, divisibility, lcms and
  grevlex comparisons are a few int operations.  The inputs are packed
  straight from the system's integer terms by _pack, the one packer that
  reduce_poly and groebner_selfcheck use too, and the monic reduced
  basis and cofactors become Fractions, unpacked, once on exit; the
  fields are sized so that no exponent passes one unnoticed.  Besides the
  max_pairs and max_degree caps, the pairs a run may form
  (_MAX_TOTAL_PAIRS) bound its pair heap.

certify_expressibility chains both: per-prime sweeps (with a bounded
rational-reconstruction lift of any witness found, verified exactly over
Q) followed by the Groebner run, reporting the strongest outcome with all
evidence attached.

A system holds each polynomial in one integer layout (PolySystem.int_polys),
built with the system and read by every evaluator: the pair (L, terms) in
lowest terms, the polynomial times L being the sum of its terms, each term
an integer coefficient c, its variable factors and its degree d.  The sweep
reduces it mod p (c * L^-1 per term); p dividing L is refused.  With top the
system's largest degree, a point n / D (one denominator D for all
variables) zeroes a polynomial exactly when the sum of c * D^(top - d) *
prod n_i^e is 0: rational-lift candidates are tested so, and so is every
point of a grid (grid_zeros, which catalog.totassoc_scan calls).  A sweep
hit's scalar re-check, independent of the vectorized path, fails when p
divides L and otherwise asks the sum of c * prod v^e to be 0 mod p.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from itertools import product as iter_product

from . import ring as rg
from .ring import Ring, RingElem

__all__ = [
    "PolySystem",
    "SolveOutcome",
    "solve_ff_exhaustive",
    "solve_ff_reference",
    "buchberger",
    "certify_expressibility",
    "reduce_poly",
    "groebner_selfcheck",
    "grid_zeros",
    "DEFAULT_CAPS",
    "DEFAULT_PRIMES",
]

DEFAULT_CAPS = {"max_pairs": 20000, "max_degree": 12}
# the sweep primes of an expressibility verdict, avoiding characteristics 2 and 3
DEFAULT_PRIMES = (5, 7)
# rows built by one expansion step of the finite-field enumerator
_MAX_ROWS = 1 << 16
# rows built by one whole enumeration: past this it is refused, not finished
_MAX_TOTAL_ROWS = 1 << 27
# hits one enumeration keeps, for a sweep and an isomorphism search alike;
# a result that reaches it says it is not exhaustive
_MAX_WITNESSES = 4096
# pairs one Buchberger run may form, which bounds its heap: past this the run
# stops, capped
_MAX_TOTAL_PAIRS = 1 << 20
# the largest max_degree cap a run takes: the packed fields are sized from
# the cap, so each bit of it widens every monomial the run forms
_MAX_DEGREE_CAP = 1 << 10


class PolySystem:
    """A finite set of polynomials over one Q[vars] ring; zero polys dropped.

    Each polynomial is held in the integer layout of _int_poly, the pair
    (L, terms) in lowest terms, and ``top`` is the largest degree of a
    term (0 for no polynomial).  ``polys`` is a view of them as RingElems,
    built on each access, for documents and oracles.
    """

    __slots__ = ("ring", "int_polys", "top")

    def __init__(self, ring: Ring, polys):
        if ring.kind != "poly":
            raise ValueError("a polynomial system needs a polynomial ring")
        kept = []
        for p in polys:
            if not isinstance(p, RingElem) or (p.ring is not ring and p.ring != ring):
                raise ValueError("system polynomial outside the declared ring")
            if not p.is_zero():
                L, nums = _numerators(p.v)
                kept.append(_int_poly(nums, L))
        self._init(ring, kept)

    @classmethod
    def _of(cls, ring: Ring, int_polys) -> "PolySystem":
        """The system of nonzero polynomials in _int_poly's layout, taken as
        they are."""
        system = cls.__new__(cls)
        system._init(ring, int_polys)
        return system

    def _init(self, ring, int_polys):
        self.ring, self.int_polys = ring, tuple(int_polys)
        self.top = max((d for _, terms in self.int_polys for _, _, d in terms), default=0)

    @property
    def polys(self) -> tuple:
        """The polynomials as RingElems, built on each access."""
        ring, n = self.ring, len(self.ring.vars)
        return tuple(RingElem(ring, {tuple(dict(f).get(i, 0) for i in range(n)): Fraction(c, L)
                                     for c, f, _ in terms})
                     for L, terms in self.int_polys)

    @property
    def vars(self):
        return self.ring.vars

    @classmethod
    def from_strings(cls, names, texts) -> "PolySystem":
        ring = rg.polynomial_ring(names)
        return cls(ring, [rg.parse_scalar(t, ring) for t in texts])

    def to_doc(self) -> dict:
        return {"vars": list(self.vars), "polys": [str(p) for p in self.polys]}

    @classmethod
    def from_doc(cls, doc) -> "PolySystem":
        if not isinstance(doc, dict) or "vars" not in doc or "polys" not in doc:
            raise ValueError("system: expected an object with 'vars' and 'polys'")
        return cls.from_strings(doc["vars"], doc["polys"])

    def __repr__(self):
        return f"PolySystem({len(self.int_polys)} polys in {', '.join(self.vars)})"


def _lowest_terms(nums: dict, den: int):
    """The polynomial nums / den (nonzero integer coefficients, den > 0) as
    the pair (L, {monomial: int}) in lowest terms; nums itself when it
    already is."""
    g = math.gcd(den, *nums.values())
    return (den, nums) if g == 1 else (den // g, {m: c // g for m, c in nums.items()})


def _int_poly(nums: dict, den: int):
    """The polynomial nums / den (_lowest_terms' input) in the layout that
    PolySystem holds: (L, terms) in lowest terms, each term (c, factors, d)
    for the term c * x^mono of L times the polynomial, ``factors`` the
    (variable index, exponent) pairs of mono and d its degree."""
    L, nums = _lowest_terms(nums, den)
    return L, tuple((c, tuple((i, e) for i, e in enumerate(mono) if e), sum(mono))
                    for mono, c in nums.items())


class SolveOutcome:
    """Result of a solver run: a status plus whatever evidence supports it.

    status is one of "witness", "no_solution_mod_p",
    "certified_empty_over_closure" or "inconclusive".  A witness, when
    present, zeroes every input polynomial exactly (over Q, or over GF(p)
    when ``prime`` is set).  ``witnesses``, set by a sweep that found any,
    lists the residue tuples of its GF(p) witnesses in ``vars`` order, at
    most _MAX_WITNESSES of them, the first of them ``witness``.
    """

    __slots__ = (
        "status", "witness", "prime", "basis", "effort", "witnesses",
        "evidence", "cofactors",
    )

    def __init__(self, status, witness=None, prime=None, basis=None,
                 effort=None, witnesses=None, evidence=None, cofactors=None):
        self.status = status
        self.witness = witness
        self.prime = prime
        self.basis = basis
        self.effort = effort
        self.witnesses = witnesses
        self.evidence = evidence
        self.cofactors = cofactors

    def to_doc(self) -> dict:
        doc = {
            "status": self.status,
            "witness": {k: str(v) for k, v in self.witness.items()} if self.witness else None,
            "prime": self.prime,
            "basis": [str(b) for b in self.basis] if self.basis is not None else None,
            "effort": self.effort,
        }
        if self.witnesses is not None:
            doc["witness_count"] = len(self.witnesses)
        if self.evidence is not None:
            doc["evidence"] = [e.to_doc() for e in self.evidence]
        return doc

    def __repr__(self):
        return f"SolveOutcome({self.status})"


# ---------------------------------------------------------------------------
# exhaustive finite-field sweep
# ---------------------------------------------------------------------------

def _compile_mod_p(system: PolySystem, p: int):
    """Reduce every polynomial of the system mod p to a list of (coeff,
    factors) terms: c * L^-1 mod p for each term c of L times the
    polynomial, ``factors`` the (variable index, exponent) pairs of its
    monomial.  Returns (compiled, obstructed) where obstructed means some
    polynomial reduced to a nonzero constant, so no assignment can work.
    """
    compiled = []
    for L, terms in system.int_polys:
        if L % p == 0:
            q = next(q for c, _, _ in terms if (q := Fraction(c, L)).denominator % p == 0)
            raise ValueError(f"prime {p} divides the denominator of coefficient {q}")
        inv = pow(L, -1, p)
        terms = [(r, factors) for c, factors, _ in terms if (r := c * inv % p)]
        if not terms:
            continue
        if all(not factors for _, factors in terms):
            return [], True
        compiled.append(terms)
    return compiled, False


class EnumerationBudgetError(ValueError):
    """An enumeration built more than _MAX_TOTAL_ROWS rows and was stopped."""


_INT64_MAX = (1 << 63) - 1
# monomial values one product forms at once (256 KB of int64): it bounds the
# memory of a product, and larger arrays measured slower
_MAX_VALUES = 1 << 15


@functools.lru_cache(maxsize=256)
def _gather(np, monos):
    """Row k: per monomial of ``monos``, the index of its k-th variable
    factor (a variable of exponent e counted e times) among the rows of the
    evaluation array, or -1, its last row, which holds ones, past the
    monomial's degree.  It depends on the monomials alone, so searches of
    one shape share it."""
    flats = [tuple(i for i, e in factors for _ in range(e)) for factors in monos]
    degree = max(map(len, flats)) or 1
    pad = (-1,) * degree
    gather = np.array([flat + pad[len(flat):] for flat in flats], dtype=np.intp).T.copy()
    gather.flags.writeable = False  # one cached array serves every caller
    return gather


def _level_table(np, polys, p):
    """One level's polynomials as (gather, coeff) for _level_residues:
    ``coeff`` holds their residues mod p, one row each, over the distinct
    monomials of all of them; the coefficients of a monomial repeated in
    one polynomial (the same factors tuple) are summed."""
    monos = {}
    for terms in polys:
        for _, factors in terms:
            monos.setdefault(factors, len(monos))
    width = len(monos)
    coeff = [0] * (len(polys) * width)
    for r, terms in enumerate(polys):
        for c, factors in terms:
            j = r * width + monos[factors]
            coeff[j] = (coeff[j] + c) % p
    return _gather(np, tuple(monos)), np.array(coeff, dtype=np.int64).reshape(len(polys), width)


def _level_residues(table, cols, p):
    """The residues mod p of a _level_table's polynomials, one row each, at
    every assignment of ``cols`` (one row per variable, then a row of ones;
    one column per assignment).

    Reduction is lazy: ``bound`` is a Python-int bound on every entry of
    the array it belongs to, and an array is reduced mod p only when the
    next product or sum could pass 2^63 - 1, so int64 never wraps.  The
    monomial values start from entries of ``cols``, at most p - 1, and
    each further factor multiplies the bound by p - 1.  A sum of ``step``
    products coefficient x value, each at most (p - 1) * bound, is added to
    an accumulator already reduced to at most p - 1.  For every prime that
    _sweep accepts, (p - 1)^2 < 2^63 and even p * (p - 1) < 2^63 (the
    largest, 3037000493, leaves about 4 * 10^10 to spare), so with reduced
    values step is at least 1.  At p = 5 or 7 a quartic monomial and a sum
    of thousands of monomials need no reduction until the end; at
    p = 3037000493 each product is reduced and the sum is taken one
    monomial at a time.
    """
    gather, coeff = table
    values = cols[gather[0]]
    bound = p - 1
    for k in gather[1:]:
        if bound * (p - 1) > _INT64_MAX:
            values %= p
            bound = p - 1
        values *= cols[k]
        bound *= p - 1
    if (bound + 1) * (p - 1) > _INT64_MAX:
        values %= p
        bound = p - 1
    step = (_INT64_MAX - (p - 1)) // ((p - 1) * bound)
    acc = coeff[:, :step] @ values[:step]
    for lo in range(step, coeff.shape[1], step):
        acc %= p
        acc += coeff[:, lo:lo + step] @ values[lo:lo + step]
    return acc % p


def _vanishing(np, table, cols, p):
    """Mask of the assignments (columns) of ``cols`` at which every
    polynomial of the table is 0 mod p, formed _MAX_VALUES monomial values
    at a time."""
    span = max(1, _MAX_VALUES // table[1].shape[1])
    if cols.shape[1] <= span:
        return ~_level_residues(table, cols, p).any(axis=0)
    return np.concatenate([
        ~_level_residues(table, cols[:, lo:lo + span], p).any(axis=0)
        for lo in range(0, cols.shape[1], span)
    ])


def _check_modulus(p):
    """Refuse a modulus whose residue products could pass 2^63 - 1."""
    if (p - 1) ** 2 >= 1 << 63:
        raise ValueError(f"modulus {p} is too large for 64-bit residue products")


def _enumerate(compiled, p, nvars, cap):
    """Every assignment in GF(p)^nvars that zeroes each compiled polynomial.

    Variables are assigned depth first, the first one most significant, so
    the assignments come out in lexicographic order.  Each polynomial is
    tested as soon as the last variable it uses is assigned, and a prefix
    that fails it is dropped with everything below it.  One expansion
    builds at most ``_MAX_ROWS`` rows, splitting both the prefixes taken and
    the values tried for the next variable, so memory stays bounded for
    every p that _sweep accepts.  Stops after ``cap`` assignments.  Raises
    EnumerationBudgetError once the rows built in all exceed
    ``_MAX_TOTAL_ROWS``, so time stays bounded too, whatever nvars is.

    The polynomials tested at one level are compiled, when the level is
    first reached, into monomial tables (_level_table), and an expansion
    evaluates them in two integer products: the level's first polynomial
    alone, which drops about (1 - 1/p) of the rows, then all the others at
    once on its survivors.
    """
    # imported here, once per enumeration, so that commands which never
    # enumerate do not pay numpy's import time
    import numpy as np

    buckets = [[] for _ in range(nvars)]
    for terms in compiled:
        buckets[max(i for _, factors in terms for i, _ in factors)].append(terms)
    hits = []
    for block in _descend(np, p, buckets, [None] * nvars, np.zeros((0, 1), dtype=np.int64)):
        hits.extend(block)
        if len(hits) >= cap:
            break
    return hits[:cap]


def _descend(np, p, buckets, tables, prefixes, built=0):
    """Yield, in walk order, blocks of the assignments that extend the
    columns of ``prefixes`` (one row per variable assigned so far, one
    column per prefix) and zero every polynomial of buckets[len(prefixes):];
    return the count of rows built, ``built`` included.  ``tables`` caches
    each level's _level_table pair, compiled when the level is first
    reached.  Module level, not nested: a nested function that calls itself
    is a reference cycle, which would keep each enumeration's tables alive
    until a full garbage collection."""
    level = prefixes.shape[0]
    if level == len(buckets):
        yield zip(*prefixes.tolist())
        return built
    if tables[level] is None:
        polys = buckets[level]
        tables[level] = [_level_table(np, part, p) for part in (polys[:1], polys[1:]) if part]
    take = max(1, _MAX_ROWS // p)
    width = min(p, _MAX_ROWS)
    for lo in range(0, prefixes.shape[1], take):
        block = prefixes[:, lo:lo + take]
        for v0 in range(0, p, width):
            values = np.arange(v0, min(v0 + width, p), dtype=np.int64)
            built += len(values) * block.shape[1]
            if built > _MAX_TOTAL_ROWS:
                raise EnumerationBudgetError(
                    f"enumeration mod {p} passed {_MAX_TOTAL_ROWS} rows unfinished"
                )
            # the level + 1 assigned variables, then a row of ones; filled
            # in place, as np.repeat and np.tile would build copies first
            cols = np.empty((level + 2, block.shape[1] * len(values)), dtype=np.int64)
            cols[:level].reshape(level, block.shape[1], len(values))[...] = block[:, :, None]
            cols[level].reshape(block.shape[1], len(values))[...] = values
            cols[level + 1] = 1
            for table in tables[level]:
                cols = cols[:, _vanishing(np, table, cols, p)]
                if not cols.shape[1]:
                    break
            if cols.shape[1]:
                built = yield from _descend(np, p, buckets, tables, cols[:-1], built)
    return built


def _sweep(system: PolySystem, p, cap):
    """The first ``cap`` assignments of the system's variables over GF(p),
    in lexicographic order, that zero every polynomial of the system, or
    None when it reduces mod p to a nonzero constant.

    The one path to the enumerator, for a sweep and an isomorphism search
    alike.  The modulus is checked before anything is compiled, so whether
    p is accepted never depends on the system; every hit is re-checked by
    _check_assignment_mod_p; EnumerationBudgetError propagates.
    """
    _check_modulus(p)
    compiled, obstructed = _compile_mod_p(system, p)
    if obstructed:
        return None
    hits = _enumerate(compiled, p, len(system.vars), cap)
    if not all(_check_assignment_mod_p(system, p, values) for values in hits):
        raise RuntimeError("sweep produced an assignment the scalar check rejects")
    return hits


def solve_ff_exhaustive(system: PolySystem, p: int) -> SolveOutcome:
    """Decide the system mod p by an exhaustive pruned enumeration (_sweep).

    Assignments are enumerated in lexicographic order (first declared
    variable most significant).  ``witnesses`` holds the first
    _MAX_WITNESSES as tuples of residues in ``system.vars`` order, and
    ``witness`` the first as a dict of GF(p) elements; a sweep that reaches
    the cap sets effort["exhaustive"] false and effort["witness_cap_hit"].
    A "no_solution_mod_p" outcome always rests on a complete enumeration.
    A sweep past the enumeration's row budget, the only limit on its size,
    is no evidence either way: it returns "inconclusive" with
    effort["row_budget_hit"].
    """
    gf = rg.prime_field(p)
    effort = {"prime": p, "assignments": p ** len(system.vars), "exhaustive": True}
    try:
        hits = _sweep(system, p, _MAX_WITNESSES)
    except EnumerationBudgetError:
        effort.update(exhaustive=False, row_budget_hit=True)
        return SolveOutcome("inconclusive", prime=p, effort=effort)
    if hits is None:
        effort["constant_obstruction"] = True
    if not hits:
        return SolveOutcome("no_solution_mod_p", prime=p, effort=effort)

    if len(hits) == _MAX_WITNESSES:
        effort.update(exhaustive=False, witness_cap_hit=True)
    witness = {n: RingElem(gf, v) for n, v in zip(system.vars, hits[0])}
    return SolveOutcome("witness", witness=witness, prime=p, effort=effort, witnesses=hits)


def _int_value(terms, values, dpows):
    """The sum over ``terms`` of c * dpows[d] * prod values[i]^e."""
    total = 0
    for c, factors, d in terms:
        for i, e in factors:
            c *= values[i] ** e
        total += c * dpows[d]
    return total


def _check_assignment_mod_p(system: PolySystem, p: int, values) -> bool:
    """Scalar re-check of one assignment, independent of the vectorized path:
    every polynomial of the system is 0 mod p at ``values``, and p divides
    none of its denominators."""
    ones = (1,) * (system.top + 1)
    return all(L % p and _int_value(terms, values, ones) % p == 0
               for L, terms in system.int_polys)


def grid_zeros(system: PolySystem, axes):
    """The points of the grid axes[0] x axes[1] x ... (one axis of
    rationals per variable) at which every polynomial of the system
    vanishes, in lexicographic order of the axes as given, once per
    repeated value, as a test of every point would list them.

    The walk is depth first, first variable most significant; a polynomial
    is tested as soon as the last variable it uses is assigned (a constant
    at the first), and a prefix that fails one is dropped with every
    completion below it.  The test is exact and in integers, at the
    numerators of the axis values over D, the lcm of all their
    denominators.
    """
    buckets = [[] for _ in axes]
    for _, terms in system.int_polys:
        buckets[max((i for _, factors, _ in terms for i, _ in factors), default=0)].append(terms)
    D = math.lcm(*(x.denominator for axis in axes for x in axis))
    dpows = [D ** k for k in range(system.top, -1, -1)]
    levels = [[(x, x.numerator * (D // x.denominator)) for x in axis] for axis in axes]
    return list(_walk(levels, buckets, dpows, [None] * len(axes), [None] * len(axes)))


def _walk(levels, buckets, dpows, point, nums, k=0):
    """Yield, in walk order, the grid points that extend the prefix point[:k]
    (whose numerators over D are nums[:k]) and make every polynomial of
    buckets[k:] vanish.  Module level: a nested function that calls itself
    is a reference cycle, which kept a walk's tables alive until a full
    garbage collection."""
    for point[k], nums[k] in levels[k]:
        if not any(_int_value(terms, nums, dpows) for terms in buckets[k]):
            if k + 1 < len(levels):
                yield from _walk(levels, buckets, dpows, point, nums, k + 1)
            else:
                yield tuple(point)


def solve_ff_reference(system: PolySystem, p: int):
    """Straightforward per-assignment evaluator (cross-check oracle).

    Walks every assignment with exact prime-field scalars; intended for
    small systems in tests, not for production sweeps.
    """
    gf = rg.prime_field(p)
    names = system.vars
    solutions = []
    for values in iter_product(range(p), repeat=len(names)):
        elems = [RingElem(gf, v) for v in values]
        ok = True
        for poly in system.polys:
            acc = rg.zero(gf)
            for mono, q in poly.v.items():
                term = rg.from_fraction(gf, q)
                for x, e in zip(elems, mono):
                    term = term * x ** e
                acc = acc + term
            if not acc.is_zero():
                ok = False
                break
        if ok:
            solutions.append(dict(zip(names, elems)))
    return solutions


# ---------------------------------------------------------------------------
# Buchberger engine
# ---------------------------------------------------------------------------

class _FieldOverflow(ArithmeticError):
    """An exponent reached its field's guard bit (_Packing)."""


class _Packing:
    """Exponent vectors of ``nvars`` variables packed one int each, with
    room for every monomial of total degree at most ``bound``.

    Variable i takes field i, so the last variable is the most significant.
    A field is w = bound.bit_length() + 1 bits wide: the exponent in its low
    w - 1 bits, under a guard bit that a packed monomial keeps clear.  The
    total degree sits above the fields, unbounded.  Then a product of
    monomials is a + b and a quotient b - a; a sum that passes 2^(w-1) - 1
    in a field sets that field's guard bit and carries no further; a
    divides b exactly when ((b | guard) - a) & guard == guard; a pair is
    coprime exactly when its lcm is a + b; and grevlex order is int order
    on x ^ low, which turns each field's e into 2^w - 1 - e under the
    degree.  The lcm of two monomials of degree at most ``bound``
    has a degree of at most 2 * bound <= 2^w - 2, which is therefore the
    sum of its fields taken mod 2^w - 1.
    """

    __slots__ = ("nvars", "width", "shift", "guard", "low")

    def __init__(self, nvars: int, bound: int):
        width = max(bound, 0).bit_length() + 1
        self.nvars, self.width, self.shift = nvars, width, nvars * width
        self.guard = sum(1 << (i * width + width - 1) for i in range(nvars))
        self.low = (1 << self.shift) - 1  # every field, guard bits included

    def pack(self, mono) -> int:
        if max(mono, default=0) >> (self.width - 1):
            raise _FieldOverflow(f"exponent {max(mono)} passes a {self.width}-bit field")
        width = self.width
        return sum(e << (i * width) for i, e in enumerate(mono)) + (sum(mono) << self.shift)

    def unpack(self, x: int) -> tuple:
        width, field = self.width, (1 << (self.width - 1)) - 1
        return tuple(x >> (i * width) & field for i in range(self.nvars))

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        guard, width = self.guard, self.width
        # the guard bits of the fields where a's exponent is at least b's,
        # then those fields' exponent bits
        pick = ((a | guard) - b) & guard
        pick -= pick >> (width - 1)
        fields = (a & pick) | (b & (self.low ^ pick))
        return fields | (fields % ((1 << width) - 1)) << self.shift

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(m): c for m, c in terms.items()}


def _lm(terms, pk):
    """The grevlex-leading packed monomial of a term dict."""
    return max(terms, key=pk.low.__xor__)


def _primitive(terms, pk, rep=None):
    """Integer terms divided by their content, signed so that the leading
    coefficient comes out positive, and the cofactor pair ``rep`` divided
    by the same (_rep_divide)."""
    g = math.gcd(*terms.values())
    if terms[_lm(terms, pk)] < 0:
        g = -g
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
    if rep is not None:
        rep = _rep_divide(rep, g)
    return terms, rep


def _sub_multiple(acc, q, u, row, guard):
    """acc -= q * x^u * row, in place on packed terms; raises _FieldOverflow
    when an exponent of a product reaches its guard bit."""
    for m, c in row.items():
        mm = m + u
        if mm & guard:
            raise _FieldOverflow("a product passes its exponent field")
        nc = acc.get(mm)
        nc = -q * c if nc is None else nc - q * c
        if nc:
            acc[mm] = nc
        else:
            del acc[mm]


# A basis element's cofactors ride along as one pair (rows, den): integer
# rows, one per input polynomial, over one positive denominator, in lowest
# terms after each division; cofactor t is rows[t] / den.

def _rep_combine(f, g, a, u, b, v, guard):
    """a * x^u * f - b * x^v * g on cofactor pairs, over the lcm of their
    denominators; raises _FieldOverflow as _sub_multiple does."""
    (frows, fden), (grows, gden) = f, g
    d = math.gcd(fden, gden)
    a, b = a * (gden // d), b * (fden // d)
    rows = []
    for fr, gr in zip(frows, grows):
        acc = {}
        _sub_multiple(acc, -a, u, fr, guard)
        _sub_multiple(acc, b, v, gr, guard)
        rows.append(acc)
    return rows, fden // d * gden


def _rep_divide(rep, g):
    """The cofactor pair divided by the nonzero int g, in lowest terms."""
    rows, den = rep
    if g < 0:
        rows, g = [{m: -c for m, c in r.items()} for r in rows], -g
    den *= g
    h = math.gcd(den, *(c for r in rows for c in r.values()))
    if h != 1:
        rows, den = [{m: c // h for m, c in r.items()} for r in rows], den // h
    return rows, den


def _normal_form(f, basis, lms, lcs, pk, rep=None, reps=None):
    """Full multivariate division remainder of f by the basis, fraction
    free: all packed by ``pk``, integer coefficients, every leading
    coefficient in ``lcs`` positive.  The work terms' grevlex keys wait in a
    heap, largest first; a term cancelled before its turn leaves its key
    behind, skipped when it comes up.  No monomial formed passes the degree
    of f.

    A step that meets the work's lead c * x^m, divisible by the lead
    lc * x^n of basis element h, multiplies the work and the remainder
    collected so far by lc / g, g = gcd(c, lc), and subtracts
    c / g * x^(m - n) * h.  Returns (rem, scale, rep): rem is ``scale``, the
    product of those positive multipliers, times the remainder over Q.

    When ``rep``/``reps`` carry cofactor pairs over the original inputs,
    the remainder's is formed alongside (_rep_combine); its exponents have
    no such bound and are checked.
    """
    low, guard = pk.low, pk.guard
    work = dict(f)
    heap = [-(m ^ low) for m in work]
    heapq.heapify(heap)
    rem = {}
    scale = 1
    while heap:
        lm_w = -heapq.heappop(heap) ^ low
        lc_w = work.pop(lm_w, None)
        if lc_w is None:
            continue
        guarded = lm_w | guard
        for hit, lmg in enumerate(lms):
            if (guarded - lmg) & guard == guard:
                break
        else:
            rem[lm_w] = lc_w
            continue
        u = lm_w - lmg
        lc = lcs[hit]
        g = math.gcd(lc_w, lc)
        a, q = lc // g, lc_w // g
        if a != 1:
            work = {m: c * a for m, c in work.items()}
            if rem:
                rem = {m: c * a for m, c in rem.items()}
            scale *= a
        for m, c in basis[hit].items():
            if m == lmg:
                continue  # the divisor's lead cancels lm_w, already out of the work
            mm = m + u
            nc = work.get(mm)
            if nc is None:
                work[mm] = -q * c
                heapq.heappush(heap, -(mm ^ low))
            else:
                nc -= q * c
                if nc:
                    work[mm] = nc
                else:
                    del work[mm]
        if rep is not None:
            rep = _rep_combine(rep, reps[hit], a, 0, q, u, guard)
    return rem, scale, rep


def _skip_pair(lms, done, i, j, L, guard) -> bool:
    """Buchberger's criteria: whether the pair (i, j) of lcm L can be left
    out.

    A pair whose leading monomials are coprime has an S-polynomial that
    reduces to zero (the coprime criterion), and so does a pair whose lcm
    the leading monomial of a third element k divides once the pairs
    (i, k) and (j, k) are done (the chain criterion).
    """
    if L == lms[i] + lms[j]:
        return True
    guarded = L | guard
    for k, lmk in enumerate(lms):
        if (
            (guarded - lmk) & guard == guard
            and k != i and k != j
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
        ):
            return True
    return False


def _s_multipliers(lmf, lmg, lcf, lcg, L):
    """(a, u, b, v) such that a * x^u * f - b * x^v * g is the
    S-polynomial of f and g, of leading monomials lmf and lmg, positive
    leading coefficients lcf and lcg and lead lcm L, times lcf * lcg / d,
    d = gcd(lcf, lcg): its least integer multiple when f and g are
    primitive."""
    d = math.gcd(lcf, lcg)
    return lcg // d, L - lmf, lcf // d, L - lmg


def _s_poly(f, g, mult, guard):
    """The S-polynomial a * x^u * f - b * x^v * g of packed integer terms,
    ``mult`` = (a, u, b, v) from _s_multipliers.  Raises _FieldOverflow when
    an exponent reaches a guard bit."""
    a, u, b, v = mult
    out = {}
    _sub_multiple(out, -a, u, f, guard)
    _sub_multiple(out, b, v, g, guard)
    return out


def _check_caps(caps: dict) -> None:
    """Refuse a max_degree cap outside 0.._MAX_DEGREE_CAP."""
    degree = caps.get("max_degree")
    if degree is not None and not 0 <= degree <= _MAX_DEGREE_CAP:
        raise ValueError(f"max_degree must lie between 0 and {_MAX_DEGREE_CAP}")


def buchberger(system: PolySystem, caps=None, track: bool = False) -> SolveOutcome:
    """Run Buchberger's algorithm with the normal selection strategy.

    The outcome carries the reduced basis (monic, sorted by leading
    monomial).  A reduced basis {1} gives "certified_empty_over_closure",
    capped or not; otherwise the outcome is "inconclusive" (no witness is
    extracted), with the partial basis and effort counters when a cap was
    hit and with effort["completed"] set when none was.  A run stops once
    the pairs it has formed would pass _MAX_TOTAL_PAIRS, which bounds its
    heap: it is then capped, with effort["pair_budget_hit"].  With
    ``track`` every basis element carries cofactors over the input
    polynomials.

    The run is fraction free over Z.  The inputs are the system's integer
    numerators, each made primitive (content divided out, leading
    coefficient positive).  An S-polynomial is (lc_g/d) x^u f -
    (lc_f/d) x^v g, d = gcd(lc_f, lc_g), and a reduction step scales the
    work and the remainder collected so far (_normal_form), each by a
    positive integer, so every polynomial formed is a positive multiple of
    the one the run over Q forms, and its primitive part, which joins the
    basis, is the same.  Cofactors ride along as integer rows over one
    denominator, scaled by the same integers and divided by the same
    contents, so they equal the cofactors over Q.

    Monomials are packed (_Packing) once on entry, with fields sized for
    the larger of max_degree and the input degree, which no basis monomial
    passes.  A cofactor has no such bound; one that reaches a guard bit
    reruns the whole run with wider fields, so no exponent ever wraps.
    A max_degree past _MAX_DEGREE_CAP is refused with ValueError.
    """
    caps = {**DEFAULT_CAPS, **(caps or {})}
    _check_caps(caps)
    bound = max(caps["max_degree"], system.top)
    while True:
        try:
            return _buchberger(system, caps, track, _Packing(len(system.vars), bound))
        except _FieldOverflow:
            bound = 2 * bound + 1


def _buchberger(system, caps, track, pk):
    """buchberger on monomials packed by ``pk``."""
    max_pairs, max_degree = caps["max_pairs"], caps["max_degree"]
    nin = len(system.int_polys)
    low, shift, guard = pk.low, pk.shift, pk.guard

    basis, lms, lcs = [], [], []
    reps = [] if track else None

    def push_basis(terms, rep):
        basis.append(terms)
        lms.append(_lm(terms, pk))
        lcs.append(terms[lms[-1]])
        if track:
            reps.append(rep)

    for j, (L, terms) in enumerate(system.int_polys):
        rep = None
        if track:
            # the terms sum to L times input j
            rep = ([{0: L} if t == j else {} for t in range(nin)], 1)
        terms, rep = _primitive(_pack(terms, pk), pk, rep)
        push_basis(terms, rep)

    # a pair waits as (grevlex key of its lcm, i, j); the degree tops the key
    formed = nin * (nin - 1) // 2
    budget_hit = formed > _MAX_TOTAL_PAIRS
    heap = [] if budget_hit else [
        (pk.lcm(lms[i], lms[j]) ^ low, i, j) for j in range(nin) for i in range(j)
    ]
    heapq.heapify(heap)

    done = set()
    processed = skipped = degree_skipped = 0
    max_deg_seen = max((lm >> shift for lm in lms), default=0)
    pairs_capped = False

    while heap:
        if processed >= max_pairs:
            pairs_capped = True
            break
        key, i, j = heapq.heappop(heap)
        L = key ^ low
        deg = L >> shift
        if deg > max_degree:
            degree_skipped += 1
            continue
        done.add((i, j))
        if _skip_pair(lms, done, i, j, L, guard):
            skipped += 1
            continue

        processed += 1
        max_deg_seen = max(max_deg_seen, deg)
        mult = _s_multipliers(lms[i], lms[j], lcs[i], lcs[j], L)
        s_terms = _s_poly(basis[i], basis[j], mult, guard)
        s_rep = _rep_combine(reps[i], reps[j], *mult, guard) if track else None
        rem, _, s_rep = _normal_form(s_terms, basis, lms, lcs, pk, s_rep, reps)
        if not rem:
            continue
        rem, s_rep = _primitive(rem, pk, s_rep)
        idx = len(basis)
        push_basis(rem, s_rep)
        if lms[idx] == 0:
            # a constant: the reduced basis is {1}, whatever pairs remain
            break
        if formed + idx > _MAX_TOTAL_PAIRS:
            budget_hit = True
            break
        formed += idx
        for k in range(idx):
            heapq.heappush(heap, (pk.lcm(lms[k], lms[idx]) ^ low, k, idx))

    caps_hit = pairs_capped or degree_skipped > 0 or budget_hit
    red_basis, red_reps = _reduced_basis(basis, lms, lcs, reps, pk)
    certified = red_basis == [{0: 1}]
    effort = {
        "pairs_processed": processed,
        "pairs_skipped_by_criteria": skipped,
        "pairs_skipped_by_degree_cap": degree_skipped,
        "max_lcm_degree": max_deg_seen,
        "basis_size": len(red_basis),
        "caps_hit": caps_hit,
        "completed": certified or not caps_hit,
    }
    if budget_hit:
        effort["pair_budget_hit"] = True
    ring = system.ring
    basis_elems = [RingElem(ring, pk.unpack_terms(t)) for t in red_basis]
    cof_elems = None
    if track:
        cof_elems = [[RingElem(ring, pk.unpack_terms(r)) for r in rep] for rep in red_reps]
    return SolveOutcome(
        "certified_empty_over_closure" if certified else "inconclusive",
        basis=basis_elems, effort=effort, cofactors=cof_elems,
    )


def _reduced_basis(basis, lms, lcs, reps, pk):
    """Minimalize, fully inter-reduce and make monic; deterministic order.
    The monic elements and their cofactors come out as Fractions, for the
    RingElems of the outcome."""
    order = sorted(range(len(basis)), key=lambda i: (lms[i] ^ pk.low, i))
    kept = []
    for i in order:
        if not any(pk.divides(lms[k], lms[i]) for k in kept):
            kept.append(i)
    out_terms, out_reps = [], []
    for i in kept:
        others = [k for k in kept if k != i]
        ob = [basis[k] for k in others]
        ol = [lms[k] for k in others]
        oc = [lcs[k] for k in others]
        rep = reps[i] if reps is not None else None
        oreps = [reps[k] for k in others] if reps is not None else None
        # kept is minimal: lms[i] leads the remainder, and kept stays sorted
        rem, _, rep = _normal_form(basis[i], ob, ol, oc, pk, rep, oreps)
        lc = rem[lms[i]]
        out_terms.append({m: Fraction(c, lc) for m, c in rem.items()})
        if rep is not None:
            rows, den = rep
            rep = [{m: Fraction(c, den * lc) for m, c in r.items()} for r in rows]
        out_reps.append(rep)
    return out_terms, out_reps if reps is not None else None


def _numerators(terms):
    """A dict of lowest-terms Fraction coefficients as (L, {monomial:
    int}) in lowest terms: L the lcm of the denominators, the dict L times
    the terms."""
    L = math.lcm(*(q.denominator for q in terms.values()))
    return L, {m: q.numerator * (L // q.denominator) for m, q in terms.items()}


def _pack(terms, pk) -> dict:
    """The terms (c, factors, d) of a polynomial in PolySystem's layout as
    {packed monomial: c}, packed straight from the factors: the caller
    sizes ``pk`` so that no exponent passes its fields."""
    width, shift = pk.width, pk.shift
    return {sum(e << (i * width) for i, e in f) + (d << shift): c for c, f, d in terms}


def _packed(system: PolySystem, bound):
    """A _Packing of the system's variables for degree ``bound``, at least
    system.top, with the primitive parts of the system's polynomials
    packed by it (_pack), their leading monomials and their leading
    coefficients: (pk, terms, lms, lcs)."""
    pk = _Packing(len(system.vars), bound)
    terms = [_primitive(_pack(t, pk), pk)[0] for _, t in system.int_polys]
    lms = [_lm(t, pk) for t in terms]
    return pk, terms, lms, [t[lm] for t, lm in zip(terms, lms)]


def reduce_poly(f: RingElem, basis_elems) -> RingElem:
    """Normal form of f modulo a list of polynomials in the same ring.

    f and the basis elements are divided as positive integer multiples
    (PolySystem's layout, the basis made primitive), which leaves every
    division step as it is; the remainder is divided by f's multiplier and
    the scale the division accumulated (_normal_form)."""
    target, system = PolySystem(f.ring, [f]), PolySystem(f.ring, basis_elems)
    if not target.int_polys:
        return rg.zero(f.ring)
    (L, terms), = target.int_polys
    pk, basis, lms, lcs = _packed(system, max(target.top, system.top))
    rem, scale, _ = _normal_form(_pack(terms, pk), basis, lms, lcs, pk)
    den = L * scale
    return RingElem(f.ring, {pk.unpack(m): Fraction(c, den) for m, c in rem.items()})


def groebner_selfcheck(basis_elems) -> bool:
    """Every S-polynomial of the basis reduces to zero modulo the basis."""
    if not basis_elems:
        return True
    system = PolySystem(basis_elems[0].ring, basis_elems)
    # an S-polynomial has at most twice the basis degree
    pk, basis, lms, lcs = _packed(system, 2 * system.top)
    for j in range(len(basis)):
        for i in range(j):
            mult = _s_multipliers(lms[i], lms[j], lcs[i], lcs[j], pk.lcm(lms[i], lms[j]))
            if _normal_form(_s_poly(basis[i], basis[j], mult, pk.guard), basis, lms, lcs, pk)[0]:
                return False
    return True


# ---------------------------------------------------------------------------
# rational lifting and the expressibility pipeline
# ---------------------------------------------------------------------------

def _lift_candidates(residues, modulus, bound):
    """Common-denominator rational reconstructions of a residue vector, as
    (numerators, d) for the candidate values n / d: for each d up to
    ``bound`` prime to the modulus, n is r * d mod the modulus, centred."""
    half = modulus // 2
    for d in range(1, bound + 1):
        if math.gcd(d, modulus) != 1:
            continue
        nums = []
        for r in residues:
            num = r * d % modulus
            if num > half:
                num -= modulus
            nums.append(num)
        yield nums, d


def _try_lift(system: PolySystem, residue_vectors, modulus, bound=64,
              max_attempts=4096):
    """First exact rational witness reconstructed from mod-``modulus`` data,
    with the count of candidates tried.

    A candidate n / d is tested in integers, exactly over Q: the terms of
    every polynomial, homogenized by d^(top - degree), sum to 0 at the
    numerators.  Only the accepted candidate becomes Fractions.
    """
    attempts = 0
    top = system.top
    for residues in residue_vectors:
        for nums, d in _lift_candidates(residues, modulus, bound):
            attempts += 1
            if attempts > max_attempts:
                return None, attempts
            dpows = [d ** k for k in range(top, -1, -1)]
            if not any(_int_value(terms, nums, dpows) for _, terms in system.int_polys):
                witness = (RingElem(rg.QQ, Fraction(n, d)) for n in nums)
                return dict(zip(system.vars, witness)), attempts
    return None, attempts


def _crt_pair(r1, p1, r2, p2):
    inv = pow(p1, p2 - 2, p2)
    return [(a + p1 * ((b - a) * inv % p2)) % (p1 * p2) for a, b in zip(r1, r2)]


def certify_expressibility(C, primes=DEFAULT_PRIMES, caps=None,
                           groebner: bool = True) -> SolveOutcome:
    """Strongest available verdict on whether C, of any shape that
    symbolic_system builds a system for, is generated by a binary algebra.

    Pipeline: per-prime exhaustive sweeps (witnesses trigger a bounded
    rational lift, denominators up to 64, each candidate verified exactly
    over Q in integer arithmetic; a CRT combination across the first two
    witness-bearing primes is tried when per-prime lifting fails), then the
    Groebner run when no exact witness was found.  A sweep stopped by the
    enumeration's row budget leaves an "inconclusive" entry for its prime.
    The outcome's evidence list carries every stage.  ``primes`` may be
    empty but must name each prime once (ValueError).
    """
    from .generate import symbolic_system

    primes = rg._distinct_primes(primes, allow_empty=True)
    system = symbolic_system(C)
    effort = {"primes": list(primes)}
    evidence = []

    witnessed = []  # the witness-bearing sweeps
    for p in primes:
        out = solve_ff_exhaustive(system, p)
        evidence.append(out)
        if out.status != "witness":
            continue
        witnessed.append(out)
        lifted, attempts = _try_lift(system, out.witnesses, p)
        if lifted is not None:
            effort.update(lifted_from=p, lift_attempts=attempts)
            return SolveOutcome("witness", witness=lifted, effort=effort, evidence=evidence)

    if len(witnessed) >= 2:
        s1, s2 = witnessed[:2]
        p1, p2 = s1.prime, s2.prime
        combined = (
            _crt_pair(a, p1, b, p2) for a in s1.witnesses[:64] for b in s2.witnesses[:64]
        )
        lifted, attempts = _try_lift(system, combined, p1 * p2)
        if lifted is not None:
            effort.update(lifted_from=[p1, p2], lift_attempts=attempts)
            return SolveOutcome("witness", witness=lifted, effort=effort, evidence=evidence)

    if groebner:
        evidence.append(buchberger(system, caps=caps))
        if evidence[-1].status == "certified_empty_over_closure":
            return SolveOutcome(
                "certified_empty_over_closure", basis=evidence[-1].basis,
                effort=effort, evidence=evidence,
            )
    if witnessed:
        sweep = witnessed[0]
        return SolveOutcome(
            "witness", witness=sweep.witness, prime=sweep.prime, effort=effort,
            evidence=evidence,
        )
    # the sweeps lead the evidence; a Groebner run behind them is inconclusive
    if primes and all(e.status == "no_solution_mod_p" for e in evidence[:len(primes)]):
        return SolveOutcome("no_solution_mod_p", effort=effort, evidence=evidence)
    return SolveOutcome("inconclusive", effort=effort, evidence=evidence)
