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

* a bounded Buchberger engine over Q in graded reverse lexicographic
  order, with the normal selection strategy, coprime-lead and chain
  criteria, and content removal after every reduction.  A reduced basis
  {1} certifies that the system has no solution over the algebraic
  closure; hitting a cap yields "inconclusive", never a wrong verdict.

certify_expressibility chains both: per-prime sweeps (with a bounded
rational-reconstruction lift of any witness found, verified exactly over
Q) followed by the Groebner run, reporting the strongest outcome with all
evidence attached.

A system has one integer encoding, its integer form, built at first use and
kept: each polynomial times the lcm L of its coefficient denominators, each
term an integer coefficient, its variable factors and its degree gap to the
polynomial's degree.  The sweep core takes it (iso.py builds its own, with
L = 1) and reduces it mod p (c * L^-1 per term); p dividing L is refused.
A point n / d (one denominator d for all variables) zeroes a polynomial
exactly when the sum of c * d^gap * prod n_i^e is 0: rational-lift
candidates are tested so, and so is every point of catalog.totassoc_scan.
A sweep hit's scalar re-check, independent of the vectorized path, fails
when p divides L and otherwise asks the sum of c * prod v^e to be 0 mod p.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from itertools import product as iter_product

from . import ring as rg
from .ring import (
    Ring,
    RingElem,
    _grevlex_key,
    _mono_div,
    _mono_divides,
    _mono_lcm,
    _mono_mul,
    _poly_add,
    _poly_mul_term,
    _poly_sub,
)

__all__ = [
    "PolySystem",
    "SolveOutcome",
    "solve_ff_exhaustive",
    "solve_ff_reference",
    "buchberger",
    "certify_expressibility",
    "reduce_poly",
    "groebner_selfcheck",
    "DEFAULT_CAPS",
]

DEFAULT_CAPS = {"max_pairs": 20000, "max_degree": 12}
# rows built by one expansion step of the finite-field enumerator
_MAX_ROWS = 1 << 16
# rows built by one whole enumeration: past this it is refused, not finished
_MAX_TOTAL_ROWS = 1 << 27
# hits one enumeration keeps, for a sweep and an isomorphism search alike;
# a result that reaches it says it is not exhaustive
_MAX_WITNESSES = 4096
_F0 = Fraction(0)
_F1 = Fraction(1)


class PolySystem:
    """A finite set of polynomials over one Q[vars] ring; zero polys dropped."""

    __slots__ = ("ring", "polys", "_ints")

    def __init__(self, ring: Ring, polys):
        if ring.kind != "poly":
            raise ValueError("a polynomial system needs a polynomial ring")
        kept = []
        for p in polys:
            if not isinstance(p, RingElem) or (p.ring is not ring and p.ring != ring):
                raise ValueError("system polynomial outside the declared ring")
            if not p.is_zero():
                kept.append(p)
        self.ring = ring
        self.polys = tuple(kept)
        self._ints = None  # the integer form, built by _integer_form

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
        return f"PolySystem({len(self.polys)} polys in {', '.join(self.vars)})"


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

def _compile_mod_p(form, p: int):
    """Reduce every polynomial of an integer form (_integer_form) mod p to a
    list of (coeff, factors) terms: c * L^-1 mod p for each term c of L times
    the polynomial, ``factors`` the (variable index, exponent) pairs of its
    monomial.  Returns (compiled, obstructed) where obstructed means some
    polynomial reduced to a nonzero constant, so no assignment can work.
    """
    compiled = []
    for L, terms in form[0]:
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


def _sweep(form, nvars, p, cap):
    """The first ``cap`` assignments in GF(p)^nvars, in lexicographic order,
    that zero every polynomial of an integer form (_integer_form's layout),
    or None when the form reduces mod p to a nonzero constant.

    The one path to the enumerator, for a sweep and an isomorphism search
    alike.  The modulus is checked before anything is compiled, so whether
    p is accepted never depends on the system; every hit is re-checked by
    _check_assignment_mod_p; EnumerationBudgetError propagates.
    """
    _check_modulus(p)
    compiled, obstructed = _compile_mod_p(form, p)
    if obstructed:
        return None
    hits = _enumerate(compiled, p, nvars, cap)
    if not all(_check_assignment_mod_p(form, p, values) for values in hits):
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
    nvars = len(system.vars)
    effort = {"prime": p, "assignments": p ** nvars, "exhaustive": True}
    try:
        hits = _sweep(_integer_form(system), nvars, p, _MAX_WITNESSES)
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


def _integer_form(system: PolySystem):
    """The system's polynomials as (L, terms) pairs, built on first use and
    kept: L is the lcm of a polynomial's coefficient denominators and each
    term of L times the polynomial is (integer coefficient, factors, degree
    gap), ``factors`` the (variable index, exponent) pairs of its monomial
    and the gap its degree's distance to the polynomial's degree.  Returns
    (polys, top), ``top`` the largest degree, which bounds every gap."""
    if system._ints is None:
        polys, top = [], 0
        for poly in system.polys:
            L = math.lcm(*(q.denominator for q in poly.v.values()))
            degree = max(map(sum, poly.v))
            polys.append((L, tuple(
                (q.numerator * (L // q.denominator),
                 tuple((i, e) for i, e in enumerate(mono) if e),
                 degree - sum(mono))
                for mono, q in poly.v.items()
            )))
            top = max(top, degree)
        system._ints = tuple(polys), top
    return system._ints


def _int_value(terms, values, dpows):
    """The sum over ``terms`` of c * dpows[gap] * prod values[i]^e."""
    total = 0
    for c, factors, gap in terms:
        for i, e in factors:
            c *= values[i] ** e
        total += c * dpows[gap]
    return total


def _check_assignment_mod_p(form, p: int, values) -> bool:
    """Scalar re-check of one assignment, independent of the vectorized path:
    every polynomial of the integer form is 0 mod p at ``values``, and p
    divides none of its denominators."""
    polys, top = form
    ones = (1,) * (top + 1)
    return all(L % p and _int_value(terms, values, ones) % p == 0 for L, terms in polys)


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

def _lm(terms):
    return max(terms, key=_grevlex_key)


def _make_primitive(terms, rep=None):
    """Divide by the content and make the leading coefficient positive."""
    if not terms:
        return terms, rep
    num_gcd, den_lcm = 0, 1
    for c in terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    scale = Fraction(den_lcm, num_gcd)
    if terms[_lm(terms)] < 0:
        scale = -scale
    terms = {m: c * scale for m, c in terms.items()}
    if rep is not None:
        rep = [{m: c * scale for m, c in r.items()} for r in rep]
    return terms, rep


def _normal_form(f, basis, lms, lcs, rep=None, reps=None):
    """Full multivariate division remainder of f by the basis.

    When ``rep``/``reps`` carry representations over the original inputs,
    the remainder's representation is updated alongside.
    """
    work = dict(f)
    rem = {}
    while work:
        lm_w = _lm(work)
        lc_w = work[lm_w]
        hit = None
        for gi, lmg in enumerate(lms):
            if _mono_divides(lmg, lm_w):
                hit = gi
                break
        if hit is None:
            rem[lm_w] = lc_w
            del work[lm_w]
            continue
        q_mono = _mono_div(lm_w, lms[hit])
        q_coeff = lc_w / lcs[hit]
        for m, c in basis[hit].items():
            mm = _mono_mul(m, q_mono)
            nc = work.get(mm, _F0) - q_coeff * c
            if nc:
                work[mm] = nc
            else:
                work.pop(mm, None)
        if rep is not None:
            for t, r in enumerate(reps[hit]):
                if r:
                    rep[t] = _poly_sub(rep[t], _poly_mul_term(r, q_coeff, q_mono))
    return rem, rep


def _pair_key(lms, i, j):
    L = _mono_lcm(lms[i], lms[j])
    return (sum(L), _grevlex_key(L), i, j)


def _skip_pair(lms, done, i, j) -> bool:
    """Buchberger's criteria: whether the pair (i, j) can be left out.

    A pair whose leading monomials are coprime has an S-polynomial that
    reduces to zero (the coprime criterion), and so does a pair whose lcm
    the leading monomial of a third element k divides once the pairs
    (i, k) and (j, k) are done (the chain criterion).
    """
    lmi, lmj = lms[i], lms[j]
    if all(min(a, b) == 0 for a, b in zip(lmi, lmj)):
        return True
    L = _mono_lcm(lmi, lmj)
    for k in range(len(lms)):
        if k in (i, j):
            continue
        if (
            _mono_divides(lms[k], L)
            and (min(i, k), max(i, k)) in done
            and (min(j, k), max(j, k)) in done
        ):
            return True
    return False


def _s_poly(f, g, lmf, lmg, lcf, lcg):
    """The S-polynomial of f and g, given their leading monomials and
    coefficients; f and g may also be cofactor rows carried along with
    the basis elements whose leading data is given."""
    L = _mono_lcm(lmf, lmg)
    return _poly_sub(
        _poly_mul_term(f, 1 / lcf, _mono_div(L, lmf)),
        _poly_mul_term(g, 1 / lcg, _mono_div(L, lmg)),
    )


def buchberger(system: PolySystem, caps=None, track: bool = False) -> SolveOutcome:
    """Run Buchberger's algorithm with the normal selection strategy.

    The outcome carries the reduced basis (monic, sorted by leading
    monomial).  A reduced basis {1} gives "certified_empty_over_closure",
    capped or not; otherwise the outcome is "inconclusive" (no witness is
    extracted), with the partial basis and effort counters when a cap was
    hit and with effort["completed"] set when none was.  With ``track``
    every basis element carries cofactors over the input polynomials.
    """
    caps = {**DEFAULT_CAPS, **(caps or {})}
    max_pairs, max_degree = caps["max_pairs"], caps["max_degree"]
    nin = len(system.polys)
    zero_mono = (0,) * len(system.vars)

    basis, lms, lcs = [], [], []
    reps = [] if track else None

    def push_basis(terms, rep):
        basis.append(terms)
        lms.append(_lm(terms))
        lcs.append(terms[lms[-1]])
        if track:
            reps.append(rep)

    for j, poly in enumerate(system.polys):
        rep = None
        if track:
            rep = [({zero_mono: _F1} if t == j else {}) for t in range(nin)]
        terms, rep = _make_primitive(dict(poly.v), rep)
        push_basis(terms, rep)

    heap = []
    for j in range(len(basis)):
        for i in range(j):
            heapq.heappush(heap, _pair_key(lms, i, j))

    done = set()
    processed = skipped = degree_skipped = 0
    max_deg_seen = max((sum(lm) for lm in lms), default=0)
    pairs_capped = False

    while heap:
        if processed >= max_pairs:
            pairs_capped = True
            break
        deg, _, i, j = heapq.heappop(heap)
        if deg > max_degree:
            degree_skipped += 1
            continue
        done.add((i, j))
        if _skip_pair(lms, done, i, j):
            skipped += 1
            continue

        processed += 1
        max_deg_seen = max(max_deg_seen, deg)
        s_terms = _s_poly(basis[i], basis[j], lms[i], lms[j], lcs[i], lcs[j])
        s_rep = None
        if track:
            s_rep = [
                _s_poly(reps[i][t], reps[j][t], lms[i], lms[j], lcs[i], lcs[j])
                for t in range(nin)
            ]
        rem, s_rep = _normal_form(s_terms, basis, lms, lcs, s_rep, reps)
        if not rem:
            continue
        rem, s_rep = _make_primitive(rem, s_rep)
        idx = len(basis)
        push_basis(rem, s_rep)
        if sum(lms[idx]) == 0:
            # a constant: the reduced basis is {1}, whatever pairs remain
            break
        for k in range(idx):
            heapq.heappush(heap, _pair_key(lms, k, idx))

    caps_hit = pairs_capped or degree_skipped > 0
    red_basis, red_reps = _reduced_basis(basis, lms, lcs, reps)
    certified = red_basis == [{zero_mono: _F1}]
    effort = {
        "pairs_processed": processed,
        "pairs_skipped_by_criteria": skipped,
        "pairs_skipped_by_degree_cap": degree_skipped,
        "max_lcm_degree": max_deg_seen,
        "basis_size": len(red_basis),
        "caps_hit": caps_hit,
        "completed": certified or not caps_hit,
    }
    basis_elems = [RingElem(system.ring, t) for t in red_basis]
    cof_elems = None
    if track:
        cof_elems = [
            [RingElem(system.ring, r) for r in rep] for rep in red_reps
        ]
    return SolveOutcome(
        "certified_empty_over_closure" if certified else "inconclusive",
        basis=basis_elems, effort=effort, cofactors=cof_elems,
    )


def _reduced_basis(basis, lms, lcs, reps):
    """Minimalize, fully inter-reduce and make monic; deterministic order."""
    order = sorted(range(len(basis)), key=lambda i: (_grevlex_key(lms[i]), i))
    kept = []
    for i in order:
        if not any(_mono_divides(lms[k], lms[i]) for k in kept):
            kept.append(i)
    out_terms, out_reps = [], []
    for i in kept:
        others = [k for k in kept if k != i]
        ob = [basis[k] for k in others]
        ol = [lms[k] for k in others]
        oc = [lcs[k] for k in others]
        rep = [dict(r) for r in reps[i]] if reps is not None else None
        oreps = [reps[k] for k in others] if reps is not None else None
        # kept is minimal: lms[i] leads the remainder, and kept stays sorted
        rem, rep = _normal_form(dict(basis[i]), ob, ol, oc, rep, oreps)
        lc = rem[_lm(rem)]
        rem = {m: c / lc for m, c in rem.items()}
        if rep is not None:
            rep = [{m: c / lc for m, c in r.items()} for r in rep]
        out_terms.append(rem)
        out_reps.append(rep)
    return out_terms, out_reps if reps is not None else None


def _raw_basis(basis_elems):
    """The nonzero polynomials of a list as term dicts, with their leading
    monomials and leading coefficients: (terms, lms, lcs)."""
    terms = [dict(b.v) for b in basis_elems if not b.is_zero()]
    lms = [_lm(t) for t in terms]
    lcs = [t[lm] for t, lm in zip(terms, lms)]
    return terms, lms, lcs


def reduce_poly(f: RingElem, basis_elems) -> RingElem:
    """Normal form of f modulo a list of polynomials in the same ring."""
    rem, _ = _normal_form(dict(f.v), *_raw_basis(basis_elems))
    return RingElem(f.ring, rem)


def groebner_selfcheck(basis_elems) -> bool:
    """Every S-polynomial of the basis reduces to zero modulo the basis."""
    basis, lms, lcs = _raw_basis(basis_elems)
    for j in range(len(basis)):
        for i in range(j):
            s = _s_poly(basis[i], basis[j], lms[i], lms[j], lcs[i], lcs[j])
            rem, _ = _normal_form(s, basis, lms, lcs)
            if rem:
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

    A candidate n / d is tested in integers, exactly over Q: every
    polynomial of the integer form, homogenized by d, sums to 0 at the
    numerators (see _integer_form).  Only the accepted candidate becomes
    Fractions.
    """
    attempts = 0
    polys, top = _integer_form(system)
    for residues in residue_vectors:
        for nums, d in _lift_candidates(residues, modulus, bound):
            attempts += 1
            if attempts > max_attempts:
                return None, attempts
            dpows = [d ** k for k in range(top + 1)]
            if not any(_int_value(terms, nums, dpows) for _, terms in polys):
                witness = (RingElem(rg.QQ, Fraction(n, d)) for n in nums)
                return dict(zip(system.vars, witness)), attempts
    return None, attempts


def _crt_pair(r1, p1, r2, p2):
    inv = pow(p1, p2 - 2, p2)
    return [(a + p1 * ((b - a) * inv % p2)) % (p1 * p2) for a, b in zip(r1, r2)]


def certify_expressibility(C, primes=(5, 7), caps=None,
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

    if not system.polys:
        effort["trivial"] = True
        witness = {n: rg.zero(rg.QQ) for n in system.vars}
        return SolveOutcome("witness", witness=witness, effort=effort, evidence=evidence)

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
