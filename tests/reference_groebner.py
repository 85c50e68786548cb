"""The Buchberger engine over Fractions, a test reference for polysolve's.

polysolve.buchberger runs fraction-free over Z: each polynomial it forms is
a positive integer multiple of the one this engine forms over Q, so both
keep the same primitive parts, take the same pair decisions and return the
same reduced basis, counters and cofactors.  This is the engine that
polysolve ran over Q, kept as it was for the tests to compare against; it
shares polysolve's packed monomials (_Packing), its pair criteria and its
caps, and nothing that touches a coefficient.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from trialg import polysolve
from trialg.polysolve import (
    DEFAULT_CAPS,
    SolveOutcome,
    _check_caps,
    _FieldOverflow,
    _lm,
    _Packing,
    _skip_pair,
)
from trialg.ring import RingElem

_F1 = Fraction(1)


def _make_primitive(terms, pk, rep=None):
    """Divide by the content and make the leading coefficient positive."""
    if not terms:
        return terms, rep
    num_gcd, den_lcm = 0, 1
    for c in terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    scale = Fraction(den_lcm, num_gcd)
    if terms[_lm(terms, pk)] < 0:
        scale = -scale
    terms = {m: c * scale for m, c in terms.items()}
    if rep is not None:
        rep = [{m: c * scale for m, c in r.items()} for r in rep]
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


def _normal_form(f, basis, lms, lcs, pk, rep=None, reps=None):
    """Full multivariate division remainder of f by the basis, all packed
    by ``pk``, over Q; with ``rep``/``reps`` the remainder's representation
    over the inputs is updated alongside, in place."""
    low, guard = pk.low, pk.guard
    work = dict(f)
    heap = [-(m ^ low) for m in work]
    heapq.heapify(heap)
    rem = {}
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
        q = lc_w / lcs[hit]
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
            for acc, r in zip(rep, reps[hit]):
                if r:
                    _sub_multiple(acc, q, u, r, guard)
    return rem, rep


def _s_poly(f, g, lmf, lmg, lcf, lcg, L, guard):
    """The S-polynomial of f and g over Q, or of cofactor rows carried along
    with the basis elements whose leading data is given."""
    out = {}
    _sub_multiple(out, -1 / lcf, L - lmf, f, guard)
    _sub_multiple(out, 1 / lcg, L - lmg, g, guard)
    return out


def buchberger(system, caps=None, track: bool = False) -> SolveOutcome:
    """polysolve.buchberger's contract, over Q."""
    caps = {**DEFAULT_CAPS, **(caps or {})}
    _check_caps(caps)
    bound = max([caps["max_degree"], *(_degree(p.v) for p in system.polys)])
    while True:
        try:
            return _buchberger(system, caps, track, _Packing(len(system.vars), bound))
        except _FieldOverflow:
            bound = 2 * bound + 1


def _buchberger(system, caps, track, pk):
    """buchberger on monomials packed by ``pk``."""
    max_pairs, max_degree = caps["max_pairs"], caps["max_degree"]
    polys = system.polys
    nin = len(polys)
    low, shift, guard = pk.low, pk.shift, pk.guard

    basis, lms, lcs = [], [], []
    reps = [] if track else None

    def push_basis(terms, rep):
        basis.append(terms)
        lms.append(_lm(terms, pk))
        lcs.append(terms[lms[-1]])
        if track:
            reps.append(rep)

    for j, poly in enumerate(polys):
        rep = None
        if track:
            rep = [({0: _F1} if t == j else {}) for t in range(nin)]
        terms, rep = _make_primitive(pk.pack_terms(poly.v), pk, rep)
        push_basis(terms, rep)

    formed = nin * (nin - 1) // 2
    budget_hit = formed > polysolve._MAX_TOTAL_PAIRS
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
        s_terms = _s_poly(basis[i], basis[j], lms[i], lms[j], lcs[i], lcs[j], L, guard)
        s_rep = None
        if track:
            s_rep = [
                _s_poly(reps[i][t], reps[j][t], lms[i], lms[j], lcs[i], lcs[j], L, guard)
                for t in range(nin)
            ]
        rem, s_rep = _normal_form(s_terms, basis, lms, lcs, pk, s_rep, reps)
        if not rem:
            continue
        rem, s_rep = _make_primitive(rem, pk, s_rep)
        idx = len(basis)
        push_basis(rem, s_rep)
        if lms[idx] == 0:
            break
        if formed + idx > polysolve._MAX_TOTAL_PAIRS:
            budget_hit = True
            break
        formed += idx
        for k in range(idx):
            heapq.heappush(heap, (pk.lcm(lms[k], lms[idx]) ^ low, k, idx))

    caps_hit = pairs_capped or degree_skipped > 0 or budget_hit
    red_basis, red_reps = _reduced_basis(basis, lms, lcs, reps, pk)
    certified = red_basis == [{0: _F1}]
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
    """Minimalize, fully inter-reduce and make monic; deterministic order."""
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
        rep = [dict(r) for r in reps[i]] if reps is not None else None
        oreps = [reps[k] for k in others] if reps is not None else None
        rem, rep = _normal_form(basis[i], ob, ol, oc, pk, rep, oreps)
        lc = rem[lms[i]]
        rem = {m: c / lc for m, c in rem.items()}
        if rep is not None:
            rep = [{m: c / lc for m, c in r.items()} for r in rep]
        out_terms.append(rem)
        out_reps.append(rep)
    return out_terms, out_reps if reps is not None else None


def _packed(nvars, polys, bound):
    """A _Packing for degree ``bound``, the nonzero term dicts of ``polys``
    packed by it, their leading monomials and coefficients."""
    pk = _Packing(nvars, bound)
    terms = [pk.pack_terms(p) for p in polys if p]
    lms = [_lm(t, pk) for t in terms]
    return pk, terms, lms, [t[lm] for t, lm in zip(terms, lms)]


def _degree(terms) -> int:
    return max(map(sum, terms), default=0)


def reduce_poly(f: RingElem, basis_elems) -> RingElem:
    """Normal form of f modulo a list of polynomials in the same ring, over Q."""
    polys = [b.v for b in basis_elems]
    pk, basis, lms, lcs = _packed(len(f.ring.vars), polys, max(map(_degree, [f.v, *polys])))
    rem, _ = _normal_form(pk.pack_terms(f.v), basis, lms, lcs, pk)
    return RingElem(f.ring, pk.unpack_terms(rem))
