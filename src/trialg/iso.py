"""Isomorphism checking and search for algebras given by structure constants.

Two algebras A, B of the same dimension and arity are isomorphic exactly
when B = g . A . (g^-1)^(tensor n) for some invertible g.  Over a prime
field the whole of GL(m, GF(p)) can be enumerated, which decides the
question there; an empty search is evidence (never proof) about fields of
characteristic zero.

Before it enumerates anything the search screens A and B with GL(m, GF(p))
invariants of their residues mod p (_invariants): the rank of the
structure matrix and, per argument slot, the rank of the trace contraction
of that slot with the output.  The screen is lazy: it compares them one
at a time in that order and stops at the first pair that differs, which
proves that no g over GF(p) exists, so the search returns no witness at
once; like an empty scan, that is decisive mod p only.  Equal invariants
decide nothing, and the scan below runs as before.  An algebra's residues
and the invariants computed so far are its _Screen; inside _screens_kept,
which claims_verify opens for one replay, each algebra object is screened
once per prime and reused by all its searches (Cstar's 54 among them).
Outside it every search screens afresh, and nothing outlives the block.

The search writes the equivalent identity B . g^(tensor n) = g . A, together
with t . det(g) = 1 for invertibility, as one PolySystem over Q[g11, ...,
gmm, t], and hands it to polysolve's sweep core, the one path that sweeps
take too.  A and B are reduced mod p once (Msc.reduce_mod, in the screen):
the witnesses are verified on those GF(p) algebras, and their residue rows
serve the invariants and the system.  The system is expanded straight
from them: each entry of B . g^(tensor n) is a sum of products of entries
of g, collected by monomial in plain ints, and det(g) is the permutation
expansion.  Fed integer numerators instead, the same builder poses the
system over Q, for Buchberger and the rational lift.  An algebra whose
expansion would form more than msc's _MAX_ENTRIES products, or whose arity
reaches that budget's bit length (19), is refused before anything is
built; past that the core's row budget (polysolve's _MAX_TOTAL_ROWS) is
the only limit, so no input runs without end.  Candidates g come out in
row-major lexicographic order of their entries over 0..p-1, so results are
reproducible bit for bit.  Each witness, those residues held as integer
rows (BasisChange._of), is re-checked by the core's scalar path, verified
exactly (iso_verify) and returned as that BasisChange.  Like a sweep, a
search keeps at most polysolve's _MAX_WITNESSES witnesses.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import warnings
from collections import Counter
from itertools import permutations
from itertools import product as iter_product

from . import msc, polysolve
from . import ring as rg
from .msc import BasisChange, Msc, transform
from .polysolve import PolySystem, _check_modulus, _sweep

__all__ = ["iso_verify", "iso_search", "iso_report", "DEFAULT_EVIDENCE_PRIMES"]

# avoids the excluded characteristics 2 and 3; keeps 2x2 searches instant
DEFAULT_EVIDENCE_PRIMES = (5, 7, 11)


def iso_verify(A: Msc, B: Msc, g: BasisChange) -> bool:
    """True iff transform(A, g) equals B entrywise."""
    if A.dim != B.dim or A.arity != B.arity:
        raise ValueError("algebras must share dimension and arity")
    if A.ring != B.ring:
        raise ValueError("algebras must share one ring")
    return transform(A, g) == B


def _rank_mod_p(rows, p: int) -> int:
    """The rank over GF(p) of a matrix of residues, by row reduction."""
    rows = [list(row) for row in rows]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next((c for c, x in enumerate(pivot) if x), None)
        if col is None:
            continue
        rank += 1
        scale = pow(pivot[col], -1, p)
        for r, row in enumerate(rows):
            f = row[col] * scale % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(row, pivot)]
    return rank


@functools.lru_cache(maxsize=4)
def _contractions(m: int, n: int):
    """Per argument slot s, the columns of the structure matrix that the
    trace contraction C_s sums: C_s[o] = sum over k of A[k, o with k
    inserted at slot s], o running over the (n - 1)-tuples.  Each slot's
    entry is C_s's matrix, o's first index against the rest, holding for
    each o the column of every k in order.  They depend on the shape
    alone, so they serve every algebra of it."""
    inner = m ** (n - 2)
    slots = []
    for s in range(n):
        after = m ** (n - 1 - s)  # o's indices after slot s, as one number
        flat = [tuple((head * m + k) * after + tail for k in range(m))
                for head, tail in (divmod(o, after) for o in range(m ** (n - 1)))]
        slots.append(tuple(tuple(flat[i:i + inner]) for i in range(0, len(flat), inner)))
    return tuple(slots)


def _invariant(a, m: int, n: int, p: int, i: int) -> int:
    """Invariant i of _invariants for the residue rows a mod p: the
    structure rank for i = 0, slot i - 1's trace-contraction rank after."""
    if i == 0:
        return _rank_mod_p(a, p)
    return _rank_mod_p(
        [[sum(row[c] for row, c in zip(a, cols)) % p for cols in line]
         for line in _contractions(m, n)[i - 1]], p)


def _invariants(a, m: int, n: int, p: int):
    """GL(m, GF(p)) invariants of the algebra with residue rows a mod p.

    The rank of the m x m^n structure matrix, then for each slot s the rank
    of the trace contraction C_s[o] = sum over k of A[k, o with k inserted
    at slot s], o running over the (n - 1)-tuples, flattened as o's first
    index against the rest (for n = 2 the linear form tr L_x or tr R_x).
    Both are invariant: B = g . A . (g^-1)^(tensor n) gives the structure
    matrix invertible factors on both sides, and in C_s(B) the output's g
    cancels against slot s's g^-1 in the trace, so
    C_s(B) = C_s(A) . (g^-1)^(tensor (n - 1)), invertible on each index.
    """
    return tuple(_invariant(a, m, n, p, i) for i in range(n + 1))


class _Screen:
    """An algebra's residues mod p (the GF(p) algebra) and its invariants,
    each computed when first asked for and then kept."""

    __slots__ = ("algebra", "_known")

    def __init__(self, A: Msc, p: int):
        self.algebra = A.reduce_mod(p)
        self._known = []

    def invariant(self, i: int) -> int:
        known, A = self._known, self.algebra
        while len(known) <= i:
            known.append(_invariant(A.rows, A.dim, A.arity, A.ring.p, len(known)))
        return known[i]

    def separates(self, other: "_Screen") -> bool:
        """True iff an invariant differs, found by comparing them in order
        and stopping at the first pair that differs."""
        return any(self.invariant(i) != other.invariant(i)
                   for i in range(self.algebra.arity + 1))


# (id(A), p) -> (A, its _Screen) while _screens_kept is open; A is held so
# that its id stays its own while the memo lives
_SCREENS: contextvars.ContextVar = contextvars.ContextVar("iso_screens", default=None)


@contextlib.contextmanager
def _screens_kept():
    """Within the block, iso_search screens each algebra object once per
    prime: its residues and the invariants computed so far are reused by
    every later search of it.  They are dropped when the block ends."""
    token = _SCREENS.set({})
    try:
        yield
    finally:
        _SCREENS.reset(token)


def _screen(A: Msc, p: int) -> _Screen:
    """A's _Screen at p: the kept one inside _screens_kept, else a new one."""
    memo = _SCREENS.get()
    if memo is None:
        return _Screen(A, p)
    kept = memo.get((id(A), p))
    if kept is None:
        kept = memo[id(A), p] = (A, _Screen(A, p))
    return kept[1]


@functools.lru_cache(maxsize=4)
def _expansion(m: int, n: int):
    """The ring Q[g11, ..., gmm, t] of the shape's system, and per column I
    of B . g^(tensor n) the monomial g[j1, i1] ... g[jn, in] that each
    column J of B contributes, as (variable, exponent) pairs.  Both depend
    on the shape alone, so they serve every search of it."""
    idx = range(1, m + 1)
    ring = rg.polynomial_ring([f"g{r}{c}" for r in idx for c in idx] + ["t"])
    cols = list(iter_product(range(m), repeat=n))
    return ring, tuple(
        tuple(tuple(sorted(Counter(j * m + i for j, i in zip(J, I)).items())) for J in cols)
        for I in cols
    )


def _iso_polys(a, b, m: int, n: int) -> PolySystem:
    """B . g^(tensor n) - g . A and t . det(g) - 1 for the integer rows a, b,
    as a PolySystem over Q[g11, ..., gmm, t] with L = 1.

    Variable r * m + c is g's entry (r, c) and m * m is t.  Entry (k, I) of
    B . g^(tensor n) is the sum over B's columns J of B[k, J] . g[j1, i1]
    ... g[jn, in], of degree n; the terms of g . A are linear (n >= 2, so
    the two never share a monomial).  The polynomials come in row-major
    order of (k, I), then the determinant equation; zero coefficients and
    polynomials that cancel are left out.  It never reduces to a nonzero
    constant mod p.
    """
    ring, expansion = _expansion(m, n)
    polys = []
    for k, brow in enumerate(b):
        terms = [(J, c) for J, c in enumerate(brow) if c]
        linear = [((k * m + l, 1),) for l in range(m)]
        for I, monomials in enumerate(expansion):
            high = {}
            for J, c in terms:
                mono = monomials[J]
                high[mono] = high.get(mono, 0) + c
            poly = [(c, mono, n) for mono, c in high.items() if c]
            poly += [(-arow[I], mono, 1) for mono, arow in zip(linear, a) if arow[I]]
            if poly:
                polys.append((1, tuple(poly)))
    unit = [(-1, (), 0)]
    for perm in permutations(range(m)):
        inversions = sum(x > y for s, x in enumerate(perm) for y in perm[s + 1:])
        mono = tuple((r * m + c, 1) for r, c in enumerate(perm)) + ((m * m, 1),)
        unit.append((-1 if inversions % 2 else 1, mono, m + 1))
    polys.append((1, tuple(unit)))
    return PolySystem._of(ring, polys)


def iso_search(A: Msc, B: Msc, p: int, find_all: bool = True):
    """Enumerate GL(m, GF(p)) for basis changes carrying A to B.

    A and B may have rational entries (reduced mod p; p must not divide a
    denominator) or already live over GF(p).  Returns the witnesses, the
    BasisChanges g over GF(p) that iso_verify finds carrying A mod p to
    B mod p, in enumeration order: the first polysolve._MAX_WITNESSES of
    them, or just the first when find_all is False.  An empty result means
    that there is no isomorphism over GF(p): either an invariant of
    _invariants differs between A and B, which proves it without a scan, or
    an exhaustive scan found none.  The invariants are compared in order
    and computed only up to the first that differs; inside _screens_kept
    an algebra's residues and invariants come from its earlier searches.
    """
    if A.dim != B.dim or A.arity != B.arity:
        raise ValueError("algebras must share dimension and arity")
    gf = rg.prime_field(p)
    if p in (2, 3):
        warnings.warn(
            f"isomorphism evidence over GF({p}) is weak: characteristics 2 and 3 "
            "sit outside the intended evidence range",
            RuntimeWarning,
            stacklevel=2,
        )
    m, n = A.dim, A.arity
    # dense expansion: m^(n+1) entries, each a sum over m^n columns, and
    # det(g)'s m! terms.  An arity at least the budget's bit length is over
    # it from m = 2 on, and is refused at m = 1 too, where each of the two
    # products still has n factors; m^(2n+1) is formed only below that.
    budget = msc._MAX_ENTRIES
    if n >= budget.bit_length():
        raise ValueError(
            f"isomorphism search of a dimension-{m} algebra refuses arity {n}: "
            f"arities below {budget.bit_length()} are allowed"
        )
    size = m ** (2 * n + 1) + math.factorial(m)
    if size > budget:
        raise ValueError(
            f"the isomorphism system of a dimension-{m} arity-{n} algebra expands "
            f"{size} products, more than {budget}"
        )
    # refused before the screen, so that whether p is accepted never
    # depends on the pair
    _check_modulus(p)
    screen_a, screen_b = _screen(A, p), _screen(B, p)
    if screen_a.separates(screen_b):
        return []
    Ap, Bp = screen_a.algebra, screen_b.algebra
    hits = _sweep(_iso_polys(Ap.rows, Bp.rows, m, n), p,
                  polysolve._MAX_WITNESSES if find_all else 1)
    witnesses = []
    for values in hits:
        g = BasisChange._of(gf, [list(values[r * m:(r + 1) * m]) for r in range(m)])
        if not iso_verify(Ap, Bp, g):
            raise RuntimeError("search produced a candidate the exact check rejects")
        witnesses.append(g)
    return witnesses


def iso_report(A: Msc, B: Msc, p: int, find_all: bool = False) -> dict:
    """JSON-ready summary of one search, not exhaustive when it stopped at
    a witness cap (1, or polysolve._MAX_WITNESSES with find_all)."""
    witnesses = iso_search(A, B, p, find_all=find_all)
    exhaustive = not witnesses or (find_all and len(witnesses) < polysolve._MAX_WITNESSES)
    return {
        "prime": p,
        "witness_count": len(witnesses),
        "witnesses": [g.to_strings() for g in witnesses],
        "exhaustive": exhaustive,
    }
