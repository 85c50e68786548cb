"""Building n-ary algebras from binary ones.

The n-ary product generated by a binary product mu is the right-nested
composition f(x1, ..., xn) = mu(x1, mu(x2, ..., mu(x_{n-1}, xn)...)), so
C_2 = M and C_k = M with C_{k-1} nested into its second slot (the
contraction kernel msc._nest_ints, on the algebras' integer rows).  Every
dimension, 1 included, obeys one arity bound: C_n must fit the
contraction's entry budget, and n stays below that budget's bit length.
Given a target n-ary algebra C of dimension m, asking which binary M
generate it yields a system of degree n - 1 in the m^3 unknown binary
structure constants h{k}{r}{s}, one equation per structure constant of C.
"""

from __future__ import annotations

from . import msc
from . import ring as rg
from .msc import Msc

__all__ = ["generate_nary", "expressibility_residual", "symbolic_system"]


def generate_nary(M: Msc, n: int) -> Msc:
    """The n-ary algebra generated by a binary one via right-nested products."""
    if M.arity != 2:
        raise ValueError(f"generator must be binary, got arity {M.arity}")
    if n < 2:
        raise ValueError(f"target arity must be at least 2, got {n}")
    _check_arity(M.dim, n)
    raw = out = (M.rows, M.den)
    for _ in range(n - 2):
        out = msc._nest_ints(M.ring, raw, 2, 2, out)
    return Msc._of(M.ring, M.dim, n, *out)


def _check_arity(m: int, n: int) -> None:
    """Refuse an m-dimensional C_n past the contraction's entry budget."""
    # C_n has m * m^n entries (arity 2 builds nothing); n at least the
    # budget's bit length is over for every m >= 2, so that is the arity
    # bound for m = 1 too, and m^n is formed only for small n
    budget = msc._MAX_ENTRIES
    if n > 2 and (n >= budget.bit_length() or m ** (n + 1) > budget):
        raise ValueError(f"a {m}x{m}^{n} matrix exceeds {budget} entries (arity {n})")


def expressibility_residual(M: Msc, C: Msc) -> Msc:
    """Entrywise difference generate_nary(M, C.arity) - C; zero iff M generates C."""
    if M.arity != 2:
        raise ValueError(f"candidate generator must be binary, got arity {M.arity}")
    if M.dim != C.dim:
        raise ValueError(f"dimension mismatch: {M.dim} vs {C.dim}")
    if M.ring != C.ring:
        raise ValueError("generator and target must share one ring")
    return generate_nary(M, C.arity) - C


def symbolic_system(C: Msc):
    """The polynomial system whose zeros are the binary generators of C.

    C is an m-dimensional n-ary algebra with rational entries.  The system
    lives in Q[h111, ..., hmmm], the m^3 unknowns h{k}{r}{s} (the coefficient
    of e_k in mu(e_r, e_s)) ordered k, r, s, and has one polynomial of degree
    n - 1 per structure constant of C, zero polynomials dropped.  The
    polynomials are the nonzero entries of the residual generate_nary(H, n)
    - C, row by row, brought from its integer rows to PolySystem's integer
    layout (_int_poly), with no Fraction formed.

    A shape past the contraction's budgets is refused before any ring is
    built, with the kernel's message.  The work count is that of the last
    and largest contraction in _nest_ints, m^(2n+2): m^3 unknowns x the m^2
    entries of H in a row x the m^(2n-3) terms of C_(n-1) (at arity 2, m^3
    unknowns x m^3 entries).  It is exact up to arity 4 and an upper bound
    beyond, where some terms merge, yet refuses the same shapes as the
    kernel.  So m <= 8 at arity 2, 4 at arity 3, 3 at arity 4 and 2 up to
    arity 8, and each index of a name is one digit.
    """
    from .polysolve import PolySystem, _int_poly

    if C.ring.kind != "Q":
        raise ValueError("the symbolic system needs rational target entries")
    m, n = C.dim, C.arity
    _check_arity(m, n)
    if m ** (2 * n + 2) > msc._MAX_ENTRIES:
        raise msc._work_refusal(m ** 3)
    idx = range(1, m + 1)
    hring = rg.polynomial_ring([f"h{k}{r}{s}" for k in idx for r in idx for s in idx])
    rows = [[{tuple(int(v == i) for v in range(m ** 3)): 1} for i in range(k, k + m * m)]
            for k in range(0, m ** 3, m * m)]  # H's unknowns as unit monomials, in order
    residual = generate_nary(Msc._of(hring, m, 2, rows, 1), n) - msc._lift(C, hring)
    den = residual.den
    return PolySystem._of(hring, [_int_poly(d, den) for row in residual.rows for d in row if d])
