"""Building n-ary algebras from binary ones.

The n-ary product generated by a binary product mu is the right-nested
composition f(x1, ..., xn) = mu(x1, mu(x2, ..., mu(x_{n-1}, xn)...)), so
C_2 = M and C_k = M with C_{k-1} nested into its second slot (the
contraction kernel msc._nest_ints); the C_k stay integer rows (over Q,
numerators over den(M)^(k-1)) until the last step.  Every dimension, 1
included, obeys one arity bound: C_n must fit the contraction's entry
budget, and n stays below that budget's bit length.
Given a target ternary algebra C, asking which binary M generate it yields
a quadratic system in the m^3 unknown binary structure constants; for
dimension 2 that is 16 equations in the 8 unknowns h{k}{r}{s}.
"""

from __future__ import annotations

from . import msc
from . import ring as rg
from .msc import Matrix, Msc

__all__ = [
    "generate_nary",
    "expressibility_residual",
    "symbolic_system",
    "EXPRESSIBILITY_VARS",
]

# Unknown h{k}{r}{s} is the coefficient of e_k in mu(e_r, e_s), ordered k, r, s.
EXPRESSIBILITY_VARS = tuple(
    f"h{k}{r}{s}" for k in (1, 2) for r in (1, 2) for s in (1, 2)
)


def generate_nary(M: Msc, n: int) -> Msc:
    """The n-ary algebra generated by a binary one via right-nested products."""
    if M.arity != 2:
        raise ValueError(f"generator must be binary, got arity {M.arity}")
    if n < 2:
        raise ValueError(f"target arity must be at least 2, got {n}")
    # C_n has m * m^n entries (arity 2 builds nothing); n at least the
    # budget's bit length is over for every m >= 2, so that is the arity
    # bound for m = 1 too, and m^n is formed only for small n
    m, budget = M.dim, msc._MAX_ENTRIES
    if n > 2 and (n >= budget.bit_length() or m ** (n + 1) > budget):
        raise ValueError(f"a {m}x{m}^{n} matrix exceeds {budget} entries")
    ring, raw = M.ring, msc._to_ints(M.mat)
    out = raw
    for _ in range(n - 2):
        out = msc._nest_ints(ring, raw, 2, 2, out)
    return Msc(M.dim, n, msc._from_ints(ring, *out))


def expressibility_residual(M: Msc, C: Msc) -> Matrix:
    """Entrywise difference generate_nary(M, 3) - C; zero iff M generates C."""
    if M.arity != 2:
        raise ValueError(f"candidate generator must be binary, got arity {M.arity}")
    if C.arity != 3:
        raise ValueError(f"target must be ternary, got arity {C.arity}")
    if M.dim != C.dim:
        raise ValueError(f"dimension mismatch: {M.dim} vs {C.dim}")
    if M.ring != C.ring:
        raise ValueError("generator and target must share one ring")
    return generate_nary(M, 3).mat - C.mat


def symbolic_system(C: Msc):
    """The quadratic system whose zeros are the binary generators of C.

    C must be a ternary algebra of dimension 2 with rational entries.  The
    returned system lives in Q[h111, ..., h222] and has one polynomial per
    structure constant of C (16 equations, zero polynomials dropped).
    """
    from .polysolve import PolySystem

    if C.arity != 3:
        raise ValueError(f"target must be ternary, got arity {C.arity}")
    if C.dim != 2:
        raise ValueError("the symbolic system is only built for dimension 2")
    if C.ring.kind != "Q":
        raise ValueError("the symbolic system needs rational target entries")
    hring = rg.polynomial_ring(EXPRESSIBILITY_VARS)
    rows = [
        [rg.variable(hring, f"h{k}{r}{s}") for r in (1, 2) for s in (1, 2)]
        for k in (1, 2)
    ]
    H = Msc(2, 2, Matrix(hring, rows))
    target = C.mat.map_entries(lambda x: rg.lift_rational(x, hring), hring)
    residual = generate_nary(H, 3).mat - target
    polys = [x for row in residual.rows for x in row if not x.is_zero()]
    return PolySystem(hring, polys)
