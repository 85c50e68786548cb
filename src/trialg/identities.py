"""Associativity checkers.

A ternary algebra A is totally associative when the three ways of nesting
two products agree on all quintuples,

    A(A(u, v, w), x, y) = A(u, A(v, w, x), y) = A(u, v, A(w, x, y)),

each side being A nested into slot 1, 2 or 3 of A (the contraction kernel
msc._nest_ints), an m x m^5 matrix; the binary analogue compares M(M(u, v), w)
with M(u, M(v, w)).  The sides and the residuals between them are algebras
of arity 2n - 1 on integer rows (total_assoc_residuals,
binary_assoc_residual); reports and is_totally_associative read the
verdict, the first violating tuple and the nonzero entries off those
integers, and parameter scans treat the residuals' entries as polynomials
in the family parameters.  The eval_product oracles are test references.
"""

from __future__ import annotations

from itertools import combinations, product as iter_product

from . import msc
from .msc import Msc, basis_vector, column_tuple, eval_product

__all__ = [
    "total_assoc_residuals",
    "is_totally_associative",
    "quintuple_oracle",
    "binary_assoc_residual",
    "binary_triple_oracle",
    "AssocReport",
    "assoc_report",
]


def _residuals(A: Msc) -> tuple:
    """A nested into each slot, sides subtracted pairwise in slot order:
    algebras of arity 2n - 1."""
    ring, raw = A.ring, (A.rows, A.den)
    # every side has the denominator den(A)^2, so their numerators subtract
    sides = [msc._nest_ints(ring, raw, A.arity, slot, raw) for slot in range(1, A.arity + 1)]
    return tuple(Msc._of(ring, A.dim, 2 * A.arity - 1, *msc._difference(ring, x, y))
                 for x, y in combinations(sides, 2))


def total_assoc_residuals(A: Msc) -> tuple:
    """The three total-associativity residuals, algebras of arity 5 (each
    matrix m x m^5)."""
    if A.arity != 3:
        raise ValueError(f"total associativity is defined for arity 3, got {A.arity}")
    return _residuals(A)


def is_totally_associative(A: Msc) -> bool:
    return all(R.is_zero() for R in total_assoc_residuals(A))


def quintuple_oracle(A: Msc):
    """Check total associativity by expanding all basis quintuples.

    Uses eval_product only, so it is independent of the residual matrices.
    Returns (True, None) or (False, first violating 1-based quintuple).
    """
    if A.arity != 3:
        raise ValueError(f"quintuple oracle is defined for arity 3, got {A.arity}")
    if A.ring.kind == "poly":
        raise ValueError("quintuple oracle needs field scalars; it is enumerative")
    basis = [basis_vector(A.ring, A.dim, i) for i in range(1, A.dim + 1)]
    for tup in iter_product(range(A.dim), repeat=5):
        u, v, w, x, y = (basis[i] for i in tup)
        left = eval_product(A, (eval_product(A, (u, v, w)), x, y))
        mid = eval_product(A, (u, eval_product(A, (v, w, x)), y))
        right = eval_product(A, (u, v, eval_product(A, (w, x, y))))
        if left != mid or left != right:
            return False, tuple(i + 1 for i in tup)
    return True, None


def binary_assoc_residual(M: Msc) -> Msc:
    """M(M(u, v), w) - M(u, M(v, w)), an algebra of arity 3; zero iff M is
    associative."""
    if M.arity != 2:
        raise ValueError(f"binary associativity is defined for arity 2, got {M.arity}")
    return _residuals(M)[0]


def binary_triple_oracle(M: Msc):
    """Basis-triple associativity witness search for a binary algebra."""
    if M.arity != 2:
        raise ValueError(f"expected a binary algebra, got arity {M.arity}")
    if M.ring.kind == "poly":
        raise ValueError("the triple oracle needs field scalars")
    basis = [basis_vector(M.ring, M.dim, i) for i in range(1, M.dim + 1)]
    for tup in iter_product(range(M.dim), repeat=3):
        u, v, w = (basis[i] for i in tup)
        left = eval_product(M, (eval_product(M, (u, v)), w))
        right = eval_product(M, (u, eval_product(M, (v, w))))
        if left != right:
            return False, tuple(i + 1 for i in tup)
    return True, None


class AssocReport:
    """Residuals plus verdict for one algebra (ternary or binary); the
    report reads the residuals' integers."""

    __slots__ = ("ring", "residuals", "verdict", "violating_tuple")

    def __init__(self, ring, residuals, verdict, violating_tuple=None):
        self.ring = ring
        self.residuals = residuals
        self.verdict = verdict
        self.violating_tuple = violating_tuple

    def to_doc(self) -> dict:
        labels = ("a", "b", "c") if len(self.residuals) == 3 else ("binary",)
        nonzeros = []
        for label, R in zip(labels, self.residuals):
            found = [(i, j, x) for i, row in enumerate(R.rows) for j, x in enumerate(row) if x]
            texts = msc._texts(self.ring, [x for _, _, x in found], R.den)
            nonzeros += [{"which": label, "row": i + 1, "col": j + 1, "value": text}
                         for (i, j, _), text in zip(found, texts)]
        return {
            "verdict": self.verdict,
            "residual_nonzeros": nonzeros,
            "violating_tuple": list(self.violating_tuple) if self.violating_tuple else None,
        }


def assoc_report(A: Msc) -> AssocReport:
    """Run the appropriate associativity check for a binary or ternary algebra.

    Column j of a residual is the basis tuple column_tuple(m, 2n - 1, j); the
    sides differ exactly where residual a or b is nonzero, as c = b - a."""
    if A.arity not in (2, 3):
        raise ValueError(f"associativity reports cover arity 2 and 3, got {A.arity}")
    residuals = total_assoc_residuals(A) if A.arity == 3 else (binary_assoc_residual(A),)
    verdict = all(R.is_zero() for R in residuals)
    tup = None
    if not verdict and A.ring.kind != "poly":
        col = min(j for R in residuals[:2] for row in R.rows
                  for j, x in enumerate(row) if x)
        tup = column_tuple(A.dim, 2 * A.arity - 1, col)
    return AssocReport(A.ring, residuals, verdict, tup)
