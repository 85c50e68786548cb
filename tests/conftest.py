import json
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from trialg import msc
from trialg import ring as rg
from trialg.msc import BasisChange, Matrix, Msc

# Hypothesis caches the constants it reads from source files under its home
# directory while collecting, even with no example database; keep that cache
# out of the working tree.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "trialg-hypothesis"))

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def golden_argv(argv):
    """A golden command line with its fixture files (--input, and --a or --b
    naming a .json file) resolved against tests/golden/."""
    return [str(GOLDEN / arg) if flag in ("--input", "--a", "--b") and arg.endswith(".json")
            else arg for flag, arg in zip([None, *argv], argv)]


def nest(outer, arity, slot, inner):
    """The contraction kernel msc._nest_ints on Matrix operands, as a Matrix."""
    ints = msc._nest_ints(outer.ring, msc._to_ints(outer.ring, outer.rows), arity, slot,
                          msc._to_ints(inner.ring, inner.rows))
    return msc._from_ints(outer.ring, *ints)


def rand_elem(ring, rng):
    if ring.kind == "Q":
        return rg.from_fraction(ring, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if ring.kind == "GF":
        return rg.RingElem(ring, rng.randrange(ring.p))
    terms = {}
    nvars = len(ring.vars)
    for _ in range(rng.randint(0, 4)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        coeff = Fraction(rng.randint(-5, 5))
        if coeff:
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return rg.RingElem(ring, {m: c for m, c in terms.items() if c})


def rand_matrix(ring, nrows, ncols, rng):
    return Matrix(ring, [[rand_elem(ring, rng) for _ in range(ncols)] for _ in range(nrows)])


def rand_msc(ring, dim, arity, rng):
    return Msc(dim, arity, rand_matrix(ring, dim, dim ** arity, rng))


def rand_vector(ring, dim, rng):
    return tuple(rand_elem(ring, rng) for _ in range(dim))


def rand_basis_change(ring, dim, rng):
    while True:
        mat = rand_matrix(ring, dim, dim, rng)
        try:
            return BasisChange(mat)
        except ValueError:
            continue


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def gf5():
    return rg.prime_field(5)


@pytest.fixture
def gf3():
    return rg.prime_field(3)
