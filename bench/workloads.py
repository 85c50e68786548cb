"""Seeded inputs and oracles for the four benchmark workloads.

``build(name, seed, workdir)`` writes every algebra the workload needs as
an msc JSON file under ``workdir`` and returns the op list: one CLI argv
per op plus what the answer must be, known by construction.  The program
only ever sees those files and argv.  ``failures(ops, passes)`` checks
every executed op against its expectation.

Workloads (see README.md for why each exists):

* ``replay``  -- ``paper-replay`` with its defaults; ignores the seed.
* ``express`` -- ``express`` on Cstar, Cdagger, two positives that lift at
  5 and one op whose kind (lift at 7, CRT lift, GF(p) witness, or a
  perturbed negative) the seed picks.
* ``iso``     -- ``iso`` with and without ``--all`` on dimension-2 pairs at
  p = 13, 17 and dimension-3 pairs at p = 3.  Runnable by hand; not listed
  in BENCHMARK.json, because its run-to-run spread exceeded the bound.
* ``tensor``  -- ``assoc`` at dimension 3, ``generate`` at arity 3-5 on a
  dimension-4 algebra and ``totassoc-scan`` of B1, B2 and B4 on a seeded grid.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path

from trialg import ring as rg
from trialg.catalog import FAMILIES, catalog_get
from trialg.generate import expressibility_residual, generate_nary
from trialg.identities import quintuple_oracle
from trialg.msc import (
    BasisChange, Matrix, Msc, basis_vector, column_tuple, eval_product,
    msc_from_doc, msc_to_doc, transform,
)

WORKLOADS = ("replay", "express", "iso", "tensor")

REPLAY_CLAIMS = 24
REPLAY_DOCUMENTED = frozenset(
    ["table1:A1", "table1:A7", "table1:A8", "table1:A11", "totassoc:display"]
)

# express: the largest |entry| of a positive's binary generator decides
# which lift succeeds -- at 5, at 7, by CRT over 35, or none (a GF(p)
# witness).  Each class forces one entry of magnitude at least ``floor`` so
# a cheaper lift cannot succeed.  (label, floor, bound)
EXPRESS_LIFT5 = ("lift5", 0, 2)
# Every op of these kinds sweeps all 7^8 assignments mod 7 and costs about
# the same, so one per run, chosen by the seed, keeps a pass short while
# consecutive seeds cover every path; "negative" is a perturbed positive.
EXPRESS_SLOW = (("lift7", 3, 3), ("crt35", 8, 17), ("gf", 18, 40), ("negative", 0, 3))

# iso pairs as (dim, arity, prime, positive); every pair runs with and
# without --all.  Every op stays under about 0.4 s (see README.md).
ISO_PAIRS = (
    (2, 2, 17, True),
    (2, 3, 13, False),
    (3, 2, 3, False),
    (3, 3, 3, True),
)

# tensor: assoc on totally associative positives and random algebras
TENSOR_DIM = 3
TENSOR_POSITIVES = 3
TENSOR_RANDOM = 2
TENSOR_GENERATE_DIM = 4
TENSOR_GENERATE_ARITIES = (3, 4, 5)
TENSOR_SCAN_FAMILIES = ("B1", "B2", "B4")
# Grid values that hit B2/B4 points, plus seeded extras up to 10 values.
TENSOR_GRID_FIXED = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 2))
TENSOR_GRID_SIZE = 10
TENSOR_MISS_SAMPLE = 4


def _q(n) -> rg.RingElem:
    return rg.from_fraction(rg.QQ, Fraction(n))


def _int_msc(rnd, dim, arity, bound, floor=0, nonzero=False) -> Msc:
    """Random integer entries in [-bound, bound], all nonzero if asked;
    one entry has |x| >= floor."""
    values = [x for x in range(-bound, bound + 1) if x or not nonzero]
    rows = [[rnd.choice(values) for _ in range(dim ** arity)] for _ in range(dim)]
    if floor:
        r, c = rnd.randrange(dim), rnd.randrange(dim ** arity)
        rows[r][c] = rnd.choice((-1, 1)) * rnd.randint(floor, bound)
    return Msc(dim, arity, Matrix(rg.QQ, [[_q(x) for x in row] for row in rows]))


def _write(workdir: Path, name: str, A: Msc) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(msc_to_doc(A)), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_replay(rnd, seed, workdir):
    return [{"kind": "replay", "argv": ["paper-replay"]}]


def _build_express(rnd, seed, workdir):
    ops = []
    for name in ("Cstar", "Cdagger"):
        path = _write(workdir, name, catalog_get(name))
        ops.append({"kind": "express", "expect": "inexpressible" if name == "Cstar"
                    else "expressible", "argv": ["express", "--input", path]})
    for i, (label, floor, bound) in enumerate(
            [EXPRESS_LIFT5, EXPRESS_LIFT5, EXPRESS_SLOW[seed % len(EXPRESS_SLOW)]]):
        C = generate_nary(_int_msc(rnd, 2, 2, bound, floor), 3)
        expect = "expressible"
        if label == "negative":
            rows = [list(row) for row in C.mat.rows]
            r, c = rnd.randrange(2), rnd.randrange(8)
            rows[r][c] = rows[r][c] + _q(rnd.choice((-2, -1, 1, 2)))
            C = Msc(2, 3, Matrix(rg.QQ, rows))
            expect = "either"
        path = _write(workdir, f"{label}-{i}", C)
        ops.append({"kind": "express", "expect": expect, "argv": ["express", "--input", path]})
    return ops


def _random_gl(rnd, dim, p, lead=()):
    """A random invertible g over GF(p) whose first row starts with ``lead``."""
    gf = rg.prime_field(p)
    while True:
        rows = [[rnd.randrange(p) for _ in range(dim)] for _ in range(dim)]
        rows[0][:len(lead)] = lead
        try:
            g = BasisChange(Matrix(gf, [[rg.RingElem(gf, x) for x in row] for row in rows]))
        except ValueError:
            continue
        return g, rows


def _rank_mod(A: Msc, p: int) -> int:
    rows = [[x.v % p for x in row] for row in A.reduce_mod(p).mat.rows]
    rank, ncols = 0, len(rows[0])
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _full_rank(rnd, dim, arity, p) -> Msc:
    while True:
        A = _int_msc(rnd, dim, arity, 5)
        if _rank_mod(A, p) == dim:
            return A


def _rank_deficient(rnd, dim, arity, p) -> Msc:
    """Last row a combination of the others mod p, and not the zero algebra."""
    while True:
        base = _int_msc(rnd, dim, arity, 5)
        rows = [list(row) for row in base.mat.rows[:-1]]
        coeffs = [rnd.randint(-2, 2) for _ in rows]
        last = [_q(0)] * len(rows[0])
        for c, row in zip(coeffs, rows):
            last = [x + _q(c) * y for x, y in zip(last, row)]
        A = Msc(dim, arity, Matrix(rg.QQ, rows + [last]))
        if 0 < _rank_mod(A, p) < dim:
            return A


def _iso_ops(rnd, workdir, tag, dim, arity, p, positive):
    """The pair's first-witness op, then its --all op."""
    A = _full_rank(rnd, dim, arity, p)
    if positive:
        # The first-witness search stops at the first witness in row-major
        # order.  For a random A the witnesses are c.g with c^(arity-1) = 1:
        # g alone for arity 2, and g, -g for arity 3.  Fixing the leading
        # entries of g puts the first witness in the last 1/p of the order
        # (arity 2) or in [(2p-1)/p^2, 2/p) (arity 3), so that op's cost
        # does not depend on the seed.
        lead = (p - 1,) if arity == 2 else (1, p - 1)
        g, g_rows = _random_gl(rnd, dim, p, lead)
        B = transform(A.reduce_mod(p), g)
        expect = {"positive": True, "g": [[str(x) for x in row] for row in g_rows]}
    else:
        B = _rank_deficient(rnd, dim, arity, p)
        expect = {"positive": False}
    a, b = _write(workdir, f"{tag}-a", A), _write(workdir, f"{tag}-b", B)
    return [
        {"kind": "iso", "expect": dict(expect, all=find_all),
         "argv": ["iso", "--a", a, "--b", b, "--prime", str(p)]
                 + (["--all"] if find_all else [])}
        for find_all in (False, True)
    ]


def _build_iso(rnd, seed, workdir):
    ops = []
    for i, (dim, arity, p, positive) in enumerate(ISO_PAIRS):
        pair = _iso_ops(rnd, workdir, f"pair{i}", dim, arity, p, positive)
        pair[1]["expect"]["first_op"] = len(ops)
        ops += pair
    return ops


def _group_algebra(dim) -> Msc:
    """Q[Z/dim]: e_r e_s = e_{r+s mod dim}; associative and commutative."""
    rows = [[_q(1 if (r + s) % dim == k else 0) for r in range(dim) for s in range(dim)]
            for k in range(dim)]
    return Msc(dim, 2, Matrix(rg.QQ, rows))


def _det2_basis_change(rnd, dim) -> BasisChange:
    """U . diag(2, 1, ..., 1) . L with unipotent U, L whose off-diagonal
    entries are random signs: always det 2 and dense, so every positive
    carries rationals of the same kind (denominators 2^k) and similar cost."""
    upper = [[_q(1 if i == j else (rnd.choice((-1, 1)) if j > i else 0))
              for j in range(dim)] for i in range(dim)]
    lower = [[_q(1 if i == j else (rnd.choice((-1, 1)) if j < i else 0))
              for j in range(dim)] for i in range(dim)]
    diag = [[_q(2 if i == j == 0 else int(i == j)) for j in range(dim)] for i in range(dim)]
    return BasisChange(Matrix(rg.QQ, upper) * Matrix(rg.QQ, diag) * Matrix(rg.QQ, lower))


def _scan_grid(rnd):
    pool = sorted({Fraction(n, d) for n in range(-3, 4) for d in range(1, 5)}
                  - set(TENSOR_GRID_FIXED))
    return list(TENSOR_GRID_FIXED) + rnd.sample(pool, TENSOR_GRID_SIZE - len(TENSOR_GRID_FIXED))


def _build_tensor(rnd, seed, workdir):
    ops = []
    # Matrix products skip zero entries, so every tensor input is dense:
    # that keeps an op's cost the same from seed to seed.
    for i in range(TENSOR_POSITIVES):
        while True:
            M = transform(_group_algebra(TENSOR_DIM), _det2_basis_change(rnd, TENSOR_DIM))
            C = generate_nary(M, 3)
            if not any(x.is_zero() for row in C.mat.rows for x in row):
                break
        path = _write(workdir, f"assoc-pos{i}", C)
        ops.append({"kind": "assoc", "expect": True, "argv": ["assoc", "--input", path]})
    for i in range(TENSOR_RANDOM):
        path = _write(workdir, f"assoc-rand{i}", _int_msc(rnd, TENSOR_DIM, 3, 3, nonzero=True))
        ops.append({"kind": "assoc", "expect": False, "argv": ["assoc", "--input", path]})
    M = _int_msc(rnd, TENSOR_GENERATE_DIM, 2, 3, nonzero=True)
    path = _write(workdir, "generator", M)
    for n in TENSOR_GENERATE_ARITIES:
        ops.append({"kind": "generate", "expect": {"input": path},
                    "argv": ["generate", "--input", path, "--arity", str(n)]})
    grid = _scan_grid(rnd)
    text = ",".join(str(x) for x in grid)
    for family in TENSOR_SCAN_FAMILIES:
        entry = FAMILIES[family]
        points = list(iter_product(grid, repeat=len(entry.params)))
        sample = [[str(x) for x in pt] for pt in rnd.sample(points, 4 * TENSOR_MISS_SAMPLE)]
        ops.append({"kind": "scan", "expect": {"family": family, "sample": sample},
                    "argv": ["totassoc-scan", "--family", family, f"--grid={text}"]})
    return ops


_BUILDERS = {
    "replay": _build_replay,
    "express": _build_express,
    "iso": _build_iso,
    "tensor": _build_tensor,
}


def build(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs under workdir and return its manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    rnd = random.Random(f"{name}:{seed}")
    ops = _BUILDERS[name](rnd, seed, workdir)
    for i, op in enumerate(ops):
        op["id"] = i
    manifest = {"workload": name, "seed": seed, "ops": ops}
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# oracles: each returns None when the op's answer is right, else a reason
# ---------------------------------------------------------------------------

def _load(path) -> Msc:
    with open(path, "r", encoding="utf-8") as fh:
        return msc_from_doc(json.load(fh))


def _check_replay(op, code, doc, outputs):
    if code != 0:
        return f"exit {code}, expected 0"
    summary, claims = doc["summary"], doc["claims"]
    if not summary.get("clean"):
        return "summary is not clean"
    if len(claims) != REPLAY_CLAIMS:
        return f"{len(claims)} claims, expected {REPLAY_CLAIMS}"
    failing = {c["id"] for c in claims if c["status"] != "pass"}
    if failing != REPLAY_DOCUMENTED:
        return f"failing claims {sorted(failing)}"
    undocumented = sorted(c["id"] for c in claims
                          if c["status"] != "pass" and c.get("documented") is not True)
    if undocumented:
        return f"undocumented failures {undocumented}"
    return None


def _witness_generator(witness: dict, ring) -> Msc:
    """The binary algebra whose h{k}{r}{s} is the coefficient of e_k in e_r e_s."""
    rows = [[rg.parse_scalar(witness[f"h{k}{r}{s}"], ring) for r in (1, 2) for s in (1, 2)]
            for k in (1, 2)]
    return Msc(2, 2, Matrix(ring, rows))


def _witness_error(doc, target: Msc):
    witness = doc.get("witness")
    if doc.get("status") != "witness" or not witness:
        return f"status {doc.get('status')!r} without a witness"
    if doc.get("prime") is None:
        ring, C = rg.QQ, target
    else:
        ring, C = rg.prime_field(doc["prime"]), target.reduce_mod(doc["prime"])
    if not expressibility_residual(_witness_generator(witness, ring), C).is_zero():
        return "witness does not zero the system"
    return None


def _check_express(op, code, doc, outputs):
    expect = op["expect"]
    if expect == "inexpressible":
        return None if code == 1 else f"exit {code}, expected 1"
    if code == 0:
        return _witness_error(doc, _load(op["argv"][2]))
    if expect == "expressible":
        return f"exit {code}, expected 0"
    if code != 1:
        return f"exit {code}, expected 0 or 1"
    if doc.get("status") == "certified_empty_over_closure" and doc.get("basis") != ["1"]:
        return f"certified empty with basis {doc.get('basis')}"
    return None


def _check_iso(op, code, doc, outputs):
    expect = op["expect"]
    if not expect["positive"]:
        if code != 1 or doc["witness_count"] != 0 or doc["exhaustive"] is not True:
            return f"negative pair: exit {code}, {doc['witness_count']} witnesses"
        return None
    if code != 0 or not doc["witness_count"]:
        return f"positive pair: exit {code}, no witness"
    if expect["all"]:
        if expect["g"] not in doc["witnesses"]:
            return "--all list misses the planted basis change"
        first = outputs[expect["first_op"]]
        if first is None or doc["witnesses"][0] != json.loads(first)["witnesses"][0]:
            return "first --all witness differs from the first-witness search"
    return None


def _violates(A: Msc, tup) -> bool:
    u, v, w, x, y = (basis_vector(A.ring, A.dim, i) for i in tup)
    left = eval_product(A, (eval_product(A, (u, v, w)), x, y))
    mid = eval_product(A, (u, eval_product(A, (v, w, x)), y))
    right = eval_product(A, (u, v, eval_product(A, (w, x, y))))
    return left != mid or left != right


def _check_assoc(op, code, doc, outputs):
    if op["expect"]:
        return None if code == 0 else f"exit {code}, expected 0"
    if code != 1:
        return f"exit {code}, expected 1"
    tup = doc.get("violating_tuple")
    A = _load(op["argv"][2])
    if not tup or len(tup) != 5 or not all(1 <= i <= A.dim for i in tup):
        return f"bad violating tuple {tup}"
    return None if _violates(A, tup) else f"tuple {tup} does not violate"


def right_nested(M: Msc, n: int) -> Msc:
    """The n-ary product mu(x1, mu(x2, ... mu(x_{n-1}, x_n))) of a binary
    algebra, column by column from eval_product."""
    basis = [basis_vector(M.ring, M.dim, i) for i in range(1, M.dim + 1)]
    cols = []
    for c in range(M.dim ** n):
        idx = column_tuple(M.dim, n, c)
        vec = basis[idx[-1] - 1]
        for i in reversed(idx[:-1]):
            vec = eval_product(M, (basis[i - 1], vec))
        cols.append(vec)
    return Msc(M.dim, n, Matrix(M.ring, [list(r) for r in zip(*cols)]))


def _check_generate(op, code, doc, outputs):
    if code != 0:
        return f"exit {code}, expected 0"
    n = int(op["argv"][-1])
    if doc != msc_to_doc(right_nested(_load(op["expect"]["input"]), n)):
        return "generated algebra differs from the right-nested expansion"
    return None


def _check_scan(op, code, doc, outputs):
    if code != 0:
        return f"exit {code}, expected 0"
    entry = FAMILIES[op["expect"]["family"]]

    def tot_assoc(point):
        values = [rg.parse_scalar(x, rg.QQ).v for x in point]
        return quintuple_oracle(entry.specialize(dict(zip(entry.params, values))))[0]

    hits = doc["points"]
    for point in hits:
        if not tot_assoc(point):
            return f"scan hit {point} is not totally associative"
    misses = [pt for pt in op["expect"]["sample"] if pt not in hits][:TENSOR_MISS_SAMPLE]
    for point in misses:
        if tot_assoc(point):
            return f"scan missed totally associative point {point}"
    return None


_CHECKS = {
    "replay": _check_replay,
    "express": _check_express,
    "iso": _check_iso,
    "assoc": _check_assoc,
    "generate": _check_generate,
    "scan": _check_scan,
}


def check_op(op, result, outputs):
    """None if one executed op answered right, else the reason it failed.

    ``result`` is (exit code, stdout text, error) -- error set when the op
    raised -- and ``outputs`` holds the stdout of every op in the same pass.
    """
    code, out, error = result
    if error is not None:
        return f"raised {error}"
    try:
        doc = json.loads(out)
        return _CHECKS[op["kind"]](op, code, doc, outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def failures(ops, passes):
    """Every failed op execution as (pass, op id, reason).

    ``passes`` lists, per pass, one (code, stdout, error) per op.  Besides
    the per-op oracle, every op's stdout must be byte-identical across the
    passes of a run; a repetition identical to the first pass shares its
    verdict, so the oracles run once per op.
    """
    out = []
    first = []
    for k, results in enumerate(passes):
        outputs = [r[1] for r in results]
        for op, result in zip(ops, results):
            if k and result == passes[0][op["id"]]:
                reason = first[op["id"]]
            else:
                reason = check_op(op, result, outputs)
                if reason is None and k:
                    reason = "stdout differs from the first pass"
            if not k:
                first.append(reason)
            if reason is not None:
                out.append((k, op["id"], reason))
    return out
