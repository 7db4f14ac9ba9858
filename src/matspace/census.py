"""Exhaustive census of d-dimensional subspaces of Mat_n(F_q).

Subspaces are enumerated by canonical RREF representatives: pivot-column
patterns in lexicographic order, then all free-entry assignments (last free
position varying fastest).  The stream total always equals the Gaussian
binomial [n^2 choose d]_q.

Enumeration is embarrassingly parallel across contiguous pattern chunks; the
merge is associative and order-fixed, so the report content is independent of
the worker count.  For q = 2 and n <= 3 a bit-packed engine with lookup
tables replaces the generic field path; both must agree and the tests compare
them subspace for subspace.

`census` is the only enumeration loop.  `max_diag_dim` and
`verify_classification` take their subspaces from its witness lists, so they
run on both engines and share its gates: one entry gate (n >= 1, q, d, cap,
--heavy), which `subspace_stream` also uses, and the budget bounds on the q^d
members of a subspace and, when irreducibility is tested, on the
(q^n - 1)/(q - 1) spin starts of its worst case (Norton's criterion usually
settles it with two spins, but a reducible space takes the projective
scan).  The classification check itself is linear algebra: the P with
V = P * Alt_n are the invertible members of Alt_n.multipliers(V, "left"),
so it covers every census q.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field

from . import gf2
from ._version import __version__
from .errors import BudgetExceeded, CapExceeded, InvalidInput, checked_int
from .fields import PrimeField
from .matrices import Matrix
from .predicates import HOLDS, _members, non_isotropic
# _holds looks all_diagonalizable, irreducible and trivial_spectrum up by name.
from .predicates import all_diagonalizable, irreducible, trivial_spectrum  # noqa: F401
from .recovery import recover
from .spaces import DEFAULT_BUDGET, MatSpace

DEFAULT_CAP = 10**7
NON_HEAVY_LIMIT = 100_000
SUPPORTED_Q = (2, 3, 5)

# Cheapest test first: the early-exit order of every census.
PREDICATE_ORDER = ("trivial_spectrum", "all_diagonalizable", "irreducible")

PREDICATE_ALIASES = {
    "diag": "all_diagonalizable",
    "all_diagonalizable": "all_diagonalizable",
    "trivspec": "trivial_spectrum",
    "ts": "trivial_spectrum",
    "trivial_spectrum": "trivial_spectrum",
    "irred": "irreducible",
    "irreducible": "irreducible",
}


def gaussian_binomial(m: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^m; [m, d]_q = [m, m - d]_q."""
    if d < 0 or d > m:
        return 0
    d = min(d, m - d)
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def normalize_predicates(names) -> list[str]:
    out = []
    for name in names:
        key = PREDICATE_ALIASES.get(str(name).strip().lower())
        if key is None:
            raise InvalidInput(f"unknown predicate {name!r}")
        if key not in out:
            out.append(key)
    return sorted(out, key=PREDICATE_ORDER.index)


@dataclass
class CensusReport:
    n: int
    q: int
    d: int
    predicates: list[str]
    budget: int
    cap: int
    engine: str
    total: int
    witness_limit: int = 5
    counts: dict = dc_field(default_factory=dict)
    witnesses: dict = dc_field(default_factory=dict)  # name -> list of flat basis rows
    seedless: bool = True
    version: str = __version__
    elapsed: float = 0.0
    workers: int = 1
    partition: list[int] = dc_field(default_factory=list)


def _gate(n: int, q: int, d: int, cap: int, heavy: bool) -> int:
    """Reject malformed sizes and oversized runs; return the subspace count."""
    checked_int("matrix size n", n, 1)
    if checked_int("q", q, None) not in SUPPORTED_Q:
        raise InvalidInput(f"census supports q in {SUPPORTED_Q}, got {q}")
    m = n * n
    if checked_int("dimension d", d) > m:
        raise InvalidInput(f"dimension {d} outside 0..{m}")
    # [m, d]_q >= q^(d(m-d)) >= 2^k, so a limit of at most k bits is exceeded
    # without the exact count, which takes minutes to compute at n = 100.
    k = d * (m - d) * (q.bit_length() - 1)
    total = None
    for limit, hint in [(cap, "")] + ([] if heavy else [(NON_HEAVY_LIMIT, "pass --heavy for large runs")]):
        if k >= limit.bit_length():
            raise CapExceeded(None, limit, hint, bound_log2=k)
        total = gaussian_binomial(m, d, q) if total is None else total
        if total > limit:
            raise CapExceeded(total, limit, hint)
    return total


def _free_positions(pattern, m: int) -> list[tuple[int, int]]:
    pivot_set = set(pattern)
    return [
        (r, c)
        for r in range(len(pattern))
        for c in range(pattern[r] + 1, m)
        if c not in pivot_set
    ]


def _spaces(n: int, q: int, patterns):
    """Every subspace whose RREF basis has one of the given pivot patterns."""
    field = PrimeField(q)
    m = n * n
    for pattern in patterns:
        free = _free_positions(pattern, m)
        base = [[int(c == p) for c in range(m)] for p in pattern]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [row.copy() for row in base]
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield MatSpace.from_canonical_rows(field, n, rows)


def _bit_pattern_stream(pattern, m: int):
    """GF(2) fast path: same order as the generic stream, rows as bitsets.

    The yielded list is mutated in place between yields; consumers must copy
    what they keep.
    """
    free = _free_positions(pattern, m)
    rows = [1 << p for p in pattern]
    yield rows
    f = len(free)
    counter = [0] * f
    masks = [(r, 1 << c) for r, c in free]
    for _ in range((1 << f) - 1):
        i = f - 1
        while counter[i]:
            counter[i] = 0
            r, mask = masks[i]
            rows[r] ^= mask
            i -= 1
        counter[i] = 1
        r, mask = masks[i]
        rows[r] ^= mask
        yield rows


def subspace_stream(n: int, q: int, d: int, cap: int = DEFAULT_CAP, heavy: bool = False):
    """Every d-dimensional subspace of Mat_n(F_q) exactly once, canonically."""
    _gate(n, q, d, cap, heavy)
    return _spaces(n, q, itertools.combinations(range(n * n), d))


# -- per-subspace predicate evaluation ---------------------------------------


def _holds(name: str, space: MatSpace, budget: int) -> bool:
    # A canonical predicate name is the name of its function in this module.
    # Looking it up at call time lets a tracer that rebinds the name see each call.
    return globals()[name](space, budget).status == HOLDS


def _members_in(rows, d: int, table) -> bool:
    """Every nonzero member of the span of the bitset rows is marked in table."""
    m = 0
    for k in range(1, 1 << d):
        m ^= rows[(k & -k).bit_length() - 1]
        if not table[m]:
            return False
    return True


def _census_chunk(args) -> tuple[dict, dict, int]:
    (n, q, d, start, stop, predicates, budget, witness_limit, engine) = args
    m = n * n
    patterns = itertools.islice(itertools.combinations(range(m), d), start, stop)
    counts = {p: 0 for p in predicates}
    witnesses = {p: [] for p in predicates}
    processed = 0
    if engine == "bits":
        tables = {
            "all_diagonalizable": gf2.diagonalizable_table(n),
            "trivial_spectrum": gf2.eigenvalue_one_free_table(n),
        }
        chain = [(p, tables.get(p)) for p in predicates]  # no table: irreducible
        action = gf2.action_table(n)
        for pattern in patterns:
            for rows in _bit_pattern_stream(pattern, m):
                processed += 1
                for p, table in chain:
                    if table is None:
                        ok = gf2.irreducible_bits(rows, n, action)
                    else:
                        ok = _members_in(rows, d, table)
                    if not ok:
                        break
                    counts[p] += 1
                    if len(witnesses[p]) < witness_limit:
                        witnesses[p].append([gf2.unpack_row(r, m) for r in rows])
    else:
        for space in _spaces(n, q, patterns):
            processed += 1
            for p in predicates:
                if not _holds(p, space, budget):
                    break
                counts[p] += 1
                if len(witnesses[p]) < witness_limit:
                    witnesses[p].append([list(r) for r in space.rows])
    return counts, witnesses, processed


def census(
    n: int,
    q: int,
    d: int,
    predicates,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
    witness_limit: int = 5,
    heavy: bool = False,
    engine: str | None = None,
) -> CensusReport:
    """Count the subspaces surviving the predicate filter chain.

    Predicates are applied in cheap-first order (PREDICATE_ORDER) with
    early exit, whatever order they are given in; counts[p] tallies the
    subspaces that satisfied p and every predicate before it, so the last
    entry is the conjunction count.  Fully independent tallies come from
    one census per predicate.
    """
    predicates = normalize_predicates(predicates)
    if not predicates:
        raise InvalidInput("census needs at least one predicate")
    checked_int("workers", workers, 1)
    for name, value in (("witness_limit", witness_limit), ("budget", budget), ("cap", cap)):
        checked_int(name, value)
    if engine not in (None, "bits", "generic"):
        raise InvalidInput(f"unknown census engine {engine!r}")
    total = _gate(n, q, d, cap, heavy)
    if q**d > budget:
        raise BudgetExceeded(q**d, budget)
    # Irreducibility spins from every projective point of F_q^n in the worst
    # case, when Norton's criterion does not settle it; the bound holds on
    # both engines, although only the generic one counts the spins.
    starts = (q**n - 1) // (q - 1)
    if "irreducible" in predicates and starts > budget:
        raise BudgetExceeded(starts, budget)
    if engine is None:
        engine = "bits" if q == 2 and n <= 3 else "generic"
    if engine == "bits" and (q != 2 or n > 3):
        raise InvalidInput("bit engine requires q = 2 and n <= 3")

    started = time.perf_counter()
    pattern_count = math.comb(n * n, d)
    workers = min(workers, pattern_count)
    bounds = [
        (i * pattern_count // workers, (i + 1) * pattern_count // workers)
        for i in range(workers)
    ]
    args = [
        (n, q, d, start, stop, predicates, budget, witness_limit, engine)
        for start, stop in bounds
        if stop > start
    ]
    if workers == 1:
        partials = [_census_chunk(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_census_chunk, args))

    counts = {p: 0 for p in predicates}
    witnesses = {p: [] for p in predicates}
    processed = 0
    for pcounts, pwits, ptotal in partials:
        processed += ptotal
        for p in predicates:
            counts[p] += pcounts[p]
            if len(witnesses[p]) < witness_limit:
                witnesses[p].extend(pwits[p][: witness_limit - len(witnesses[p])])
    if processed != total:
        raise AssertionError(
            f"stream produced {processed} subspaces; expected {total}"
        )
    return CensusReport(
        n=n,
        q=q,
        d=d,
        predicates=predicates,
        budget=budget,
        cap=cap,
        engine=engine,
        total=total,
        witness_limit=witness_limit,
        counts=counts,
        witnesses=witnesses,
        elapsed=time.perf_counter() - started,
        workers=len(args),
        partition=[stop - start for start, stop in bounds if stop > start],
    )


def max_diag_dim(
    n: int,
    q: int,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_CAP,
    heavy: bool = False,
) -> tuple[int, MatSpace]:
    """Largest d with an all-diagonalizable d-dimensional subspace, plus a witness.

    Runs one census per dimension, downward from n(n+1)/2; the witness is the
    census's first, so the canonical enumeration order makes it deterministic.
    The zero space (d = 0) always qualifies, so the scan ends in a return.
    """
    checked_int("matrix size n", n, 1)  # before n sizes the scan
    for d in range(n * (n + 1) // 2, -1, -1):
        rep = census(n, q, d, ["diag"], budget, cap, witness_limit=1, heavy=heavy)
        found = rep.witnesses["all_diagonalizable"]
        if found:
            return d, MatSpace.from_canonical_rows(PrimeField(q), n, found[0])
    raise AssertionError("the zero space is all-diagonalizable")


def verify_classification(
    n: int,
    q: int,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_CAP,
    heavy: bool = False,
) -> dict:
    """Cross-check both maximal-dimension classifications at desk scale.

    For every irreducible trivial-spectrum subspace V of dimension n(n-1)/2,
    the linear space of all X with X * Alt_n inside V is searched for a
    non-isotropic P, so that V = P * Alt_n.  For every all-diagonalizable
    subspace of dimension n(n+1)/2 (none are expected at the supported
    sizes), the recovery pipeline confirms similarity to Sym_n.  Both
    subspace lists are census witness lists.
    """

    def survivors(d: int, predicates) -> list[MatSpace]:
        rep = census(n, q, d, predicates, budget, cap, witness_limit=cap, heavy=heavy)
        rows, field = rep.witnesses[rep.predicates[-1]], PrimeField(q)
        return [MatSpace.from_canonical_rows(field, n, r) for r in rows]

    d1 = n * (n - 1) // 2
    candidates = survivors(d1, ["trivspec", "irred"])
    alt = MatSpace.standard("alt", n, PrimeField(q))
    cases = []
    for space in candidates:
        # A non-isotropic X is invertible (a kernel vector is isotropic), so
        # X * Alt_n inside V has dimension n(n-1)/2 and is all of V.  c*X is
        # non-isotropic exactly when X is, so one member per class is tried.
        walk = _members(alt.multipliers(space, "left"), budget)[1]
        members = (Matrix(space.field, X) for X in walk)
        P = next((X for X in members if non_isotropic(X).status == HOLDS), None)
        cases.append({"space": space, "P": P, "expressible": P is not None})

    d2 = n * (n + 1) // 2
    diag_instances = [
        {"space": space, "status": recover(space, budget).status}
        for space in survivors(d2, ["diag"])
    ]

    return {
        "n": n,
        "q": q,
        "trivial_spectrum_form": {
            "dim": d1,
            "candidates": len(candidates),
            "expressible": sum(1 for c in cases if c["expressible"]),
            "all_expressible": all(c["expressible"] for c in cases),
            "cases": cases,
        },
        "diagonalizable_form": {
            "dim": d2,
            "instances": len(diag_instances),
            "all_similar": all(c["status"] in ("success", "conditional_success") for c in diag_instances),
            "vacuous": not diag_instances,
            "cases": diag_instances,
        },
    }
