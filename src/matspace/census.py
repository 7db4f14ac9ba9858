"""Exhaustive census of d-dimensional subspaces of Mat_n(F_q).

Subspaces are enumerated by canonical RREF representatives: pivot-column
patterns in lexicographic order, then all free-entry assignments (last free
position varying fastest).  The stream total always equals the Gaussian
binomial [n^2 choose d]_q.

The census predicates, with their names, aliases and early-exit order, are
the records of `PREDICATES`.  A member predicate holds on a space when
every member passes its test, so it holds on every subspace of a space it
holds on.  Its test must be exact over GF(q) and scale-invariant (c*M
passes exactly when M does), and its GF(2) table must agree with it; a new
one is one more record.  Only `irreducible` has no member test.

One walk (`_walk`) produces the stream order for the census and for
`subspace_stream`: row k's free values are the next digits of the product,
and the walk picks rows depth-first, row 0, then row 1 below it, down to
row d-1.  When the chain starts with a member predicate, one prefix rule
serves both engines.  The state of a prefix is the list of every member of
its span.  Picking row k tests only the members row + x, x in that list,
one per new projective class; then the list grows by them and their
multiples 2..q-1.  A failing member ends the branch: its q^(free positions
of rows k+1..d-1) bases count as processed, and none survives.  A second
member predicate tests a complete basis's whole list, `irreducible` its
rows.  Only complete bases count as tested (`meta.tested` in the report).
The pruning is exact:
- rows 0..k of a canonical RREF basis are a canonical RREF basis;
- a failing prefix span is a subspace of every basis's span below it;
- survivors come out in stream order, so counts and witness lists do not
  change, and the processed total still equals the Gaussian binomial.
A chain that starts with `irreducible` is not pruned.

On a line (d = 1) every predicate is a test of its generator a, and a
record's line rule reads the verdict on <a> off chi_a alone:
- `trivial_spectrum`: chi_a has no nonzero root (`polys._roots`);
- `irreducible`: chi_a is its own simple irreducible factor
  (`polys._simple_factor_mod`), since the <a>-stable subspaces of F^n are
  its F[a]-submodules;
- `all_diagonalizable` has no line rule and keeps its member test.
Each chunk computes chi_a once per line and keeps the rules' verdicts per
char poly, of which there are at most q^n.  The generic engine uses every
line rule of its chain; the bits engine keeps its table lookups and uses
only the rule of `irreducible`.  So no line spins; only d >= 2 calls the
engine's irreducibility test.  chi_a is affine in the last row r of a: with
H the first n - 1 rows,
    chi_[H; r] = chi_[H; 0] + sum_j r_j (chi_[H; e_j] - chi_[H; 0])  mod q,
because det(tI - M) is linear in the last row t e_(n-1) - r of tI - M.
Consecutive lines share H (the last free position varies fastest), so a
chunk runs Berkowitz n + 1 times per head H, not once or twice per line.

Enumeration is embarrassingly parallel across contiguous pattern chunks;
the merge is associative and order-fixed, so reports do not depend on the
worker count.  The engines differ only in rows, member storage, member tests
and irreducibility.  For q = 2 and n <= 3 the bit engine xors bitset rows,
looks members up in the chain's `gf2` tables and spins with
`irreducible_bits`; the generic engine adds residue tuples mod q, runs the
member tests on int rows and calls `irreducible`.  Tests compare the two.

`census` is the only enumeration loop.  `max_diag_dim` and
`verify_classification` take their subspaces from its witness lists, so they
run on both engines and share its gates: the entry gate (n >= 1, q, d, cap,
--heavy), also used by `subspace_stream`, and the budget bounds on the q^d
members of a subspace and, with irreducibility, on the (q^n - 1)/(q - 1)
spin starts of its worst case (Norton's criterion usually settles it with
two spins; a reducible space takes the projective scan).  The
classification check is linear algebra: the P with V = P * Alt_n are the
invertible members of Alt_n.multipliers(V, "left"), for every census q.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import NamedTuple

from . import gf2
from ._version import __version__
from .errors import BudgetExceeded, CapExceeded, InvalidInput, checked_int
from .fields import PrimeField
from .matrices import Matrix, _diagonalizable_rows, char_poly_rows
from .polys import _roots, _simple_factor_mod
from .predicates import HOLDS, _members, _trivial_spectrum_rows, irreducible, non_isotropic
from .recovery import recover
from .spaces import DEFAULT_BUDGET, MatSpace, _unflatten

DEFAULT_CAP = 10**7
NON_HEAVY_LIMIT = 100_000
SUPPORTED_Q = (2, 3, 5)


class Predicate(NamedTuple):
    name: str
    aliases: tuple[str, ...]
    member_test: Callable[[list, int], bool] | None = None  # (int rows mod q, q) -> the member passes
    gf2_table: Callable[[int], tuple[bool, ...]] | None = None  # n -> the test on every packed member
    line_rule: Callable[[list, int], bool] | None = None  # (chi_a mod q, q) -> <a> passes


# Cheapest test first: the early-exit order of every census, member predicates
# before the rest.  The tables and the polynomial helpers are looked up when
# called, so a patched or cleared one is the one used.
PREDICATES = (
    Predicate(
        "trivial_spectrum",
        ("trivspec", "ts"),
        _trivial_spectrum_rows,
        lambda n: gf2.eigenvalue_one_free_table(n),
        lambda chi, q: not any(_roots(chi, q)),
    ),
    Predicate(
        "all_diagonalizable", ("diag",), _diagonalizable_rows, lambda n: gf2.diagonalizable_table(n)
    ),
    Predicate("irreducible", ("irred",), line_rule=lambda chi, q: _simple_factor_mod(chi, q) == chi),
)
_BY_NAME = {rec.name: rec for rec in PREDICATES}
_ALIASES = {alias: rec.name for rec in PREDICATES for alias in (rec.name, *rec.aliases)}


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
    """Canonical names, each once, in the order of PREDICATES."""
    if isinstance(names, str) or not isinstance(names, Iterable):
        raise InvalidInput(f"predicates must be a list of names, not {names!r}")
    chosen = set()
    for name in names:
        key = _ALIASES.get(str(name).strip().lower())
        if key is None:
            raise InvalidInput(f"unknown predicate {name!r}")
        chosen.add(key)
    return [name for name in _BY_NAME if name in chosen]


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
    tested: int = 0  # subspaces the predicate chain ran on; failed prefixes decided the rest


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


def _tuple_rows(m: int, q: int, pivot: int, free):
    """The rows of m residues with 1 at pivot, 0 off free and every assignment on free.

    Assignments run in itertools.product order, the last free column fastest.
    """
    for values in itertools.product(range(q), repeat=len(free)):
        row = [0] * m
        row[pivot] = 1
        for c, v in zip(free, values):
            row[c] = v
        yield tuple(row)


def _bit_rows(pivot: int, free):
    """The rows of _tuple_rows over GF(2), in the same order, as bitsets (bit j = column j)."""
    base = 1 << pivot
    for values in itertools.product(*[(0, 1 << c) for c in free]):
        yield base | sum(values)


def _walk(pattern, m: int, q: int, level, grow=None, state=()):
    """(rows, weight, state) for the RREF bases with this pivot pattern, in stream order.

    Row k runs over the rows with pivot pattern[k] and zeros in the other
    pivot columns, its free entries in itertools.product order;
    level(pivot, free) yields them in the engine's row type.  Nested over
    k = 0..d-1, this is the product over all free entries with the last
    varying fastest.  A complete basis comes with weight 1.  When grow is
    given, every pick is grown on the way down: grow(state, row) gets the
    state of the prefix before row (state itself for the empty prefix) and
    returns that of the prefix with it, or None when the span fails.  A
    failed proper prefix comes with the number of bases below it, which are
    not visited; a complete basis comes with its grown state, or None.
    Without grow every basis comes with state as given.
    """
    d = len(pattern)
    if not d:
        yield (), 1, state
        return
    pivots = set(pattern)
    free = [[c for c in range(p + 1, m) if c not in pivots] for p in pattern]
    weights = [q ** sum(map(len, free[k:])) for k in range(d + 1)]
    # Inner levels are walked once per prefix, so they are built once; each
    # holds at most total^(1/d) rows.  The last level can hold q^(m-1).
    inner = [list(level(pattern[k], free[k])) for k in range(d - 1)]

    def descend(prefix, state):
        k = len(prefix)
        if k == d - 1:
            for row in level(pattern[k], free[k]):
                yield prefix + (row,), 1, state if grow is None else grow(state, row)
            return
        for row in inner[k]:
            rows = prefix + (row,)
            if grow is None:
                yield from descend(rows, state)
            elif (grown := grow(state, row)) is None:
                yield rows, weights[k + 1], None
            else:
                yield from descend(rows, grown)

    yield from descend((), state)


def _line_char_poly(n: int, q: int) -> Callable[[Sequence], list[int]]:
    """chi_a mod q of flat residue rows a, from n + 1 Berkowitz runs per head.

    The head H of a is its first n - 1 matrix rows; the affine identity of
    the module docstring gives chi_a from (chi_[H; 0], the steps
    chi_[H; e_j] - chi_[H; 0]), which are kept until H changes.
    """
    cut = n * (n - 1)
    head, base, steps = None, [], []

    def chi(a):
        nonlocal head, base, steps
        if a[:cut] != head:
            head = a[:cut]
            rows = _unflatten(n, list(head) + [0] * n)
            base = char_poly_rows(rows, q)
            steps = []
            for j in range(n):
                rows[-1][j] = 1
                steps.append([(x - y) % q for x, y in zip(char_poly_rows(rows, q), base)])
                rows[-1][j] = 0
        out = base
        for r, step in zip(a[cut:], steps):
            if r:
                out = [x + r * y for x, y in zip(out, step)]
        return [x % q for x in out]

    return chi


def subspace_stream(n: int, q: int, d: int, cap: int = DEFAULT_CAP, heavy: bool = False):
    """Every d-dimensional subspace of Mat_n(F_q) exactly once, canonically."""
    _gate(n, q, d, cap, heavy)
    field, m = PrimeField(q), n * n
    return (
        MatSpace.from_canonical_rows(field, n, rows)
        for pattern in itertools.combinations(range(m), d)
        for rows, _, _ in _walk(pattern, m, q, partial(_tuple_rows, m, q))
    )


def _census_chunk(args) -> tuple[dict, dict, int, int]:
    (n, q, d, start, stop, predicates, budget, witness_limit, engine) = args
    m = n * n
    patterns = itertools.islice(itertools.combinations(range(m), d), start, stop)
    counts = {p: 0 for p in predicates}
    witnesses = {p: [] for p in predicates}
    processed = tested = 0
    first = predicates[0]
    chain = [_BY_NAME[p] for p in predicates]
    member_preds = [rec for rec in chain if rec.member_test]
    if engine == "bits":
        # Only the chain's tables, and the action table only when d >= 2 spins.
        member_holds = {rec.name: rec.gf2_table(n).__getitem__ for rec in member_preds}
        action = gf2.action_table(n) if d >= 2 and "irreducible" in predicates else None
        level, unpack, add, zero = _bit_rows, partial(gf2.unpack_row, ncols=m), operator.xor, 0

        def irreducible_rows(rows):
            return gf2.irreducible_bits(rows, n, action)
    else:
        field = PrimeField(q)
        member_holds = {rec.name: lambda x, t=rec.member_test: t(_unflatten(n, x), q) for rec in member_preds}
        level, unpack, zero = partial(_tuple_rows, m, q), list, [0] * m

        def add(x, y):  # members are flat residue lists; rows are tuples
            return [(a + b) % q for a, b in zip(x, y)]

        def irreducible_rows(rows):
            return irreducible(MatSpace.from_canonical_rows(field, n, rows), budget).status == HOLDS

    # A line has no proper prefix to prune, so it keeps no member list.
    first_holds, scalars = member_holds.get(first) if d != 1 else None, range(2, q)

    def grow(span, row):
        # span lists every member of the prefix's span, all of which passed.
        # Each row + x is one member of a new projective class, and every
        # member test is scale-invariant, so only those are tested;
        # their multiples 2..q-1 complete the list (none for q = 2).
        new = [add(row, x) for x in span]
        if not all(map(first_holds, new)):
            return None
        span, multiple = span + new, new
        for _ in scalars:
            multiple = list(map(add, multiple, new))
            span += multiple
        return span

    if d != 1:

        def holds(p, rows, span):
            test = member_holds.get(p)
            if test is None:  # irreducibility, the one predicate without a member test
                return irreducible_rows(rows)
            # span is None when a member failed the first predicate
            return span is not None and (p == first or all(map(test, span)))

    else:
        # The line rules of the module docstring; the bits engine keeps its
        # table lookups, which are cheaper than a char poly.
        rules = {rec.name: rec.line_rule for rec in chain if rec.line_rule and not (engine == "bits" and rec.gf2_table)}
        char_poly, by_chi, line = _line_char_poly(n, q), {}, [None, {}]  # by_chi: at most q^n keys

        def holds(p, rows, span):
            if p not in rules:
                return member_holds[p](add(rows[0], zero))  # the generator as a member
            if line[0] is not rows:  # the first rule on this line
                chi = char_poly(unpack(rows[0]))
                key = tuple(chi)
                if key not in by_chi:
                    by_chi[key] = {name: rule(chi, q) for name, rule in rules.items()}
                line[:] = rows, by_chi[key]
            return line[1][p]

    for pattern in patterns:
        for rows, weight, span in _walk(pattern, m, q, level, grow if first_holds else None, [zero]):
            processed += weight
            if len(rows) < d:
                continue  # a failed prefix: every basis below it fails the first predicate
            tested += 1
            for p in predicates:
                if not holds(p, rows, span):
                    break
                counts[p] += 1
                if len(witnesses[p]) < witness_limit:
                    witnesses[p].append(list(map(unpack, rows)))
    return counts, witnesses, processed, tested


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

    Predicates are applied in cheap-first order (that of PREDICATES) with
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
    # both engines and at every d, although lines make no spin and only the
    # generic engine counts the spins.
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
    # workers <= pattern_count, so no chunk is empty
    bounds = [(i * pattern_count // workers, (i + 1) * pattern_count // workers) for i in range(workers)]
    args = [(n, q, d, start, stop, predicates, budget, witness_limit, engine) for start, stop in bounds]
    if workers == 1:
        partials = [_census_chunk(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_census_chunk, args))

    counts = {p: 0 for p in predicates}
    witnesses = {p: [] for p in predicates}
    processed = tested = 0
    for pcounts, pwits, ptotal, ptested in partials:
        processed += ptotal
        tested += ptested
        for p in predicates:
            counts[p] += pcounts[p]
            if len(witnesses[p]) < witness_limit:
                witnesses[p].extend(pwits[p][: witness_limit - len(witnesses[p])])
    if processed != total:
        raise AssertionError(f"stream produced {processed} subspaces; expected {total}")
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
        partition=[stop - start for start, stop in bounds],
        tested=tested,
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
