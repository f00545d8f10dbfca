"""Built-in verification suite: re-checks the algebra's headline facts.

Covers the four defining identities, validity of the modal axioms, the
64-element unary clone, the delta-class check against the search over the
delta-pairing relation, consistency of the unary-operation catalogue with
the built-in relations, synthesis round-trips (seeded binary and ternary
tables confirmed point by point with evaluate), and end-to-end constant
derivation (one canned system plus a seeded randomized batch).
"""

from __future__ import annotations

import itertools
import random

from .algebra import ELEMENTS, Element, magari_identity_report
from .closure import expressible_constants
from .constants import TwelveSystem, derive_all_constants
from .formula import evaluate, free_vars, parse, truth_table
from .preservation import (
    builtin_relation,
    delta_pairing_relation,
    delta_preserving_tables,
    find_violation,
    i_op,
    preserves_delta_pairing,
    random_delta_preserving_table,
)
from .synthesis import NotRepresentable, default_var_names, synthesize
from .tables import FuncTable, constant_table, points

GL_AXIOMS: tuple[str, ...] = (
    "# (p -> q) -> (# p -> # q)",
    "# (# p -> p) -> # p",
    "# p -> # # p",
)

# The depth-two extension's extra axiom.  The antecedents need the
# reflexivized box: with a bare # in its place the scheme is refuted at
# every valuation with p and q both in {0, rho}, where it takes the value
# sigma (both disjuncts come to sigma); elsewhere it is 1.
GL4_AXIOM: str = "# # 0 & (# ([] p -> q) | # ([] q -> p))"

CANNED_FORMULAS: dict[int, str] = {
    1: "# p",
    2: "~ p",
    3: "# p",
    4: "# p",
    5: "# p",
    6: "# p",
    7: "# p",
    8: "# p",
    9: "~ p",
    10: "~ p",
    11: "# p",
    12: "# p <-> # q",
}

# Fixed-point catalogue: i_op(i, j) fixes exactly the column set of the
# k-th built-in relation.
FIXED_POINT_TRIPLES: tuple[tuple[int, int, int], ...] = (
    (1, 5, 3),
    (1, 8, 4),
    (4, 5, 5),
    (4, 8, 6),
    (2, 5, 7),
    (2, 8, 8),
    (1, 6, 9),
    (4, 6, 10),
)

DEFAULT_SEED = 1789
_RANDOM_SYSTEMS = 25
_ARITIES = (1, 2)
_MAX_TRIES = 10_000
_ROUND_TRIPS = {2: 300, 3: 5}  # random tables synthesized per arity
_CLASS_CHECKS = {2: 40, 3: 10}  # random tables per arity, each also with one class flip


def canned_system() -> TwelveSystem:
    return TwelveSystem.from_formulas(CANNED_FORMULAS)


def random_twelve_tables(rng: random.Random) -> dict[int, FuncTable]:
    """Twelve delta-respecting tables, the i-th violating R_i."""
    out: dict[int, FuncTable] = {}
    for i in range(1, 13):
        relation = builtin_relation(i)
        for _ in range(_MAX_TRIES):
            table = random_delta_preserving_table(rng.choice(_ARITIES), rng)
            if find_violation(table, relation) is not None:
                out[i] = table
                break
        else:
            raise RuntimeError(f"could not sample a violator for R{i}")
    return out


def _valid(text: str) -> bool:
    f = parse(text)
    names = tuple(sorted(free_vars(f)))
    return all(e is Element.ONE for e in truth_table(f, names).entries)


def _fixed_points(table: FuncTable) -> frozenset[Element]:
    return frozenset(x for x in ELEMENTS if table.entries[int(x)] is x)


def _catalogue_consistent() -> bool:
    for i, j, k in FIXED_POINT_TRIPLES:
        want = frozenset(col[0] for col in builtin_relation(k).columns)
        if _fixed_points(i_op(i, j)) != want:
            return False
    graph = frozenset((x, i_op(3, 7).entries[int(x)]) for x in ELEMENTS)
    return graph == frozenset(builtin_relation(11).columns)


def _round_trips(tables) -> bool:
    """Each table through synthesize, the result confirmed point by point
    with evaluate, which keeps no memo across calls."""
    for table in tables:
        names = default_var_names(table.arity)
        f = synthesize(table, names)
        if any(evaluate(f, dict(zip(names, pt))) is not e
               for pt, e in zip(points(table.arity), table.entries)):
            return False
    return True


def _class_check_tables(seed: int) -> list[FuncTable]:
    """All 256 unary tables, then seeded delta-preserving binary and
    ternary tables, each followed by a copy with one entry moved to the
    other delta class."""
    tables = [FuncTable(1, entries) for entries in itertools.product(ELEMENTS, repeat=4)]
    rng = random.Random(f"delta classes/{seed}")
    for arity, count in _CLASS_CHECKS.items():
        for _ in range(count):
            table = random_delta_preserving_table(arity, rng)
            packed = bytearray(table.packed)
            packed[rng.randrange(len(packed))] ^= 2
            tables += [table, FuncTable(arity, packed)]
    return tables


def _class_check_agrees(tables) -> bool:
    """preserves_delta_pairing against the search over the delta-pairing
    relation, which stays the reference."""
    relation = delta_pairing_relation()
    return all(preserves_delta_pairing(t) is (find_violation(t, relation) is None)
               for t in tables)


def _rejects_breaker() -> bool:
    breaker = FuncTable(1, (Element.ZERO, Element.SIGMA, Element.ZERO, Element.ZERO))
    try:
        synthesize(breaker)
    except NotRepresentable:
        return True
    return False


def _canned_checks() -> tuple[bool, bool, bool]:
    system = canned_system()
    result = derive_all_constants(system)
    derived_ok = all(
        result[v].realized == constant_table(v, 1) for v in ELEMENTS
    )
    expansion_ok = all(
        truth_table(result[v].expand(), ("p",)) == result[v].realized
        for v in ELEMENTS
    )
    oracle_ok = expressible_constants(system.sigma()) == frozenset(ELEMENTS)
    return derived_ok, expansion_ok, oracle_ok


def _random_batch(seed: int) -> bool:
    rng = random.Random(seed)
    for _ in range(_RANDOM_SYSTEMS):
        system = TwelveSystem.from_tables(random_twelve_tables(rng))
        result = derive_all_constants(system)
        if any(result[v].realized != constant_table(v, 1) for v in ELEMENTS):
            return False
    return True


def run_selftest(seed: int = DEFAULT_SEED) -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    for name, holds in magari_identity_report():
        checks.append((f"identity holds: {name}", holds))
    for axiom in GL_AXIOMS:
        checks.append((f"axiom valid on the algebra: {axiom}", _valid(axiom)))
    checks.append((f"axiom valid on the algebra: {GL4_AXIOM}", _valid(GL4_AXIOM)))
    count = sum(1 for _ in delta_preserving_tables(1))
    checks.append(("exactly 64 of 256 unary tables respect the delta classes",
                   count == 64))
    checks.append(
        (f"delta-class check agrees with the delta-pairing search on all 256 unary "
         f"tables and on {sum(_CLASS_CHECKS.values())} binary and ternary tables "
         f"with their class flips (seed {seed})",
         _class_check_agrees(_class_check_tables(seed)))
    )
    checks.append(
        ("unary-operation catalogue consistent with built-in relations",
         _catalogue_consistent())
    )
    checks.append(
        ("synthesis round-trips all 64 delta-respecting unary tables",
         _round_trips(delta_preserving_tables(1)))
    )
    rng = random.Random(seed)
    random_tables = [random_delta_preserving_table(arity, rng)
                     for arity, count in _ROUND_TRIPS.items() for _ in range(count)]
    checks.append(
        (f"synthesis round-trips {_ROUND_TRIPS[2]} random binary and {_ROUND_TRIPS[3]} "
         f"ternary tables (seed {seed})", _round_trips(random_tables))
    )
    checks.append(("synthesis rejects a class-breaking table", _rejects_breaker()))
    derived_ok, expansion_ok, oracle_ok = _canned_checks()
    checks.append(("canned twelve-system derives all four constants", derived_ok))
    checks.append(
        ("canned derivations expand to formulas realizing the same tables",
         expansion_ok)
    )
    checks.append(
        ("closure oracle confirms the canned system expresses all constants",
         oracle_ok)
    )
    checks.append(
        (
            f"{_RANDOM_SYSTEMS} randomized twelve-systems derive all four "
            f"constants (seed {seed})",
            _random_batch(seed),
        )
    )
    return checks
