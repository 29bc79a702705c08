"""Unsigned binary integer expressions as bit-lists of BDDs.

An integer expression is a tuple of BDD formulas, most significant bit
first; its value under an assignment is the usual binary decoding of the
bit truth values.  These expressions back the cardinality and weighted-sum
machinery of the set solver and the bundle representation of multisets.
Negative values are out of scope: subtraction saturates at zero.
"""

from __future__ import annotations

from .engine import FALSE, TRUE, NodeStore
from .sets import SetVar, Universe, lexlt_bits

IntExpr = tuple  # of node handles, MSB first


def const_expr(k: int) -> IntExpr:
    if k < 0:
        raise ValueError("only non-negative constants are representable")
    bits = []
    while k:
        bits.append(TRUE if k & 1 else FALSE)
        k >>= 1
    return tuple(reversed(bits))


def pad(x: IntExpr, length: int) -> IntExpr:
    """Zero-extend x at the most-significant end to the given length."""
    if length < len(x):
        raise ValueError("cannot pad to a shorter length")
    return (FALSE,) * (length - len(x)) + tuple(x)


def _common(x, y):
    n = max(len(x), len(y))
    return pad(x, n), pad(y, n)


def plus(store: NodeStore, x: IntExpr, y: IntExpr) -> IntExpr:
    """Full-adder chain; the result is one bit longer, so it never overflows."""
    x, y = _common(x, y)
    if not x:
        return ()
    carry = FALSE
    out = []
    for xi, yi in zip(reversed(x), reversed(y)):
        s = store.apply_xor(store.apply_xor(xi, yi), carry)
        carry = store.ite(carry, store.apply_or(xi, yi), store.apply_and(xi, yi))
        out.append(s)
    out.append(carry)
    return tuple(reversed(out))


def shl(x: IntExpr, k: int) -> IntExpr:
    if k < 0:
        raise ValueError("shift must be non-negative")
    return tuple(x) + (FALSE,) * k


def mul_const(store: NodeStore, x: IntExpr, k: int) -> IntExpr:
    """x * k by the shift-and-add recursion on k's binary form."""
    if k < 0:
        raise ValueError("constant must be non-negative")
    if k == 0:
        return ()
    if k % 2 == 0:
        return mul_const(store, shl(x, 1), k // 2)
    return plus(store, x, mul_const(store, shl(x, 1), k // 2))


def mul_bit(store: NodeStore, x: IntExpr, b: int) -> IntExpr:
    """x * b for a single formula bit b."""
    return tuple(store.apply_and(xi, b) for xi in x)


def min_expr(store: NodeStore, x: IntExpr, y: IntExpr) -> IntExpr:
    x, y = _common(x, y)
    lt = int_lt(store, x, y)
    return tuple(store.ite(lt, xi, yi) for xi, yi in zip(x, y))


def max_expr(store: NodeStore, x: IntExpr, y: IntExpr) -> IntExpr:
    x, y = _common(x, y)
    lt = int_lt(store, x, y)
    return tuple(store.ite(lt, yi, xi) for xi, yi in zip(x, y))


def monus(store: NodeStore, x: IntExpr, y: IntExpr) -> IntExpr:
    """max(0, x - y): borrow-chain subtractor clamped to zero on underflow."""
    x, y = _common(x, y)
    borrow = FALSE
    diffs = []
    for xi, yi in zip(reversed(x), reversed(y)):
        d = store.apply_xor(store.apply_xor(xi, yi), borrow)
        borrow = store.apply_or(
            store.apply_and(store.negate(xi), yi),
            store.apply_and(borrow, store.apply_or(store.negate(xi), yi)),
        )
        diffs.append(d)
    keep = store.negate(borrow)
    return tuple(store.apply_and(d, keep) for d in reversed(diffs))


def int_eq(store: NodeStore, x: IntExpr, y: IntExpr) -> int:
    x, y = _common(x, y)
    return store.conjoin(store.apply_iff(xi, yi) for xi, yi in zip(reversed(x), reversed(y)))


def int_lt(store: NodeStore, x: IntExpr, y: IntExpr) -> int:
    x, y = _common(x, y)
    return lexlt_bits(store, list(x), list(y))


def int_le(store: NodeStore, x: IntExpr, y: IntExpr) -> int:
    return store.negate(int_lt(store, y, x))


# ----------------------------------------------------------------------
# integer variables


def alloc_int_vars(store: NodeStore, names, width: int) -> list["IntVarExpr"]:
    """Allocate integer variables interleaved MSB-first across the group."""
    names = list(names)
    cols = zip(*(store.new_vars(len(names)) for _ in range(width)))
    return [IntVarExpr(store, n, c) for n, c in zip(names, cols)]


class IntVarExpr:
    """Integer variable plus its literal bit expression, which is rebuilt
    on each access, so no garbage collection invalidates it."""

    __slots__ = ("name", "bits", "_store")

    def __init__(self, store: NodeStore, name: str, bits: tuple[int, ...]):
        self.name = name
        self.bits = bits
        self._store = store

    @property
    def expr(self) -> IntExpr:
        return tuple(self._store.literal(b) for b in self.bits)

    def __repr__(self):
        return f"IntVarExpr({self.name})"


def bits_needed(max_value: int) -> int:
    """Width covering every value in 0..max_value inclusive."""
    return max(1, max_value.bit_length())


# ----------------------------------------------------------------------
# weighted sums


def wsum(store: NodeStore, bundles, weights) -> IntExpr:
    """Weighted sum of bit bundles: sum of bundle_i * w_i.

    For a set variable pass one-bit bundles (its membership literals);
    for a multiset variable pass the per-element occurrence bundles.
    """
    bundles = list(bundles)
    weights = list(weights)
    if len(bundles) != len(weights):
        raise ValueError("one weight per bundle required")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    acc: IntExpr = ()
    for bundle, w in zip(bundles, weights):
        acc = plus(store, acc, mul_const(store, tuple(bundle), w))
    return acc


def set_bundles(store: NodeStore, v: SetVar):
    """The length-1 bundles of a set variable, element order."""
    return [(store.literal(b),) for b in v.bits]


# ----------------------------------------------------------------------
# multisets


class MultisetVar:
    """A multiset variable: one occurrence bundle per universe element."""

    __slots__ = ("name", "universe", "max_mult", "bundles")

    def __init__(self, name: str, universe: Universe, max_mult: int, bundles):
        self.name = name
        self.universe = universe
        self.max_mult = max_mult
        self.bundles = bundles  # list of IntVarExpr, element order

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(b for bundle in self.bundles for b in bundle.bits)

    def __repr__(self):
        return f"MultisetVar({self.name})"


def alloc_multiset_vars(
    store: NodeStore,
    universe: Universe,
    names,
    max_mult: int,
    order: str = "bundle_major",
):
    """Allocate multiset variables and their occ <= max_mult constraints.

    bundle_major keeps each element's bundle contiguous, with bundles
    interleaved across the declared variables element by element;
    bit_major interleaves single bits across bundles instead.  Returns
    (variables, bound_constraints).
    """
    names = list(names)
    width = bits_needed(max_mult)
    cols = [[[] for _ in universe.elements] for _ in names]
    if order == "bundle_major":
        for e in range(universe.n):
            for j in range(len(names)):
                for _ in range(width):
                    cols[j][e].append(store.new_var())
    elif order == "bit_major":
        for j in range(len(names)):
            for _ in range(width):
                for e in range(universe.n):
                    cols[j][e].append(store.new_var())
    else:
        raise ValueError(f"unknown bundle order {order!r}")
    out = []
    bounds = []
    limit = const_expr(max_mult)
    for name, bundles in zip(names, cols):
        exprs = [IntVarExpr(store, f"{name}[{e + 1}]", tuple(b)) for e, b in enumerate(bundles)]
        out.append(MultisetVar(name, universe, max_mult, exprs))
        for e in exprs:
            bound = int_le(store, e.expr, limit)
            if bound != TRUE:
                bounds.append(bound)
    return out, bounds


def ms_eq(store, m: MultisetVar, n: MultisetVar) -> int:
    return store.conjoin(int_eq(store, bm.expr, bn.expr) for bm, bn in zip(m.bundles, n.bundles))


def ms_subseteq(store, m: MultisetVar, n: MultisetVar) -> int:
    return store.conjoin(int_le(store, bm.expr, bn.expr) for bm, bn in zip(m.bundles, n.bundles))


def ms_union(store, m: MultisetVar, n: MultisetVar):
    return [plus(store, bm.expr, bn.expr) for bm, bn in zip(m.bundles, n.bundles)]


def ms_inter(store, m: MultisetVar, n: MultisetVar):
    return [min_expr(store, bm.expr, bn.expr) for bm, bn in zip(m.bundles, n.bundles)]


def ms_diff(store, m: MultisetVar, n: MultisetVar):
    return [monus(store, bm.expr, bn.expr) for bm, bn in zip(m.bundles, n.bundles)]


def ms_card(store, m: MultisetVar) -> IntExpr:
    acc: IntExpr = ()
    for bundle in m.bundles:
        acc = plus(store, acc, bundle.expr)
    return acc
