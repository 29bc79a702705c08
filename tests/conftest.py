import itertools
import random
import sys

import pytest

from bddsets import analysis
from bddsets.engine import FALSE, TRUE, NodeStore
from bddsets.sets import Universe, alloc_set_vars, card_eq

# verify the split size inequality on every split performed under test
analysis.check_split_sizes = True

# the deep-input tests show that no walk recurses per BDD level or search
# decision, which holds only at CPython's default limit
assert sys.getrecursionlimit() == 1000, "tests must run at the default recursion limit"


@pytest.fixture
def store():
    return NodeStore(debug_checks=True)


def eval_node(store, a, assignment):
    """Evaluate a under a truth assignment (variable -> bool, default
    False)."""
    var, hi, lo = store._var, store._hi, store._lo
    while a > 1:
        a = hi[a] if assignment.get(var[a], False) else lo[a]
    return a == 1


def decode(store, x, env):
    """Integer value of the bit vector x (most significant bit first)
    under a truth assignment."""
    val = 0
    for bit in x:
        val = (val << 1) | (1 if eval_node(store, bit, env) else 0)
    return val


def disjoin(store, nodes):
    """The disjunction of nodes."""
    r = FALSE
    for n in nodes:
        r = store.apply_or(r, n)
    return r


def audit(store):
    """Check that every live node of store is reduced, ordered and the
    unique table's entry for its triple."""
    var, hi, lo = store._var, store._hi, store._lo
    freed = set(store._free)
    for h in range(2, len(var)):
        if h in freed:
            continue
        v, t, f = var[h], hi[h], lo[h]
        assert t != f, f"redundant test at node {h}"
        assert var[t] > v and var[f] > v, f"ordering violated at node {h}"
        key = (v << 32 | t) << 32 | f
        assert store._unique.get(key) == h, f"unique table inconsistent at node {h}"


def domain_bdd(state, v):
    """The domain of state's variable v (the variable or its index): the
    conjunction of its stick and remainder, built in state's store."""
    vi = v if isinstance(v, int) else state.var_index(v)
    return state.store.apply_and(state.stick[vi], state.rem[vi])


def collect_at_every_node(state, direct=False):
    """Make state.maintain(), which search calls at every node, collect
    garbage each time: through maintain() itself, or with direct set by
    calling store.collect_garbage(state.gc_roots()) in its place.  Returns
    a list to which each call appends the memo entries left after it."""
    maintain = state.maintain
    entries = []

    def collect_every_time():
        if direct:
            state.store.collect_garbage(state.gc_roots())
        else:
            # maintain() raises its trigger after each collection
            state._gc_trigger = 0
            maintain()
        entries.append(state.store.cache_entries())

    state.maintain = collect_every_time
    return entries


def truth_table(store, a, nvars):
    """Evaluate a on all assignments of variables 0..nvars-1."""
    rows = []
    for bits in itertools.product([False, True], repeat=nvars):
        rows.append(eval_node(store, a, dict(enumerate(bits))))
    return tuple(rows)


def random_bdd(store, nvars, rng, depth=0):
    """Build a random formula over variables 0..nvars-1, bottom-up."""
    choice = rng.random()
    if depth > 6 or choice < 0.25:
        r = rng.random()
        if r < 0.1:
            return FALSE
        if r < 0.2:
            return TRUE
        return store.literal(rng.randrange(nvars), rng.random() < 0.5)
    a = random_bdd(store, nvars, rng, depth + 1)
    b = random_bdd(store, nvars, rng, depth + 1)
    op = rng.choice(["and", "or", "xor", "iff"])
    return apply_op(store, op, a, b)


def apply_op(store, op, a, b):
    """a op b, for op one of "and", "or", "xor" and "iff"."""
    return getattr(store, f"apply_{op}")(a, b)


def models_of(store, a, var_list):
    """All satisfying assignments of a over var_list, as bit tuples."""
    out = []
    for bits in itertools.product([False, True], repeat=len(var_list)):
        if eval_node(store, a, dict(zip(var_list, bits))):
            out.append(bits)
    return out


@pytest.fixture
def deep_card_eq():
    """(store, v, card_eq(v, 500)) over a 1,000-element universe: a BDD
    1,000 levels deep, deeper than the default recursion limit.  Each
    test gets a fresh store, so no memo filled by another test spares it
    the walk."""
    store = NodeStore()
    (v,) = alloc_set_vars(store, Universe(1000), ["v"])
    return store, v, card_eq(store, v, 500)


@pytest.fixture
def rng():
    return random.Random(20240817)


def exists_table(table, qs, nvars):
    """Truth table of exists(qs, f), given the truth table of f.

    Row i of a table (as built by truth_table) assigns variable v the bit
    1 << (nvars - 1 - v) of i.
    """
    keep = ~sum(1 << (nvars - 1 - v) for v in qs)
    return tuple(
        any(table[j] for j in range(len(table)) if j & keep == i & keep)
        for i in range(len(table))
    )


def hot_tables(store):
    """The unique table and every handle-valued memo table of store."""
    return [store._unique, *store._memos]
