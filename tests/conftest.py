import itertools
import random

import pytest

from bddsets import analysis
from bddsets.engine import FALSE, TRUE, NodeStore

# verify the split size inequality on every split performed under test
analysis.check_split_sizes = True


@pytest.fixture
def store():
    return NodeStore(debug_checks=True)


def truth_table(store, a, nvars):
    """Evaluate a on all assignments of variables 0..nvars-1."""
    rows = []
    for bits in itertools.product([False, True], repeat=nvars):
        rows.append(store.eval_node(a, dict(enumerate(bits))))
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
        if store.eval_node(a, dict(zip(var_list, bits))):
            out.append(bits)
    return out


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
    tables = [store._unique, *store._memos]
    for _, _, memos in store._quantifier_cores.values():
        tables.extend(memos)
    return tables
