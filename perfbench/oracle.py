"""Ground truth the benchmark checks the program against.

Nothing here calls into ``repro``: chains and networks are evaluated by
plain bit-parallel simulation over Python ints, NPN orbits are
enumerated directly, and the cost table of 4-input functions comes from
an exhaustive enumeration of normal Boolean chains, checked against the
counts Knuth publishes.

Truth tables are ints: bit ``m`` is the value on input row ``m``, where
input ``i`` is bit ``i`` of ``m``.
"""

from __future__ import annotations

import functools
import itertools

#: Number of 4-input Boolean functions of each cost 0..7 (2-input
#: gates, complemented inputs and outputs free), transcribed from
#: Knuth, TAOCP Vol. 4A, Section 7.1.2.
KNUTH_COST_COUNTS_4 = (10, 60, 456, 2474, 10624, 24184, 25008, 2720)

#: The ten 2-input operators that depend on both inputs (bit ``r`` of
#: the code is the output on row ``r = a | b << 1``).
NONTRIVIAL_OPS = (1, 2, 4, 6, 7, 8, 9, 11, 13, 14)


def full_mask(num_vars: int) -> int:
    """The all-ones table over ``num_vars`` inputs."""
    return (1 << (1 << num_vars)) - 1


def var_table(var: int, num_vars: int) -> int:
    """The table of the projection ``f(x) = x_var``."""
    bits = 0
    for m in range(1 << num_vars):
        if (m >> var) & 1:
            bits |= 1 << m
    return bits


def apply_lut(op: int, fanins: list[int], mask: int) -> int:
    """The table of a LUT with code ``op`` over fanin tables ``fanins``
    (``fanins[0]`` is the least significant local input)."""
    out = 0
    for row in range(1 << len(fanins)):
        if not (op >> row) & 1:
            continue
        term = mask
        for j, table in enumerate(fanins):
            term &= table if (row >> j) & 1 else ~table & mask
        out |= term
    return out


def eval_chain(num_inputs: int, gates, outputs) -> list[int]:
    """Output tables of a Boolean chain given as plain data.

    ``gates`` is a sequence of ``(op, fanins)``; signals ``0..n-1`` are
    the inputs and gate ``i`` is signal ``n + i``.  ``outputs`` is a
    sequence of ``(signal, complemented)``; signal ``-1`` is constant 0.
    """
    mask = full_mask(num_inputs)
    signals = [var_table(i, num_inputs) for i in range(num_inputs)]
    for op, fanins in gates:
        if any(not 0 <= f < len(signals) for f in fanins):
            raise ValueError(f"fanin out of range in gate {op}:{fanins}")
        signals.append(apply_lut(op, [signals[f] for f in fanins], mask))
    tables = []
    for signal, complemented in outputs:
        value = 0 if signal == -1 else signals[signal]
        tables.append(value ^ mask if complemented else value)
    return tables


def eval_record(record: dict) -> list[int]:
    """:func:`eval_chain` over a JSON chain record
    (``{"inputs", "gates": [[op, [fanins]]], "outputs": [[s, c]]}``)."""
    return eval_chain(
        int(record["inputs"]),
        [(int(op), list(fanins)) for op, fanins in record["gates"]],
        [(int(s), bool(c)) for s, c in record["outputs"]],
    )


def simulate_network(num_pis: int, nodes: dict, pis, pos) -> list[int]:
    """Exhaustive simulation of a LUT network given as plain data.

    ``nodes`` maps a node id to ``(fanins, op)``; ``pis`` lists the PI
    ids in variable order; ``pos`` lists ``(node id, complemented)``.
    """
    mask = full_mask(num_pis)
    values = {uid: var_table(i, num_pis) for i, uid in enumerate(pis)}

    def value_of(root: int) -> int:
        stack = [root]
        while stack:
            uid = stack[-1]
            if uid in values:
                stack.pop()
                continue
            fanins, op = nodes[uid]
            pending = [f for f in fanins if f not in values]
            if pending:
                stack.extend(pending)
                continue
            values[uid] = apply_lut(op, [values[f] for f in fanins], mask)
            stack.pop()
        return values[root]

    return [
        value_of(uid) ^ (mask if complemented else 0) for uid, complemented in pos
    ]


# ----------------------------------------------------------------------
# NPN orbits
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _row_maps(num_vars: int) -> list[list[int]]:
    """For each input permutation and negation, the map from a row of
    the transformed function to the row of the original it reads."""
    maps = []
    rows = range(1 << num_vars)
    for perm in itertools.permutations(range(num_vars)):
        for flips in rows:
            row_map = []
            for m in rows:
                source = 0
                for i, p in enumerate(perm):
                    source |= ((m >> p) & 1) << i
                row_map.append(source ^ flips)
            maps.append(row_map)
    return maps


def npn_orbit(bits: int, num_vars: int) -> frozenset[int]:
    """Every table reachable from ``bits`` by permuting and negating
    inputs and negating the output."""
    mask = full_mask(num_vars)
    orbit = set()
    for row_map in _row_maps(num_vars):
        table = 0
        for m, source in enumerate(row_map):
            table |= ((bits >> source) & 1) << m
        orbit.add(table)
        orbit.add(table ^ mask)
    return frozenset(orbit)


def npn_classes(num_vars: int) -> list[tuple[int, int]]:
    """``(orbit minimum, orbit size)`` of every NPN class, by sweeping
    all ``2^(2^n)`` tables and marking each orbit once."""
    seen = bytearray(1 << (1 << num_vars))
    classes = []
    for bits in range(len(seen)):
        if seen[bits]:
            continue
        orbit = npn_orbit(bits, num_vars)
        for member in orbit:
            seen[member] = 1
        classes.append((min(orbit), len(orbit)))
    return classes


# ----------------------------------------------------------------------
# cost table by chain enumeration
# ----------------------------------------------------------------------
def costs_4() -> dict[int, int]:
    """Minimum chain length of every 4-input function of cost at most
    4, by enumerating normal chains.

    A chain is kept as the set of its gate tables; chains with equal
    sets are merged before they are extended.  The last gate is only
    computed, never kept, and runs vectorized over NumPy arrays.
    """
    import numpy as np

    n, mask, max_gates = 4, 0xFFFF, 4
    inputs = [var_table(i, n) for i in range(n)]
    cost = {0: 0, mask: 0}
    for x in inputs:
        cost[x] = 0
        cost[x ^ mask] = 0
    states = {frozenset()}
    for depth in range(1, max_gates):
        grown = set()
        for state in states:
            signals = inputs + sorted(state)
            for a, b in itertools.combinations(signals, 2):
                for op in NONTRIVIAL_OPS:
                    g = apply_lut(op, [a, b], mask)
                    if g in state or g in cost and cost[g] == 0:
                        continue
                    grown.add(state | {g})
                    cost.setdefault(g, depth)
        states = grown
    # Last gate: every pair of signals of every state, all ops at once.
    width = n + max_gates - 1
    matrix = np.array(
        [inputs + sorted(state) for state in states if len(state) == max_gates - 1],
        dtype=np.uint32,
    ).reshape(-1, width)
    seen = np.zeros(1 << 16, dtype=bool)
    for i, j in itertools.combinations(range(width), 2):
        a, b = matrix[:, i], matrix[:, j]
        na, nb = a ^ mask, b ^ mask
        literal = {0: na & nb, 1: a & nb, 2: na & b, 3: a & b}
        for op in NONTRIVIAL_OPS:
            out = np.zeros_like(a)
            for row in range(4):
                if (op >> row) & 1:
                    out |= literal[row]
            seen[out] = True
    for g in np.flatnonzero(seen).tolist():
        cost.setdefault(int(g), max_gates)
    return cost


def cost_counts(cost: dict[int, int], max_gates: int) -> list[int]:
    """How many functions have each cost ``0..max_gates``."""
    counts = [0] * (max_gates + 1)
    for value in cost.values():
        counts[value] += 1
    return counts
