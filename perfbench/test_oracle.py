"""Tests of the benchmark's own oracle and inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import random

import inputs
import oracle

#: x0 ^ x1 ^ x2 as a 2-gate chain (op 6 is XOR); every row of every
#: gate is observable at the output.
XOR3_GATES = [(6, (0, 1)), (6, (3, 2))]
XOR3 = 0x96


def test_chain_evaluator_realizes_xor3():
    assert oracle.eval_chain(3, XOR3_GATES, [(4, False)]) == [XOR3]
    assert oracle.eval_chain(3, XOR3_GATES, [(4, True)]) == [XOR3 ^ 0xFF]
    assert oracle.eval_chain(3, [], [(-1, True)]) == [0xFF]


def test_chain_evaluator_rejects_every_single_bit_flip():
    for index, (op, fanins) in enumerate(XOR3_GATES):
        for bit in range(4):
            gates = list(XOR3_GATES)
            gates[index] = (op ^ (1 << bit), fanins)
            assert oracle.eval_chain(3, gates, [(4, False)]) != [XOR3]


def test_record_form_matches_plain_form():
    record = {"v": 1, "inputs": 3, "gates": [[6, [0, 1]], [6, [3, 2]]], "outputs": [[4, False]]}
    assert oracle.eval_record(record) == [XOR3]


def test_network_simulator_rejects_every_flip_on_an_xor_tree():
    net = {"pis": 3, "nodes": [((0, 1), 6), ((3, 2), 6)], "pos": [(4, False)]}
    nodes = {3 + i: node for i, node in enumerate(net["nodes"])}
    assert oracle.simulate_network(3, nodes, [0, 1, 2], net["pos"]) == [XOR3]
    for uid in nodes:
        for bit in range(4):
            fanins, op = nodes[uid]
            flipped = dict(nodes)
            flipped[uid] = (fanins, op ^ (1 << bit))
            assert oracle.simulate_network(3, flipped, [0, 1, 2], net["pos"]) != [XOR3]


def test_orbits_split_all_4_input_functions_into_222_classes():
    classes = oracle.npn_classes(4)
    assert len(classes) == 222
    assert sum(size for _, size in classes) == 1 << 16


def test_orbits_of_3_input_functions():
    classes = oracle.npn_classes(3)
    assert len(classes) == 14
    assert sum(size for _, size in classes) == 256


def test_knuth_counts_sum_to_all_functions():
    assert sum(oracle.KNUTH_COST_COUNTS_4) == 1 << 16


def test_chain_enumeration_reproduces_knuth_counts():
    costs = oracle.costs_4()
    assert oracle.cost_counts(costs, 4) == list(oracle.KNUTH_COST_COUNTS_4[:5])
    # The benchmark's class table is exactly the enumeration's.
    table = sorted(
        (rep, costs[rep]) for rep, _ in oracle.npn_classes(4) if rep in costs
    )
    assert table == sorted(inputs.CLASSES4_UPTO4)


def test_relabel_keeps_the_structure_and_changes_only_labels():
    rng = random.Random(3)
    for net in inputs.base_networks():
        relabeled = inputs.relabel(rng, net)
        assert len(relabeled["nodes"]) == len(net["nodes"])
        assert len(relabeled["pos"]) == len(net["pos"])
        for (fanins, op), (new_fanins, new_op) in zip(net["nodes"], relabeled["nodes"]):
            assert (min(fanins) < net["pis"]) == (min(new_fanins) < net["pis"])
            assert new_op in oracle.NONTRIVIAL_OPS
