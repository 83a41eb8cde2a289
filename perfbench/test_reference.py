"""Tests of the reference checker on the paper's fixtures.

Run with ``python3 -m unittest discover -s perfbench -p 'test_*.py'``.
"""

from __future__ import annotations

import itertools
import unittest

import reference

# r=0; u=1 and w=2 each prefer the other, then the sink; no filters
NOGOOD = "nodes 3\nsink 0\nprefs 1: 2 0\nprefs 2: 1 0\n"
# r=0; a=1 prefers r then b; b=2 prefers a then r; no filters
TRI = "nodes 3\nsink 0\nprefs 1: 0 2\nprefs 2: 1 0\n"


class EquilibriumTest(unittest.TestCase):
    def test_nogood_has_no_equilibrium(self):
        self.assertEqual(reference.equilibria(reference.read_instance(NOGOOD)), [])

    def test_tri_has_exactly_one_equilibrium(self):
        # a takes the sink directly and b routes through a
        self.assertEqual(reference.equilibria(reference.read_instance(TRI)), [(None, 0, 1)])

    def test_max_stable_size(self):
        # NOGOOD: no equilibrium, so only the bare sink; tri: all three nodes
        self.assertEqual(reference.max_stable_size(reference.read_instance(NOGOOD)), 1)
        self.assertEqual(reference.max_stable_size(reference.read_instance(TRI)), 3)

    def test_filter_blocks_a_path(self):
        # with filter {1}, node 2 may not route through 1 and takes the sink
        inst = reference.read_instance(TRI + "filter 2: 1\n")
        self.assertEqual(reference.equilibria(inst), [(None, 0, 0)])


class SimulateTest(unittest.TestCase):
    def test_coordination_delivers_nogood_in_two_rounds_from_clear_start(self):
        inst = reference.read_instance(NOGOOD + "rg0 1: 0\nrg0 2: 0\n")
        # the coordination orders: round 1 reforms the first-choice cycle
        # {1, 2} around its clear node 1 (2 first, then 1); round 2 drags
        # both nodes into the sink-component (1 first, then 2)
        replay = reference.simulate(inst, [[2, 1], [1, 2]])
        self.assertEqual(replay.delivered_round, {1: 2, 2: 2})
        self.assertEqual(
            replay.summary,
            reference.Summary(
                delivered=2, total=2, last_round=2, equilibrium=False,
                imperfect_rounds=1, rounds=2,
            ),
        )

    def test_first_round_traps_both_packets(self):
        inst = reference.read_instance(NOGOOD + "rg0 1: 0\nrg0 2: 0\n")
        one = reference.simulate(inst, [[2, 1]], adversary="min-id")
        self.assertEqual(one.next_hops, (None, 2, 1))
        self.assertEqual(one.summary.delivered, 0)
        self.assertEqual(one.summary.imperfect_rounds, 1)
        # wherever the adversary leaves them on the cycle, 2 -> 0 and 1 -> 2
        # in round 2 deliver both
        for adversary in ("stay", "min-id", "max-id"):
            two = reference.simulate(inst, [[2, 1], [2, 1]], adversary=adversary)
            self.assertEqual(two.delivered_round, {1: 2, 2: 2})
            self.assertEqual(two.next_hops, (None, 2, 0))

    def test_summary_line_round_trip(self):
        line = ("delivered 2/2 by round 2; equilibrium: no; "
                "imperfect rounds: 1; rounds executed: 2")
        self.assertEqual(
            reference.parse_summary(line),
            reference.Summary(2, 2, 2, False, 1, 2),
        )
        never = reference.parse_summary(
            "delivered 0/4 never; equilibrium: yes; imperfect rounds: 3; "
            "rounds executed: 3")
        self.assertIsNone(never.last_round)

    def test_trace_permutations(self):
        trace = [
            "round 0 | verify clear={0,1,2}",
            "round 1 | activate 2 -> 1 path=2-1-0",
            "round 1 | activate 1 -> 2 path=1-2-1-0",
            "round 1 | forward pkt=1 1->2",
            "round 2 | activate 1 -> 0 path=1-0",
            "round 2 | activate 2 -> 1 path=2-1-0",
        ]
        self.assertEqual(reference.trace_permutations(trace), [[2, 1], [1, 2]])


class SatisfiableTest(unittest.TestCase):
    def test_contradiction(self):
        self.assertFalse(reference.satisfiable(1, [(1, 1, 1), (-1, -1, -1)]))

    def test_satisfiable(self):
        self.assertTrue(reference.satisfiable(2, [(1, 2, 2), (-1, 2, 2), (1, -2, -2)]))
        self.assertTrue(reference.satisfies((True, True), [(1, 2, 2), (-1, 2, 2)]))

    def test_all_sign_patterns_unsatisfiable(self):
        clauses = [
            tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
            for signs in itertools.product((True, False), repeat=3)
        ]
        self.assertFalse(reference.satisfiable(3, clauses))
        self.assertTrue(reference.satisfiable(3, clauses[1:]))


if __name__ == "__main__":
    unittest.main()
