"""Tests of the benchmark's own checkers.

Run from the repository root:

    python3 -m unittest bench/test_bench.py
"""

from __future__ import annotations

import os
import random
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import common  # noqa: E402
import run  # noqa: E402
from artifact import invariants, ssorbits as ss  # noqa: E402
from artifact.exactfield import IMAG, CycNum  # noqa: E402
from artifact.groupaction import act_tensor, gelt_from_names  # noqa: E402

#: Row pairs of one block whose default instances are related by a real
#: element of {+-I, +-J}^4: (i, j, k1, k2).
RELATED_PAIRS = {
    (2, 2, 1, 2), (2, 2, 3, 4), (2, 3, 1, 3), (2, 3, 2, 4), (2, 4, 1, 4),
    (2, 4, 2, 3), (2, 5, 1, 4), (2, 5, 2, 3), (2, 6, 1, 3), (2, 6, 2, 4),
    (2, 7, 1, 2), (2, 7, 3, 4), (4, 2, 1, 2), (5, 2, 1, 2), (6, 2, 1, 2),
}


def default_rows():
    out = []
    for i, j, k in ss.table_rows():
        t = ss.row_tensor(i, j, k, ss.default_lambda(i, j))
        out.append(((i, j, k), t, run._raw_tensor(t)))
    return out


class FloatInvariantsTest(unittest.TestCase):
    def test_agree_with_exact_invariants_on_all_row_pairs(self):
        rows = default_rows()
        exact = [invariants.invariants_of(t) for _, t, _ in rows]
        approx = [common.tensor_invariants(raw) for _, _, raw in rows]
        disagreements = pairs = 0
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                pairs += 1
                same_exact = exact[a] == exact[b]
                same_float = common.invariants_close(approx[a], approx[b])
                disagreements += same_exact != same_float
        self.assertEqual(pairs, 162 * 161 // 2)
        self.assertEqual(disagreements, 0)

    def test_invariant_under_group_action(self):
        raw = run._raw_tensor(ss.row_tensor(1, 1, 1, ss.default_lambda(1, 1)))
        t = ss.row_tensor(1, 1, 1, ss.default_lambda(1, 1))
        moved = act_tensor(gelt_from_names("F,I,J,F"), t)
        self.assertTrue(common.invariants_close(
            common.tensor_invariants(raw),
            common.tensor_invariants(run._raw_tensor(moved))))


class RelationFinderTest(unittest.TestCase):
    def test_recovers_the_fifteen_pairs(self):
        rows = default_rows()
        groups = common.relation_groups([raw for _, _, raw in rows])
        found = set()
        for group in groups:
            self.assertEqual(len(group), 2)
            (i, j, k1), t1, raw1 = rows[group[0]]
            (i2, j2, k2), t2, raw2 = rows[group[1]]
            self.assertEqual((i, j), (i2, j2))
            found.add((i, j, min(k1, k2), max(k1, k2)))
            mask, sign = common.find_relation(raw1, raw2)
            h = gelt_from_names(common.move_names(mask, sign))
            self.assertEqual(act_tensor(h, t1), t2)
        self.assertEqual(found, RELATED_PAIRS)

    def test_jjjj_relates_2_2_1_and_2_2_2(self):
        lams = ss.default_lambda(2, 2)
        t1 = ss.row_tensor(2, 2, 1, lams)
        t2 = ss.row_tensor(2, 2, 2, lams)
        self.assertEqual(act_tensor(gelt_from_names("J,J,J,J"), t1), t2)
        move = common.find_relation(run._raw_tensor(t1), run._raw_tensor(t2))
        self.assertIsNotNone(move)
        self.assertEqual(common.move_names(*move).replace("-", ""), "J,J,J,J")

    def test_unrelated_rows_have_no_relation(self):
        lams = ss.default_lambda(1, 1)
        t1 = run._raw_tensor(ss.row_tensor(1, 1, 1, lams))
        t2 = run._raw_tensor(ss.row_tensor(1, 1, 2, lams))
        self.assertIsNone(common.find_relation(t1, t2))


class ParameterGeneratorTest(unittest.TestCase):
    def test_draws_are_admissible_for_the_package(self):
        rng = random.Random(5)
        for blk in ss.blocks():
            pattern = blk.reality
            for _ in range(40):
                params = common.draw_params(rng, pattern.tags, pattern.avoid)
                lams = tuple(
                    CycNum.from_rational(re) + CycNum.from_rational(im) * IMAG
                    for re, im in params
                )
                self.assertTrue(pattern.accepts(lams), (blk.i, blk.j, params))

    def test_rejects_what_the_package_rejects(self):
        pattern = ss.reality_pattern(1, 1)
        ones = [(Fraction(1), Fraction(0))] * len(pattern.tags)
        self.assertFalse(pattern.accepts([CycNum.from_rational(1)] * len(pattern.tags)))
        self.assertFalse(common.admissible(ones, pattern.tags, pattern.avoid))


class MatrixGroupCheckTest(unittest.TestCase):
    def test_flags_a_set_that_is_not_closed(self):
        group = list(ss.real_weyl_group(1))
        self.assertIsNone(run.check_matrix_group(group))
        swap = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        flip = ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        identity = tuple(tuple(int(r == c) for c in range(4)) for r in range(4))
        self.assertIsNotNone(run.check_matrix_group([identity, swap, flip]))


if __name__ == "__main__":
    unittest.main()
