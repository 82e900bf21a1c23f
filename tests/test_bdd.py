"""ROBDD engine: reduction invariants, operations, probabilities."""

import itertools

import pytest

from repro.errors import ProbabilityError
from repro.probability.bdd import BDD


class TestStructure:
    def test_terminals(self):
        bdd = BDD()
        assert BDD.ZERO == 0 and BDD.ONE == 1
        assert len(bdd) == 2

    def test_mk_reduces_equal_children(self):
        bdd = BDD()
        assert bdd.mk(0, 1, 1) == 1

    def test_mk_hashconses(self):
        bdd = BDD()
        a = bdd.mk(0, 0, 1)
        b = bdd.mk(0, 0, 1)
        assert a == b

    def test_var(self):
        bdd = BDD()
        x = bdd.var(3)
        assert bdd.evaluate(x, {3: 0}) == 0
        assert bdd.evaluate(x, {3: 1}) == 1

    def test_max_nodes_guard(self):
        bdd = BDD(max_nodes=4)
        with pytest.raises(ProbabilityError, match="max_nodes"):
            # parity of many variables forces many nodes
            bdd.xor_many([bdd.var(i) for i in range(8)])


class TestOperations:
    def _exhaustive_check(self, bdd, node, n_vars, fn):
        for bits in itertools.product((0, 1), repeat=n_vars):
            assignment = dict(enumerate(bits))
            assert bdd.evaluate(node, assignment) == fn(*bits), bits

    def test_and_or_not(self):
        bdd = BDD()
        x, y = bdd.var(0), bdd.var(1)
        self._exhaustive_check(bdd, bdd.and_(x, y), 2, lambda a, b: a & b)
        self._exhaustive_check(bdd, bdd.or_(x, y), 2, lambda a, b: a | b)
        self._exhaustive_check(bdd, bdd.not_(x), 2, lambda a, b: 1 - a)

    def test_xor(self):
        bdd = BDD()
        x, y, z = bdd.var(0), bdd.var(1), bdd.var(2)
        self._exhaustive_check(
            bdd, bdd.xor_many([x, y, z]), 3, lambda a, b, c: a ^ b ^ c
        )

    def test_ite(self):
        bdd = BDD()
        s, a, b = bdd.var(0), bdd.var(1), bdd.var(2)
        self._exhaustive_check(
            bdd, bdd.ite(s, a, b), 3, lambda sv, av, bv: av if sv else bv
        )

    def test_double_negation_is_identity(self):
        bdd = BDD()
        f = bdd.and_(bdd.var(0), bdd.or_(bdd.var(1), bdd.var(2)))
        assert bdd.not_(bdd.not_(f)) == f

    def test_compose_truth_table_majority(self):
        bdd = BDD()
        variables = [bdd.var(i) for i in range(3)]
        table = tuple(
            int(sum((i >> k) & 1 for k in range(3)) >= 2) for i in range(8)
        )
        maj = bdd.compose_truth_table(table, variables)
        self._exhaustive_check(bdd, maj, 3, lambda a, b, c: int(a + b + c >= 2))

    def test_compose_truth_table_size_mismatch(self):
        bdd = BDD()
        with pytest.raises(ProbabilityError):
            bdd.compose_truth_table((0, 1), [bdd.var(0), bdd.var(1)])


class TestQueries:
    def test_sat_prob_single_var(self):
        bdd = BDD()
        assert bdd.sat_prob(bdd.var(0), {0: 0.3}) == pytest.approx(0.3)

    def test_sat_prob_and(self):
        bdd = BDD()
        f = bdd.and_(bdd.var(0), bdd.var(1))
        assert bdd.sat_prob(f, {0: 0.5, 1: 0.25}) == pytest.approx(0.125)

    def test_sat_prob_matches_enumeration(self):
        bdd = BDD()
        x, y, z = (bdd.var(i) for i in range(3))
        f = bdd.or_(bdd.and_(x, y), bdd.xor_(y, z))
        probs = {0: 0.2, 1: 0.7, 2: 0.4}
        expected = 0.0
        for bits in itertools.product((0, 1), repeat=3):
            weight = 1.0
            for level, bit in enumerate(bits):
                weight *= probs[level] if bit else 1 - probs[level]
            if bdd.evaluate(f, dict(enumerate(bits))):
                expected += weight
        assert bdd.sat_prob(f, probs) == pytest.approx(expected)

    def test_sat_prob_missing_probability(self):
        bdd = BDD()
        with pytest.raises(ProbabilityError, match="missing probability"):
            bdd.sat_prob(bdd.var(5), {})

    def test_absorption_shrinks_support(self):
        # x2 AND (x5 OR x2) == x2: canonical form drops the dead variable.
        bdd = BDD()
        f = bdd.and_(bdd.var(2), bdd.or_(bdd.var(5), bdd.var(2)))
        assert f == bdd.var(2)

    def test_evaluate_missing_var(self):
        bdd = BDD()
        with pytest.raises(ProbabilityError):
            bdd.evaluate(bdd.var(1), {})
