"""A compact reduced-ordered BDD (ROBDD) engine.

First-party and dependency-free: the exact signal-probability backend and
the cut-based SP backend both build on it, and the tests use it as ground
truth for Boolean reasoning.  The implementation follows the classic
unique-table + memoized ITE construction (Brace/Rudell/Bryant).

Node ids are plain ints; ``0`` and ``1`` are the terminal constants.
Variables are identified by integer *levels* — a smaller level is closer to
the root, so the caller controls the variable order by the numbers it picks.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.errors import ProbabilityError

__all__ = ["BDD"]

_TERMINAL_VAR = 1 << 60  # larger than any real level


class BDD:
    """One BDD manager: a shared unique table plus ITE/probability caches.

    Parameters
    ----------
    max_nodes:
        Hard cap on the number of allocated nodes; exceeding it raises
        :class:`~repro.errors.ProbabilityError` instead of letting an
        exponential construction consume the machine.
    """

    ZERO = 0
    ONE = 1

    def __init__(self, max_nodes: int = 2_000_000):
        # nodes[i] = (var_level, low_child, high_child); two terminal slots.
        self._var: list[int] = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low: list[int] = [0, 1]
        self._high: list[int] = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self.max_nodes = max_nodes

    # ------------------------------------------------------------- structure

    def __len__(self) -> int:
        return len(self._var)

    def mk(self, var: int, low: int, high: int) -> int:
        """Find-or-create the node ``(var, low, high)`` (reduced)."""
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if len(self._var) >= self.max_nodes:
            raise ProbabilityError(
                f"BDD exceeded max_nodes={self.max_nodes}; "
                "the function is too large for exact analysis"
            )
        node_id = len(self._var)
        self._var.append(var)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node_id
        return node_id

    def var(self, level: int) -> int:
        """The single-variable function ``x_level``."""
        if level >= _TERMINAL_VAR:
            raise ProbabilityError(f"variable level {level} too large")
        return self.mk(level, self.ZERO, self.ONE)

    def var_of(self, f: int) -> int:
        return self._var[f]

    def cofactors(self, f: int, level: int) -> tuple[int, int]:
        """(f|var=0, f|var=1) with respect to the top level ``level``."""
        if self._var[f] == level:
            return self._low[f], self._high[f]
        return f, f

    # ------------------------------------------------------------ operations

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h`` — the universal connective."""
        if f == self.ONE:
            return g
        if f == self.ZERO:
            return h
        if g == h:
            return g
        if g == self.ONE and h == self.ZERO:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self.cofactors(f, level)
        g0, g1 = self.cofactors(g, level)
        h0, h1 = self.cofactors(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self.mk(level, low, high)
        self._ite_cache[key] = result
        return result

    def not_(self, f: int) -> int:
        return self.ite(f, self.ZERO, self.ONE)

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, self.ZERO)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, self.ONE, g)

    def xor_(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def and_many(self, fs: Sequence[int]) -> int:
        acc = self.ONE
        for f in fs:
            acc = self.and_(acc, f)
        return acc

    def or_many(self, fs: Sequence[int]) -> int:
        acc = self.ZERO
        for f in fs:
            acc = self.or_(acc, f)
        return acc

    def xor_many(self, fs: Sequence[int]) -> int:
        acc = self.ZERO
        for f in fs:
            acc = self.xor_(acc, f)
        return acc

    def compose_truth_table(self, table: Sequence[int], inputs: Sequence[int]) -> int:
        """Build ``f(g_0, ..., g_{k-1})`` from ``f``'s truth table.

        ``table`` has ``2**k`` entries indexed LSB-first by input number
        (the convention of :func:`repro.netlist.gate_types.truth_table`);
        ``inputs`` are BDD functions.  Shannon-expands on the inputs.
        """
        k = len(inputs)
        if len(table) != (1 << k):
            raise ProbabilityError(
                f"truth table has {len(table)} entries, expected {1 << k}"
            )

        def expand(position: int, index: int) -> int:
            if position == k:
                return self.ONE if table[index] else self.ZERO
            low = expand(position + 1, index)
            high = expand(position + 1, index | (1 << position))
            return self.ite(inputs[position], high, low)

        return expand(0, 0)

    # --------------------------------------------------------------- queries

    def evaluate(self, f: int, assignment: Mapping[int, int]) -> int:
        """Evaluate ``f`` under a level -> 0/1 assignment."""
        while f > self.ONE:
            level = self._var[f]
            try:
                bit = assignment[level]
            except KeyError:
                raise ProbabilityError(f"assignment missing variable level {level}") from None
            f = self._high[f] if bit else self._low[f]
        return f

    def sat_prob(self, f: int, probs: Mapping[int, float]) -> float:
        """Probability that ``f`` is 1 under independent variable probabilities."""
        cache: dict[int, float] = {self.ZERO: 0.0, self.ONE: 1.0}

        def walk(node: int) -> float:
            cached = cache.get(node)
            if cached is not None:
                return cached
            level = self._var[node]
            try:
                p = probs[level]
            except KeyError:
                raise ProbabilityError(
                    f"sat_prob missing probability for variable level {level}"
                ) from None
            value = (1.0 - p) * walk(self._low[node]) + p * walk(self._high[node])
            cache[node] = value
            return value

        return walk(f)

