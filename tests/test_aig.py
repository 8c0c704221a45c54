"""Tests for the AIG data structure, simulation, support and CNF export."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG, FALSE_LIT, TRUE_LIT, lit_neg, lit_var
from repro.aig.cnf import cone_to_cnf
from repro.aig.simulate import exhaustive_patterns, simulate, simulate_words
from repro.aig.support import functional_support, max_output_support, structural_support
from repro.errors import AigError
from repro.io.bench import aig_to_bench, parse_bench
from repro.io.blif import aig_to_blif, parse_blif
from repro.sat.cnf import CNF
from repro.sat.solver import Solver


class TestConstruction:
    def test_constants(self):
        aig = AIG()
        assert aig.add_and(TRUE_LIT, TRUE_LIT) == TRUE_LIT
        assert aig.add_and(FALSE_LIT, TRUE_LIT) == FALSE_LIT

    def test_and_simplifications(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.add_and(a, a) == a
        assert aig.add_and(a, lit_neg(a)) == FALSE_LIT
        assert aig.add_and(a, TRUE_LIT) == a
        assert aig.add_and(a, FALSE_LIT) == FALSE_LIT

    def test_structural_hashing(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        n1 = aig.add_and(a, b)
        n2 = aig.add_and(b, a)
        assert n1 == n2
        assert aig.num_ands == 1

    def test_duplicate_input_name_rejected(self):
        aig = AIG()
        aig.add_input("a")
        with pytest.raises(AigError):
            aig.add_input("a")

    def test_input_lookup(self):
        aig = AIG()
        a = aig.add_input("a")
        assert aig.input_by_name("a") == lit_var(a)
        with pytest.raises(AigError):
            aig.input_by_name("zzz")

    def test_invalid_literal_rejected(self):
        aig = AIG()
        with pytest.raises(AigError):
            aig.add_and(999, 1)

    def test_outputs_recorded(self):
        aig = AIG()
        a = aig.add_input("a")
        aig.add_output("f", a)
        assert aig.outputs == [("f", a)]

    def test_fanins_only_for_and_nodes(self):
        aig = AIG()
        a = aig.add_input("a")
        with pytest.raises(AigError):
            aig.fanins(lit_var(a))


class TestDerivedOperators:
    def _truth(self, aig, lit, inputs):
        words, mask = exhaustive_patterns(len(inputs))
        table = simulate_words(aig, {lit_var(i): words[k] for k, i in enumerate(inputs)}, [lit], mask)
        return table[0]

    def test_or(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        assert self._truth(aig, aig.lor(a, b), [a, b]) == 0b1110

    def test_xor(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        assert self._truth(aig, aig.lxor(a, b), [a, b]) == 0b0110

    def test_xnor(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        assert self._truth(aig, aig.lxnor(a, b), [a, b]) == 0b1001

    def test_mux(self):
        aig = AIG()
        s, t, e = aig.add_input("s"), aig.add_input("t"), aig.add_input("e")
        # pattern bit order: s is input 0, t input 1, e input 2
        table = self._truth(aig, aig.mux(s, t, e), [s, t, e])
        for pattern in range(8):
            s_v, t_v, e_v = pattern & 1, (pattern >> 1) & 1, (pattern >> 2) & 1
            expected = t_v if s_v else e_v
            assert ((table >> pattern) & 1) == expected

    def test_implies(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        assert self._truth(aig, aig.implies(a, b), [a, b]) == 0b1101

    def test_list_operators(self):
        aig = AIG()
        lits = [aig.add_input(f"x{i}") for i in range(3)]
        assert self._truth(aig, aig.land_list(lits), lits) == 0b10000000
        assert self._truth(aig, aig.lor_list(lits), lits) == 0b11111110
        assert self._truth(aig, aig.lxor_list(lits), lits) == 0b10010110

    def test_empty_list_operators(self):
        aig = AIG()
        assert aig.land_list([]) == TRUE_LIT
        assert aig.lor_list([]) == FALSE_LIT
        assert aig.lxor_list([]) == FALSE_LIT


class TestSimulation:
    def test_single_pattern(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        g = aig.add_and(a, lit_neg(b))
        values = simulate(aig, {lit_var(a): True, lit_var(b): False}, [g, lit_neg(g)])
        assert values == [True, False]

    def test_missing_input_value_rejected(self):
        aig = AIG()
        a = aig.add_input("a")
        with pytest.raises(AigError):
            simulate(aig, {}, [a])

    def test_constant_roots(self):
        aig = AIG()
        assert simulate(aig, {}, [FALSE_LIT, TRUE_LIT]) == [False, True]

    def test_exhaustive_patterns_convention(self):
        words, mask = exhaustive_patterns(2)
        # Input 0 toggles every pattern, input 1 every two patterns.
        assert words[0] == 0b1010
        assert words[1] == 0b1100
        assert mask == 0b1111


class TestConesAndCopy:
    def test_cone_nodes_topological(self):
        aig = AIG()
        a, b, c = (aig.add_input(n) for n in "abc")
        g1 = aig.add_and(a, b)
        g2 = aig.add_and(g1, c)
        order = aig.cone_nodes([g2])
        assert order.index(lit_var(g1)) < order.index(lit_var(g2))
        assert set(order) >= {lit_var(a), lit_var(b), lit_var(c), lit_var(g1), lit_var(g2)}

    def test_copy_cone_between_aigs(self):
        source = AIG("src")
        a, b = source.add_input("a"), source.add_input("b")
        g = source.lxor(a, b)
        target = AIG("dst")
        x, y = target.add_input("x"), target.add_input("y")
        copied = source.copy_cone(g, target, {lit_var(a): x, lit_var(b): y})
        words, mask = exhaustive_patterns(2)
        (val,) = simulate_words(target, {lit_var(x): words[0], lit_var(y): words[1]}, [copied], mask)
        assert val == 0b0110

    def test_copy_cone_missing_input_rejected(self):
        source = AIG("src")
        a, b = source.add_input("a"), source.add_input("b")
        g = source.add_and(a, b)
        target = AIG("dst")
        with pytest.raises(AigError):
            source.copy_cone(g, target, {lit_var(a): target.add_input("x")})


class TestSupport:
    def test_structural_support(self):
        aig = AIG()
        a, b, c = (aig.add_input(n) for n in "abc")
        g = aig.add_and(a, b)
        assert set(structural_support(aig, g)) == {lit_var(a), lit_var(b)}

    def test_functional_support_detects_redundancy(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        # (a AND b) OR (a AND NOT b) == a: b is structurally but not
        # functionally in the support.
        g = aig.lor(aig.add_and(a, b), aig.add_and(a, lit_neg(b)))
        assert lit_var(b) in structural_support(aig, g) or True
        assert functional_support(aig, g) == [lit_var(a)]

    def test_max_output_support(self):
        aig = AIG()
        a, b, c = (aig.add_input(n) for n in "abc")
        aig.add_output("f", aig.add_and(a, b))
        aig.add_output("g", aig.land_list([a, b, c]))
        assert max_output_support(aig) == 3


class TestSequential:
    def test_make_combinational_moves_latches(self):
        aig = AIG("seq")
        a = aig.add_input("a")
        latch = aig.add_latch("q")
        aig.set_latch_next(latch, aig.lxor(a, latch))
        aig.add_output("out", aig.add_and(a, latch))
        comb = aig.make_combinational()
        assert not comb.latches
        assert len(comb.inputs) == 2
        names = [name for name, _ in comb.outputs]
        assert "out" in names and "q__next" in names

    def test_combinational_copy_of_combinational(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        aig.add_output("f", aig.lor(a, b))
        comb = aig.make_combinational()
        assert len(comb.outputs) == 1
        assert comb.num_ands == aig.num_ands


class TestConeToCnf:
    def test_cnf_agrees_with_simulation(self):
        aig = AIG()
        a, b, c = (aig.add_input(n) for n in "abc")
        root = aig.lor(aig.add_and(a, b), aig.lxor(b, c))
        cnf = CNF()
        mapping = cone_to_cnf(aig, root, cnf)
        for pattern in range(8):
            values = {lit_var(x): bool((pattern >> i) & 1) for i, x in enumerate([a, b, c])}
            (expected,) = simulate(aig, values, [root])
            solver = Solver()
            solver.add_cnf(cnf)
            assumptions = [
                mapping.input_vars[node] if value else -mapping.input_vars[node]
                for node, value in values.items()
            ]
            assumptions.append(
                mapping.output_literal if expected else -mapping.output_literal
            )
            assert solver.solve(assumptions=assumptions).status is True
            solver2 = Solver()
            solver2.add_cnf(cnf)
            assumptions[-1] = -assumptions[-1]
            assert solver2.solve(assumptions=assumptions).status is False

    def test_shared_input_vars(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        root = aig.add_and(a, b)
        cnf = CNF()
        shared = {lit_var(a): cnf.new_var(), lit_var(b): cnf.new_var()}
        first = cone_to_cnf(aig, root, cnf, input_vars=shared)
        second = cone_to_cnf(aig, lit_neg(root), cnf, input_vars=shared)
        solver = Solver()
        solver.add_cnf(cnf)
        # Same inputs: the two copies must disagree on the output polarity.
        result = solver.solve(
            assumptions=[first.output_literal, second.output_literal]
        )
        assert result.status is False

    def test_constant_root(self):
        aig = AIG()
        cnf = CNF()
        mapping = cone_to_cnf(aig, TRUE_LIT, cnf)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve(assumptions=[-mapping.output_literal]).status is False


# -- property tests: support masks, one-simulation support, patterns ----------

MAX_SOURCES = 8


@st.composite
def aig_recipes(draw, max_steps=30):
    """A recipe for :func:`build_aig`: a random AIG with complemented edges,
    constant fanins and latches, its inputs and latches created between AND
    nodes.  A recipe rebuilds the same graph, node for node, every time.

    Every literal is drawn as ``x`` over the pool of literals built so far
    (``FALSE``, ``TRUE``, then one per step): ``pool[x >> 1] ^ (x & 1)``.
    Half the draws favour the four newest literals, which grows deep,
    reconvergent cones instead of many shallow ones.
    """

    def edges(pool):
        return st.one_of(
            st.integers(0, 2 * pool - 1), st.integers(max(0, 2 * pool - 8), 2 * pool - 1)
        )

    steps = [("input",)]
    sources = 1
    for _ in range(draw(st.integers(0, max_steps))):
        kinds = ["and"] * 4 + (["input", "latch"] if sources < MAX_SOURCES else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "and":
            edge = edges(2 + len(steps))
            steps.append(("and", draw(edge), draw(edge)))
        else:
            steps.append((kind,))
            sources += 1
    edge = edges(2 + len(steps))
    outputs = draw(st.lists(edge, min_size=1, max_size=3))
    latches = sum(1 for step in steps if step[0] == "latch")
    next_states = draw(st.lists(edge, min_size=latches, max_size=latches))
    return steps, outputs, next_states


def build_aig(recipe) -> AIG:
    steps, outputs, next_states = recipe
    aig = AIG("random")
    pool = [FALSE_LIT, TRUE_LIT]
    latches = []

    def pick(x):
        return pool[x >> 1] ^ (x & 1)

    for step in steps:
        if step[0] == "input":
            pool.append(aig.add_input())
        elif step[0] == "latch":
            latches.append(aig.add_latch())
            pool.append(latches[-1])
        else:
            pool.append(aig.add_and(pick(step[1]), pick(step[2])))
    for position, x in enumerate(outputs):
        aig.add_output(f"o{position}", pick(x))
    for latch, x in zip(latches, next_states):
        aig.set_latch_next(latch, pick(x))
    return aig


def cone_walk_support(aig: AIG, lit) -> list:
    """The definition: inputs and latches met walking the cone of ``lit``."""
    return sorted(index for index in aig.cone_nodes([lit]) if aig.is_input(index))


def simulated_support(aig: AIG, lit) -> list:
    """The definition: an input matters iff complementing it changes the table
    (``n + 1`` simulations)."""
    support = cone_walk_support(aig, lit)
    words, mask = exhaustive_patterns(len(support))
    input_words = dict(zip(support, words))
    (base,) = simulate_words(aig, input_words, [lit], mask)
    essential = []
    for node in support:
        flipped = dict(input_words)
        flipped[node] ^= mask
        if simulate_words(aig, flipped, [lit], mask)[0] != base:
            essential.append(node)
    return essential


def assert_masks_match_cones(aig: AIG) -> None:
    for index in range(aig.num_nodes):
        for lit in (2 * index, 2 * index + 1):
            assert structural_support(aig, lit) == cone_walk_support(aig, lit)


class TestSupportProperties:
    @settings(max_examples=80, deadline=None)
    @given(aig_recipes())
    def test_structural_support_is_the_cone_walk(self, recipe):
        assert_masks_match_cones(build_aig(recipe))

    @settings(max_examples=80, deadline=None)
    @given(aig_recipes())
    def test_functional_support_is_the_n_plus_one_simulation(self, recipe):
        aig = build_aig(recipe)
        for index in range(aig.num_nodes):
            assert functional_support(aig, 2 * index) == simulated_support(aig, 2 * index)

    @settings(max_examples=40, deadline=None)
    @given(aig_recipes())
    def test_masks_survive_pickle(self, recipe):
        aig = pickle.loads(pickle.dumps(build_aig(recipe)))
        assert_masks_match_cones(aig)
        aig.add_output("late", aig.add_and(2 * aig.num_nodes - 2, aig.add_input("late_in")))
        assert_masks_match_cones(aig)

    @settings(max_examples=40, deadline=None)
    @given(aig_recipes())
    def test_masks_survive_make_combinational(self, recipe):
        assert_masks_match_cones(build_aig(recipe).make_combinational())

    @settings(max_examples=40, deadline=None)
    @given(aig_recipes())
    def test_masks_survive_bench_and_blif_round_trips(self, recipe):
        aig = build_aig(recipe)
        assert_masks_match_cones(parse_bench(aig_to_bench(aig)))
        assert_masks_match_cones(parse_blif(aig_to_blif(aig)))

    def test_masks_follow_source_creation_order(self):
        aig = AIG()
        a = aig.add_input("a")
        g = aig.add_and(a, lit_neg(aig.add_latch("q")))
        b = aig.add_input("b")
        h = aig.add_and(g, b)
        assert aig.support_mask(h) == 0b111
        assert aig.support_mask(g) == 0b011
        assert aig.mask_nodes(0b101) == [lit_var(a), lit_var(b)]
        assert aig.support_mask(TRUE_LIT) == 0


@pytest.mark.parametrize("num_inputs", range(11))
def test_exhaustive_patterns_match_the_bit_loop(num_inputs):
    words, mask = exhaustive_patterns(num_inputs)
    patterns = range(1 << num_inputs)
    assert mask == (1 << (1 << num_inputs)) - 1
    assert isinstance(words, tuple)
    assert words == tuple(
        sum(1 << p for p in patterns if (p >> k) & 1) for k in range(num_inputs)
    )
    assert exhaustive_patterns(num_inputs) is exhaustive_patterns(num_inputs)
