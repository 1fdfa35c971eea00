"""Permutation group, graph action, and basis encodings."""

import itertools
import math

import numpy as np
import pytest

from zkamp.symm import (
    Graph,
    Permutation,
    act,
    encode,
    enumerate_sn,
    format_graph_literal,
    lehmer_rank,
    num_graph_codes,
    parse_graph_literal,
)

from oracles import compose, decode, find_isomorphism, identity, invert, permutations

PATH3 = Graph(3, [(0, 1), (1, 2)])
TRIANGLE = Graph(3, [(0, 1), (0, 2), (1, 2)])


def all_graphs(n):
    return [decode(code, n) for code in range(num_graph_codes(n))]


class TestEnumeration:
    def test_n1(self):
        assert enumerate_sn(1).tolist() == [[0]]

    def test_n3_order(self):
        perms = enumerate_sn(3)
        assert perms.shape == (6, 3) and perms.dtype == np.int64
        assert perms[0].tolist() == [0, 1, 2]
        assert perms[-1].tolist() == [2, 1, 0]
        assert not perms.flags.writeable

    def test_n4_all_distinct(self):
        perms = enumerate_sn(4)
        assert len(perms) == 24
        assert len({tuple(p) for p in perms.tolist()}) == 24

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lehmer_rank_is_the_row(self, n):
        perms = enumerate_sn(n)
        assert np.array_equal(lehmer_rank(perms), np.arange(math.factorial(n)))
        stacked = np.stack([perms, perms[::-1]])
        assert np.array_equal(lehmer_rank(stacked)[1], np.arange(len(perms))[::-1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_sn(0)
        with pytest.raises(ValueError):
            enumerate_sn(7)


class TestComposeInvert:
    def test_identity_is_neutral(self):
        for q in permutations(3):
            assert compose(identity(3), q) == q
            assert compose(q, identity(3)) == q

    def test_three_cycle_inverse(self):
        assert invert(Permutation(3, (1, 2, 0))).mapping == (2, 0, 1)

    def test_inverse_antihomomorphism_exhaustive(self):
        perms = permutations(3)
        for p, q in itertools.product(perms, perms):
            assert invert(compose(p, q)) == compose(invert(q), invert(p))

    def test_compose_inverse_is_identity(self):
        for p in permutations(4):
            assert compose(p, invert(p)) == identity(4)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(2), identity(3))


class TestGraphAction:
    def test_identity_action(self):
        assert act(identity(3), PATH3) == PATH3

    def test_swap_relabels(self):
        g = Graph(3, [(0, 2)])
        swapped = act(Permutation(3, (1, 0, 2)), g)
        assert swapped == Graph(3, [(1, 2)])

    def test_path_orbit_size(self):
        orbit = {act(p, PATH3) for p in permutations(3)}
        assert len(orbit) == 3

    def test_group_action_law_exhaustive(self):
        perms = permutations(3)
        graphs = all_graphs(3)
        for p, q in itertools.product(perms, perms):
            pq = compose(p, q)
            for g in graphs:
                assert act(p, act(q, g)) == act(pq, g)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            act(identity(2), PATH3)


class TestGraphCode:
    def test_empty_graph(self):
        assert encode(Graph(3, [])) == 0

    def test_complete_graph_n3(self):
        assert encode(TRIANGLE) == 7

    def test_roundtrip_all_codes_n4(self):
        for code in range(num_graph_codes(4)):
            assert encode(decode(code, 4)) == code

    def test_encode_injective(self):
        for n in (2, 3, 4):
            graphs = all_graphs(n)
            codes = {encode(g) for g in graphs}
            assert len(codes) == len(graphs)
            for g in graphs:
                assert decode(encode(g), n) == g

    def test_code_out_of_range(self):
        with pytest.raises(ValueError):
            decode(8, 3)
        with pytest.raises(ValueError):
            decode(-1, 3)


class TestFindIsomorphism:
    def test_equal_graphs_give_identity(self):
        assert find_isomorphism(PATH3, PATH3) == identity(3)

    def test_path_pair(self):
        g1 = Graph(3, [(0, 1), (0, 2)])
        tau = find_isomorphism(PATH3, g1)
        assert tau == Permutation(3, (1, 0, 2))
        assert act(tau, PATH3) == g1

    def test_different_edge_counts(self):
        assert find_isomorphism(PATH3, TRIANGLE) is None

    def test_symmetry_exhaustive(self):
        graphs = all_graphs(3)
        for g0, g1 in itertools.product(graphs, graphs):
            assert (find_isomorphism(g0, g1) is None) == (find_isomorphism(g1, g0) is None)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            find_isomorphism(PATH3, Graph(2, []))


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_undirected_normalization(self):
        assert Graph(3, [(2, 0)]) == Graph(3, [(0, 2)])


class TestGraphLiteral:
    def test_parse(self):
        g = parse_graph_literal("n=3;edges=01,12")
        assert g == PATH3

    def test_empty_edges(self):
        assert parse_graph_literal("n=4;edges=") == Graph(4, [])

    def test_roundtrip(self):
        for code in range(num_graph_codes(3)):
            g = decode(code, 3)
            assert parse_graph_literal(format_graph_literal(g)) == g

    @pytest.mark.parametrize("bad", ["n=3", "edges=01", "n=x;edges=01", "n=3;edges=012", "n=3;edges=0a"])
    def test_bad_literals(self, bad):
        with pytest.raises(ValueError):
            parse_graph_literal(bad)
