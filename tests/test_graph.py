import io
import math

import numpy as np
import pytest

from ebmax.graph import (
    AssignmentScheme,
    DegreeProportionalCosts,
    GraphParseError,
    NodeEconomics,
    RandomBenefits,
    RandomCosts,
    SocialGraph,
    TrivalencyProbability,
    UnitBenefits,
    UniformProbability,
    assign_economics,
    assign_probabilities,
    load_edge_list,
    save_edge_list,
)

from helpers import make_graph


def load_text(text, directed=True):
    return load_edge_list(io.StringIO(text), directed=directed)


class TestLoadEdgeList:
    def test_minimal_path_graph(self):
        g = load_text("0 1\n1 2\n")
        assert g.node_count == 3
        assert g.arc_count == 2
        assert not g.probabilities_assigned
        assert np.all(g.prob == 0.0)

    def test_undirected_doubles_arcs(self):
        g = load_text("0 1 0.5\n", directed=False)
        assert g.node_count == 2
        assert g.arc_count == 2
        arcs = {(int(u), int(v), float(p)) for u, v, p in zip(g.src, g.dst, g.prob)}
        assert arcs == {(0, 1, 0.5), (1, 0, 0.5)}

    def test_probability_out_of_range(self):
        with pytest.raises(GraphParseError):
            load_text("0 1 1.5\n")
        with pytest.raises(GraphParseError):
            load_text("0 1 0\n")  # explicit zero is out of (0, 1]

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphParseError, match="line 3"):
            load_text("0 1\n1 2\nbogus line here extra\n")

    def test_non_integer_ids(self):
        with pytest.raises(GraphParseError, match="line 1"):
            load_text("a b\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            load_text("2 2\n")

    def test_comments_and_blanks_skipped(self):
        g = load_text("# header\n\n0 1\n# mid\n1 2\n")
        assert g.arc_count == 2

    def test_sparse_ids_remapped_dense(self):
        g = load_text("5 9\n9 7\n")
        assert g.node_count == 3
        assert g.original_ids.tolist() == [5, 7, 9]
        # 5->9 becomes 0->2, 9->7 becomes 2->1
        assert (int(g.src[0]), int(g.dst[0])) == (0, 2)
        assert (int(g.src[1]), int(g.dst[1])) == (2, 1)

    def test_duplicate_keeps_last_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            g = load_text("0 1 0.2\n1 2 0.3\n0 1 0.9\n")
        assert g.arc_count == 2
        by_pair = {(int(u), int(v)): float(p) for u, v, p in zip(g.src, g.dst, g.prob)}
        assert by_pair[(0, 1)] == 0.9

    def test_undirected_duplicate_detected_reversed(self):
        with pytest.warns(UserWarning, match="duplicate"):
            g = load_text("0 1 0.2\n1 0 0.7\n", directed=False)
        assert g.arc_count == 2
        assert set(g.prob.tolist()) == {0.7}


class TestSocialGraphInvariants:
    def test_adjacency_directions_agree(self):
        g = load_text("0 1 0.5\n1 2 0.25\n2 0 1.0\n0 2 0.75\n")
        fwd = {(u, v) for u in range(g.node_count) for v in g.out_nbrs[u]}
        rev = {(u, v) for v in range(g.node_count) for u in g.in_nbrs[v]}
        arcs = set(zip(g.src.tolist(), g.dst.tolist()))
        assert fwd == rev == arcs

    def test_rejects_bad_arcs(self):
        with pytest.raises(ValueError):
            SocialGraph(2, [(0, 0, 0.5)])
        with pytest.raises(ValueError):
            SocialGraph(2, [(0, 5, 0.5)])
        with pytest.raises(ValueError):
            SocialGraph(2, [(0, 1, 1.5)])
        with pytest.raises(ValueError, match="probability nan"):
            SocialGraph(2, [(0, 1, float("nan"))])

    def test_undirected_requires_mirror_pairs(self):
        with pytest.raises(ValueError, match="mirror"):
            SocialGraph(2, [(0, 1, 0.5)], directed=False)
        with pytest.raises(ValueError, match="mirror"):
            SocialGraph(2, [(0, 1, 0.5), (1, 0, 0.25)], directed=False)
        SocialGraph(2, [(0, 1, 0.5), (1, 0, 0.5)], directed=False)  # well-formed

    def test_roundtrip_preserves_arc_multiset(self, tmp_path):
        for text, directed in [
            ("0 1 0.5\n1 2 0.25\n2 0 0.125\n", True),
            ("3 9 0.625\n9 4 0.0625\n", False),
            ("0 1\n1 2\n", True),
        ]:
            g = load_text(text, directed=directed)
            path = tmp_path / "g.txt"
            save_edge_list(g, path)
            g2 = load_edge_list(path, directed=directed)
            def multiset(gr):
                orig = gr.original_ids
                return sorted(
                    (int(orig[u]), int(orig[v]), float(p))
                    for u, v, p in zip(gr.src, gr.dst, gr.prob)
                )
            assert multiset(g) == multiset(g2)

    def test_roundtrip_probability_precision(self, tmp_path):
        g = make_graph(2, [(0, 1, 1.0 / 3.0)])
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        g2 = load_edge_list(path)
        assert float(g2.prob[0]) == 1.0 / 3.0


class TestAssignProbabilities:
    def test_uniform_default(self):
        g = load_text("0 1\n1 2\n0 2\n")
        g2 = assign_probabilities(g, UniformProbability(0.1), seed=7)
        assert np.all(g2.prob == 0.1)
        assert not g.probabilities_assigned  # original untouched

    def test_trivalency_membership(self):
        g = load_text("0 1\n1 2\n0 2\n")
        g2 = assign_probabilities(g, TrivalencyProbability(), seed=3)
        assert set(g2.prob.tolist()) <= {0.1, 0.01, 0.001}

    def test_trivalency_deterministic(self):
        g = load_text("0 1\n1 2\n0 2\n2 3\n")
        a = assign_probabilities(g, TrivalencyProbability(), seed=11)
        b = assign_probabilities(g, TrivalencyProbability(), seed=11)
        assert np.array_equal(a.prob, b.prob)

    def test_trivalency_undirected_pairs_share_draw(self):
        g = load_text("0 1\n1 2\n2 3\n3 4\n4 5\n", directed=False)
        g2 = assign_probabilities(g, TrivalencyProbability(), seed=5)
        for e in range(0, g2.arc_count, 2):
            assert g2.prob[e] == g2.prob[e + 1]

    def test_bad_uniform_probability(self):
        with pytest.raises(ValueError):
            UniformProbability(0.0)
        with pytest.raises(ValueError):
            UniformProbability(1.5)


class TestAssignEconomics:
    def test_degree_proportional_formula(self):
        # directed 4-cycle: n=4, m=4 arcs, every node degree 2
        # hand evaluation: cost = 4 * 2 / (2 * 4) = 1.0
        g = make_graph(4, [(0, 1, 0.1), (1, 2, 0.1), (2, 3, 0.1), (3, 0, 0.1)])
        scheme = AssignmentScheme(cost=DegreeProportionalCosts(), benefit=UnitBenefits())
        econ = assign_economics(g, scheme, seed=0)
        assert np.allclose(econ.cost, 1.0)

    def test_unit_benefits(self):
        g = make_graph(5, [(0, 1, 0.5)])
        scheme = AssignmentScheme(
            cost=RandomCosts(), benefit=UnitBenefits(), target_fraction=0.4
        )
        econ = assign_economics(g, scheme, seed=1)
        assert len(econ.targets) == 2
        mask = np.zeros(5, dtype=bool)
        mask[econ.targets] = True
        assert np.all(econ.benefit[mask] == 1.0)
        assert np.all(econ.benefit[~mask] == 0.0)

    def test_target_count_is_floor(self):
        # floor(0.2 * 1005) = 201
        g = SocialGraph(1005, [(0, 1, 0.5)])
        econ = assign_economics(g, AssignmentScheme(), seed=9)
        assert len(econ.targets) == 201

    def test_random_ranges(self):
        g = SocialGraph(200, [(0, 1, 0.5)])
        econ = assign_economics(g, AssignmentScheme(), seed=2)
        assert np.all((econ.cost >= 1.0) & (econ.cost <= 50.0))
        tb = econ.benefit[econ.targets]
        assert np.all((tb >= 50.0) & (tb <= 100.0))

    def test_deterministic_per_seed(self):
        g = make_graph(30, [(i, i + 1, 0.1) for i in range(29)])
        a = assign_economics(g, AssignmentScheme(), seed=4)
        b = assign_economics(g, AssignmentScheme(), seed=4)
        c = assign_economics(g, AssignmentScheme(), seed=5)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.benefit, b.benefit)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.cost, c.cost)

    def test_isolated_node_cost_clamped(self):
        # node 2 is isolated: degree 0 would give cost 0, clamped instead
        g = SocialGraph(3, [(0, 1, 0.5)])
        scheme = AssignmentScheme(cost=DegreeProportionalCosts(), benefit=UnitBenefits())
        econ = assign_economics(g, scheme, seed=0)
        assert econ.cost[2] == 1e-6
        assert np.all(econ.cost > 0)

    def test_degree_proportional_costs_sum_to_n(self):
        # no isolated nodes, so the clamp never fires: sum must hit n exactly
        base = [(i, (i + 3) % 20) for i in range(20)] + [(i, (i + 7) % 20) for i in range(20)]
        directed_graph = SocialGraph(20, [(u, v, 0.1) for u, v in base], True)
        mirrored = []
        for u, v in base:
            mirrored.append((u, v, 0.1))
            mirrored.append((v, u, 0.1))
        undirected_graph = SocialGraph(20, mirrored, False)
        scheme = AssignmentScheme(cost=DegreeProportionalCosts(), benefit=UnitBenefits())
        for g in (directed_graph, undirected_graph):
            econ = assign_economics(g, scheme, seed=3)
            assert abs(float(np.sum(econ.cost)) - 20.0) < 1e-9


class TestNodeEconomicsValidation:
    def test_rejects_nonpositive_cost(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"cost {bad} of node 1"):
                NodeEconomics(
                    cost=np.array([1.0, bad]), benefit=np.zeros(2), targets=np.array([], dtype=int)
                )

    def test_rejects_benefit_off_target(self):
        with pytest.raises(ValueError):
            NodeEconomics(
                cost=np.ones(3), benefit=np.array([0.0, 2.0, 0.0]), targets=np.array([0])
            )
        # nor may a target's benefit be negative or non-finite
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"benefit {bad} of node 0"):
                NodeEconomics(cost=np.ones(3), benefit=np.array([bad, 0.0, 0.0]), targets=np.array([0]))

    def test_rejects_target_out_of_range(self):
        with pytest.raises(ValueError):
            NodeEconomics(cost=np.ones(3), benefit=np.zeros(3), targets=np.array([5]))
        with pytest.raises(ValueError, match="duplicate target id 1"):
            NodeEconomics(cost=np.ones(3), benefit=np.zeros(3), targets=np.array([1, 0, 1]))
        with pytest.raises(ValueError, match="target id 1.7 is not an integer"):
            NodeEconomics(
                cost=np.ones(3), benefit=np.array([0.0, 2.0, 0.0]), targets=np.array([1.7])
            )

    def test_total_benefit(self):
        econ = NodeEconomics(
            cost=np.ones(3), benefit=np.array([2.0, 0.0, 3.5]), targets=np.array([0, 2])
        )
        assert econ.total_benefit == 5.5


class TestAssignmentSchemeValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            AssignmentScheme(target_fraction=0.0)
        with pytest.raises(ValueError):
            AssignmentScheme(target_fraction=1.5)

    def test_cost_interval(self):
        with pytest.raises(ValueError):
            RandomCosts(lo=5.0, hi=2.0)
