import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ebmax.graph as graph_mod

from ebmax.graph import (
    GraphParseError,
    NodeEconomics,
    SocialGraph,
    assign_economics,
    assign_probabilities,
    load_edge_list,
    target_count,
)

from helpers import make_graph, reference_load_edge_list, save_edge_list, tangled_instances


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


# tokens that int() or float() read differently from a plain digit string,
# that overflow int64, or that do not convert at all
ODD_IDS = ("1_0", "+5", "007", "-1", "0", "2", "4", "9223372036854775807", "9223372036854775808",
           "-9223372036854775809", "99999999999999999999", "x", "1.5", "\u0663")
ODD_PROBS = ("nan", "0", "1.5", "1e-400", "inf", "-0.5", "abc", "1_0.5", "+.5", "1e-3", "1")
# whitespace that str.split() splits on, some of which str.splitlines() also breaks lines at
SEPARATORS = (" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")


@st.composite
def edge_list_texts(draw):
    """Edge-list text mixing good lines with every kind of bad one: mostly
    edges over a few small ids (so edges repeat, also reversed), then odd
    ids and probabilities, comments, blank lines and lines of a wrong width."""
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["edge"] * 10 + ["odd", "odd", "comment", "blank", "width"]))
        if kind == "comment":
            body = "#" + draw(st.sampled_from(["", " note", "1 2", "#", "x y z w"]))
        elif kind == "blank":
            body = ""
        else:
            u = draw(st.integers(0, 4))
            tokens = [str(u), str((u + draw(st.integers(1, 4))) % 5)]  # no self-loop
            tokens += draw(st.lists(st.sampled_from(["0.5", "1", "0.25"]), max_size=1))
            if kind == "odd":  # replace some tokens, or add an odd probability
                odd = [ODD_IDS, ODD_IDS, ODD_PROBS]
                tokens = [draw(st.sampled_from([t, *odd[i]])) for i, t in enumerate(tokens)]
                tokens += draw(st.lists(st.sampled_from(ODD_PROBS), max_size=3 - len(tokens)))
            elif kind == "width":
                tokens = draw(st.sampled_from([tokens[:1], tokens + ["1", "2"]]))
            body = draw(st.sampled_from(SEPARATORS)).join(tokens)
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", "\r"]))
        lines.append(lead + body + trail + draw(st.sampled_from(["\n", "\r\n"])))
    text = "".join(lines)
    return text[:-1] if draw(st.booleans()) else text


def load_outcome(load, source, directed):
    """Everything a load shows: the graph's arrays or the error's message and
    line, and the warnings in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = load(source, directed=directed)
        except GraphParseError as err:
            result = (str(err), err.line_no)
        else:
            arrays = (g.src, g.dst, g.prob, g.original_ids, *g.out_csr, *g.in_csr, g.degree)
            result = (g.node_count, g.directed, [(a.dtype.str, a.tolist()) for a in arrays])
    return result, [(w.category, str(w.message)) for w in caught]


class TestLoaderMatchesReference:
    @settings(max_examples=400)
    @given(edge_list_texts(), st.booleans())
    @example("0 1\n1 0\n0 1 0.5\n2 2\n1 0 0.25\n", False)  # warnings, then the error
    @example("0 1\x852 3\n4 4\n", True)  # one line of four tokens under "\n" splitting
    @example("0 1\n9223372036854775808 1\n", True)  # beyond int64: overflows np.array
    @example("-1 99999999999999999999\n", True)  # the sign is checked before the range
    def test_same_graph_warnings_and_error(self, text, directed):
        expected = load_outcome(reference_load_edge_list, io.StringIO(text), directed)
        assert load_outcome(load_edge_list, io.StringIO(text), directed) == expected

    def test_path_source_uses_universal_newlines(self, tmp_path):
        path = tmp_path / "g.txt"
        for text in (b"0 1\r1 2 0.5\r\n5 5\n", b"# x\r3 4\r4 3\r", b"7 8\r\n8 9 2\r"):
            path.write_bytes(text)
            for directed in (True, False):
                expected = load_outcome(reference_load_edge_list, path, directed)
                assert load_outcome(load_edge_list, path, directed) == expected

    def test_refuses_more_ids_than_edge_keys_hold(self, monkeypatch):
        # edge keys u * n + v would wrap past int64 beyond this many ids
        monkeypatch.setattr(graph_mod, "_MAX_KEY_NODES", 3)
        load_text("0 1\n1 2\n")
        with pytest.raises(GraphParseError, match="4 distinct node ids are more than the 3 supported"):
            load_text("0 1\n2 3\n")


class TestSocialGraphInvariants:
    @given(tangled_instances())
    @example((make_graph(0, []), None))  # empty graph
    @example((make_graph(5, [(3, 1, 0.5), (1, 3, 0.5)]), None))  # isolated nodes 0, 2, 4
    def test_adjacency_directions_agree(self, instance):
        g, _ = instance
        n = g.node_count
        src, dst = g.src.tolist(), g.dst.tolist()
        for csr, heads in ((g.out_csr, src), (g.in_csr, dst)):
            offsets, arcs = csr
            assert offsets.dtype == arcs.dtype == np.int64
            assert len(offsets) == n + 1
            for v in range(n):
                expected = [a for a in range(g.arc_count) if heads[a] == v]
                assert arcs[offsets[v]:offsets[v + 1]].tolist() == expected
        expected_degree = np.bincount(g.src, minlength=n) + np.bincount(g.dst, minlength=n)
        assert np.array_equal(g.degree, expected_degree)

    def test_graph_holds_little_beyond_its_arc_arrays(self):
        # 10k nodes, 75k undirected edges as 150k mirror arcs: the arrays and
        # both arc indexes come to about 6 MB, while per-node Python lists of
        # the same arcs would add about 24 MB
        rng = np.random.default_rng(0)
        n, edges = 10_000, 75_000
        u = rng.integers(0, n, size=edges)
        v = (u + rng.integers(1, n, size=edges)) % n
        tracemalloc.start()
        try:
            src, dst = np.column_stack([u, v]).ravel(), np.column_stack([v, u]).ravel()
            g = SocialGraph(n, src, dst, np.zeros(2 * edges), directed=False)
            del src, dst
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.arc_count == 150_000
        assert held < 10 * 2**20, f"graph holds {held / 2**20:.1f} MB"

    def test_load_peaks_under_three_times_the_graph(self, tmp_path):
        # the same 10k-node, 75k-edge shape read from a file: the load may not
        # hold per-edge Python objects, only the text, its tokens and arrays
        rng = np.random.default_rng(0)
        n, edges = 10_000, 75_000
        u = rng.integers(0, n, size=edges + 1000)
        v = (u + rng.integers(1, n, size=edges + 1000)) % n
        _, once = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        once = np.sort(once)[:edges]  # no repeated edge, so no warnings
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{a} {b}\n" for a, b in zip(u[once].tolist(), v[once].tolist())))
        tracemalloc.start()
        try:
            g = load_edge_list(path, directed=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = (g.src, g.dst, g.prob, g.original_ids, g.degree, *g.out_csr, *g.in_csr)
        held = sum(a.nbytes for a in arrays)
        assert g.arc_count == 2 * edges
        assert peak < 3 * held, f"load peaks at {peak / held:.2f}x the {held / 2**20:.1f} MB graph"

    def test_rejects_bad_arcs(self):
        with pytest.raises(ValueError):
            make_graph(2, [(0, 0, 0.5)])
        with pytest.raises(ValueError):
            make_graph(2, [(0, 5, 0.5)])
        with pytest.raises(ValueError):
            make_graph(2, [(0, 1, 1.5)])
        with pytest.raises(ValueError, match="probability nan"):
            make_graph(2, [(0, 1, float("nan"))])
        for columns in (([0], [1, 0], [0.5, 0.5]), (0, 1, 0.5), ([[0]], [[1]], [[0.5]])):
            with pytest.raises(ValueError, match="1-D arrays of equal length"):
                SocialGraph(2, *columns)
        # ids are never truncated: a float, bool or object id column is refused
        for name, columns in [
            ("src", ([0.5], [1.7], [0.5])),
            ("src", ([True], [0], [0.5])),
            ("dst", ([0], [1.0], [0.5])),
            ("dst", ([0], np.array([1], dtype=object), [0.5])),
        ]:
            with pytest.raises(ValueError, match=f"{name} must hold integer node ids"):
                SocialGraph(3, *columns)
        assert SocialGraph(3, [], [], []).arc_count == 0  # numpy types [] as float64

    def test_arc_index_without_composite_keys(self, monkeypatch):
        keys = np.array([2, 0, 2, 1, 0])
        offsets, arcs = graph_mod._arc_index(keys, 3)
        monkeypatch.setattr(graph_mod, "_MAX_NODE_ID", 0)  # as if key * m + id overflowed
        stable = graph_mod._arc_index(keys, 3)
        assert offsets.tolist() == stable[0].tolist() == [0, 2, 3, 5]
        assert arcs.tolist() == stable[1].tolist() == [1, 4, 3, 0, 2]

    def test_undirected_requires_mirror_pairs(self):
        with pytest.raises(ValueError, match="mirror"):
            make_graph(2, [(0, 1, 0.5)], directed=False)
        with pytest.raises(ValueError, match="mirror"):
            make_graph(2, [(0, 1, 0.5), (1, 0, 0.25)], directed=False)
        make_graph(2, [(0, 1, 0.5), (1, 0, 0.5)], directed=False)  # well-formed

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
        g2 = assign_probabilities(g, 0.1, seed=7)
        assert np.all(g2.prob == 0.1)
        assert not g.probabilities_assigned  # original untouched

    def test_trivalency_membership(self):
        g = load_text("0 1\n1 2\n0 2\n")
        g2 = assign_probabilities(g, "trivalency", seed=3)
        assert set(g2.prob.tolist()) <= {0.1, 0.01, 0.001}

    def test_trivalency_deterministic(self):
        g = load_text("0 1\n1 2\n0 2\n2 3\n")
        a = assign_probabilities(g, "trivalency", seed=11)
        b = assign_probabilities(g, "trivalency", seed=11)
        assert np.array_equal(a.prob, b.prob)

    def test_trivalency_undirected_pairs_share_draw(self):
        loaded = load_text("0 1\n1 2\n2 3\n3 4\n4 5\n", directed=False)
        # built without an edge list: still one draw per mirror pair, not per arc
        built = make_graph(3, [(0, 1, 0.0), (1, 0, 0.0), (1, 2, 0.0), (2, 1, 0.0)], directed=False)
        for g in (loaded, built):
            for seed in range(6):
                g2 = assign_probabilities(g, "trivalency", seed=seed)
                for e in range(0, g2.arc_count, 2):
                    assert g2.prob[e] == g2.prob[e + 1]

    def test_with_probabilities(self):
        g = load_text("0 1\n1 2\n", directed=False)
        g2 = g.with_probabilities([0.2, 0.2, 0.7, 0.7])
        assert g2.prob.tolist() == [0.2, 0.2, 0.7, 0.7]
        assert not g.probabilities_assigned  # original untouched
        # only the probabilities change: the copy shares the validated arrays and arc indexes
        assert g2.out_csr is g.out_csr and g2.in_csr is g.in_csr and g2.src is g.src
        with pytest.raises(ValueError, match="does not match arc count"):
            g.with_probabilities([0.2, 0.2])
        with pytest.raises(ValueError, match="probability nan outside"):
            g.with_probabilities([0.2, 0.2, float("nan"), float("nan")])
        with pytest.raises(ValueError, match="probability 1.5 outside"):
            g.with_probabilities([0.2, 0.2, 1.5, 1.5])
        with pytest.raises(ValueError, match="mirror arc pairs with equal probabilities"):
            g.with_probabilities([0.2, 0.3, 0.7, 0.7])

    def test_bad_uniform_probability(self):
        g = load_text("0 1\n1 2\n")
        for bad in (0.0, 1.5, math.nan, True, "uniform", "0.1"):
            with pytest.raises(ValueError, match="'trivalency' or a float in"):
                assign_probabilities(g, bad)


class TestAssignEconomics:
    def test_degree_proportional_formula(self):
        # directed 4-cycle: n=4, m=4 arcs, every node degree 2
        # hand evaluation: cost = 4 * 2 / (2 * 4) = 1.0
        g = make_graph(4, [(0, 1, 0.1), (1, 2, 0.1), (2, 3, 0.1), (3, 0, 0.1)])
        econ = assign_economics(g, "degprop", 0.2, seed=0)
        assert np.allclose(econ.cost, 1.0)

    def test_unit_benefits(self):
        g = make_graph(5, [(0, 1, 0.5)])
        econ = assign_economics(g, "degprop", 0.4, seed=1)
        assert len(econ.targets) == 2
        mask = np.zeros(5, dtype=bool)
        mask[econ.targets] = True
        assert np.all(econ.benefit[mask] == 1.0)
        assert np.all(econ.benefit[~mask] == 0.0)

    def test_target_count_is_floor(self):
        # floor(0.2 * 1005) = 201
        g = make_graph(1005, [(0, 1, 0.5)])
        econ = assign_economics(g, "random", 0.2, seed=9)
        assert len(econ.targets) == target_count(1005, 0.2) == 201

    def test_random_ranges(self):
        g = make_graph(200, [(0, 1, 0.5)])
        econ = assign_economics(g, "random", 0.2, seed=2)
        assert np.all((econ.cost >= 1.0) & (econ.cost <= 50.0))
        tb = econ.benefit[econ.targets]
        assert np.all((tb >= 50.0) & (tb <= 100.0))

    def test_deterministic_per_seed(self):
        g = make_graph(30, [(i, i + 1, 0.1) for i in range(29)])
        a = assign_economics(g, "random", 0.2, seed=4)
        b = assign_economics(g, "random", 0.2, seed=4)
        c = assign_economics(g, "random", 0.2, seed=5)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.benefit, b.benefit)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.cost, c.cost)

    def test_fraction_bounds(self):
        g = make_graph(5, [(0, 1, 0.5)])
        for bad in (0.0, 1.5, -0.2, math.nan):
            with pytest.raises(ValueError, match="target fraction must lie in"):
                target_count(5, bad)
            with pytest.raises(ValueError, match="target fraction must lie in"):
                assign_economics(g, "random", bad)

    def test_unknown_setting(self):
        g = make_graph(5, [(0, 1, 0.5)])
        for bad in ("flat", "Random", None):
            with pytest.raises(ValueError, match="'random' or 'degprop'"):
                assign_economics(g, bad, 0.2)

    def test_isolated_node_cost_clamped(self):
        # node 2 is isolated: degree 0 would give cost 0, clamped instead
        g = make_graph(3, [(0, 1, 0.5)])
        econ = assign_economics(g, "degprop", 0.2, seed=0)
        assert econ.cost[2] == graph_mod.MIN_COST == 1e-6
        assert np.all(econ.cost > 0)

    def test_degree_proportional_costs_sum_to_n(self):
        # no isolated nodes, so the clamp never fires: sum must hit n exactly
        base = [(i, (i + 3) % 20) for i in range(20)] + [(i, (i + 7) % 20) for i in range(20)]
        directed_graph = make_graph(20, [(u, v, 0.1) for u, v in base], True)
        mirrored = []
        for u, v in base:
            mirrored.append((u, v, 0.1))
            mirrored.append((v, u, 0.1))
        undirected_graph = make_graph(20, mirrored, False)
        for g in (directed_graph, undirected_graph):
            econ = assign_economics(g, "degprop", 0.2, seed=3)
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
        # target ids follow the arc columns' rule: a float, even an integral
        # one, a bool, a string or an object column is refused, not truncated
        for bad in (
            np.array([1.7]),
            np.array([1.0]),
            [True],
            ["1"],
            np.array([True], dtype=object),
            np.array([1], dtype=object),
        ):
            with pytest.raises(ValueError, match="targets must hold integer node ids"):
                NodeEconomics(cost=np.ones(3), benefit=np.array([0.0, 2.0, 0.0]), targets=bad)
        econ = NodeEconomics(
            cost=np.ones(3), benefit=np.array([0.0, 2.0, 0.0]), targets=np.array([1], dtype=np.uint8)
        )
        assert econ.targets.dtype == np.int64 and econ.targets.tolist() == [1]
        # numpy types [] as float64
        assert NodeEconomics(cost=np.ones(3), benefit=np.zeros(3), targets=[]).targets.tolist() == []
