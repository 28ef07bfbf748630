import heapq
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ebmax.baselines as baselines_mod
import helpers as helpers_mod
from ebmax.baselines import (
    degree_discount_select,
    max_degree_select,
    single_discount_select,
)
from ebmax.hop import HopConfig, hop_based_select

from helpers import (
    make_economics,
    make_graph,
    random_instance,
    reference_discounted_select,
    tangled_instances,
)


def undirected(n, pairs, p=0.1):
    arcs = []
    for u, v in pairs:
        arcs.append((u, v, p))
        arcs.append((v, u, p))
    return make_graph(n, arcs, directed=False)


class TestMaxDegree:
    def test_top_degrees_within_budget(self):
        # undirected degrees: node 0 -> 3, node 1 -> 2, node 2 -> 2, node 3 -> 1
        g = undirected(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        econ = make_economics(4, targets=[0])
        res = max_degree_select(g, econ, 2.0)
        assert res.seeds == [0, 1]  # top-2 degrees, tie broken to lower id

    def test_nothing_affordable(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[0], costs={0: 5.0, 1: 5.0})
        res = max_degree_select(g, econ, 1.0)
        assert res.seeds == []

    def test_star_center_first(self):
        g = undirected(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        econ = make_economics(5, targets=[1])
        res = max_degree_select(g, econ, 3.0)
        assert res.seeds[0] == 0

    def test_bad_budget(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[0])
        for bad in (-1.0, math.inf, 1e400, math.nan):
            with pytest.raises(ValueError, match=f"got {bad}"):
                max_degree_select(g, econ, bad)


class TestDegreeDiscount:
    def test_zero_seeded_neighbors_keeps_degree(self):
        g = undirected(4, [(0, 1), (2, 3)])
        econ = make_economics(4, targets=[0])
        res = degree_discount_select(g, econ, 4.0)
        # components are independent: first picks of each have full degree 1
        assert res.trace[0].gain == 1.0

    def test_printed_formula_value(self):
        # two hubs joined by an edge, two pricey leaves each: after seeding
        # hub 0, hub 1 has d=3, t=1, p=0.1 -> discount 2 + 2*0.1 = 2.2,
        # effective degree 0.8 (hand evaluation)
        g = undirected(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        econ = make_economics(6, targets=[0], costs={2: 100.0, 3: 100.0, 4: 100.0, 5: 100.0})
        res = degree_discount_select(g, econ, 2.0)
        assert res.seeds == [0, 1]
        assert res.trace[1].gain == pytest.approx(0.8, abs=1e-12)

    def test_disconnected_stars_both_centers(self):
        g = undirected(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
        econ = make_economics(8, targets=[0])
        res = degree_discount_select(g, econ, 2.0)
        assert set(res.seeds) == {0, 4}

    def test_per_edge_probability_fallback(self):
        # the triggering arc's probability is the discount's p
        g = undirected(3, [(0, 1), (0, 2)], p=0.01)
        econ = make_economics(3, targets=[0])
        res = degree_discount_select(g, econ, 3.0)
        assert len(res.seeds) == 3

    def test_bad_budget(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[0])
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"got {bad}"):
                degree_discount_select(g, econ, bad)


class TestSingleDiscount:
    def test_triangle_second_pick_discounted_once(self):
        g = undirected(3, [(0, 1), (1, 2), (0, 2)])
        econ = make_economics(3, targets=[0])
        res = single_discount_select(g, econ, 2.0)
        assert res.trace[0].gain == 2.0  # full triangle degree
        assert res.trace[1].gain == 1.0  # one neighbor already seeded

    def test_isolated_nodes_in_id_order(self):
        g = make_graph(4, [], directed=False)
        econ = make_economics(4, targets=[0])
        res = single_discount_select(g, econ, 3.0)
        assert res.seeds == [0, 1, 2]

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        g, econ = random_instance(rng, max_nodes=12, max_arcs=24)
        a = single_discount_select(g, econ, 6.0)
        b = single_discount_select(g, econ, 6.0)
        assert a.seeds == b.seeds

    def test_bad_budget(self):
        g = make_graph(2, [(0, 1, 0.5)])
        econ = make_economics(2, targets=[0])
        for bad in (0, math.inf):
            with pytest.raises(ValueError, match=f"got {bad}"):
                single_discount_select(g, econ, bad)


class TestSharedInvariants:
    def test_budget_feasibility(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g, econ = random_instance(rng, max_nodes=10, max_arcs=20)
            budget = float(rng.uniform(0.5, 10.0))
            for select in (max_degree_select, single_discount_select):
                res = select(g, econ, budget)
                assert res.spent <= budget + 1e-12
                assert len(res.trace) == len(res.seeds)
            res = degree_discount_select(g, econ, budget)
            assert res.spent <= budget + 1e-12

    def test_large_budget_selects_everyone(self):
        rng = np.random.default_rng(9)
        g, econ = random_instance(rng, max_nodes=10, max_arcs=20)
        budget = float(np.sum(econ.cost)) + 1.0
        for res in (
            max_degree_select(g, econ, budget),
            degree_discount_select(g, econ, budget),
            single_discount_select(g, econ, budget),
        ):
            assert sorted(res.seeds) == list(range(g.node_count))

    def test_edgeless_graphs_agree_with_max_degree(self):
        g = make_graph(5, [], directed=False)
        econ = make_economics(5, targets=[1], costs={0: 2.0, 3: 2.0})
        budget = 4.0
        ref = max_degree_select(g, econ, budget)
        assert degree_discount_select(g, econ, budget).seeds == ref.seeds
        assert single_discount_select(g, econ, budget).seeds == ref.seeds

    def test_discount_state_invariants(self, monkeypatch):
        # seeded-neighbor counts never exceed the original degree, and
        # effective degrees only ever decrease
        import ebmax.baselines as mod

        rng = np.random.default_rng(10)
        g, econ = random_instance(rng, max_nodes=12, max_arcs=30)
        original = mod._discounted_select
        snapshots = []

        def spying(graph, economics, budget, discount):
            deg = mod._base_degree(graph).astype(float)

            def checked(d, t, p):
                assert t <= d or d == 0
                return discount(d, t, p)

            result = original(graph, economics, budget, checked)
            snapshots.append(result)
            return result

        monkeypatch.setattr(mod, "_discounted_select", spying)
        mod.degree_discount_select(g, econ, 20.0)
        mod.single_discount_select(g, econ, 20.0)
        assert len(snapshots) == 2
        # gains recorded in the trace are the effective degrees at pick time;
        # within each run they can only shrink for a fixed node, and the first
        # pick always carries the maximum
        for res in snapshots:
            gains = [t.gain for t in res.trace]
            assert gains and gains[0] == max(gains)


class TestPerSeedNeighbors:
    @given(tangled_instances(max_nodes=8, max_pairs=14), st.floats(0.5, 20.0))
    def test_fill_matches_whole_graph_neighbor_table(self, instance, budget):
        # reciprocal arcs carry different probabilities, so the arc each
        # neighbor's probability is read from shows in degdis's trace
        g, econ = instance
        fills = {
            "degdis": lambda: degree_discount_select(g, econ, budget),
            "sindis": lambda: single_discount_select(g, econ, budget),
        }
        for name, fill in fills.items():
            got = fill()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(baselines_mod, "_discounted_select", reference_discounted_select)
                want = fill()
            assert got.seeds == want.seeds, name
            assert got.trace == want.trace, name
            assert got.spent == want.spent, name
            assert got.stop_reason == want.stop_reason, name


class CountingHeap:
    """heapq's three calls, counting the entries heaped and the pops."""

    def __init__(self):
        self.entries = self.pops = 0

    def heapify(self, heap):
        self.entries += len(heap)
        heapq.heapify(heap)

    def heappush(self, heap, item):
        self.entries += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


class TestFillStopsWhenNothingFits:
    @given(tangled_instances(max_nodes=8, max_pairs=14), st.floats(0.5, 20.0))
    def test_no_pop_after_the_budget_is_below_every_cost(self, instance, budget):
        # once the budget left is below the cheapest cost, the fill stops: it
        # pops exactly what the reference popped up to its last commit, where
        # it used to drain the heap. Otherwise it drains the heap as the
        # reference does. Seeds, trace and stop reason are the reference's
        g, econ = instance
        cheapest = float(econ.cost.min())
        for fill in (degree_discount_select, single_discount_select):
            with pytest.MonkeyPatch.context() as mp:
                ours = CountingHeap()
                mp.setattr(baselines_mod, "heapq", ours)
                got = fill(g, econ, budget)
                theirs = CountingHeap()
                mp.setattr(helpers_mod, "heapq", theirs)
                at_commit = [0]
                commit_loop = helpers_mod._commit_loop

                def counted_loop(economics, budget, pick, stop_on_zero_gain):
                    def counted(*args):
                        best = pick(*args)
                        if best is not None:
                            at_commit.append(theirs.pops)
                        return best

                    return commit_loop(economics, budget, counted, stop_on_zero_gain)

                mp.setattr(helpers_mod, "_commit_loop", counted_loop)
                mp.setattr(baselines_mod, "_discounted_select", reference_discounted_select)
                want = fill(g, econ, budget)
            assert (got.seeds, got.trace, got.stop_reason) == (want.seeds, want.trace, want.stop_reason)
            left = got.trace[-1].budget_left if got.trace else budget
            if left < cheapest:
                assert got.stop_reason in ("no_affordable", "budget_exhausted")
                assert ours.pops == at_commit[-1]
            else:
                assert ours.pops == theirs.pops

    def test_a_fill_of_few_seeds_leaves_its_heap(self):
        # many nodes, few of them affordable together, as on er10k-hop: a
        # discount fill used to pop its whole heap after its last commit
        rng = np.random.default_rng(3)
        n = 400
        pairs = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(1200, 2)) if u != v}
        g = undirected(n, sorted(pairs))
        costs = dict(enumerate(rng.uniform(1.0, 50.0, n).tolist()))
        econ = make_economics(n, targets=range(0, n, 5), costs=costs)
        for fill in (degree_discount_select, single_discount_select):
            with pytest.MonkeyPatch.context() as mp:
                ours = CountingHeap()
                mp.setattr(baselines_mod, "heapq", ours)
                got = fill(g, econ, 100.0)
            assert got.stop_reason == "no_affordable"
            assert got.trace[-1].budget_left < econ.cost.min()
            assert len(got.seeds) <= ours.pops < ours.entries - n // 2


def pinned_instances():
    """Two fixed instances for the fill pins: (graph, economics, budget)."""
    edges = [(0, 1, 0.3), (0, 2, 0.3), (0, 3, 0.2), (1, 2, 0.5),
             (3, 4, 0.4), (4, 5, 0.3), (5, 6, 0.6), (2, 5, 0.1)]
    tiny = (
        make_graph(7, [a for u, v, p in edges for a in ((u, v, p), (v, u, p))], directed=False),
        make_economics(
            7,
            targets=[2, 4, 6],
            benefits={2: 3.0, 4: 5.0, 6: 2.0},
            costs={0: 2.0, 1: 1.0, 2: 3.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 4.0},
        ),
        6.0,
    )
    # directed, float costs; four nodes score zero under hbh, and the two
    # lowest-id ones no longer fit when the scan reaches them
    g, econ = random_instance(np.random.default_rng(7), max_nodes=10, max_arcs=14)
    return {"tiny": tiny, "random": (g, econ, 13.0)}


def run_heuristics(graph, econ, budget):
    hop = HopConfig(2, 0.1)
    return {
        "maxdeg": max_degree_select(graph, econ, budget),
        "degdis": degree_discount_select(graph, econ, budget),
        "sindis": single_discount_select(graph, econ, budget),
        "hbh": hop_based_select(graph, econ, hop, budget),
        "hbh_skip": hop_based_select(graph, econ, hop, budget, skip_zero=True),
    }


# (spent, [(node, gain, budget_left), ...]) per instance and selector,
# recorded before the heuristics shared the greedy commit loop
PINNED = {
    "tiny": {
        "maxdeg": (6.0, [
            (0, 3.0, 4.0),
            (2, 3.0, 1.0),
            (5, 3.0, 0.0),
        ]),
        "degdis": (5.0, [
            (0, 3.0, 4.0),
            (5, 3.0, 3.0),
            (3, -0.20000000000000018, 2.0),
            (1, -0.2999999999999998, 1.0),
        ]),
        "sindis": (5.0, [
            (0, 3.0, 4.0),
            (5, 3.0, 3.0),
            (1, 1.0, 2.0),
            (3, 1.0, 1.0),
        ]),
        "hbh": (5.0, [
            (5, 2.7, 5.0),
            (4, 2.68, 3.0),
            (3, 2.0, 2.0),
            (1, 1.6349999999999998, 1.0),
        ]),
        "hbh_skip": (5.0, [
            (5, 2.7, 5.0),
            (4, 2.68, 3.0),
            (3, 2.0, 2.0),
            (1, 1.6349999999999998, 1.0),
        ]),
    },
    "random": {
        "maxdeg": (12.06877911224124, [
            (2, 6.0, 10.264069540729231),
            (5, 2.0, 8.898259892795334),
            (7, 2.0, 7.495529634853856),
            (8, 2.0, 5.332616237143926),
            (9, 2.0, 4.815812147909584),
            (0, 1.0, 1.4842940027000373),
            (4, 0.0, 0.9312208877587609),
        ]),
        "degdis": (12.27986600342275, [
            (2, 6.0, 10.264069540729231),
            (5, 2.0, 8.898259892795334),
            (4, 0.0, 8.345186777854057),
            (8, -0.27938262888871224, 6.182273380144126),
            (9, -0.4505686752943818, 5.665469290909785),
            (0, -1.0, 2.333951145700238),
            (3, -1.0, 0.7201339965772493),
        ]),
        "sindis": (12.61271905718861, [
            (2, 6.0, 10.264069540729231),
            (5, 2.0, 8.898259892795334),
            (7, 1.0, 7.495529634853856),
            (8, 1.0, 5.332616237143926),
            (0, 0.0, 2.0010980919343786),
            (3, 0.0, 0.3872809428113899),
        ]),
        "hbh": (12.59941301218906, [
            (9, 17.907191818947215, 12.483195910765659),
            (7, 10.346982994654404, 11.08046565282418),
            (6, 2.4029445873506607, 7.4663211088559045),
            (4, 2.3886941405615745, 6.913247993914628),
            (2, 2.034141747061073, 4.1773175346438585),
            (8, 1.5694570046062237, 2.014404136933928),
            (3, 0.0, 0.4005869878109394),
        ]),
        "hbh_skip": (10.985595863066072, [
            (9, 17.907191818947215, 12.483195910765659),
            (7, 10.346982994654404, 11.08046565282418),
            (6, 2.4029445873506607, 7.4663211088559045),
            (4, 2.3886941405615745, 6.913247993914628),
            (2, 2.034141747061073, 4.1773175346438585),
            (8, 1.5694570046062237, 2.014404136933928),
        ]),
    },
}

STOP_REASONS = {
    "tiny": dict.fromkeys(("degdis", "sindis", "hbh", "hbh_skip"), "no_affordable")
    | {"maxdeg": "budget_exhausted"},
    "random": dict.fromkeys(("maxdeg", "degdis", "sindis", "hbh"), "no_affordable")
    | {"hbh_skip": "zero_gain"},
}


class TestPinnedFills:
    def test_seeds_spend_and_trace_are_pinned(self):
        for inst, (graph, econ, budget) in pinned_instances().items():
            for name, res in run_heuristics(graph, econ, budget).items():
                spent, trace = PINNED[inst][name]
                got = [(t.node, t.gain, t.budget_left) for t in res.trace]
                assert got == trace, (inst, name)
                assert res.seeds == [node for node, _, _ in trace], (inst, name)
                assert res.spent == spent, (inst, name)
                assert res.evaluations == 0, (inst, name)

    def test_stop_reasons(self):
        for inst, (graph, econ, budget) in pinned_instances().items():
            for name, res in run_heuristics(graph, econ, budget).items():
                assert res.stop_reason == STOP_REASONS[inst][name], (inst, name)
