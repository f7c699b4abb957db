import random
import time

import pytest

from corpus import TERMINAL_MODES, corpus, random_decomposition


class TestCorpus:
    def test_unreachable_edge_bound_raises_at_once(self):
        # two spanning trees over 8 boundary nodes need 14 edges, past the default 12
        started = time.perf_counter()
        with pytest.raises(ValueError, match="need at least 14 edges"):
            corpus(1, 8, 1)
        assert time.perf_counter() - started < 0.1

    @pytest.mark.parametrize(("n", "fewest"), [(1, 2), (2, 2), (3, 4), (7, 12)])
    def test_the_fewest_edges_still_draw(self, n, fewest):
        d = random_decomposition(random.Random(n), n, max_union_edges=fewest)
        assert len(d.union.edges) == fewest
        with pytest.raises(ValueError):
            random_decomposition(random.Random(n), n, max_union_edges=fewest - 1)

    @pytest.mark.parametrize("mode", TERMINAL_MODES)
    def test_seven_node_boundary_draws(self, mode):
        (d,) = corpus(5, 7, 1, terminal_mode=mode)
        assert d.n == 7
        assert len(d.union.edges) == 12
