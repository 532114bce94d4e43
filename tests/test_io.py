import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphssl import GraphConfig, PointSet, build_graph
from graphssl.io import fmt17, write_edge_list

from _synth import random_graph


def _sorted_tuple_edge_list(path, g):
    """The edge-list writer that sorted a Python tuple per stored entry,
    kept as the reference for the CSR-order writer."""
    coo = g.weights.tocoo()
    lines = []
    for i, j, w in sorted(zip(coo.row, coo.col, coo.data)):
        if i < j:
            lines.append(f"{i},{j},{fmt17(w)}")
    path.write_text("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_edge_list_matches_sorted_tuple_writer(tmp_path_factory, n, seed, density):
    tmp = tmp_path_factory.mktemp("edges")
    g = random_graph(n, seed, density=density, ensure_connected=False)
    write_edge_list(tmp / "new.txt", g)
    _sorted_tuple_edge_list(tmp / "old.txt", g)
    assert (tmp / "new.txt").read_bytes() == (tmp / "old.txt").read_bytes()


def test_knn_edge_list_matches_sorted_tuple_writer(tmp_path):
    rng = np.random.default_rng(3)
    ps = PointSet(rng.normal(size=(400, 3)), np.zeros(400, dtype=int))
    g = build_graph(ps, GraphConfig(mode="knn", k_neighbors=6, sigma=0.5))
    write_edge_list(tmp_path / "new.txt", g)
    _sorted_tuple_edge_list(tmp_path / "old.txt", g)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
