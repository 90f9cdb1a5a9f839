"""Small helpers the test modules share (``tests/`` is on ``sys.path``)."""

from repro.core.errors import GraphError
from repro.graphs import Digraph, Graph


def shardable_kinds(engine):
    """Sorted kinds of ``engine`` whose scheme declares a ``ShardSpec``: the
    ones a sharded attach splits.  Asking resolves every promised kind."""
    return sorted(kind for kind in engine.kinds()
                  if engine.registration(kind)[1].sharding is not None)


def permute_vertices(graph, permutation):
    """Renumber vertices: the new id of old vertex v is ``permutation[v]``.

    Renumbering changes the BDS visit order, which the search's numbering
    induces (Example 2)."""
    if sorted(permutation) != list(range(graph.n)):
        raise GraphError("permutation must be a bijection on the vertex set")
    result = Digraph(graph.n) if graph.directed else Graph(graph.n)
    for u, v in graph.edges():
        result.add_edge(permutation[u], permutation[v])
    return result
