"""The quotient-graph BFS as it was before its cover nodes were packed into
ints: an oracle.

``tuple_shells`` keys each cover node as a (node, offset) pair and adds the
edge voltage to the offset tuple at every step, keeping one seen-set of all
nodes reached.  ``PeriodicGraph.shells`` must give the same shell sizes
from every node.
"""

from skelforge.geometry import vadd


def tuple_shells(graph, source, depth):
    """BFS shell sizes 1..depth around (source, origin) in the cover."""
    start = (source, (0, 0, 0))
    seen = {start}
    frontier = [start]
    adj = graph.neighbors()
    sizes = []
    for _ in range(depth):
        nxt = []
        for u, off in frontier:
            for v, t in adj[u]:
                node = (v, vadd(off, t))
                if node not in seen:
                    seen.add(node)
                    nxt.append(node)
        sizes.append(len(nxt))
        frontier = nxt
    return sizes
