"""Test graphs embedded by networkx, independently of ckfree's embedding code.

`stacked_triangulation` grows a random stacked triangulation (planar 3-tree)
as an abstract graph and takes its rotations from networkx's planarity test.
`face_of` reads one face from `face_walks()`.  `retained_size` is the
yardstick of the memory tests.
"""

import sys
from itertools import chain

import networkx as nx

from ckfree import EmbeddedGraph


def nx_rotations(G):
    """Counterclockwise rotations of a planar networkx graph on 0..n-1."""
    planar, emb = nx.check_planarity(G)
    assert planar
    # a rotation lists the neighbours counterclockwise, networkx's reverse of cw
    return [tuple(reversed(list(emb.neighbors_cw_order(v)))) for v in range(len(G))]


def stacked_triangulation(picks):
    """K_4 on outer face (0, 1, 2), then one vertex per pick inserted into
    inner face number `pick % (number of inner faces)`.

    Faces are kept in a list: the chosen face is removed and its three
    subfaces are appended, so picks [0, 0, 0] subdivide each inner face of
    K_4 once.
    """
    G = nx.complete_graph(4)
    faces = [(0, 1, 3), (1, 2, 3), (2, 0, 3)]
    for p in picks:
        a, b, c = faces.pop(p % len(faces))
        v = len(G)
        G.add_edges_from([(a, v), (b, v), (c, v)])
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    rot = nx_rotations(G)
    # the face on the dart (0, 1) continues to 2 when 2 follows 0 at vertex 1;
    # otherwise networkx chose the mirror image
    at1 = rot[1]
    if at1[(at1.index(0) + 1) % len(at1)] != 2:
        rot = [r[::-1] for r in rot]
    return EmbeddedGraph(tuple(rot), (0, 1))


def face_of(g, u, v):
    """The face walk of g that holds the dart (u, v), rotated to start at u."""
    for walk in g.face_walks():
        m = len(walk)
        for i in range(m):
            if walk[i] == u and walk[(i + 1) % m] == v:
                return walk[i:] + walk[:i]
    raise ValueError(f"({u},{v}) is not a dart of the graph")


def retained_size(g):
    """Bytes the graph holds: its rotation tuples and their distinct ints,
    counted without tracemalloc, which misses tuples reused from a free list."""
    ints = {id(u): u for rot in g.rotations for u in rot}
    return sys.getsizeof(g.rotations) + sum(map(sys.getsizeof, chain(g.rotations, ints.values())))
