# This module keeps the search order of ``max_weight_matching`` from
# networkx 3.6.1 (networkx/algorithms/matching.py), which is distributed
# under the following license:
#
#    Copyright (c) 2004-2025, NetworkX Developers
#    Aric Hagberg <hagberg@lanl.gov>
#    Dan Schult <dschult@colgate.edu>
#    Pieter Swart <swart@lanl.gov>
#    All rights reserved.
#
#    Redistribution and use in source and binary forms, with or without
#    modification, are permitted provided that the following conditions are
#    met:
#
#      * Redistributions of source code must retain the above copyright
#        notice, this list of conditions and the following disclaimer.
#
#      * Redistributions in binary form must reproduce the above
#        copyright notice, this list of conditions and the following
#        disclaimer in the documentation and/or other materials provided
#        with the distribution.
#
#      * Neither the name of the NetworkX Developers nor the names of its
#        contributors may be used to endorse or promote products derived
#        from this software without specific prior written permission.
#
#    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""Maximum-cardinality matching of a simple graph: Edmonds' blossom algorithm.

``max_cardinality_matching`` runs Edmonds' cardinality search ("Paths,
trees, and flowers", Canad. J. Math. 17, 1965) and returns the matching that
networkx 3.6.1's ``max_weight_matching(G, maxcardinality=True)`` returns
when every edge weighs 1.  A graph has many maximum matchings as a rule, and
which one comes out depends on the order of the search: the LIFO queue of S
vertices, the scan of each vertex's neighbours in adjacency order, the
alternating trace that finds a blossom's base, and the order in which a new
blossom queues the T vertices it absorbs.  Placement (``scenario._pair_nodes``)
takes its links from the matching, so all four are networkx's, and the
placed routes are those networkx placed.

With unit weights networkx's dual updates never act before the search ends,
so every blossom is an S-blossom and is dissolved when its stage ends: a
stage needs no blossom tree.  A blossom is its base and a member list, and
an augmenting path is walked from the labels as in Gabow ("An efficient
implementation of Edmonds' algorithm for maximum matching on graphs",
J. ACM 23(2), 1976): a T vertex absorbed into a blossom keeps the edge that
closed it (its bridge), and the walk crosses the blossom through it.

The end of every call asserts the dual certificate of optimality, with the
duals (times two, as in networkx) worked out from the last stage's labels:
S vertices 0, T vertices 2, unlabelled vertices 1, and 1 for each top-level
blossom.
"""


class _Stage:
    """One stage of the search: the alternating forest grown from the single
    vertices until an augmenting path is found or the queue runs empty.

    Labels (1 for S, 2 for T, 5 for a breadcrumb) and label edges are keyed
    by the base of a top-level blossom, which is ``top[v]`` for each vertex
    ``v``; ``members[base]`` lists the vertices of a non-trivial one."""

    def __init__(self, adjacency, mate):
        self.adjacency = adjacency
        self.mate = mate
        self.top = list(range(len(adjacency)))
        # the single vertices are the S roots, queued in index order
        self.queue = [v for v in self.top if v not in mate]
        self.label = dict.fromkeys(self.queue, 1)
        self.labeledge = dict.fromkeys(self.queue)
        self.members = {}
        # bridge[t] = (the end of the closing edge on t's side, the other end)
        # for each T vertex t that a blossom absorbed
        self.bridge = {}

    def search(self) -> bool:
        """Label from the queue; True once an augmentation ends the stage."""
        adjacency, mate, top, label, labeledge, queue = (
            self.adjacency, self.mate, self.top, self.label, self.labeledge, self.queue)
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                bw = top[w]
                if top[v] == bw:
                    continue  # an edge inside a blossom
                lw = label.get(bw)
                if lw is None:
                    # w is unlabelled, so matched: label it T and its mate S
                    m = mate[w]
                    label[w], labeledge[w] = 2, (v, w)
                    label[m], labeledge[m] = 1, (w, m)
                    queue.append(m)
                elif lw == 1:
                    base = self.scan(v, w)
                    if base is None:
                        self.augment(v, w)
                        return True
                    self.blossom(base, v, w)
        return False

    def scan(self, v, w):
        """Trace back from S vertices v and w in turn, leaving breadcrumbs:
        the base of the blossom that edge (v, w) closes, or None if the two
        paths end at different single vertices."""
        top, label, labeledge = self.top, self.label, self.labeledge
        path = []
        base = None
        while v is not None:
            b = top[v]
            if label[b] & 4:
                base = b
                break
            path.append(b)
            label[b] = 5
            v = None if labeledge[b] is None else labeledge[labeledge[b][0]][0]
            if w is not None:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def blossom(self, base, v, w):
        """Make the S-blossom that edge (v, w) closes on ``base`` and queue
        its T vertices: those of w's side from the base outward, then those
        of v's side from v toward the base."""
        top, label, labeledge, members = self.top, self.label, self.labeledge, self.members
        sides = []
        for end, other in ((v, w), (w, v)):
            side = []
            b = top[end]
            while b != base:
                side.append(b)
                if label[b] == 2:
                    self.bridge[b] = (end, other)
                b = top[labeledge[b][0]]
            sides.append(side)
        inside = members.setdefault(base, [base])
        for b in sides[1][::-1] + sides[0]:
            if label[b] == 2:
                self.queue.append(b)
            for x in members.pop(b, (b,)):
                top[x] = base
                inside.append(x)

    def _walk(self, x, stop, out):
        """Append the alternating path from S vertex x to its single vertex,
        up to ``stop`` if given, to ``out``; yield the arguments of each
        sub-walk this needs, to be run before the walk goes on."""
        labeledge = self.labeledge
        while True:
            while x in self.bridge:
                # x is an absorbed T vertex: its path runs back along its
                # side of the blossom to the bridge, then on from the far end
                near, far = self.bridge[x]
                part = []
                yield near, x, part
                out.extend(reversed(part))
                x = far
            out.append(x)
            if labeledge[x] is None:
                return
            t = labeledge[x][0]  # x's mate, a T vertex
            out.append(t)
            if t == stop:
                return
            x = labeledge[t][0]

    def walk(self, x) -> list:
        """The alternating path from S vertex x to its single vertex.  The
        sub-walks run from a stack, so Python's stack does not grow with
        the nesting of the blossoms."""
        out = []
        walks = [self._walk(x, None, out)]
        while walks:
            for args in walks[-1]:
                walks.append(self._walk(*args))
                break
            else:
                walks.pop()
        return out

    def augment(self, v, w):
        """Match every other edge of the path through edge (v, w)."""
        path = self.walk(v)[::-1] + self.walk(w)
        assert len(path) % 2 == 0 and path[0] not in self.mate and path[-1] not in self.mate
        for a, b in zip(path[::2], path[1::2]):
            self.mate[a], self.mate[b] = b, a

    def certify(self):
        """Assert that this last stage's labels certify a maximum matching."""
        mate, top = self.mate, self.top
        dual = [{None: 1, 1: 0, 2: 2}[self.label.get(b)] for b in top]
        matched = 0
        for i, row in enumerate(self.adjacency):
            for j in row:
                # an edge inside a top-level blossom takes its dual twice
                slack = dual[i] + dual[j] - 2 + 2 * (top[i] == top[j])
                assert slack >= 0
                if mate.get(i) == j:
                    assert slack == 0 and mate[j] == i
                    matched += 1
        assert matched == len(mate)  # every matched pair is an edge
        assert all(dual[v] == 0 for v in range(len(top)) if v not in mate)
        for base, inside in self.members.items():
            assert all(top[mate[x]] == base for x in inside if x != base)


def max_cardinality_matching(adjacency: list[list[int]]) -> list[tuple[int, int]]:
    """The pairs ``(i, j)``, ``i < j``, in increasing order, of a
    maximum-cardinality matching of the graph whose node ``v`` has the
    neighbours ``adjacency[v]``.

    The graph must be undirected and simple: ``j`` in ``adjacency[i]``
    exactly when ``i`` is in ``adjacency[j]``, no node its own neighbour,
    no neighbour listed twice.  Where several maximum matchings exist, the
    order of the rows decides which one is returned."""
    mate = {}
    stage = _Stage(adjacency, mate)
    while stage.search():  # each augmentation ends a stage
        stage = _Stage(adjacency, mate)
    stage.certify()
    return sorted((v, w) for v, w in mate.items() if v < w)
