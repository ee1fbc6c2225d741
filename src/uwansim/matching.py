# This module is a port of ``max_weight_matching`` from networkx 3.6.1
# (networkx/algorithms/matching.py), which is distributed under the
# following license:
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

``max_cardinality_matching`` returns the matching that networkx 3.6.1's
``max_weight_matching(G, maxcardinality=True)`` returns when every edge
weighs 1: given each node's neighbours in the order an ``nx.Graph`` lists
them, it scans edges and queues vertices in the same order, so it breaks
ties alike and the placed routes do not depend on networkx.

networkx runs Galil's primal-dual form ("Efficient Algorithms for Finding
Maximum Matching in Graphs", ACM Computing Surveys 18(1), 1986) of Edmonds'
blossom method ("Paths, trees, and flowers", 1965).  With unit weights its
dual machinery never acts before the search ends, which leaves Edmonds'
cardinality algorithm:

- every vertex dual starts at 1 (networkx keeps duals and slacks times
  two), so every edge has zero slack and is allowable when first scanned;
- so every blossom is made an S-blossom with zero dual, stays one and is
  dissolved when its stage ends: no stage starts with a blossom and no
  T-blossom exists;
- so the only dual update is the final one (delta = 1), which exists only
  to certify the optimum.  ``verify_optimum`` checks that certificate with
  the duals worked out from the last stage's labels: S vertices 0, T
  vertices 2, unlabelled vertices 1, top-level S-blossoms z = 1, nested
  blossoms 0.

Every internal ``assert`` of the code kept is kept, and an ``assert`` stands
where networkx starts a branch that this argument rules out, so a wrong
argument fails loudly instead of drifting from networkx.  The networkx code
derives from Joris van Rantwijk's mwmatching.py.  Many terms in the
comments are explained in Galil's paper.
"""


class _Blossom:
    """A non-trivial blossom or sub-blossom."""

    __slots__ = ("childs", "edges")

    # childs: the sub-blossoms in order, starting with the base and going
    # round the blossom.
    # edges: the connecting edges; edges[i] = (v, w) with v a vertex in
    # childs[i] and w a vertex in childs[wrap(i+1)].

    def leaves(self):
        """The blossom's vertices."""
        stack = [*self.childs]
        while stack:
            t = stack.pop()
            if isinstance(t, _Blossom):
                stack.extend(t.childs)
            else:
                yield t


def max_cardinality_matching(adjacency: list[list[int]]) -> list[tuple[int, int]]:
    """The pairs ``(i, j)``, ``i < j``, in increasing order, of a
    maximum-cardinality matching of the graph whose node ``v`` has the
    neighbours ``adjacency[v]``.

    The graph must be undirected and simple: ``j`` in ``adjacency[i]``
    exactly when ``i`` is in ``adjacency[j]``, no node its own neighbour,
    no neighbour listed twice.  Where several maximum matchings exist, the
    order of the rows decides which one is returned."""
    gnodes = range(len(adjacency))
    if not gnodes:
        return []

    # If v is a matched vertex, mate[v] is its partner vertex.
    # If v is a single vertex, v does not occur as a key in mate.
    # Initially all vertices are single; updated during augmentation.
    mate = {}

    # If b is a top-level blossom,
    # label.get(b) is None if b is unlabeled (free),
    #                 1 if b is an S-blossom,
    #                 2 if b is a T-vertex (never a non-trivial blossom).
    # The label of a vertex is found by looking at the label of its top-level
    # containing blossom.
    # Labels are assigned during a stage and reset after each augmentation.
    label = {}

    # If b is a labeled top-level blossom,
    # labeledge[b] = (v, w) is the edge through which b obtained its label
    # such that w is a vertex in b, or None if b's base vertex is single.
    labeledge = {}

    # If v is a vertex, inblossom[v] is the top-level blossom to which v
    # belongs.
    # If v is a top-level vertex, inblossom[v] == v since v is itself
    # a (trivial) top-level blossom.
    # Initially all vertices are top-level trivial blossoms.
    inblossom = list(gnodes)

    # If b is a sub-blossom,
    # blossomparent[b] is its immediate parent (sub-)blossom.
    # If b is a top-level blossom, blossomparent[b] is None.
    # Its keys are the vertices, then the blossoms of this stage.
    blossomparent = dict.fromkeys(gnodes)

    # If b is a (sub-)blossom,
    # blossombase[b] is its base VERTEX (i.e. recursive sub-blossom).
    blossombase = dict(zip(gnodes, gnodes))

    # The blossoms made in this stage, in order of creation.
    blossoms = []

    # Queue of newly discovered S-vertices.
    queue = []

    # Assign label t to vertex w, coming through an edge from vertex v.
    def assign_label(w, t, v):
        # Only vertices are unlabelled: every blossom is made an S-blossom.
        assert inblossom[w] == w and label.get(w) is None
        label[w] = t
        labeledge[w] = None if v is None else (v, w)
        if t == 1:
            # w became an S-vertex; add it to the queue.
            queue.append(w)
        elif t == 2:
            # w became a T-vertex; assign label S to its mate.
            assign_label(mate[w], 1, w)

    # Trace back from vertices v and w to discover either a new blossom
    # or an augmenting path. Return the base vertex of the new blossom,
    # or None if an augmenting path was found.
    def scan_blossom(v, w):
        # Trace back from v and w, placing breadcrumbs as we go.
        path = []
        base = None
        while v is not None:
            # Look for a breadcrumb in v's blossom or put a new breadcrumb.
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            # Trace one step back.
            if labeledge[b] is None:
                # The base of blossom b is single; stop tracing this path.
                assert blossombase[b] not in mate
                v = None
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                # b is a T-vertex; trace one more step back.
                v = labeledge[b][0]
            # Swap v and w so that we alternate between both paths.
            if w is not None:
                v, w = w, v
        # Remove breadcrumbs.
        for b in path:
            label[b] = 1
        # Return base vertex, if we found one.
        return base

    # Construct a new blossom with given base, through S-vertices v and w.
    # Label the new blossom as S; relabel its T-vertices to S and add them
    # to the queue.
    def add_blossom(base, v, w):
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        # Create blossom.
        b = _Blossom()
        blossoms.append(b)
        blossombase[b] = base
        blossomparent[b] = None
        blossomparent[bb] = b
        # Make list of sub-blossoms and their interconnecting edge endpoints.
        b.childs = path = []
        b.edges = edgs = [(v, w)]
        # Trace back from v to base.
        while bv != bb:
            # Add bv to the new blossom.
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            # Trace one step back.
            v = labeledge[bv][0]
            bv = inblossom[v]
        # Add base sub-blossom; reverse lists.
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            # Add bw to the new blossom.
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            # Trace one step back.
            w = labeledge[bw][0]
            bw = inblossom[w]
        # Set label to S.
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        # Relabel vertices.
        for v in b.leaves():
            if label[inblossom[v]] == 2:
                # This T-vertex now turns into an S-vertex because it becomes
                # part of an S-blossom; add it to the queue.
                queue.append(v)
            inblossom[v] = b

    # Swap matched/unmatched edges over an alternating path through blossom b
    # between vertex v and the base vertex. Keep blossom bookkeeping
    # consistent.
    def augment_blossom(b, v):
        # The augmentation recurses into sub-blossoms. Each recursive call is
        # a generator that yields the arguments of its own recursive calls,
        # so that the Python call stack stays flat (a trampoline).

        def _recurse(b, v):
            # Bubble up through the blossom tree from vertex v to an immediate
            # sub-blossom of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            # Recursively deal with the first sub-blossom.
            if isinstance(t, _Blossom):
                yield (t, v)
            # Decide in which direction we will go round the blossom.
            i = j = b.childs.index(t)
            if i & 1:
                # Start index is odd; go forward and wrap.
                j -= len(b.childs)
                jstep = 1
            else:
                # Start index is even; go backward.
                jstep = -1
            # Move along the blossom until we get to the base.
            while j != 0:
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = b.childs[j]
                if jstep == 1:
                    w, x = b.edges[j]
                else:
                    x, w = b.edges[j - 1]
                if isinstance(t, _Blossom):
                    yield (t, w)
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = b.childs[j]
                if isinstance(t, _Blossom):
                    yield (t, x)
                # Match the edge connecting those sub-blossoms.
                mate[w] = x
                mate[x] = w
            # Rotate the list of sub-blossoms to put the new base at the front.
            b.childs = b.childs[i:] + b.childs[:i]
            b.edges = b.edges[i:] + b.edges[:i]
            blossombase[b] = blossombase[b.childs[0]]
            assert blossombase[b] == v

        # Run the trampoline: a stack of the pending generators, grown by one
        # for each argument a generator yields and shrunk when one is done.
        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    # Swap matched/unmatched edges over an alternating path between two
    # single vertices. The augmenting path runs through S-vertices v and w.
    def augment_matching(v, w):
        for s, j in ((v, w), (w, v)):
            # Match vertex s to vertex j. Then trace back from s
            # until we find a single vertex, swapping matched and unmatched
            # edges as we go.
            while 1:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and blossombase[bs] not in mate) or (
                    labeledge[bs][0] == mate[blossombase[bs]]
                )
                # Augment through the S-blossom from s to base.
                if isinstance(bs, _Blossom):
                    augment_blossom(bs, s)
                # Update mate[s]
                mate[s] = j
                # Trace one step back.
                if labeledge[bs] is None:
                    # Reached single vertex; stop.
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                # Trace one more step back.
                s, j = labeledge[bt]
                # A T label is only ever on a vertex, so there is no
                # T-blossom to augment through from j to its base.
                assert blossombase[bt] == t and bt == j
                # Update mate[j]
                mate[j] = s

    # Verify that the optimum solution has been reached.
    def verify_optimum():
        # The duals after the final update (times two): S vertices 0, T
        # vertices 2, unlabelled 1; top-level S-blossoms 1, nested ones 0.
        vertexdual = {None: 1, 1: 0, 2: 2}
        dualvar = [vertexdual[label.get(inblossom[v])] for v in gnodes]
        blossomdual = {}
        for b in blossoms:
            assert blossomparent[b] is not None or label[b] == 1
            blossomdual[b] = 1 if blossomparent[b] is None else 0
        # 0. all dual variables are non-negative
        assert min(dualvar) >= 0
        assert len(blossomdual) == 0 or min(blossomdual.values()) >= 0
        # 0. all edges have non-negative slack and
        # 1. all matched edges have zero slack;
        for i in gnodes:
            for j in adjacency[i]:
                if j < i:
                    continue  # each edge once
                s = dualvar[i] + dualvar[j] - 2
                iblossoms = [i]
                jblossoms = [j]
                while blossomparent[iblossoms[-1]] is not None:
                    iblossoms.append(blossomparent[iblossoms[-1]])
                while blossomparent[jblossoms[-1]] is not None:
                    jblossoms.append(blossomparent[jblossoms[-1]])
                iblossoms.reverse()
                jblossoms.reverse()
                for bi, bj in zip(iblossoms, jblossoms):
                    if bi != bj:
                        break
                    s += 2 * blossomdual[bi]
                assert s >= 0
                if mate.get(i) == j or mate.get(j) == i:
                    assert mate[i] == j and mate[j] == i
                    assert s == 0
        # 2. all single vertices have zero dual value;
        for v in gnodes:
            assert (v in mate) or dualvar[v] == 0
        # 3. all blossoms with positive dual value are full.
        for b in blossomdual:
            if blossomdual[b] > 0:
                assert len(b.edges) % 2 == 1
                for i, j in b.edges[1::2]:
                    assert mate[i] == j and mate[j] == i
        # Ok.

    # Main loop: continue until no further improvement is possible.
    while 1:
        # Each iteration of this loop is a "stage".
        # A stage finds an augmenting path and uses that to improve
        # the matching.

        # The last stage dissolved every blossom.
        assert len(blossomparent) == len(gnodes)

        # Remove labels from top-level blossoms/vertices.
        label.clear()
        labeledge.clear()

        # Make queue empty.
        queue[:] = []

        # Label single vertices with S and put them in the queue.
        for v in gnodes:
            if v not in mate:
                assign_label(v, 1, None)

        # Continue labeling until all vertices which are reachable
        # through an alternating path have got a label, or an augmenting
        # path is found.  Every edge is allowable, so there is no dual
        # update to make before the queue runs empty.
        augmented = 0
        while queue and not augmented:
            # Take an S vertex from the queue.
            v = queue.pop()
            assert label[inblossom[v]] == 1

            # Scan its neighbors:
            for w in adjacency[v]:
                # w is a neighbor to v
                bv = inblossom[v]
                bw = inblossom[w]
                if bv == bw:
                    # this edge is internal to a blossom; ignore it
                    continue
                if label.get(bw) is None:
                    # (C1) w is a free vertex;
                    # label w with T and label its mate with S (R12).
                    assign_label(w, 2, v)
                elif label.get(bw) == 1:
                    # (C2) w is an S-vertex (not in the same blossom);
                    # follow back-links to discover either an
                    # augmenting path or a new blossom.
                    base = scan_blossom(v, w)
                    if base is not None:
                        # Found a new blossom; add it to the blossom
                        # bookkeeping and turn it into an S-blossom.
                        add_blossom(base, v, w)
                    else:
                        # Found an augmenting path; augment the
                        # matching and end this stage.
                        augment_matching(v, w)
                        augmented = 1
                        break
                else:
                    # w is a T-vertex, never inside a T-blossom.
                    assert label[bw] == 2 and bw == w

        # Paranoia check that the matching is symmetric.
        for v in mate:
            assert mate[mate[v]] == v

        # Stop when no more augmenting path can be found.
        if not augmented:
            break

        # End of a stage; dissolve every blossom, each an S-blossom with
        # zero dual, by making its own vertices top-level again.
        for b in blossoms:
            assert blossomparent[b] is not None or label[b] == 1
            for s in b.childs:
                if not isinstance(s, _Blossom):
                    inblossom[s] = s
                    blossomparent[s] = None
            del blossomparent[b], blossombase[b]
        blossoms.clear()

    # Verify that we reached the optimum solution.
    verify_optimum()

    return sorted((v, w) for v, w in mate.items() if v < w)
