"""Oracles for the end-to-end benchmark, in plain Python.

Nothing here imports ``repro``: the harness checks the program's outputs
against these functions, so they must not share a bug with the engines.
Graphs are ``(nodes, edges)`` with ``edges`` an iterable of ``(u, v)``
pairs; every function returns plain sets of tuples.

``test_reference.py`` checks each oracle against the paper's operator
(``theta_legacy`` iterated naively) and ``well_founded_semantics`` on
graphs of at most 8 nodes.
"""

from __future__ import annotations

from collections import deque

INF = float("inf")


def successors(edges):
    """Adjacency lists ``{u: [v, ...]}`` of an edge set."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    return adj


def reachable_from(adj, source):
    """Nodes reachable from ``source`` by a path of at least one edge."""
    seen = set()
    stack = list(adj.get(source, ()))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(adj.get(node, ()))
    return seen


def transitive_closure(nodes, edges):
    """``{(x, y)}``: ``y`` reachable from ``x`` by at least one edge."""
    adj = successors(edges)
    return {(x, y) for x in nodes for y in reachable_from(adj, x)}


def tc_complement(nodes, edges):
    """``nodes x nodes`` minus the transitive closure."""
    nodes = list(nodes)
    closure = transitive_closure(nodes, edges)
    return {(x, y) for x in nodes for y in nodes if (x, y) not in closure}


def distances(nodes, edges):
    """``{(x, y): d}``: length of the shortest path of at least one edge."""
    adj = successors(edges)
    dist = {}
    for source in nodes:
        queue = deque((v, 1) for v in adj.get(source, ()))
        while queue:
            node, d = queue.popleft()
            if (source, node) not in dist:
                dist[(source, node)] = d
                queue.extend((v, d + 1) for v in adj.get(node, ()))
    return dist


def distance_query(nodes, edges):
    """Proposition 2's query, the inflationary meaning of carrier ``S3``.

    ``{(x, y, x*, y*) : d(x, y) < inf and d(x, y) <= d(x*, y*)}`` with
    ``d`` the shortest path of at least one edge (``inf`` when none).
    """
    nodes = list(nodes)
    dist = distances(nodes, edges)
    out = set()
    for (x, y), d in dist.items():
        for xs in nodes:
            for ys in nodes:
                if d <= dist.get((xs, ys), INF):
                    out.add((x, y, xs, ys))
    return out


def win_move(nodes, edges):
    """Three-valued win-move by retrograde analysis.

    Returns ``(won, lost, drawn, depth)``.  A position with no move is
    lost; a position with a move to a lost one is won; a position all of
    whose moves reach won ones is lost; what is left is drawn.  These are
    the true / false / undefined atoms of ``WIN(X) :- Move(X, Y),
    !WIN(Y)`` under the well-founded semantics.  ``depth`` is the number
    of retrograde layers, which is what the alternating fixpoint's round
    count follows.
    """
    nodes = list(nodes)
    preds = {}
    out_degree = dict.fromkeys(nodes, 0)
    for u, v in set(edges):
        preds.setdefault(v, []).append(u)
        out_degree[u] += 1
    won, lost = set(), set()
    layer = [x for x in nodes if out_degree[x] == 0]
    lost.update(layer)
    depth = 0
    while layer:
        depth += 1
        nxt = []
        for node in layer:
            for p in preds.get(node, ()):
                if p in won or p in lost:
                    continue
                if node in lost:
                    won.add(p)
                    nxt.append(p)
                else:
                    out_degree[p] -= 1
                    if out_degree[p] == 0:
                        lost.add(p)
                        nxt.append(p)
        layer = nxt
    drawn = set(nodes) - won - lost
    return won, lost, drawn, depth


def acyc(nodes, edges):
    """``ACYC(x, y)``: the edges ``(x, y)`` that lie on no cycle.

    From per-node reachability: ``E(x, y)`` and ``x`` not reachable from
    ``y``.
    """
    edges = set(edges)
    adj = successors(edges)
    reach = {}
    out = set()
    for x, y in edges:
        if y not in reach:
            reach[y] = reachable_from(adj, y)
        if x not in reach[y]:
            out.add((x, y))
    return out


def closure_size(n, edges):
    """``|TC|`` of a graph on nodes ``0..n-1``, by SCC condensation.

    Strongly connected components (iterative Tarjan) are visited in
    reverse topological order and reachability is a Python-int bitset per
    component, so this is fast enough to be evaluated on many candidate
    graphs when the input generator conditions on the closure size.  It
    is checked against :func:`transitive_closure` in the tests.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack = []
    comps = []  # in the order Tarjan closes them: reverse topological
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            succ = adj[node]
            while i < len(succ):
                nxt = succ[i]
                i += 1
                if index[nxt] == -1:
                    work.append((node, i))
                    work.append((nxt, 0))
                    recurse = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if recurse:
                continue
            if low[node] == index[node]:
                members = []
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp[top] = len(comps)
                    members.append(top)
                    if top == node:
                        break
                comps.append(members)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    reach = [0] * len(comps)  # bitset over nodes reachable by >= 1 edge
    total = 0
    for c, members in enumerate(comps):
        mask = 0
        cyclic = len(members) > 1
        for node in members:
            for nxt in adj[node]:
                if comp[nxt] == c:
                    cyclic = True
                else:
                    mask |= reach[comp[nxt]]
                    mask |= 1 << nxt
        if cyclic:
            for node in members:
                mask |= 1 << node
        reach[c] = mask
        total += len(members) * bin(mask).count("1")
    return total
