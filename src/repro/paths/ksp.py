"""Yen's k-shortest-paths candidate path selection.

The paper precomputes the three shortest paths between every pair of nodes
with Yen's algorithm (Section 5.1).  This module runs Yen's algorithm over a
bidirectional breadth-first search (hop count is the path metric) on plain
successor / predecessor lists and produces a
:class:`~repro.paths.path_set.PathSet`.

It is a port of the unweighted branch of networkx 3.6.1's
``shortest_simple_paths``, and it returns exactly the paths, in exactly the
order, that ``islice(nx.shortest_simple_paths(topology.to_networkx(), s, d),
k)`` returns.  Many paths tie on hop count, so which ones become a pair's
candidates is decided by tie-breaks, and those are reproduced step by step:

* a node's successors (predecessors) are visited in the order its outgoing
  (incoming) edges appear in ``topology.edges``, as in the ``DiGraph`` that
  :meth:`~repro.topology.graph.Topology.to_networkx` builds;
* each breadth-first search grows the smaller fringe, the forward one on a
  tie, and stops at the first node both searches have reached;
* a spur search from ``root[-1]`` ignores the nodes of ``root[:-1]`` and the
  next edge of every accepted path that shares the root;
* candidates leave the heap by ``(length, push counter)``: equal lengths in
  the order they were first pushed, a path already waiting never re-pushed.

Every record depends on this choice: the candidate paths fix the
``PathSet.fingerprint`` that keys the normaliser cache, the split-ratio
layout the schemes learn, and so every MLU.  Porting the order instead of
calling networkx keeps records identical to those made with networkx, and
keeps them independent of which networkx version a machine has (or whether
it has one).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count

from repro.paths.path_set import PathSet
from repro.topology.graph import Topology

__all__ = ["build_ksp_path_set"]


#: Search marks: not reached, in the forward / reverse tree, ignored.
_FREE, _FORWARD, _REVERSE, _IGNORED = 0, 1, 2, 3


def _bidirectional_shortest_path(
    successors: list[list[int]],
    predecessors: list[list[int]],
    source: int,
    target: int,
    marks: list[int],
    blocked: set[int],
) -> list[int] | None:
    """A fewest-hop ``source -> target`` path (``None`` if there is none).

    ``marks`` holds ``_IGNORED`` at the nodes to avoid (never ``source`` or
    ``target``) and ``_FREE`` elsewhere; ``blocked`` names the successors of
    ``source`` whose edge from it is ignored.  Two BFS trees grow from the
    ends and meet in the middle; ``parent`` holds each tree node's
    neighbour towards its end.
    """
    state = marks[:]
    state[source], state[target] = _FORWARD, _REVERSE
    parent = [-1] * len(marks)
    starts = [w for w in successors[source] if w not in blocked]
    forward_fringe = [source]
    reverse_fringe = [target]
    while forward_fringe and reverse_fringe:
        if len(forward_fringe) <= len(reverse_fringe):
            level, forward_fringe = forward_fringe, []
            for v in level:
                for w in starts if v == source else successors[v]:
                    seen = state[w]
                    if seen == _FREE:
                        state[w] = _FORWARD
                        parent[w] = v
                        forward_fringe.append(w)
                    elif seen == _REVERSE:
                        return _join(parent, v, w)
        else:
            level, reverse_fringe = reverse_fringe, []
            for v in level:
                for w in predecessors[v]:
                    seen = state[w]
                    if seen == _FREE:
                        state[w] = _REVERSE
                        parent[w] = v
                        reverse_fringe.append(w)
                    elif seen == _FORWARD and not (w == source and v in blocked):
                        return _join(parent, w, v)
    return None


def _join(parent: list[int], tail: int, head: int) -> list[int]:
    """The path through the edge ``tail -> head`` where the two trees met."""
    path = [tail]
    node = parent[tail]
    while node != -1:
        path.append(node)
        node = parent[node]
    path.reverse()
    path.append(head)
    node = parent[head]
    while node != -1:
        path.append(node)
        node = parent[node]
    return path


def _k_shortest_paths(
    successors: list[list[int]],
    predecessors: list[list[int]],
    source: int,
    target: int,
    k: int,
) -> list[list[int]]:
    """The first ``k`` simple ``source -> target`` paths in Yen's order."""
    if k < 1:
        return []
    marks = [_FREE] * len(successors)
    first = _bidirectional_shortest_path(successors, predecessors, source, target, marks, set())
    if first is None:
        return []
    accepted: list[list[int]] = []
    heap: list[tuple[int, int, list[int]]] = [(len(first), 0, first)]
    queued = {tuple(first)}
    counter = count(1)
    while heap:
        path = heappop(heap)[2]
        queued.remove(tuple(path))
        accepted.append(path)
        if len(accepted) == k:
            break
        marks = [_FREE] * len(successors)
        for i in range(1, len(path)):
            root = path[:i]
            # Yen ignores the edge after ``root`` on every accepted path that
            # shares it; edges out of earlier root nodes start at ignored
            # nodes, so only those out of ``root[-1]`` can matter.
            blocked = {other[i] for other in accepted if other[:i] == root}
            spur = _bidirectional_shortest_path(
                successors, predecessors, root[-1], target, marks, blocked
            )
            if spur is not None:
                candidate = root[:-1] + spur
                key = tuple(candidate)
                if key not in queued:
                    heappush(heap, (i + len(spur), next(counter), candidate))
                    queued.add(key)
            marks[root[-1]] = _IGNORED
    return accepted


def build_ksp_path_set(topology: Topology, k: int = 3) -> PathSet:
    """Build a :class:`PathSet` with up to ``k`` shortest paths per SD pair.

    This is the default candidate-path construction of the paper (Yen's
    algorithm, k = 3), with hop count as the path metric.  Pairs with fewer
    than ``k`` simple paths simply get fewer candidates.

    Raises:
        networkx.NetworkXNoPath: If some pair has no path at all (the one
            place this module imports networkx, so callers that catch it
            keep working).
    """
    successors: list[list[int]] = [[] for _ in range(topology.num_nodes)]
    predecessors: list[list[int]] = [[] for _ in range(topology.num_nodes)]
    for edge in topology.edges:
        successors[edge.src].append(edge.dst)
        predecessors[edge.dst].append(edge.src)
    paths_by_pair: dict[tuple[int, int], list[list[int]]] = {}
    for src, dst in topology.sd_pairs():
        paths = _k_shortest_paths(successors, predecessors, src, dst, k)
        if not paths:
            from networkx import NetworkXNoPath

            raise NetworkXNoPath(f"no path between {src} and {dst}")
        paths_by_pair[(src, dst)] = paths
    return PathSet(topology, paths_by_pair)
