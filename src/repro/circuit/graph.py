"""Graph primitives over node indices: union-find and breadth-first search.

The structural checks (floating groups, voltage-source loops, RC-tree
recognition) and the tree/link analysis all ask the same two questions of
a circuit graph: are two nodes already connected, and which path joins
them.  :class:`DisjointSets` answers the first in near-constant time per
edge; :func:`bfs_parents` and :func:`tree_path` answer the second on the
adjacency lists of a forest.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable


class DisjointSets:
    """Union-find over the integers ``0 … size - 1`` (path halving).

    As in Python indexing, ``-1`` names the last item: a circuit's
    element columns store ground as ``-1``, so a forest of
    ``node_count + 1`` items takes them as they are, ground last."""

    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, item: int) -> int:
        """The representative of ``item``'s set."""
        parent = self.parent
        while parent[item] != item:
            parent[item] = item = parent[parent[item]]
        return item

    def union(self, a: int, b: int) -> bool:
        """Join the sets of ``a`` and ``b``; False when they were one set."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return False
        self.parent[root_a] = root_b
        return True

    def union_all(self, a: Iterable[int], b: Iterable[int]) -> int:
        """Join ``a[i]`` with ``b[i]`` for every ``i``; returns how many
        pairs joined two sets."""
        parent = self.parent
        joined = 0
        for x, y in zip(a, b):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[x] = y
                joined += 1
        return joined

    def groups(self, without: int) -> tuple[tuple[int, ...], ...]:
        """Every set except the one holding ``without``, each as a sorted
        tuple, in sorted order."""
        find = self.find
        skip = find(without)
        members: dict[int, list[int]] = {}
        for item in range(len(self.parent)):
            root = find(item)
            if root != skip:
                members.setdefault(root, []).append(item)
        return tuple(sorted(map(tuple, members.values())))


def bfs_parents(adjacency: dict[Hashable, list], root: Hashable) -> dict:
    """Breadth-first search from ``root`` over ``adjacency`` (node -> list
    of ``(neighbour, edge)``, visited in list order): ``{node: (parent,
    edge)}`` for every reached node but the root, in visiting order."""
    parents: dict = {}
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbour, edge in adjacency.get(node, ()):
            if neighbour not in seen:
                seen.add(neighbour)
                parents[neighbour] = (node, edge)
                queue.append(neighbour)
    return parents


def tree_path(adjacency: dict[Hashable, list], start: Hashable, end: Hashable) -> list:
    """The ``(node, next_node, edge)`` steps of the path from ``start`` to
    ``end`` in a forest given as adjacency lists (the path is unique);
    ``None`` when the two are not connected."""
    parents = bfs_parents(adjacency, start)
    if end != start and end not in parents:
        return None
    steps = []
    node = end
    while node != start:
        previous, edge = parents[node]
        steps.append((previous, node, edge))
        node = previous
    steps.reverse()
    return steps
