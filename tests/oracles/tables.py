"""Tuple-keyed golden models of the simulator's static kernel tables.

:class:`~repro.sim.tables.KernelTables` flattens a compiled kernel
into integer-keyed lookups.  The builders here are the direct,
dict-of-tuples forms they replaced — one loop over tree objects or
forest arrays per table, no key arithmetic — and
``tests/test_sim_layers.py`` holds the two equal on real programs:

* :func:`flatten_multicast_plan` — the per-arrival forwarding plan
  from :class:`~repro.comm.multicast.MulticastTree` objects, keyed
  ``(col, tree_index, node)`` / ``(col, tree_index)``;
* :func:`reduction_parents` — ``(row, node) -> parent``;
* :func:`node_remaining` — ``(row, node) -> expected inputs`` at every
  reduction-tree node and every home.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

#: Flattened multicast step: children to fork to, plus an opaque
#: destination payload (e.g. the triggered column segment).
McastStep = Tuple[Tuple[int, ...], Any]


def flatten_multicast_plan(
    mcast_trees,
    payload_at: Callable[[int, int], Any],
) -> Tuple[Dict[Tuple[int, int, int], McastStep],
           Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]]]:
    """Flatten multicast trees into per-arrival lookup tables.

    ``mcast_trees`` maps a column ``j`` to its trees.  Returns
    ``(plan, send_plan)``:

    * ``plan[(j, tree_index, node)] = (children, payload)`` — the
      router-side fork at ``node`` plus, when ``node`` is a
      destination, ``payload_at(node, j)`` (``None`` elsewhere);
    * ``send_plan[(j, tree_index)] = (root, root_children)`` — the
      fork a Send op performs at the tree root.
    """
    plan: Dict[Tuple[int, int, int], McastStep] = {}
    send_plan: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}
    for j, trees in mcast_trees.items():
        for tree_index, tree in enumerate(trees):
            nodes = set(tree.children)
            for childs in tree.children.values():
                nodes.update(childs)
            nodes.add(tree.root)
            for node in nodes:
                payload = None
                if node in tree.destinations:
                    payload = payload_at(node, j)
                plan[(j, tree_index, node)] = (
                    tuple(tree.children.get(node, ())), payload,
                )
            send_plan[(j, tree_index)] = (
                tree.root, tuple(tree.children.get(tree.root, ())),
            )
    return plan, send_plan


def reduction_parents(program) -> Dict[Tuple[int, int], int]:
    """``(row, node) -> parent`` over a compiled kernel's reduction forest."""
    parents: Dict[Tuple[int, int], int] = {}
    for t, row in enumerate(program.red_row.tolist()):
        for e in range(int(program.red_edge_ptr[t]),
                       int(program.red_edge_ptr[t + 1])):
            parents[(row, int(program.red_child[e]))] = \
                int(program.red_parent[e])
    return parents


def node_remaining(program) -> Dict[Tuple[int, int], int]:
    """Expected inputs at every reduction-tree node and every home.

    A node expects one partial per tree child plus one local
    contribution when it holds nonzeros of the row.
    """
    local = {
        int(tile): [int(c) for c in counts]
        for tile, counts in zip(program.local_tiles, program.local_counts)
    }
    red_index = program.red_index.tolist()
    edge_ptr = program.red_edge_ptr.tolist()
    red_child = program.red_child.tolist()
    red_parent = program.red_parent.tolist()
    remaining: Dict[Tuple[int, int], int] = {}
    for i, home in enumerate(program.vec_tile.tolist()):
        tree = red_index[i]
        nodes = {home}
        children: Dict[int, int] = {}
        if tree >= 0:
            for e in range(edge_ptr[tree], edge_ptr[tree + 1]):
                children[red_parent[e]] = children.get(red_parent[e], 0) + 1
                nodes.add(red_child[e])
        for node in nodes:
            counts = local.get(node)
            has_local = counts is not None and counts[i] > 0
            remaining[(i, node)] = children.get(node, 0) + int(has_local)
    return remaining
