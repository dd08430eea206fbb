"""Structural invariants of a branched IR export (test helper).

Acyclicity comes from :meth:`IRGraph.topological_order`, which raises on
a cycle; each exit's path is the set of its output's ancestors, found by
walking tensor producers back towards the graph input.
"""

from __future__ import annotations

from repro.ir import IRGraph


def verify_exit_structure(graph: IRGraph) -> None:
    """Structural invariants of a branched export.

    * the graph is a DAG,
    * every output has a producer,
    * exactly ``num_exits - 1`` branch points exist and each feeds two
      distinct consumers,
    * exit paths are nested: the nodes each early exit shares with the
      final exit are a prefix of the final exit's path.
    """
    order = graph.topological_order()
    producer = {t: node for node in order for t in node.outputs}
    paths = []
    for out in graph.output_names:
        if out not in producer:
            raise ValueError(f"output {out!r} has no producer")
        ancestors, stack = set(), [out]
        while stack:
            node = producer.get(stack.pop())
            if node is not None and node.name not in ancestors:
                ancestors.add(node.name)
                stack.extend(node.inputs)
        paths.append([n.name for n in order if n.name in ancestors])
    num_exits = graph.metadata.get("num_exits", len(paths))
    branches = [n for n in order if n.op_type == "DuplicateStreams"]
    if len(branches) != num_exits - 1:
        raise ValueError(
            f"expected {num_exits - 1} branch points, found {len(branches)}")
    for node in branches:
        consumers = {c.name for t in node.outputs
                     for c in graph.consumers(t)}
        if len(consumers) < 2:
            raise ValueError(f"branch {node.name!r} does not fan out")
    final = paths[-1]
    final_set = set(final)
    for early in paths[:-1]:
        shared = [n for n in early if n in final_set]
        if final[:len(shared)] != shared:
            raise ValueError("exit path is not a nested extension of the "
                             "backbone prefix")
