"""A simplicial graph together with one vertex group per vertex."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import SimplicialGraph
from .groups import GpkitError, GroupDescriptor


@dataclass(frozen=True)
class LabeledGraph:
    """The defining data of a graph product: graph plus vertex-group labels.

    labels[i] belongs to graph.vertices[i]; each is a non-trivial
    GroupDescriptor, which is also the group law words at that vertex use.
    """

    graph: SimplicialGraph
    labels: tuple[GroupDescriptor, ...]

    def __post_init__(self):
        if not self.graph.vertices:
            raise GpkitError("labeled graphs must have at least one vertex")
        if len(self.labels) != len(self.graph.vertices):
            raise GpkitError("one descriptor per vertex required")
        for v, d in zip(self.graph.vertices, self.labels):
            if not isinstance(d, GroupDescriptor):
                raise GpkitError(f"label of vertex {v!r} is a {type(d).__name__}, "
                                 "not a GroupDescriptor")
            if d.order is not None and d.order < 2:
                raise GpkitError(f"vertex {v!r}: a vertex group needs order >= 2, got {d.order}")

    def label(self, v: str) -> GroupDescriptor:
        return self.labels[self.graph.index(v)]

    @cached_property
    def word_tables(self):
        """The word engine's per-context tables (gpkit.words.WordTables)."""
        from .words import WordTables

        return WordTables(self)


def labeled(g: SimplicialGraph, by_vertex) -> LabeledGraph:
    """Build a LabeledGraph from a mapping vertex -> descriptor."""
    return LabeledGraph(g, tuple(by_vertex[v] for v in g.vertices))


def uniform(g: SimplicialGraph, desc: GroupDescriptor) -> LabeledGraph:
    """Label every vertex with the same descriptor."""
    return LabeledGraph(g, tuple(desc for _ in g.vertices))
