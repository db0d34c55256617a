"""The 2-D mesh topology.

Nodes are dense integer ids (``node = y * width + x``) so that simulator
state can live in flat lists.  All coordinate math is centralized here.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.topology.directions import DIRECTIONS, EAST, NORTH, SOUTH, WEST


#: ``_MINIMAL_DIRS[sign(dx) + 1][sign(dy) + 1]``: the (shared) tuple of
#: distance-reducing directions for a signed offset, x direction first.
_MINIMAL_DIRS = tuple(
    tuple(x_dirs + y_dirs for y_dirs in ((SOUTH,), (), (NORTH,)))
    for x_dirs in ((WEST,), (), (EAST,))
)


class Mesh2D:
    """A ``width x height`` 2-D mesh (no wrap-around links).

    The paper's networks are square ``k x k`` meshes (``k = 10``), but the
    implementation supports rectangular meshes; ``Mesh2D(k)`` builds the
    square case.

    Parameters
    ----------
    width:
        Number of columns (the x extent).
    height:
        Number of rows (the y extent); defaults to ``width``.
    """

    __slots__ = ("width", "height", "n_nodes", "_neighbors", "_xy")

    def __init__(self, width: int, height: int | None = None) -> None:
        if height is None:
            height = width
        if width < 2 or height < 2:
            raise ValueError("mesh dimensions must be at least 2x2")
        self.width = width
        self.height = height
        self.n_nodes = width * height
        # Precomputed neighbor table: _neighbors[node][direction] is the
        # neighboring node id or -1 at the mesh edge.  This is the hot-path
        # lookup for routing and f-ring construction; _xy[node] is its
        # (x, y), so distance/offsets never divide or bounds-check.
        table = []
        xy = []
        for node in range(self.n_nodes):
            x, y = node % width, node // width
            xy.append((x, y))
            row = [-1, -1, -1, -1]
            if x + 1 < width:
                row[EAST] = node + 1
            if x > 0:
                row[WEST] = node - 1
            if y + 1 < height:
                row[NORTH] = node + width
            if y > 0:
                row[SOUTH] = node - width
            table.append(tuple(row))
        self._neighbors = tuple(table)
        self._xy = tuple(xy)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def node_id(self, x: int, y: int) -> int:
        """Dense id of the node at ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def coordinates(self, node: int) -> tuple[int, int]:
        """``(x, y)`` coordinates of *node*."""
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} outside mesh with {self.n_nodes} nodes")
        return self._xy[node]

    def in_bounds(self, x: int, y: int) -> bool:
        """Whether ``(x, y)`` is a valid coordinate in this mesh."""
        return 0 <= x < self.width and 0 <= y < self.height

    def nodes(self) -> range:
        """All node ids."""
        return range(self.n_nodes)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def neighbor(self, node: int, direction: int) -> int:
        """Neighbor of *node* in *direction*, or ``-1`` at the mesh edge."""
        return self._neighbors[node][direction]

    def neighbor_table(self, node: int) -> tuple[int, int, int, int]:
        """The ``(E, W, N, S)`` neighbor row of *node* (``-1`` = edge)."""
        return self._neighbors[node]

    def neighbors(self, node: int) -> Iterator[int]:
        """Existing neighbors of *node* (2, 3 or 4 of them)."""
        return (n for n in self._neighbors[node] if n >= 0)

    def degree(self, node: int) -> int:
        """Number of mesh links incident on *node*."""
        return sum(1 for n in self._neighbors[node] if n >= 0)

    # ------------------------------------------------------------------
    # Distances and routing geometry
    # ------------------------------------------------------------------
    @property
    def diameter(self) -> int:
        """Network diameter ``(width-1) + (height-1)``."""
        return (self.width - 1) + (self.height - 1)

    def distance(self, a: int, b: int) -> int:
        """Manhattan (minimal-path) distance between nodes *a* and *b*."""
        ax, ay = self._xy[a]
        bx, by = self._xy[b]
        return abs(ax - bx) + abs(ay - by)

    def offsets(self, src: int, dst: int) -> tuple[int, int]:
        """Signed ``(dx, dy)`` offset from *src* to *dst*."""
        sx, sy = self._xy[src]
        dx, dy = self._xy[dst]
        return dx - sx, dy - sy

    def minimal_directions(self, src: int, dst: int) -> tuple[int, ...]:
        """Directions whose hop reduces the distance from *src* to *dst*.

        Empty iff ``src == dst``; has one element when the nodes share a row
        or column, two otherwise.
        """
        sx, sy = self._xy[src]
        dx, dy = self._xy[dst]
        return _MINIMAL_DIRS[(dx > sx) - (dx < sx) + 1][(dy > sy) - (dy < sy) + 1]

    def step(self, node: int, direction: int) -> int:
        """Like :meth:`neighbor` but raises at the mesh edge."""
        nxt = self._neighbors[node][direction]
        if nxt < 0:
            raise ValueError(
                f"no {direction!r} neighbor of node {node} "
                f"({self.coordinates(node)}) in {self.width}x{self.height} mesh"
            )
        return nxt

    # ------------------------------------------------------------------
    # Channels
    # ------------------------------------------------------------------
    def channels(self) -> Iterator[tuple[int, int, int]]:
        """All directed network channels as ``(src, direction, dst)``."""
        for node in range(self.n_nodes):
            for direction in DIRECTIONS:
                dst = self._neighbors[node][direction]
                if dst >= 0:
                    yield node, direction, dst

    @property
    def n_channels(self) -> int:
        """Number of directed network channels (excludes injection/ejection)."""
        return 2 * ((self.width - 1) * self.height + self.width * (self.height - 1))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def checkerboard_label(self, node: int) -> int:
        """2-coloring label used by the negative-hop scheme (0 or 1)."""
        x, y = self._xy[node]
        return (x + y) & 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mesh2D({self.width}, {self.height})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mesh2D)
            and other.width == self.width
            and other.height == self.height
        )

    def __hash__(self) -> int:
        return hash((self.width, self.height))


def direction_of_hop(mesh: Mesh2D, src: int, dst: int) -> int:
    """Direction of the mesh link from *src* to adjacent node *dst*."""
    row = mesh.neighbor_table(src)
    if dst >= 0 and dst in row:
        return row.index(dst)
    raise ValueError(f"nodes {src} and {dst} are not mesh-adjacent")
