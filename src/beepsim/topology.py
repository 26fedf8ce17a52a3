"""Undirected network topologies, generators, and the input file formats.

Graphs are plain adjacency maps over integer node ids.  Generators cover
the shapes the experiments need: G(n, p), random regular, stars, cliques,
and the cycle-of-blocks graph whose twin vertices drive the symmetry
experiment.

File formats (documented in the README):

* edge list   -- one ``u v`` pair per line, 0-based ids; blank lines and
  ``#`` comments ignored.
* wakeup      -- one ``node time`` pair per line: a slot, or a time in
  units of T in the continuous model.
* events      -- one event per line: ``<period> add_edge u v``,
  ``<period> remove_edge u v``, ``<period> remove_node v``,
  ``<period> add_node v n1 n2 ...``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError


class Topology:
    """Mutable undirected graph without self-loops."""

    def __init__(self, nodes: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        self._adj: dict[int, set[int]] = {}
        for v in nodes:
            self.add_node(v)
        for u, v in edges:
            if u not in self._adj:
                self.add_node(u)
            if v not in self._adj:
                self.add_node(v)
            self.add_edge(u, v)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Topology":
        return cls(range(n), edges)

    @classmethod
    def _from_simple_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Topology":
        """:meth:`from_edges` without the per-edge checks, for generator
        output that is a simple graph on 0..n-1 by construction."""
        out = cls()
        adj = out._adj = {v: set() for v in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return out

    # -- queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self._adj))

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_neighborhood_degree(self, v: int) -> int:
        """Largest degree within the closed 1-neighborhood of ``v``."""
        return max([self.degree(v)] + [self.degree(u) for u in self._adj[v]])

    @property
    def delta(self) -> int:
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return sorted((u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v)

    def copy(self) -> "Topology":
        out = Topology()
        out._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return out

    # -- mutation --------------------------------------------------------

    def add_node(self, v: int, neighbors: Iterable[int] = ()) -> None:
        v = int(v)
        if v < 0:
            raise ConfigError("node ids must be nonnegative")
        if v in self._adj:
            raise ConfigError(f"node {v} already exists")
        self._adj[v] = set()
        for u in neighbors:
            self.add_edge(v, u)

    def remove_node(self, v: int) -> None:
        if v not in self._adj:
            raise ConfigError(f"cannot remove unknown node {v}")
        for u in self._adj.pop(v):
            self._adj[u].discard(v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ConfigError("self-loops are not allowed")
        if u not in self._adj or v not in self._adj:
            raise ConfigError(f"edge ({u}, {v}) references an unknown node")
        if v in self._adj[u]:
            raise ConfigError(f"edge ({u}, {v}) already exists")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        if u not in self._adj or v not in self._adj[u]:
            raise ConfigError(f"cannot remove unknown edge ({u}, {v})")
        self._adj[u].discard(v)
        self._adj[v].discard(u)


# -- generators ------------------------------------------------------------


def gnp(n: int, p: float, rng: np.random.Generator) -> Topology:
    """Erdos-Renyi G(n, p)."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ConfigError("gnp needs n >= 1 and p in [0, 1]")
    # one row of draws per node, in the order of the pairs (u, v), u < v
    edges = []
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - u - 1) < p) + (u + 1)
        edges += [(u, v) for v in hits.tolist()]
    return Topology._from_simple_edges(n, edges)


_PAIRING_ATTEMPTS = 5000


def random_regular(n: int, d: int, rng: np.random.Generator) -> Topology:
    """Uniform random d-regular simple graph via the pairing model."""
    if n * d % 2 != 0 or d >= n or d < 0:
        raise ConfigError(f"no {d}-regular graph on {n} nodes exists")
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_PAIRING_ATTEMPTS):
        pairs = rng.permutation(stubs).reshape(-1, 2)
        a, b = pairs[:, 0], pairs[:, 1]
        if (a == b).any():  # a self-loop
            continue
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))  # edge u < v as u*n + v
        if (keys[1:] != keys[:-1]).all():  # no duplicate edge
            return Topology._from_simple_edges(n, zip((keys // n).tolist(), (keys % n).tolist()))
    raise ConfigError(f"could not sample a simple {d}-regular graph in {_PAIRING_ATTEMPTS} attempts")


def star(n: int) -> Topology:
    """Hub node 0 connected to spokes 1..n-1."""
    if n < 1:
        raise ConfigError("star needs n >= 1")
    return Topology.from_edges(n, [(0, v) for v in range(1, n)])


def clique(n: int) -> Topology:
    if n < 1:
        raise ConfigError("clique needs n >= 1")
    return Topology.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_of_blocks(k: int) -> Topology:
    """Ring of k four-node blocks used by the symmetry-breaking experiment.

    Block i holds nodes (a, b, c, d) = (4i, 4i+1, 4i+2, 4i+3) with edges
    ab, bc, cd, ac, bd; block i's d connects to block (i+1 mod k)'s a.
    Within every block b and c have identical closed neighborhoods.
    """
    if k < 2:
        raise ConfigError("cycle_of_blocks needs k >= 2")
    edges = []
    for i in range(k):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(a, b), (b, c), (c, d), (a, c), (b, d)]
        edges.append((d, 4 * ((i + 1) % k)))
    return Topology.from_edges(4 * k, edges)


def twin_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The (b, c) node pairs of :func:`cycle_of_blocks` sharing a closed neighborhood."""
    return tuple((4 * i + 1, 4 * i + 2) for i in range(k))


class GraphGenerator(NamedTuple):
    """A graph generator: its builder and the typed fields of its spec.

    A ``sampled`` builder takes the random stream as its last argument.
    """

    build: Callable[..., Topology]
    fields: tuple[tuple[str, type], ...]
    sampled: bool = False


GENERATORS = {
    "gnp": GraphGenerator(gnp, (("n", int), ("p", float)), sampled=True),
    "random-regular": GraphGenerator(random_regular, (("n", int), ("delta", int)), sampled=True),
    "star": GraphGenerator(star, (("n", int),)),
    "clique": GraphGenerator(clique, (("n", int),)),
    "cycle-of-blocks": GraphGenerator(cycle_of_blocks, (("k", int),)),
}
GENERATORS["random_regular"] = GENERATORS["random-regular"]
GENERATORS["cycle_of_blocks"] = GENERATORS["cycle-of-blocks"]


def parse_graph_spec(spec: str, rng: np.random.Generator) -> Topology:
    """Build a topology from a generator spec like ``gnp:64:0.1``."""
    name, *args = spec.split(":")
    gen = GENERATORS.get(name)
    if gen is None:
        raise ConfigError(f"unknown graph generator {name!r}")
    if len(args) != len(gen.fields):
        expected = ":".join([name, *(field for field, _ in gen.fields)])
        raise ConfigError(f"bad graph spec {spec!r}: expected {expected}")
    try:
        values = [kind(arg) for arg, (_, kind) in zip(args, gen.fields)]
        return gen.build(*values, rng) if gen.sampled else gen.build(*values)
    except ValueError as exc:
        raise ConfigError(f"bad graph spec {spec!r}: {exc}") from exc


# -- file formats -----------------------------------------------------------


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_edge_list(text: str) -> Topology:
    edges = []
    max_id = -1
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise ConfigError(f"edge list line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ConfigError(f"edge list line {lineno}: {exc}") from exc
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise ConfigError("edge list contains no edges")
    return Topology.from_edges(max_id + 1, edges)


def load_edge_list(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


@dataclass(frozen=True)
class DynamicEvent:
    """Topology change applied at a global period boundary."""

    at_period: int
    kind: str
    nodes: tuple[int, ...] = ()

    _KINDS = ("add_node", "remove_node", "add_edge", "remove_edge")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown event kind {self.kind!r}")
        if self.at_period < 0:
            raise ConfigError("event period must be nonnegative")
        need = {"remove_node": 1, "add_edge": 2, "remove_edge": 2}
        if self.kind == "add_node":
            if len(self.nodes) < 1:
                raise ConfigError("add_node needs a node id")
        elif len(self.nodes) != need[self.kind]:
            raise ConfigError(f"{self.kind} takes {need[self.kind]} node argument(s)")


def parse_events(text: str) -> tuple[DynamicEvent, ...]:
    events = []
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) < 2:
            raise ConfigError(f"events line {lineno}: expected '<period> <kind> ...'")
        try:
            period = int(fields[0])
            nodes = tuple(int(f) for f in fields[2:])
        except ValueError as exc:
            raise ConfigError(f"events line {lineno}: {exc}") from exc
        events.append(DynamicEvent(period, fields[1], nodes))
    return tuple(sorted(events, key=lambda e: e.at_period))


def load_events(path) -> tuple[DynamicEvent, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_events(fh.read())


def parse_wakeup(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for lineno, line in _data_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise ConfigError(f"wakeup line {lineno}: expected 'node slot'")
        try:
            node, slot = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ConfigError(f"wakeup line {lineno}: {exc}") from exc
        if slot < 0:
            raise ConfigError(f"wakeup line {lineno}: slot must be nonnegative")
        out[node] = slot
    return out


def build_wakeup(spec: str, nodes: Sequence[int], period, rng: np.random.Generator) -> dict:
    """Wake time per node from a schedule spec, for either model.

    ``period`` is Q, an integer slot count, in the discrete model and T in
    the continuous one; wake times are slots or real times to match.
    ``simultaneous`` wakes everyone at 0, ``random`` draws uniform wake
    times in [0, period), ``stagger:<k>`` wakes the i-th node in id order
    at i*k, and ``file:<path>`` loads an explicit schedule.
    """
    discrete = isinstance(period, numbers.Integral)
    if spec == "random":
        if discrete:
            return {v: int(rng.integers(0, period)) for v in nodes}
        return {v: float(rng.uniform(0.0, period)) for v in nodes}
    if spec == "simultaneous":
        wake = {v: 0 for v in nodes}
    elif spec.startswith("stagger:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad wakeup spec {spec!r}") from exc
        wake = {v: i * k for i, v in enumerate(sorted(nodes))}
    elif spec.startswith("file:"):
        with open(spec.split(":", 1)[1], "r", encoding="utf-8") as fh:
            table = parse_wakeup(fh.read())
        missing = [v for v in nodes if v not in table]
        if missing:
            raise ConfigError(f"wakeup file lacks nodes {missing[:5]}")
        wake = {v: table[v] for v in nodes}
    else:
        raise ConfigError(f"unknown wakeup spec {spec!r}")
    return wake if discrete else {v: float(t) for v, t in wake.items()}
