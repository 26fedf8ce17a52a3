"""Undirected network topologies, generators, and the input file formats.

A graph is a read-only value held as arrays over integer node ids; only
the discrete engine, which applies the dynamic model's events, keeps an
adjacency map that changes.
Generators cover the shapes the experiments need: G(n, p), random
regular, stars, cliques, and the cycle-of-blocks graph whose twin
vertices drive the symmetry experiment.

File formats (documented in the README):

* edge list   -- one ``u v`` pair per line, 0-based ids; blank lines and
  ``#`` comments ignored.
* wakeup      -- one ``node time`` pair per line, nonnegative integers: a
  slot, or a whole number of periods T in the continuous model.
* events      -- one event per line: ``<period> add_edge u v``,
  ``<period> remove_edge u v``, ``<period> remove_node v``,
  ``<period> add_node v n1 n2 ...``.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError


class TopologyArrays(NamedTuple):
    """A topology as read-only int64 arrays, for whole-graph passes.

    ``src``/``dst`` index ``nodes``; ``u``/``v`` are the same edges as ids,
    u < v, in :meth:`Topology.edges` order.  ``dmax`` is the largest degree
    in each node's closed neighborhood.
    """

    nodes: np.ndarray
    u: np.ndarray
    v: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    degree: np.ndarray
    dmax: np.ndarray


def _view(nodes: np.ndarray, src: np.ndarray, dst: np.ndarray,
          degree: np.ndarray) -> TopologyArrays:
    """The read-only :class:`TopologyArrays` of sorted ``nodes``, edges as
    index pairs in (u, v) order, and each node's degree."""
    dmax = degree.copy()
    np.maximum.at(dmax, src, degree[dst])
    np.maximum.at(dmax, dst, degree[src])
    out = TopologyArrays(nodes, nodes[src], nodes[dst], src, dst, degree, dmax)
    for arr in out:
        arr.flags.writeable = False
    return out


def link(adj: dict[int, set[int]], u: int, v: int) -> None:
    """Join ``u`` and ``v`` in the adjacency map ``adj``; a self-loop, an
    endpoint ``adj`` lacks or an edge it holds is a :class:`ConfigError`."""
    if u == v:
        raise ConfigError("self-loops are not allowed")
    if u not in adj or v not in adj:
        raise ConfigError(f"edge ({u}, {v}) references an unknown node")
    if v in adj[u]:
        raise ConfigError(f"edge ({u}, {v}) already exists")
    adj[u].add(v)
    adj[v].add(u)


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected graph without self-loops: a read-only value held as
    :class:`TopologyArrays`.  Nothing changes it; the dynamic model's
    events change the discrete engine's own adjacency map."""

    arrays: TopologyArrays

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Topology":
        """Nodes 0..n-1 joined by ``edges``; an endpoint outside that range,
        a self-loop or a repeated edge is a :class:`ConfigError`."""
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            link(adj, u, v)
        return cls.from_adjacency(adj)

    @classmethod
    def _from_sorted_edges(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Topology":
        """The simple graph on 0..n-1 whose edges are ``u`` < ``v``, in
        ascending (u, v) order: a generator's output, taken as it is."""
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        return cls(_view(np.arange(n, dtype=np.int64), u, v, degree))

    @classmethod
    def from_adjacency(cls, adj: dict[int, set[int]]) -> "Topology":
        """The graph of a symmetric adjacency map over any node ids."""
        ids = np.fromiter(adj, dtype=np.int64, count=len(adj))
        deg = np.fromiter(map(len, adj.values()), dtype=np.int64, count=len(adj))
        heads = np.fromiter(itertools.chain.from_iterable(adj.values()), dtype=np.int64,
                            count=int(deg.sum()))
        tails = np.repeat(ids, deg)
        one_way = tails < heads
        order = np.argsort(ids)
        nodes = ids[order]
        src = np.searchsorted(nodes, tails[one_way])
        dst = np.searchsorted(nodes, heads[one_way])
        by_edge = np.lexsort((dst, src))  # (u, v) order, as edges() lists them
        return cls(_view(nodes, src[by_edge], dst[by_edge], deg[order]))

    def adjacency(self) -> dict[int, set[int]]:
        """A fresh adjacency map, built in edge order: each edge joins v to
        u's set and then u to v's."""
        view = self.arrays
        adj = {v: set() for v in view.nodes.tolist()}
        for u, v in zip(view.u.tolist(), view.v.tolist()):
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @property
    def n(self) -> int:
        return len(self.arrays.nodes)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self.arrays.nodes.tolist())

    def degree(self, v: int) -> int:
        nodes = self.arrays.nodes
        i = int(np.searchsorted(nodes, v))
        if i == len(nodes) or nodes[i] != v:
            raise KeyError(v)
        return int(self.arrays.degree[i])

    @property
    def delta(self) -> int:
        degree = self.arrays.degree
        return int(degree.max()) if len(degree) else 0

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.arrays.u.tolist(), self.arrays.v.tolist()))


# -- generators ------------------------------------------------------------


def gnp(n: int, p: float, rng: np.random.Generator) -> Topology:
    """Erdos-Renyi G(n, p)."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ConfigError("gnp needs n >= 1 and p in [0, 1]")
    # one draw per pair (u, v), u < v, in row order: pair k of row u has
    # k = start[u] + (v - u - 1).  PCG64 spends one 64-bit output per
    # double, so the values equal one random() call per pair.
    hits = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
    start = np.arange(n - 1) * (2 * n - 1 - np.arange(n - 1)) // 2
    u = np.searchsorted(start, hits, side="right") - 1
    v = hits - start[u] + u + 1
    return Topology._from_sorted_edges(n, u, v)


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
            return Topology._from_sorted_edges(n, keys // n, keys % n)
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
        if node in out:
            raise ConfigError(f"wakeup line {lineno}: node {node} is listed twice")
        out[node] = slot
    return out


def build_wakeup(spec: str, nodes: Sequence[int], period, rng: np.random.Generator) -> dict:
    """Wake time per node from a schedule spec, for either model.

    ``period`` is Q, an integer slot count, in the discrete model and T in
    the continuous one; wake times are slots or real times to match.
    ``simultaneous`` wakes everyone at 0, ``random`` draws uniform wake
    times in [0, period), ``stagger:<k>`` wakes the i-th node in id order
    at i*k, and ``file:<path>`` loads an explicit schedule.  ``random``
    takes one draw per node in id order from ``rng``, so removing a node
    changes the wake times of every node after it.
    """
    discrete = isinstance(period, numbers.Integral)
    if spec == "random":
        if discrete:
            draws = rng.integers(0, period, size=len(nodes))
        else:
            draws = rng.uniform(0.0, period, size=len(nodes))
        return dict(zip(nodes, draws.tolist()))
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
