"""Seeded inputs of the benchmark: worlds, query lists and write streams.

Every input is a pure function of the workload seed, so two processes
(the serve-live client and its server) that call these functions with
the same seed hold the same world, the same keys and the same writes.

The generators are the program's own synthetic-data builders
(``repro.data``): clustered objects and features in the unit square,
keywords drawn uniformly from the vocabulary, query keywords drawn from
the data's keyword distribution.  The evaluator (``evaluator.py``) reads
only the raw arrays built here, never an index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import paths  # noqa: F401  (puts the checkout's src/ on sys.path)

from repro.core.query import PreferenceQuery
from repro.data.synthetic import synthetic_feature_sets, synthetic_objects
from repro.data.workload import WorkloadSpec, make_workload


@dataclass(frozen=True)
class Shape:
    """Input sizes and query parameters of one world."""

    objects: int
    sets: int
    features: int  # per feature set
    vocab: int
    radius: float
    k: int = 10
    lam: float = 0.5
    keywords_per_set: int = 3


#: c = 3 with 400 features per set: Algorithm 4's lattice dominates.
LATTICE_SHAPE = Shape(objects=1_000, sets=3, features=400, vocab=64,
                      radius=0.02)
#: c = 2 with 10K features per set: node decode and leaf arrays dominate.
STORAGE_SHAPE = Shape(objects=20_000, sets=2, features=10_000, vocab=64,
                      radius=0.01)


@dataclass
class World:
    """A generated world: the program's datasets plus raw numpy arrays."""

    shape: Shape
    objects: object  # repro ObjectDataset
    feature_sets: list  # repro FeatureDataset per set
    oids: np.ndarray
    ox: np.ndarray
    oy: np.ndarray
    fx: list[np.ndarray]
    fy: list[np.ndarray]
    fscore: list[np.ndarray]
    #: Boolean keyword matrix per set, (features, vocab).
    fkw: list[np.ndarray]


#: Seed of the workloads' worlds.  Each workload queries one fixed map,
#: as the paper's experiments query fixed datasets; the run's seed draws
#: the queries, keys and writes.  With the world drawn from the run's
#: seed too, the spread of lattice-cold's tail over ten seeds reached
#: 0.26 of its median, above its bound of 0.25.
WORLD_SEED = 1


def make_world(shape: Shape, seed: int) -> World:
    """The world of ``seed``: objects, feature sets and their arrays."""
    # The cluster centres (the "map") are the library's fixed default;
    # the seed draws cluster membership, positions, scores, keywords and
    # queries.  With seeded centres too, the few dozen feature clusters
    # of the lattice world moved its median query cost by 1.7x across
    # seeds, more than any bound could absorb.
    objects = synthetic_objects(shape.objects, seed=seed * 7919 + 1)
    feature_sets = synthetic_feature_sets(
        shape.sets, shape.features, shape.vocab, seed=seed * 7919 + 2,
    )
    oids = np.array([o.oid for o in objects], dtype=np.int64)
    ox = np.array([o.x for o in objects], dtype=np.float64)
    oy = np.array([o.y for o in objects], dtype=np.float64)
    fx, fy, fscore, fkw = [], [], [], []
    for fs in feature_sets:
        # Feature ids are 0..n-1 in generation order; the arrays are
        # indexed by fid, which the write stream relies on.
        if [f.fid for f in fs] != list(range(len(fs))):
            raise RuntimeError(f"feature ids of {fs.label} are not 0..n-1")
        fx.append(np.array([f.x for f in fs], dtype=np.float64))
        fy.append(np.array([f.y for f in fs], dtype=np.float64))
        fscore.append(np.array([f.score for f in fs], dtype=np.float64))
        kw = np.zeros((len(fs), shape.vocab), dtype=bool)
        for f in fs:
            kw[f.fid, list(f.keywords)] = True
        fkw.append(kw)
    return World(shape, objects, feature_sets, oids, ox, oy, fx, fy,
                 fscore, fkw)


def distinct_queries(world: World, n: int, seed: int) -> list[PreferenceQuery]:
    """``n`` distinct range queries whose keywords follow the data."""
    shape = world.shape
    spec = WorkloadSpec(
        n_queries=4 * n, k=shape.k, radius=shape.radius, lam=shape.lam,
        keywords_per_set=shape.keywords_per_set, seed=seed * 7919 + 4,
    )
    out: list[PreferenceQuery] = []
    seen: set = set()
    for query in make_workload(world.feature_sets, spec):
        if query.keyword_masks not in seen:
            seen.add(query.keyword_masks)
            out.append(query)
            if len(out) == n:
                return out
    raise RuntimeError(f"could not draw {n} distinct queries")


def zipf_sequence(n_keys: int, length: int, s: float, seed: int) -> list[int]:
    """``length`` key indexes drawn zipf(``s``) over ``n_keys`` keys."""
    rng = random.Random(seed * 7919 + 5)
    weights = [1.0 / (rank ** s) for rank in range(1, n_keys + 1)]
    return rng.choices(range(n_keys), weights, k=length)


@dataclass(frozen=True)
class Write:
    """One feature mutation: a move (x, y set) or a rescore (score set)."""

    op: str  # "move_feature" | "rescore_feature"
    set_id: int
    fid: int
    x: float = 0.0
    y: float = 0.0
    score: float = 0.0


class WriteStream:
    """The seeded, unbounded sequence of writes of one world.

    The mix follows the repository's live-update differential harness
    (``tests/live/conftest.py``): moves and rescores weighted 30 : 12,
    a move going to a uniform point of the objects' bounding box and a
    rescore to a uniform score.  Features are chosen uniformly.  Two
    streams built from the same world and seed yield the same writes.
    """

    #: Relative weights of ``move_feature`` and ``rescore_feature``.
    MOVE_WEIGHT, RESCORE_WEIGHT = 30, 12

    def __init__(self, world: World, seed: int) -> None:
        self._rng = random.Random(seed * 7919 + 6)
        self._sizes = [len(a) for a in world.fx]
        self._box = (float(world.ox.min()), float(world.oy.min()),
                     float(world.ox.max()), float(world.oy.max()))

    def next(self) -> Write:
        rng = self._rng
        set_id = rng.randrange(len(self._sizes))
        fid = rng.randrange(self._sizes[set_id])
        total = self.MOVE_WEIGHT + self.RESCORE_WEIGHT
        if rng.random() * total < self.MOVE_WEIGHT:
            x0, y0, x1, y1 = self._box
            return Write("move_feature", set_id, fid,
                         x=rng.uniform(x0, x1), y=rng.uniform(y0, y1))
        return Write("rescore_feature", set_id, fid,
                     score=round(rng.random(), 6))


def apply_to_arrays(world: World, write: Write) -> None:
    """Apply ``write`` to the world's raw arrays (the benchmark's mirror)."""
    if write.op == "move_feature":
        world.fx[write.set_id][write.fid] = write.x
        world.fy[write.set_id][write.fid] = write.y
    else:
        world.fscore[write.set_id][write.fid] = write.score


def apply_to_live(live, write: Write) -> None:
    """Apply ``write`` through the program's live-update API."""
    if write.op == "move_feature":
        live.move_feature(write.set_id, write.fid, write.x, write.y)
    else:
        live.rescore_feature(write.set_id, write.fid, write.score)


def query_body(query: PreferenceQuery, tenant: str) -> dict:
    """The ``POST /query`` body of ``query``."""
    return {
        "tenant": tenant, "algorithm": "stps", "k": query.k,
        "radius": query.radius, "lam": query.lam,
        "masks": list(query.keyword_masks), "variant": "range",
    }
