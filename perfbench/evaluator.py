"""Independent top-k evaluator: τ(p) straight from Definitions 1-2.

Shares no code with ``repro.core`` or ``repro.index``; it reads only the
raw arrays of a world (``world.World``) and numpy.

* Definition 1: ``s(t) = (1 - λ)·t.s + λ·J(t.W, W_i)`` with the Jaccard
  similarity of keyword sets.
* Definition 2 (range score): ``τ_i(p) = max{s(t) : t ∈ F_i,
  dist(p, t) ≤ r, J(t.W, W_i) > 0}``, 0 when no feature qualifies, and
  ``τ(p) = Σ_i τ_i(p)`` summed in feature-set order.
* The answer is the first ``k`` objects in (τ desc, oid asc) order.

The pairs ``(object, feature)`` within distance ``r`` depend only on
positions, so they are found once per world with a uniform grid and each
query is then a handful of vector operations.
"""

from __future__ import annotations

import numpy as np

#: Score tolerance between the program's answer and the evaluator's.
SCORE_TOL = 1e-9


def neighbor_pairs(ox, oy, fx, fy, radius: float):
    """``(object index, feature index)`` pairs with distance <= radius.

    Grid cells are a hair wider than ``radius``, so every qualifying
    pair lies in the 3 x 3 cells around the object's cell.
    """
    cell = radius * (1.0 + 1e-9)
    fcx = np.floor(fx / cell).astype(np.int64)
    fcy = np.floor(fy / cell).astype(np.int64)
    width = int(max(fcy.max(initial=0), np.floor(oy.max(initial=0) / cell))) + 3
    fkey = fcx * width + fcy
    order = np.argsort(fkey, kind="stable")
    sorted_keys = fkey[order]
    ocx = np.floor(ox / cell).astype(np.int64)
    ocy = np.floor(oy / cell).astype(np.int64)
    objs, feats = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            key = (ocx + dx) * width + (ocy + dy)
            lo = np.searchsorted(sorted_keys, key, "left")
            hi = np.searchsorted(sorted_keys, key, "right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                continue
            obj = np.repeat(np.arange(len(ox)), counts)
            first = np.repeat(lo - np.cumsum(counts) + counts, counts)
            feat = order[first + np.arange(total)]
            dist = np.hypot(ox[obj] - fx[feat], oy[obj] - fy[feat])
            keep = dist <= radius
            objs.append(obj[keep])
            feats.append(feat[keep])
    if not objs:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    obj = np.concatenate(objs)
    feat = np.concatenate(feats)
    by_obj = np.argsort(obj, kind="stable")
    return obj[by_obj], feat[by_obj]


def mask_vector(mask: int, vocab: int) -> np.ndarray:
    """A keyword bit mask as a 0/1 vector over the vocabulary."""
    if mask >> vocab:
        raise ValueError(f"mask {mask:#x} has terms outside the vocabulary")
    return np.array([(mask >> b) & 1 for b in range(vocab)], dtype=np.int64)


class Evaluator:
    """Exact range-score top-k over one frozen world."""

    def __init__(self, world) -> None:
        self.oids = world.oids
        self.n = len(world.oids)
        self.radius = world.shape.radius
        self.vocab = world.shape.vocab
        self.scores = [a.copy() for a in world.fscore]
        self.kw = [k.astype(np.int64) for k in world.fkw]
        self.kw_sizes = [k.sum(axis=1) for k in self.kw]
        self.pairs = []
        for fx, fy in zip(world.fx, world.fy):
            obj, feat = neighbor_pairs(world.ox, world.oy, fx, fy, self.radius)
            starts = np.flatnonzero(np.r_[True, obj[1:] != obj[:-1]]) \
                if len(obj) else np.zeros(0, np.int64)
            self.pairs.append((obj, feat, starts))

    def tau(self, masks, lam: float) -> np.ndarray:
        """τ(p) of every object for one query (Definition 2)."""
        total = np.zeros(self.n)
        for i, mask in enumerate(masks):
            q = mask_vector(mask, self.vocab)
            inter = self.kw[i] @ q
            union = self.kw_sizes[i] + int(q.sum()) - inter
            jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
            s = (1.0 - lam) * self.scores[i] + lam * jac
            s = np.where(inter > 0, s, 0.0)
            obj, feat, starts = self.pairs[i]
            tau_i = np.zeros(self.n)
            if len(obj):
                tau_i[obj[starts]] = np.maximum.reduceat(s[feat], starts)
            total = total + tau_i
        return total

    def top_k(self, masks, k: int, lam: float) -> list[tuple[int, float]]:
        """``[(oid, τ)]`` of the first ``k`` objects by (τ desc, oid asc)."""
        tau = self.tau(masks, lam)
        order = np.lexsort((self.oids, -tau))[: min(k, self.n)]
        return [(int(self.oids[i]), float(tau[i])) for i in order]


def compare(expected: list[tuple[int, float]], got) -> str:
    """Empty when ``got`` matches ``expected``, else what differs.

    ``got`` is a sequence of ``(oid, score)``.  Checks the size, the
    ids position by position, the scores to :data:`SCORE_TOL`, and that
    ``got`` itself is in (score desc, oid asc) order.
    """
    got = [(int(o), float(s)) for o, s in got]
    if len(got) != len(expected):
        return f"size {len(got)} != {len(expected)}"
    for pos, ((eo, es), (go, gs)) in enumerate(zip(expected, got)):
        if eo != go:
            return f"rank {pos}: oid {go} != {eo}"
        if abs(es - gs) > SCORE_TOL:
            return f"rank {pos}: score {gs!r} != {es!r}"
    for pos in range(1, len(got)):
        (ao, a_s), (bo, bs) = got[pos - 1], got[pos]
        if bs > a_s or (bs == a_s and bo < ao):
            return f"ranks {pos - 1},{pos} out of (score desc, oid asc) order"
    return ""
