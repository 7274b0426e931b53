import functools
import importlib
import itertools

import numpy as np
import pytest
import scipy.spatial

from descent_geom.cli import _doc_memo
from descent_geom.cones import _dirs_cache
from descent_geom.geom_core import hull
from descent_geom.mean_width import _grid_cache
from descent_geom.sep import Polyline

MODULES = ("geom_core", "cones", "mean_width", "sep", "family", "descent", "cli")


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts as a fresh process does, with no document (nor the
    bodies built from it) or direction grid kept from an earlier test: the
    package's three memos are cleared."""
    _doc_memo.clear()
    _grid_cache.clear()
    _dirs_cache.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def unit_square():
    return hull([(0, 0), (1, 0), (1, 1), (0, 1)])


def disk_polygon(r=1.0, center=(0.0, 0.0), m=64):
    ang = (np.arange(m) + 0.5) * 2 * np.pi / m
    return hull(np.asarray(center) + r * np.column_stack([np.cos(ang), np.sin(ang)]))


@pytest.fixture
def disk64():
    return disk_polygon()


def random_polytope(rng, n=2, npts=20, scale=1.0):
    pts = rng.standard_normal((npts, n)) * scale
    return hull(pts)


def embedded_polytope(rng, n, k, npts):
    """Random k-dimensional polytope in a random affine k-plane of R^n."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return hull(rng.standard_normal(n) + rng.standard_normal((npts, k)) @ Q.T)


def nested_pair(rng, n=2, npts=16):
    """Outer body and a strictly included inner body (scaled about centroid)."""
    B = random_polytope(rng, n, npts)
    c = B.centroid()
    f = 0.3 + 0.5 * rng.random()
    A = hull(c + f * (B.vertices - c))
    return A, B


def joggled_bodies(rng, joggled):
    """A 16-gon prism, a 4x4x4 grid box (its facet triangulation has
    slivers) and a random body, each built under QJ (joggled)."""
    ang = 2.0 * np.pi * np.arange(16) / 16
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    g = np.linspace(-1.0, 1.0, 4)
    return [joggled(np.vstack([np.column_stack([ring, np.zeros(16)]),
                               np.column_stack([ring, np.ones(16)])])),
            joggled(np.array(list(itertools.product(g, g, g)))),
            joggled(rng.standard_normal((25, 3)))]


@pytest.fixture
def joggled(monkeypatch):
    """Builds bodies as when Qhull refuses the input: every run without
    options raises QhullError, so geom_core._qhull falls back to QJ."""
    real = scipy.spatial.ConvexHull

    class Refusing(real):
        def __init__(self, points, qhull_options=None, **kwargs):
            if qhull_options is None:
                raise scipy.spatial.QhullError("refused")
            super().__init__(points, qhull_options=qhull_options, **kwargs)

    def build(points):
        monkeypatch.setattr(scipy.spatial, "ConvexHull", Refusing)
        K = hull(points)
        K.facets  # built under the same refusal
        monkeypatch.setattr(scipy.spatial, "ConvexHull", real)
        return K

    return build


@pytest.fixture
def qhull_calls(monkeypatch):
    """List that grows by one per ConvexHull construction, wherever in the
    package it is made: the package imports ConvexHull from scipy.spatial
    when it runs Qhull, so it reads the patched attribute."""
    calls = []
    real = scipy.spatial.ConvexHull

    class Counted(real):
        def __init__(self, *args, **kwargs):
            calls.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", Counted)
    return calls


@pytest.fixture
def call_counter(monkeypatch):
    """count(module, name) returns a list that grows by one entry, the
    positional arguments, per call of the package function
    descent_geom.<module>.<name>, through every module-level binding of it
    (internal calls included)."""

    def count(module, name):
        real = getattr(importlib.import_module(f"descent_geom.{module}"), name)
        calls = []

        @functools.wraps(real)
        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for mod_name in MODULES:
            mod = importlib.import_module(f"descent_geom.{mod_name}")
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return count


def _monotone(rng, npts):
    steps = rng.random((npts - 1, 2)) * 0.5
    return Polyline.make(np.vstack([[0, 0], np.cumsum(steps, axis=0)]))


@pytest.fixture(scope="session")
def sep_corpus():
    """Acceptance criterion 5's planar polylines: 1 000 monotone ones (SEPs)
    and 1 000 with seeded noise on them."""
    rng = np.random.default_rng(11)
    corpus = []
    for _ in range(1000):
        corpus.append(_monotone(rng, int(rng.integers(4, 61))))
    noises = (0.002, 0.02, 0.08, 0.5)
    for _ in range(1000):
        g = _monotone(rng, int(rng.integers(4, 61)))
        noise = noises[int(rng.integers(len(noises)))]
        corpus.append(Polyline.make(g.points + rng.standard_normal(g.points.shape) * noise))
    return corpus
