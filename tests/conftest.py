import math
import random

import pytest

from bzk.graphs import build_graph, generate

# The standing verification corpus.  Vertex-transitive members are where the
# rooted per-length identities are exact; see tests on the others for the
# documented defect.
CORPUS = {
    "triangle": generate("cycle", 3),
    "cycle(4)": generate("cycle", 4),
    "cycle(6)": generate("cycle", 6),
    "K4": generate("complete", 4),
    "star(4)": generate("star", 4),
    "path(4)": generate("path", 4),
    "Q3": generate("hypercube", 3),
    "petersen": generate("petersen"),
    "tree_ball(3,3)": generate("tree_ball", 3, 3),
}

VERTEX_TRANSITIVE = ("triangle", "cycle(4)", "cycle(6)", "K4", "Q3", "petersen")
NON_TRANSITIVE = ("star(4)", "path(4)", "tree_ball(3,3)")
REGULAR = ("triangle", "cycle(4)", "cycle(6)", "K4", "Q3", "petersen")


def random_connected_graph(rng, n):
    """A random spanning tree on n vertices plus a random set of extra edges."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.3:
                pairs.add((a, b))
    return build_graph(n, sorted(pairs), label=f"random({n})")


def _frucht():
    """The Frucht graph: 3-regular on 12 vertices, with no automorphism but
    the identity; the cycle i ~ i+1 plus the chords of its LCF notation."""
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    pairs = {tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
    pairs |= {tuple(sorted((i, (i + step) % 12))) for i, step in enumerate(lcf)}
    return build_graph(12, sorted(pairs), label="frucht")


FRUCHT = _frucht()


def random_circulants(seed, count):
    """count connected circulant graphs C_n(steps), n from 7 to 13 and one
    or two steps, drawn by seed: regular graphs of degree 2 to 4."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randrange(7, 14)
        steps = sorted(rng.sample(range(1, n // 2 + 1), rng.randrange(1, 3)))
        if math.gcd(n, *steps) == 1:
            pairs = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
            graphs.append(build_graph(n, sorted(pairs), label=f"circulant({n}, {steps})"))
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


@pytest.fixture
def perturbed_eigh(monkeypatch):
    """numpy's eigh with every eigenvalue moved by 1e-7, past the 1e-10
    tolerance of the exact cross-check; the spectrum caches are emptied
    before and after, so no perturbed result outlives the test."""
    import numpy as np

    from bzk import zeta

    exact = np.linalg.eigh

    def perturbed(mat):
        w, v = exact(mat)
        return w + 1e-7, v

    zeta._eigh_cached.cache_clear()
    zeta._verified_spectrum.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    yield
    zeta._eigh_cached.cache_clear()
    zeta._verified_spectrum.cache_clear()
