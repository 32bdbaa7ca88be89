"""Shared fixtures: domains, the worked diversity fixture, random generators."""

from __future__ import annotations

import hashlib
import weakref

import numpy as np
import pytest

from ididiv import domains
from ididiv import (
    PolicyTree,
    SingleAgentModel,
    builtin_tiger,
    builtin_uav,
    constant_tree,
    make_candidate_set,
    project_level0,
    serialize_domain,
)


def _rewriting(monkeypatch, module, name, path):
    """Patch ``module.name`` to rewrite the domain file ``path`` when called;
    the hash of the file before."""
    original = getattr(module, name)

    def rewrite_then_call(*args, **kwargs):
        path.write_text(serialize_domain(builtin_tiger(3)))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, rewrite_then_call)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def nested(action, children=()):
    """The tree with root ``action`` and these (observation, subtree) pairs,
    built from its preorder row: the root, then each subtree's row in turn."""
    row = (action,) + tuple(a for _, sub in children for a in sub.preorder)
    return PolicyTree(row, tuple(o for o, _ in children))


def node(action, c1=None, c2=None, obs=("o1", "o2")):
    """Two-observation tree builder for fixtures."""
    if c1 is None:
        return nested(action)
    return nested(action, ((obs[0], c1), (obs[1], c2)))


def _det_model_2a(reward=None):
    """Tiny horizon-2 model: a0 stays put, a1 swaps states, noiseless sensing."""
    trans = np.zeros((2, 2, 2))
    trans[:, 0] = np.eye(2)
    trans[:, 1] = np.eye(2)[::-1]
    obs = np.zeros((2, 2, 2))
    obs[0, :, 0] = 1.0
    obs[1, :, 1] = 1.0
    if reward is None:
        reward = np.array([[1.0, 0.0], [0.0, 2.0]])
    return SingleAgentModel(
        name="det2",
        states=("s0", "s1"),
        actions=("a0", "a1"),
        observations=("z0", "z1"),
        transition=trans,
        obs_fn=obs,
        reward=np.asarray(reward, dtype=float),
        initial_belief=np.array([0.5, 0.5]),
        horizon=2,
    )


@pytest.fixture
def tiger_builds(monkeypatch):
    """Horizons of the tiger domains built from here on, under a fresh memo
    so that no other test's domain is shared."""
    builds = []
    build = domains._BUILDERS["tiger"]

    def counting(horizon):
        builds.append(horizon)
        return build(horizon)

    monkeypatch.setattr(domains, "_SHARED", weakref.WeakValueDictionary())
    monkeypatch.setitem(domains._BUILDERS, "tiger", counting)
    return builds


@pytest.fixture(scope="session")
def tiger():
    return builtin_tiger(3)


@pytest.fixture(scope="session")
def tiger_j(tiger):
    return project_level0(tiger, "j")


@pytest.fixture(scope="session")
def uav():
    return builtin_uav(3)


def _peer_trees_t2():
    """Three hand-built depth-2 peer trees over the growl alphabet."""
    listen = nested(
        "Listen",
        (("GrowlLeft", nested("OpenRight")), ("GrowlRight", nested("OpenLeft"))),
    )
    passive = constant_tree("Listen", ("GrowlLeft", "GrowlRight"), 2)
    reckless = nested(
        "OpenLeft",
        (("GrowlLeft", nested("Listen")), ("GrowlRight", nested("Listen"))),
    )
    return [listen, passive, reckless]


@pytest.fixture(scope="session")
def tiger2():
    return builtin_tiger(2)


@pytest.fixture(scope="session")
def cand2(tiger2):
    return make_candidate_set(
        _peer_trees_t2(),
        len(tiger2.observations_j),
        prior=np.array([0.5, 0.3, 0.2]),
    )


@pytest.fixture(scope="session")
def fig_trees():
    """Four depth-3 trees over two observations with hand-counted diversity.

    Distinct prefixes per depth: 2, 5, 12.  Distinct frames: 2, 3, 4.
    Prefix measure: 2 + 5/2 + 12/4 = 7.5.
    Frame-augmented: 4 + 8/2 + 16/4 = 12.0.
    """
    t1 = node("A", node("B", node("A"), node("B")), node("C", node("C"), node("A")))
    t2 = node("A", node("B", node("A"), node("C")), node("C", node("C"), node("C")))
    t3 = node("A", node("B", node("A"), node("B")), node("B", node("B"), node("B")))
    t4 = node("B", node("A", node("C"), node("C")), node("A", node("A"), node("B")))
    return [t1, t2, t3, t4]


def random_model(rng: np.random.Generator, max_s=3, max_a=3, max_o=3, max_t=2) -> SingleAgentModel:
    """Small random model with exactly normalized stochastic tables."""
    S = int(rng.integers(1, max_s + 1))
    A = int(rng.integers(1, max_a + 1))
    O = int(rng.integers(1, max_o + 1))
    T = int(rng.integers(1, max_t + 1))
    trans = rng.random((S, A, S)) + 1e-3
    trans /= trans.sum(axis=2, keepdims=True)
    obs = rng.random((S, A, O)) + 1e-3
    obs /= obs.sum(axis=2, keepdims=True)
    reward = rng.normal(0.0, 5.0, size=(S, A))
    belief = rng.dirichlet(np.ones(S))
    return SingleAgentModel(
        name="rand",
        states=tuple("s%d" % k for k in range(S)),
        actions=tuple("a%d" % k for k in range(A)),
        observations=tuple("z%d" % k for k in range(O)),
        transition=trans,
        obs_fn=obs,
        reward=reward,
        initial_belief=belief,
        horizon=T,
    )


def random_tree(rng: np.random.Generator, actions, observations, depth) -> PolicyTree:
    """Uniformly random complete tree over the given alphabets."""
    acts = tuple(actions)
    obs = tuple(observations)

    def build(remaining: int) -> PolicyTree:
        a = acts[int(rng.integers(len(acts)))]
        if remaining == 1:
            return nested(a)
        return nested(a, tuple((o, build(remaining - 1)) for o in obs))

    return build(depth)


def random_tree_set(rng: np.random.Generator, max_trees=6, max_a=3, max_o=3, max_depth=3):
    """A random set of same-shape trees plus its alphabets."""
    n_a = int(rng.integers(1, max_a + 1))
    n_o = int(rng.integers(1, max_o + 1))
    depth = int(rng.integers(1, max_depth + 1))
    count = int(rng.integers(1, max_trees + 1))
    acts = tuple("a%d" % k for k in range(n_a))
    obs = tuple("z%d" % k for k in range(n_o))
    trees = [random_tree(rng, acts, obs, depth) for _ in range(count)]
    return trees, acts, obs
