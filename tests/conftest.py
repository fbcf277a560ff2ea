"""Shared test helpers: finite-difference gradient checking, child-process env.

Every analytical gradient in the engine is validated against central finite
differences computed in float64 ("high" precision). The helper samples a few
entries per parameter rather than the full Jacobian so whole-block checks
stay fast.
"""

import os

import numpy as np
import pytest

import demosaick
from demosaick.tensor import Tape, ParamLeaf, backward, precision, zero_grads

REL_TOL = 1e-4
ABS_FLOOR = 1e-6


def fd_gradient(make_loss, leaf: ParamLeaf, index: int, eps: float = 1e-6) -> float:
    """Central difference of the scalar loss along one parameter entry."""
    flat = leaf.value.data.ravel()
    old = flat[index]
    flat[index] = old + eps
    lp = make_loss().item()
    flat[index] = old - eps
    lm = make_loss().item()
    flat[index] = old
    return (lp - lm) / (2 * eps)


def fd_gradcheck(make_loss, leaves, samples: int = 6, eps: float = 1e-6,
                 seed: int = 0) -> float:
    """Worst relative error between reverse-mode and finite-difference grads.

    make_loss must rebuild the scalar loss from the current leaf values on
    every call (it runs once on a tape for the analytical pass and then
    repeatedly off-tape for the differences). Relative error uses
    |fd - an| / max(|fd|, |an|, ABS_FLOOR) so near-zero gradients compare
    absolutely at the floor.
    """
    leaves = list(leaves)
    zero_grads(leaves)
    with Tape() as tape:
        loss = make_loss()
        backward(loss, tape)
    analytic = {id(leaf): leaf.grad.copy() for leaf in leaves}
    rng = np.random.default_rng(seed)
    worst = 0.0
    for leaf in leaves:
        size = leaf.value.data.size
        idxs = rng.choice(size, size=min(samples, size), replace=False)
        for i in idxs:
            fd = fd_gradient(make_loss, leaf, int(i), eps=eps)
            an = analytic[id(leaf)].ravel()[int(i)]
            err = abs(fd - an) / max(abs(fd), abs(an), ABS_FLOOR)
            worst = max(worst, err)
    return worst


@pytest.fixture
def high():
    """Run the test body in float64 so finite differences are trustworthy."""
    with precision("high"):
        yield


def subprocess_env(**extra) -> dict:
    """Environment for a child Python that must import this ``demosaick``.

    Puts the directory the package was imported from first on PYTHONPATH,
    so the child runs the same code without an installed package.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(demosaick.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)
