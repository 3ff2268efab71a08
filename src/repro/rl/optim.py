"""Gradient-descent optimizers for the numpy networks.

Both optimizers step a whole parameter *arena* (see :mod:`repro.rl.nn`) in
one pass of elementwise array ops with preallocated scratch. The arena is
found from the ``params``/``grads`` lists handed to the constructor: an
:class:`~repro.rl.nn.MLP`'s ``params()`` tile its parameter arena in order,
and a lone contiguous array is a one-tile arena of its own.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import RLError


def _address(array: np.ndarray) -> int:
    return int(array.__array_interface__["data"][0])


def _arena_view(arrays: List[np.ndarray]) -> np.ndarray:
    """Flat view of the one contiguous float64 buffer ``arrays`` tile, in
    order. Raises :class:`RLError` for any other layout, so an optimizer
    can never silently step a copy."""
    if not arrays:
        raise RLError("an optimizer needs at least one parameter array")
    first = arrays[0]
    owner = first if first.base is None else first.base
    if (
        not isinstance(owner, np.ndarray)
        or owner.dtype != np.float64
        or not owner.flags.c_contiguous
    ):
        raise RLError("optimizer arrays must be views of a contiguous float64 arena")
    flat = owner.reshape(-1)
    start = (_address(first) - _address(flat)) // flat.itemsize
    end = start
    for array in arrays:
        if (
            array.dtype != np.float64
            or not array.flags.c_contiguous
            or _address(array) != _address(flat) + end * flat.itemsize
        ):
            raise RLError("optimizer arrays must tile one arena, in order")
        end += array.size
    if end > flat.size:
        raise RLError("optimizer arrays run past the end of their arena")
    return flat[start:end]


def _paired_arenas(
    params: List[np.ndarray], grads: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    if len(params) != len(grads) or any(
        p.shape != g.shape for p, g in zip(params, grads)
    ):
        raise RLError("params and grads must align")
    return _arena_view(params), _arena_view(grads)


class SGD:
    """Plain stochastic gradient descent (kept for tests and ablations)."""

    # _params/_grads alias the network's live arena (serialized by MLP);
    # _scratch is per-step workspace; lr is a constructor hyperparameter.
    _snapshot_exempt = frozenset({"_params", "_grads", "_scratch", "lr"})

    def __init__(self, params: List[np.ndarray], grads: List[np.ndarray], lr: float) -> None:
        if lr <= 0:
            raise RLError(f"lr must be > 0, got {lr}")
        self._params, self._grads = _paired_arenas(params, grads)
        self._scratch = np.empty_like(self._params)
        self.lr = lr

    def step(self) -> None:
        np.multiply(self._grads, self.lr, out=self._scratch)
        self._params -= self._scratch

    # SGD is stateless beyond its hyperparameters; hooks exist for interface
    # parity with Adam so owners can treat any optimizer uniformly.
    def state_dict(self) -> dict:
        return {"kind": "sgd"}

    def load_state_dict(self, state: dict) -> None:
        if state.get("kind") != "sgd":
            raise RLError(f"expected an sgd optimizer state, got {state.get('kind')!r}")


class Adam:
    """Adam (Kingma & Ba) over one parameter arena.

    The moments live in two arenas laid out like the parameters; ``_m`` and
    ``_v`` are their per-parameter views, which is the snapshot format.
    """

    # _params/_grads alias the network's live arena (serialized by MLP);
    # _m_arena/_v_arena are the memory of the _m/_v views that state_dict
    # serializes; _scratch/_update are per-step workspace;
    # lr/beta1/beta2/eps are constructor hyperparameters.
    _snapshot_exempt = frozenset({
        "_params", "_grads", "_m_arena", "_v_arena", "_scratch", "_update",
        "lr", "beta1", "beta2", "eps",
    })

    def __init__(
        self,
        params: List[np.ndarray],
        grads: List[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise RLError(f"lr must be > 0, got {lr}")
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise RLError("betas must be in [0, 1)")
        self._params, self._grads = _paired_arenas(params, grads)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m_arena = np.zeros_like(self._params)
        self._v_arena = np.zeros_like(self._params)
        self._scratch = np.empty_like(self._params)
        self._update = np.empty_like(self._params)
        self._m: List[np.ndarray] = []
        self._v: List[np.ndarray] = []
        offset = 0
        for param in params:
            end = offset + param.size
            self._m.append(self._m_arena[offset:end].reshape(param.shape))
            self._v.append(self._v_arena[offset:end].reshape(param.shape))
            offset = end
        self._t = 0

    def step(self) -> None:
        """One Adam step over the arena. Elementwise this is exactly
        ``m ← β1·m + (1-β1)·g``, ``v ← β2·v + ((1-β2)·g)·g`` and
        ``θ ← θ - (lr·(m/b1)) / (√(v/b2) + ε)`` with bias corrections
        ``b = 1 - β^t``: every operation is the same correctly rounded IEEE
        op on the same operands, just done in place."""
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        grad, m, v = self._grads, self._m_arena, self._v_arena
        scratch, update = self._scratch, self._update
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        m += scratch
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=scratch)
        scratch *= grad
        v += scratch
        np.divide(v, bias2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        np.divide(m, bias1, out=update)
        update *= self.lr
        update /= scratch
        self._params -= update

    # ------------------------------------------------------------------
    # Snapshot hooks (see repro.persist)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the moment estimates and step count."""
        return {
            "kind": "adam",
            "t": self._t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore moments in place (they are paired with live parameters).
        The whole state is checked before anything is written."""
        if state.get("kind") != "adam":
            raise RLError(f"expected an adam optimizer state, got {state.get('kind')!r}")
        for key, mine in (("m", self._m), ("v", self._v)):
            theirs = state[key]
            if len(theirs) != len(mine):
                raise RLError("optimizer state does not match parameter layout")
            for slot, moment in zip(mine, theirs):
                if np.shape(moment) != slot.shape:
                    raise RLError(
                        f"optimizer moment shape mismatch: {np.shape(moment)} "
                        f"vs {slot.shape}"
                    )
        self._t = int(state["t"])
        for mine, theirs in zip(self._m, state["m"]):
            mine[...] = theirs
        for mine, theirs in zip(self._v, state["v"]):
            mine[...] = theirs
