"""Executable spec of the RL learning step: per-tensor numpy math.

This module keeps the straightforward per-tensor form of the networks,
the Adam optimizer and the DDPG/DQN update steps: every layer owns its own
parameter and gradient arrays, Adam loops over them one tensor at a time,
ReLU masks with ``np.where`` and the actor update back-propagates through
the critic's parameters and then throws those gradients away.

:mod:`repro.rl` computes the same arithmetic over one contiguous parameter
arena per network with fused optimizer passes. ``tests/test_rl_oracle.py``
trains a reference agent and a production agent from the same seed and
asserts that every parameter, target network, optimizer moment and loss
agrees exactly. The reference classes share the replay buffer and noise
processes with :mod:`repro.rl`, which this spec does not restate.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import RLError
from repro.rl.ddpg import DDPGConfig
from repro.rl.dqn import DQNConfig
from repro.rl.noise import OrnsteinUhlenbeckNoise
from repro.rl.replay import ReplayBuffer


class ReferenceLinear:
    """``y = x @ W + b`` with He initialization and its own arrays."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        if in_dim < 1 or out_dim < 1:
            raise RLError(f"invalid Linear dims: {in_dim} -> {out_dim}")
        scale = np.sqrt(2.0 / in_dim)
        self.weight = rng.normal(0.0, scale, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RLError("backward called before forward")
        self.grad_weight += self._x.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def params(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReferenceReLU:
    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RLError("backward called before forward")
        return grad_out * self._mask

    def params(self) -> List[np.ndarray]:
        return []

    def grads(self) -> List[np.ndarray]:
        return []


class ReferenceTanh:
    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RLError("backward called before forward")
        return grad_out * (1.0 - self._y**2)

    def params(self) -> List[np.ndarray]:
        return []

    def grads(self) -> List[np.ndarray]:
        return []


class ReferenceMLP:
    """Linear/ReLU stack whose layers each own separate arrays."""

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        out_dim: int,
        rng: np.random.Generator,
        output_activation: Optional[str] = None,
    ) -> None:
        self.layers: list = []
        previous = in_dim
        for width in hidden:
            self.layers.append(ReferenceLinear(previous, width, rng))
            self.layers.append(ReferenceReLU())
            previous = width
        self.layers.append(ReferenceLinear(previous, out_dim, rng))
        if output_activation == "tanh":
            self.layers.append(ReferenceTanh())
        elif output_activation is not None:
            raise RLError(f"unknown output activation: {output_activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_dim:
            raise RLError(
                f"MLP expected input dim {self.in_dim}, got {x.shape[1]}"
            )
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> List[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> List[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def zero_grad(self) -> None:
        for grad in self.grads():
            grad.fill(0.0)

    def copy_params_from(self, other: "ReferenceMLP") -> None:
        for mine, theirs in zip(self.params(), other.params()):
            if mine.shape != theirs.shape:
                raise RLError("cannot copy params between different shapes")
            mine[...] = theirs

    def soft_update_from(self, other: "ReferenceMLP", tau: float) -> None:
        if not 0.0 <= tau <= 1.0:
            raise RLError(f"tau must be in [0, 1], got {tau}")
        for mine, theirs in zip(self.params(), other.params()):
            mine *= 1.0 - tau
            mine += tau * theirs

    def state_dict(self) -> List[np.ndarray]:
        return [p.copy() for p in self.params()]

    def load_state_dict(self, state: Sequence[np.ndarray]) -> None:
        params = self.params()
        if len(state) != len(params):
            raise RLError("parameter count mismatch")
        for mine, theirs in zip(params, state):
            if mine.shape != theirs.shape:
                raise RLError(
                    f"parameter shape mismatch: {mine.shape} vs {theirs.shape}"
                )
            mine[...] = theirs
        self.zero_grad()


class ReferenceAdam:
    """Adam stepping a list of parameter arrays one tensor at a time."""

    def __init__(
        self,
        params: List[np.ndarray],
        grads: List[np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self._params = params
        self._grads = grads
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p in params]
        self._v = [np.zeros_like(p) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, grad, m, v in zip(self._params, self._grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def state_dict(self) -> dict:
        return {
            "kind": "adam",
            "t": self._t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        self._t = int(state["t"])
        for mine, theirs in zip(self._m, state["m"]):
            mine[...] = theirs
        for mine, theirs in zip(self._v, state["v"]):
            mine[...] = theirs


class ReferenceDDPGAgent:
    """DDPG with the per-tensor networks; construction draws the shared RNG
    in the same order as :class:`repro.rl.ddpg.DDPGAgent`."""

    def __init__(self, config: DDPGConfig, rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        hidden = list(config.hidden)
        self.actor = ReferenceMLP(
            config.state_dim, hidden, config.action_dim, rng, "tanh"
        )
        self.critic = ReferenceMLP(
            config.state_dim + config.action_dim, hidden, 1, rng
        )
        self.target_actor = ReferenceMLP(
            config.state_dim, hidden, config.action_dim, rng, "tanh"
        )
        self.target_critic = ReferenceMLP(
            config.state_dim + config.action_dim, hidden, 1, rng
        )
        for net in (self.actor, self.critic):
            for layer in reversed(net.layers):
                if isinstance(layer, ReferenceLinear):
                    layer.weight *= 0.05
                    break
        self.target_actor.copy_params_from(self.actor)
        self.target_critic.copy_params_from(self.critic)
        self.actor_opt = ReferenceAdam(
            self.actor.params(), self.actor.grads(), config.actor_lr
        )
        self.critic_opt = ReferenceAdam(
            self.critic.params(), self.critic.grads(), config.critic_lr
        )
        self.replay = ReplayBuffer(
            config.buffer_capacity, config.state_dim, config.action_dim, rng
        )
        self.noise = OrnsteinUhlenbeckNoise(
            config.action_dim, rng, sigma=config.noise_sigma, theta=0.3
        )
        self.updates_done = 0

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        action = self.actor.forward(np.atleast_2d(state))[0]
        if explore:
            action = action + self.noise.sample()
        return np.clip(action, -1.0, 1.0)

    def observe(self, state, action, reward, next_state, done=False) -> None:
        self.replay.push(state, action, reward, next_state, done)

    def update(self) -> Optional[float]:
        if len(self.replay) < self.config.warmup:
            return None
        cfg = self.config
        states, actions, rewards, next_states, dones = self.replay.sample(
            cfg.batch_size
        )

        next_actions = self.target_actor.forward(next_states)
        target_q = self.target_critic.forward(
            np.concatenate([next_states, next_actions], axis=1)
        )[:, 0]
        y = rewards + cfg.gamma * (1.0 - dones) * target_q

        self.critic.zero_grad()
        q = self.critic.forward(np.concatenate([states, actions], axis=1))[:, 0]
        td_error = q - y
        loss = float(np.mean(td_error**2))
        grad_q = (2.0 / cfg.batch_size) * td_error[:, None]
        self.critic.backward(grad_q)
        self.critic_opt.step()

        self.actor.zero_grad()
        policy_actions = self.actor.forward(states)
        critic_in = np.concatenate([states, policy_actions], axis=1)
        self.critic.zero_grad()  # scratch use of critic; discard its grads
        self.critic.forward(critic_in)
        grad_in = self.critic.backward(np.full((cfg.batch_size, 1), 1.0))
        grad_action = grad_in[:, cfg.state_dim :]
        self.actor.backward(-grad_action / cfg.batch_size)
        self.critic.zero_grad()
        self.actor_opt.step()

        self.target_actor.soft_update_from(self.actor, cfg.tau)
        self.target_critic.soft_update_from(self.critic, cfg.tau)
        self.updates_done += 1
        return loss

    def state_dict(self) -> dict:
        return {
            "actor": self.actor.state_dict(),
            "critic": self.critic.state_dict(),
            "target_actor": self.target_actor.state_dict(),
            "target_critic": self.target_critic.state_dict(),
            "actor_opt": self.actor_opt.state_dict(),
            "critic_opt": self.critic_opt.state_dict(),
            "replay": self.replay.state_dict(),
            "noise": self.noise.state_dict(),
            "updates_done": self.updates_done,
        }


class ReferenceDQNAgent:
    """DQN with the per-tensor network; same RNG draw order as
    :class:`repro.rl.dqn.DQNAgent`."""

    def __init__(self, config: DQNConfig, rng: np.random.Generator) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        self.q_net = ReferenceMLP(
            config.state_dim, list(config.hidden), config.n_actions, rng
        )
        self.target_net = ReferenceMLP(
            config.state_dim, list(config.hidden), config.n_actions, rng
        )
        self.target_net.copy_params_from(self.q_net)
        self.opt = ReferenceAdam(self.q_net.params(), self.q_net.grads(), config.lr)
        self.replay = ReplayBuffer(config.buffer_capacity, config.state_dim, 1, rng)
        self.epsilon = config.epsilon_start
        self.updates_done = 0

    def observe(self, state, action: int, reward, next_state, done=False) -> None:
        self.replay.push(
            state, np.asarray([action], dtype=float), reward, next_state, done
        )

    def update(self) -> Optional[float]:
        if len(self.replay) < self.config.warmup:
            return None
        cfg = self.config
        states, actions, rewards, next_states, dones = self.replay.sample(
            cfg.batch_size
        )
        action_idx = actions[:, 0].astype(int)

        next_q = self.target_net.forward(next_states).max(axis=1)
        y = rewards + cfg.gamma * (1.0 - dones) * next_q

        self.q_net.zero_grad()
        q_all = self.q_net.forward(states)
        q_taken = q_all[np.arange(cfg.batch_size), action_idx]
        td_error = q_taken - y
        loss = float(np.mean(td_error**2))
        grad = np.zeros_like(q_all)
        grad[np.arange(cfg.batch_size), action_idx] = (
            2.0 / cfg.batch_size
        ) * td_error
        self.q_net.backward(grad)
        self.opt.step()

        self.updates_done += 1
        if self.updates_done % cfg.target_sync_every == 0:
            self.target_net.copy_params_from(self.q_net)
        return loss

    def state_dict(self) -> dict:
        return {
            "q_net": self.q_net.state_dict(),
            "target_net": self.target_net.state_dict(),
            "opt": self.opt.state_dict(),
            "replay": self.replay.state_dict(),
            "epsilon": self.epsilon,
            "updates_done": self.updates_done,
        }
