"""The arena-based learning step against its per-tensor executable spec.

:mod:`rl_reference` keeps the per-tensor networks, Adam and DDPG/DQN update
math; :mod:`repro.rl` runs the same arithmetic over one parameter arena per
network with fused optimizer passes. Trained from the same seed on the same
transitions they must agree exactly: every parameter, target network, Adam
moment, step count and returned loss.
"""

import numpy as np
import pytest

from rl_reference import ReferenceAdam, ReferenceDDPGAgent, ReferenceDQNAgent

from repro.config import SystemConfig
from repro.core.lerp import Lerp, LerpConfig
from repro.errors import RLError
from repro.persist import FORMAT_VERSION
from repro.rl import SGD, Adam, DDPGAgent, DDPGConfig, DQNAgent, DQNConfig, MLP

UPDATES = 320


def assert_same_arrays(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def assert_same_adam(left, right):
    assert left["kind"] == right["kind"] == "adam"
    assert left["t"] == right["t"]
    assert_same_arrays(left["m"], right["m"])
    assert_same_arrays(left["v"], right["v"])


def assert_same_ddpg(ref, new):
    a, b = ref.state_dict(), new.state_dict()
    for net in ("actor", "critic", "target_actor", "target_critic"):
        assert_same_arrays(a[net], b[net])
    for opt in ("actor_opt", "critic_opt"):
        assert_same_adam(a[opt], b[opt])
    assert a["updates_done"] == b["updates_done"]


def assert_same_dqn(ref, new):
    a, b = ref.state_dict(), new.state_dict()
    assert_same_arrays(a["q_net"], b["q_net"])
    assert_same_arrays(a["target_net"], b["target_net"])
    assert_same_adam(a["opt"], b["opt"])
    assert a["updates_done"] == b["updates_done"]


def drive_ddpg(agents, driver, steps, state_dim):
    """Feed every agent the same transitions (acting with the first agent's
    policy) and update each once per step; returns each agent's losses."""
    losses = [[] for _ in agents]
    for _ in range(steps):
        state = driver.random(state_dim)
        actions = [agent.act(state) for agent in agents]
        for action in actions[1:]:
            assert np.array_equal(action, actions[0])
        reward = -float(np.abs(state.sum() - actions[0].sum()))
        next_state = driver.random(state_dim)
        for agent, out in zip(agents, losses):
            agent.observe(state, actions[0], reward, next_state, done=False)
            out.append(agent.update())
    return losses


def drive_dqn(agents, driver, steps, state_dim, n_actions):
    losses = [[] for _ in agents]
    for _ in range(steps):
        state = driver.random(state_dim)
        action = int(driver.integers(0, n_actions))
        reward = -abs(float(state[0]) - action / n_actions)
        next_state = driver.random(state_dim)
        done = bool(driver.random() < 0.05)
        for agent, out in zip(agents, losses):
            agent.observe(state, action, reward, next_state, done)
            out.append(agent.update())
    return losses


DDPG_CONFIGS = [
    DDPGConfig(),  # the Lerp default: 8 -> 32 -> 32 -> 1
    # Odd layer sizes put most views at 8-byte (not 16-byte) offsets.
    DDPGConfig(state_dim=3, action_dim=2, hidden=(7, 5, 9), batch_size=17),
]


class TestDDPGMatchesReference:
    @pytest.mark.parametrize("config", DDPG_CONFIGS, ids=["default", "odd-shapes"])
    def test_training_is_bit_identical(self, config):
        ref = ReferenceDDPGAgent(config, np.random.default_rng(11))
        new = DDPGAgent(config, np.random.default_rng(11))
        assert_same_ddpg(ref, new)
        ref_losses, new_losses = drive_ddpg(
            [ref, new], np.random.default_rng(4), UPDATES, config.state_dim
        )
        assert new.updates_done >= 300
        assert ref_losses == new_losses
        assert_same_ddpg(ref, new)

    def test_reference_snapshot_continues_bit_exactly(self):
        config = DDPG_CONFIGS[0]
        ref_rng = np.random.default_rng(2)
        ref = ReferenceDDPGAgent(config, ref_rng)
        drive_ddpg([ref], np.random.default_rng(8), 60, config.state_dim)

        new_rng = np.random.default_rng(999)  # different construction draws
        new = DDPGAgent(config, new_rng)
        new.load_state_dict(ref.state_dict())
        new_rng.bit_generator.state = ref_rng.bit_generator.state
        assert_arena_aliasing(new)

        ref_losses, new_losses = drive_ddpg(
            [ref, new], np.random.default_rng(3), 120, config.state_dim
        )
        assert ref_losses == new_losses
        assert_same_ddpg(ref, new)


DQN_CONFIGS = [
    DQNConfig(target_sync_every=7),
    DQNConfig(state_dim=5, n_actions=3, hidden=(7, 9), batch_size=13),
]


class TestDQNMatchesReference:
    @pytest.mark.parametrize("config", DQN_CONFIGS, ids=["default", "odd-shapes"])
    def test_training_is_bit_identical(self, config):
        ref = ReferenceDQNAgent(config, np.random.default_rng(5))
        new = DQNAgent(config, np.random.default_rng(5))
        assert_same_dqn(ref, new)
        ref_losses, new_losses = drive_dqn(
            [ref, new],
            np.random.default_rng(6),
            UPDATES,
            config.state_dim,
            config.n_actions,
        )
        assert new.updates_done >= 300
        assert ref_losses == new_losses
        assert_same_dqn(ref, new)

    def test_reference_snapshot_continues_bit_exactly(self):
        config = DQNConfig()
        ref_rng = np.random.default_rng(1)
        ref = ReferenceDQNAgent(config, ref_rng)
        drive_dqn([ref], np.random.default_rng(2), 50, 8, 3)

        new_rng = np.random.default_rng(42)
        new = DQNAgent(config, new_rng)
        new.load_state_dict(ref.state_dict())
        new_rng.bit_generator.state = ref_rng.bit_generator.state
        assert_arena_aliasing(new)

        ref_losses, new_losses = drive_dqn(
            [ref, new], np.random.default_rng(3), 80, 8, 3
        )
        assert ref_losses == new_losses
        assert_same_dqn(ref, new)


# ----------------------------------------------------------------------
# Arena aliasing
# ----------------------------------------------------------------------
def assert_net_aliases_arena(net):
    params, grads = net.params(), net.grads()
    assert sum(p.size for p in params) == net.param_arena.size
    for param, grad in zip(params, grads):
        assert np.shares_memory(param, net.param_arena)
        assert np.shares_memory(grad, net.grad_arena)
    # Writing through the arena is visible through every view.
    saved = net.param_arena.copy()
    net.param_arena[...] = 7.0
    assert all((p == 7.0).all() for p in params)
    net.param_arena[...] = saved


def assert_opt_aliases(opt, net):
    assert np.shares_memory(opt._params, net.param_arena)
    assert np.shares_memory(opt._grads, net.grad_arena)
    for m, v in zip(opt._m, opt._v):
        assert np.shares_memory(m, opt._m_arena)
        assert np.shares_memory(v, opt._v_arena)


def assert_arena_aliasing(agent):
    if isinstance(agent, DDPGAgent):
        nets = [agent.actor, agent.critic, agent.target_actor, agent.target_critic]
        assert_opt_aliases(agent.actor_opt, agent.actor)
        assert_opt_aliases(agent.critic_opt, agent.critic)
    else:
        nets = [agent.q_net, agent.target_net]
        assert_opt_aliases(agent.opt, agent.q_net)
    for net in nets:
        assert_net_aliases_arena(net)


class TestArenaAliasing:
    def test_after_construction(self):
        assert_arena_aliasing(DDPGAgent(DDPGConfig(), np.random.default_rng(0)))
        assert_arena_aliasing(DQNAgent(DQNConfig(), np.random.default_rng(0)))

    def test_after_load_state_dict(self):
        source = DDPGAgent(DDPGConfig(), np.random.default_rng(1))
        drive_ddpg([source], np.random.default_rng(2), 20, 8)
        agent = DDPGAgent(DDPGConfig(), np.random.default_rng(3))
        agent.load_state_dict(source.state_dict())
        assert_arena_aliasing(agent)

    def test_after_copy_params_from(self):
        rng = np.random.default_rng(4)
        a, b = MLP(3, [5], 2, rng), MLP(3, [5], 2, rng)
        a.copy_params_from(b)
        assert_net_aliases_arena(a)
        assert np.array_equal(a.param_arena, b.param_arena)
        assert not np.shares_memory(a.param_arena, b.param_arena)

    def test_after_warm_start(self):
        trained = Lerp(SystemConfig(), LerpConfig(seed=3))
        for level in (1, 2):
            drive_ddpg([trained._agent(level)], np.random.default_rng(level), 20, 8)
        tuner = Lerp(SystemConfig(), LerpConfig(seed=3))
        tuner.load_state_dict(trained.state_dict())
        tuner.warm_start()
        assert sorted(tuner._agents) == [1, 2]
        for agent in tuner._agents.values():
            assert_arena_aliasing(agent)
            before = agent.actor.param_arena.copy()
            agent.update()
            assert not np.array_equal(before, agent.actor.param_arena)

    def test_optimizer_steps_the_live_arena(self):
        net = MLP(2, [3], 1, np.random.default_rng(0))
        opt = Adam(net.params(), net.grads(), lr=0.1)
        before = net.param_arena.copy()
        net.grad_arena[...] = 1.0
        opt.step()
        assert (net.param_arena < before).all()


class TestOptimizerLayout:
    def test_rejects_arrays_outside_one_arena(self):
        with pytest.raises(RLError):
            Adam([np.zeros(2), np.zeros(3)], [np.zeros(2), np.zeros(3)])

    def test_rejects_out_of_order_views(self):
        net = MLP(2, [3], 1, np.random.default_rng(0))
        params, grads = net.params(), net.grads()
        with pytest.raises(RLError):
            SGD(params[::-1], grads[::-1], lr=0.1)

    def test_rejects_misaligned_grads(self):
        net = MLP(2, [3], 1, np.random.default_rng(0))
        with pytest.raises(RLError):
            Adam(net.params(), net.grads()[:-1])

    def test_single_array_is_its_own_arena(self):
        param = np.asarray([1.0, -2.0])
        grad = np.asarray([0.5, 0.5])
        ref = ReferenceAdam([param.copy()], [grad.copy()], lr=0.1)
        opt = Adam([param], [grad], lr=0.1)
        for _ in range(5):
            ref.step()
            opt.step()
        assert np.array_equal(param, ref._params[0])


class TestAdamLoadValidation:
    def _adam(self):
        net = MLP(4, [32], 1, np.random.default_rng(0))
        return Adam(net.params(), net.grads())

    def test_rejects_wrong_moment_shape(self):
        opt = self._adam()
        state = opt.state_dict()
        state["m"][1] = np.ones(1)  # would broadcast into the (32,) bias slot
        before = opt.state_dict()
        with pytest.raises(RLError, match="shape"):
            opt.load_state_dict(state)
        after = opt.state_dict()
        assert after["t"] == before["t"]
        assert_same_arrays(after["m"], before["m"])

    def test_rejects_sgd_state(self):
        with pytest.raises(RLError, match="adam"):
            self._adam().load_state_dict({"kind": "sgd"})

    def test_rejects_wrong_moment_count(self):
        opt = self._adam()
        state = opt.state_dict()
        state["v"] = state["v"][:-1]
        with pytest.raises(RLError):
            opt.load_state_dict(state)

    def test_sgd_rejects_adam_state(self):
        opt = self._adam()
        net = MLP(2, [3], 1, np.random.default_rng(0))
        with pytest.raises(RLError, match="sgd"):
            SGD(net.params(), net.grads(), lr=0.1).load_state_dict(opt.state_dict())


def test_snapshot_format_version_unchanged():
    # Adam m/v stay per-parameter lists, so the format did not change.
    assert FORMAT_VERSION == 1
    opt = DDPGAgent(DDPGConfig(), np.random.default_rng(0)).actor_opt
    state = opt.state_dict()
    assert isinstance(state["m"], list) and isinstance(state["v"], list)
    assert [m.shape for m in state["m"]] == [(8, 32), (32,), (32, 32), (32,), (32, 1), (1,)]
