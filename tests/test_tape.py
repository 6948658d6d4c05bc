import tracemalloc

import numpy as np
import pytest

from focalvox import ops
from focalvox.backbone import SfmNet, init_network, preset, sfmnet_forward
from focalvox.errors import ShapeMismatch, TapeConsumed
from focalvox.points import PointCloud
from focalvox.sfm import sfm_block
from focalvox.tape import GradTape, Tensor, active_tape, grad_of
from helpers import keep_all_replay, random_sparse


def test_replay_visits_reverse_order():
    tape = GradTape()
    x = Tensor(np.ones((2, 3)), tape)
    w1 = Tensor(np.eye(3))
    h = ops.linear(x, w1, None)
    g = ops.gelu(h)
    out = ops.mean_all(g)
    assert tape.node_names() == ["linear", "gelu", "mean_all"]
    trace = []
    tape.gradients(out, 1.0, trace=trace)
    assert trace == ["mean_all", "gelu", "linear"]


def test_untouched_tensor_has_no_gradient():
    tape = GradTape()
    x = Tensor(np.ones((2, 2)), tape)
    unused = Tensor(np.ones((2, 2)), tape)
    out = ops.mean_all(ops.relu(x))
    grads = tape.gradients(out, 1.0)
    assert grad_of(grads, x) is not None
    assert grad_of(grads, unused) is None


def test_fanout_accumulates():
    tape = GradTape()
    x = Tensor(np.full((1, 2), 3.0), tape)
    out = ops.mean_all(ops.add(x, x))
    grads = tape.gradients(out, 1.0)
    np.testing.assert_allclose(grad_of(grads, x), np.ones((1, 2)))


def test_leaf_parameters_receive_gradients():
    tape = GradTape()
    x = Tensor(np.ones((4, 3)), tape)
    w = Tensor(np.ones((3, 2)))  # leaf: no tape
    b = Tensor(np.zeros(2))
    out = ops.mean_all(ops.linear(x, w, b))
    grads = tape.gradients(out, 1.0)
    assert grad_of(grads, w).shape == (3, 2)
    assert grad_of(grads, b).shape == (2,)


def test_mixing_tapes_rejected():
    t1, t2 = GradTape(), GradTape()
    a = Tensor(np.ones((2, 2)), t1)
    b = Tensor(np.ones((2, 2)), t2)
    with pytest.raises(ShapeMismatch):
        active_tape(a, b)


def test_cotangent_shape_checked():
    tape = GradTape()
    x = Tensor(np.ones((2, 2)), tape)
    y = ops.relu(x)
    with pytest.raises(ShapeMismatch):
        tape.gradients(y, np.ones(3))
    # a rejected cotangent does not use up the tape's one replay
    assert grad_of(tape.gradients(y, np.ones((2, 2))), x) is not None


def test_second_replay_raises():
    tape = GradTape()
    x = Tensor(np.ones((2, 3)), tape)
    out = ops.mean_all(ops.gelu(x))
    tape.gradients(out, 1.0)
    with pytest.raises(TapeConsumed):
        tape.gradients(out, 1.0)


def test_length_and_names_survive_replay():
    tape = GradTape()
    x = Tensor(np.ones((2, 3)), tape)
    out = ops.mean_all(ops.sigmoid(ops.add(x, ops.relu(x))))
    names = tape.node_names()
    tape.gradients(out, 1.0)
    assert len(tape) == 4
    assert tape.node_names() == names == ["relu", "add", "sigmoid", "mean_all"]


def test_leaf_output_keeps_its_cotangent():
    tape = GradTape()
    x = Tensor(np.ones((2, 2)), tape)
    grads = tape.gradients(x, np.full((2, 2), 3.0))
    np.testing.assert_array_equal(grad_of(grads, x), np.full((2, 2), 3.0))


def assert_leaf_gradients_match_keep_all_replay(tape, output, cotangent):
    """Leaf gradients equal the keep-everything replay's bit for bit, and
    no tensor a node produced has an entry."""
    produced = {node.out_uid for node in tape._nodes}
    reference = keep_all_replay(tape, output, cotangent)
    grads = tape.gradients(output, cotangent)
    assert not produced & set(grads)
    assert set(grads) == set(reference) - produced
    for uid, g in grads.items():
        assert g.dtype == reference[uid].dtype
        assert g.tobytes() == reference[uid].tobytes()
    return grads


def test_tiny_network_leaf_gradients_match_keep_all_replay():
    cfg = preset("tiny")
    store = init_network(cfg)
    rng = np.random.default_rng(11)
    pts = np.concatenate((rng.uniform(-3, 3, (1500, 3)), rng.uniform(0, 1, (1500, 1))), axis=1)
    tape = GradTape()
    _, logits = sfmnet_forward(PointCloud(pts), cfg, store, tape=tape)
    loss = ops.mean_all(logits)
    grads = assert_leaf_gradients_match_keep_all_replay(
        tape, loss, np.asarray(1.0, dtype=logits.data.dtype)
    )
    params = {store.tensor(name).uid for name in store.param_names()}
    assert len(params & set(grads)) > 0.9 * len(params)


def test_sfm_block_leaf_gradients_match_keep_all_replay():
    cfg = preset("tiny")
    stage = 1  # holds one mixer block
    params = dict(SfmNet(cfg, init_network(cfg)).stages[stage].blocks)["sfm"]
    rng = np.random.default_rng(12)
    scene = random_sparse(rng, (7, 7, 7), 0.3, cfg.stages[stage].channels)
    tape = GradTape()
    feats = Tensor(scene.features.data, tape)
    out = sfm_block(scene.with_features(feats), cfg.stages[stage].sfm, params)
    cot = rng.standard_normal(out.features.data.shape).astype(np.float32)
    grads = assert_leaf_gradients_match_keep_all_replay(tape, out.features, cot)
    assert feats.uid in grads


def test_replay_frees_cotangents_and_saved_state():
    """Replaying a long elementwise chain holds a few arrays beyond the
    forward residency, not one per node."""
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((2000, 16)).astype(np.float32)
    tracemalloc.start()
    try:
        tape = GradTape()
        h = x = Tensor(x0, tape)
        for i in range(40):
            h = ops.gelu(h) if i % 2 == 0 else ops.sigmoid(h)
        out = ops.mean_all(h)
        del h
        resident = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = tape.gradients(out, np.float32(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grad_of(grads, x).shape == x0.shape
    assert peak <= resident + 8 * x0.nbytes
