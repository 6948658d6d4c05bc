import tracemalloc
import weakref

import numpy as np
import pytest

from focalvox import ops
from focalvox.backbone import SfmNet, init_network, preset, run_stage, sfmnet_forward
from focalvox.conv import SparseConvLayer, subm_conv
from focalvox.errors import ShapeMismatch, TapeConsumed
from focalvox.points import PointCloud, voxelize_vfe
from focalvox.sfm import SfmBlockParams, SrbParams, sfm_block
from focalvox.sparse import KernelSpec
from focalvox.tape import GradTape, Tensor, active_tape, emit, grad_of
from helpers import keep_all_replay, random_sparse


def test_replay_visits_reverse_order():
    tape = GradTape()
    visited = []

    def op(name, x):
        def vjp(cot):
            visited.append(name)
            return (cot,)

        return emit(name, x.data.copy(), (x,), lambda needs: vjp)

    out = op("c", op("b", op("a", Tensor(np.ones((2, 3)), tape))))
    assert tape.node_names() == ["a", "b", "c"]
    tape.gradients(out, np.ones((2, 3)))
    assert visited == ["c", "b", "a"]


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


def test_tiny_default_tape_has_78_nodes():
    cfg = preset("tiny")
    rng = np.random.default_rng(0)
    pts = np.concatenate((rng.uniform(-3, 3, (500, 3)), rng.uniform(0, 1, (500, 1))), axis=1)
    tape = GradTape()
    _, logits = sfmnet_forward(PointCloud(pts), cfg, init_network(cfg), tape=tape)
    ops.mean_all(logits)
    assert len(tape) == 78


def test_sfm_block_leaf_gradients_match_keep_all_replay():
    cfg = preset("tiny")
    stage = 1  # holds one mixer block
    params = SfmNet(cfg, init_network(cfg)).stages[stage][0]
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


def test_tiny_replay_peaks_near_the_forward_residency():
    """The replay adds little to what it must hold: the forward's residency
    while it frees the saved state, the leaf gradients it returns at the
    end.  Conv weight gradients larger than their cotangents are formed
    after the last node, once the forward state is freed."""
    cfg = preset("tiny")
    store = init_network(cfg)
    rng = np.random.default_rng(0)
    pts = np.concatenate((rng.uniform(-3, 3, (500, 3)), rng.uniform(0, 1, (500, 1))), axis=1)
    tracemalloc.start()
    try:
        tape = GradTape()
        _, logits = sfmnet_forward(PointCloud(pts), cfg, store, tape=tape, bn_mode="train")
        loss = ops.mean_all(logits)
        resident = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = tape.gradients(loss, np.asarray(1.0, dtype=logits.data.dtype))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(grad_of(grads, store.tensor(name)) is not None for name in store.param_names()
               if name.startswith("stage4."))
    returned = sum(g.nbytes for g in grads.values())
    assert peak <= 1.10 * max(resident, returned)


def chain_with_a_leaf(tape, leaf, parts):
    """One identity node per part on a chain from a taped input; node ``i``
    returns ``parts[i]`` for ``leaf``.  Returns the chain's output."""
    h = Tensor(np.ones(2), tape)
    for part in parts:
        h = emit("part", h.data, (h, leaf), lambda needs, part=part: lambda cot: (cot, part))
    return h


def test_leaf_callable_and_array_parts_sum_in_replay_order():
    """Replayed third node first: the array, then the callable's array, then
    the first node's array, each added as in an eager sum."""
    big = np.float32([1e8, 2.0])
    parts = [np.float32([1.0, 3.0]), lambda: big, -big]
    tape = GradTape()
    leaf = Tensor(np.zeros(2, np.float32))
    grads = tape.gradients(chain_with_a_leaf(tape, leaf, parts), np.ones(2))
    want = (parts[2] + big) + parts[0]
    assert grad_of(grads, leaf).tobytes() == want.tobytes()
    # the order shows in the bits: adding the 1 before the two 1e8 entries
    # cancel rounds it away
    assert want[0] == 1.0 and ((parts[0] + big) + parts[2])[0] == 0.0


def test_callable_for_an_intermediate_is_called_before_its_producer():
    events = []
    tape = GradTape()
    x = Tensor(np.ones(2), tape)

    def producer_vjp(cot):
        events.append(("producer", cot))
        return (cot,)

    def part():
        events.append("part")
        return np.full(2, 3.0)

    h = emit("producer", 2 * x.data, (x,), lambda needs: producer_vjp)
    out = emit("consumer", h.data, (h,), lambda needs: lambda cot: (part,))
    grads = tape.gradients(out, np.ones(2))
    assert events[0] == "part" and events[1][0] == "producer"
    np.testing.assert_array_equal(events[1][1], np.full(2, 3.0))
    np.testing.assert_array_equal(grad_of(grads, x), np.full(2, 3.0))


def test_leaf_callables_run_once_after_the_last_node():
    events = []
    tape = GradTape()
    w = Tensor(np.ones(2))
    h = Tensor(np.ones(2), tape)
    for i in range(3):

        def vjp_of(needs, i=i):
            def vjp(cot):
                events.append(f"node{i}")

                def part():
                    events.append(f"part{i}")
                    return (i + 1) * cot

                return cot, part

            return vjp

        h = emit(f"n{i}", h.data, (h, w), vjp_of)
    grads = tape.gradients(h, np.ones(2))
    assert events == ["node2", "node1", "node0", "part2", "part1", "part0"]
    np.testing.assert_array_equal(grad_of(grads, w), np.full(2, 6.0))


def test_last_node_state_is_freed_before_the_leaf_phase():
    """When the leaf parts are formed, the last replayed node's cotangent and
    the forward array its VJP saved are gone: only the callable's own
    arguments stay."""
    seen, refs = [], []
    tape = GradTape()
    w = Tensor(np.ones(2))
    x = Tensor(np.ones(2), tape)

    def first(x):
        saved = np.full(2, 2.0)
        refs.append(weakref.ref(saved))

        def vjp(cot):
            refs.append(weakref.ref(cot))

            def part():
                seen.append([r() is None for r in refs])
                return np.ones(2)

            return cot * saved, part

        return emit("first", x.data * saved, (x, w), lambda needs: vjp)

    h = first(x)
    out = emit("second", h.data, (h,), lambda needs: lambda cot: (cot * 3.0,))
    grads = tape.gradients(out, np.ones(2))
    assert seen == [[True, True]]
    np.testing.assert_array_equal(grad_of(grads, x), np.full(2, 6.0))


def test_needs_follows_the_tape_mode():
    default, inputs_only = GradTape(), GradTape(params=False)
    param = Tensor(np.ones(2))
    assert default.needs(param) and not inputs_only.needs(param)
    assert default.needs(Tensor(np.ones(2), default))
    assert inputs_only.needs(Tensor(np.ones(2), inputs_only))
    assert not inputs_only.needs(Tensor(np.ones(2), default))


def test_emit_without_a_tape_builds_no_vjp():
    def vjp_of(needs):
        raise AssertionError("vjp_of called without a tape")

    out = emit("probe", np.ones(2), (Tensor(np.ones(2)), None), vjp_of)
    assert out.tape is None
    np.testing.assert_array_equal(out.data, np.ones(2))


def test_emit_passes_one_needs_flag_per_input():
    for tape, expected in ((GradTape(params=False), (True, False)), (GradTape(), (True, True))):
        seen = []

        def vjp_of(needs):
            seen.append(needs)
            return lambda cot: (cot, cot)

        x, param = Tensor(np.ones(2), tape), Tensor(np.ones(2))
        out = emit("probe", np.ones(2), (x, param), vjp_of)
        assert out.tape is tape and tape.node_names() == ["probe"]
        assert seen == [expected]


def test_input_only_replay_drops_untaped_leaves():
    """``add`` returns a cotangent for both operands; the input-only tape
    keeps the taped one's only."""
    for keep_params in (True, False):
        tape = GradTape(params=keep_params)
        x, const = Tensor(np.ones((2, 2)), tape), Tensor(np.ones((2, 2)))
        grads = tape.gradients(ops.mean_all(ops.add(x, const)), 1.0)
        assert grad_of(grads, x) is not None
        assert (grad_of(grads, const) is not None) == keep_params
        assert len(grads) == 1 + keep_params


def input_only_matches_default(fn, x0, cotangent, params):
    """Run ``fn`` on a taped copy of ``x0`` on both kinds of tape; the
    input-only tape returns the input's gradient alone, with the default
    tape's bytes, and no entry for any of ``params``."""
    results = []
    for keep_params in (True, False):
        tape = GradTape(params=keep_params)
        x = Tensor(x0, tape)
        grads = tape.gradients(fn(x), cotangent)
        results.append((x, grads))
    (x_all, all_grads), (x_in, in_grads) = results
    param_uids = {t.uid for t in params}
    assert param_uids & set(all_grads)  # the default tape did reach parameters
    assert set(in_grads) == {x_in.uid}
    g, ref = in_grads[x_in.uid], all_grads[x_all.uid]
    assert g.dtype == ref.dtype and g.tobytes() == ref.tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_input_only_tape_on_the_tiny_erf_stack_eval_mode(depth):
    """The ERF probe's one-voxel backprop: sparse cotangents through every
    conv width of the tiny backbone (16 to 128 channels)."""
    cfg = preset("tiny")
    store = init_network(cfg)
    net = SfmNet(cfg, store)
    rng = np.random.default_rng(21)
    pts = np.concatenate((rng.uniform(-3, 3, (1500, 3)), rng.uniform(0, 1, (1500, 1))), axis=1)
    scene = voxelize_vfe(PointCloud(pts), cfg.voxelizer, net.vfe_w, net.vfe_b)

    def stack(x):
        t = net.backbone3d(scene.with_features(x), bn_mode="eval", depth=depth)
        return ops.row_l2(t.features, 0)

    params = [store.tensor(name) for name in store.param_names()]
    input_only_matches_default(stack, scene.features.data, np.float32(1.0), params)


def test_input_only_tape_on_an_sfm_block_and_srb_train_mode():
    cfg = preset("tiny")
    stage = 1  # one mixer block, then one residual block
    net = SfmNet(cfg, init_network(cfg))
    assert [type(b) for b in net.stages[stage]] == [SfmBlockParams, SrbParams]
    rng = np.random.default_rng(22)
    scene = random_sparse(rng, (7, 7, 7), 0.3, cfg.stages[stage].channels)

    def stack(x):
        t = run_stage(scene.with_features(x), cfg.stages[stage], net.stages[stage])
        return t.features

    cot = rng.standard_normal(stack(scene.features).data.shape).astype(np.float32)
    params = [net.store.tensor(n) for n in net.store.param_names() if n.startswith("stage2.")]
    input_only_matches_default(stack, scene.features.data, cot, params)


def test_input_only_tape_holds_less_after_the_forward():
    """relu -> linear -> eval batch norm -> submanifold conv: the default
    tape keeps the linear's input, the batch norm's xhat and the conv's
    input for parameter gradients; the input-only tape keeps none."""
    rng = np.random.default_rng(23)
    scene = random_sparse(rng, (12, 12, 12), 0.4, 16)
    w = Tensor(rng.standard_normal((16, 16)).astype(np.float32))
    b = Tensor(np.zeros(16, dtype=np.float32))
    gain, shift = Tensor(np.ones(16, dtype=np.float32)), Tensor(np.zeros(16, dtype=np.float32))
    mean, var = np.zeros(16, dtype=np.float32), np.ones(16, dtype=np.float32)
    conv = SparseConvLayer(
        KernelSpec.same(3, 1, dims=3),
        Tensor(rng.standard_normal((27, 16, 16)).astype(np.float32)),
    )
    subm_conv(scene, conv)  # builds the cached rulebook outside the measurement
    held = {}
    for keep_params in (True, False):
        tracemalloc.start()
        try:
            tape = GradTape(params=keep_params)
            x = Tensor(scene.features.data, tape)
            h = ops.linear(ops.relu(x), w, b)
            h, _, _ = ops.batch_norm_active(h, gain, shift, mean, var, mode="eval")
            out = subm_conv(scene.with_features(h), conv).features
            del h
            held[keep_params] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        grads = tape.gradients(out, np.ones_like(out.data))
        assert grad_of(grads, x) is not None
    assert held[True] - held[False] >= 3 * scene.features.data.nbytes
