"""The parameter layout: each tensor is declared once, in one function per
block, and that function both creates (Initializer) and binds (ParamReader).
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from focalvox.backbone import (
    SfmNet,
    StageConfig,
    init_network,
    network_template,
    param_count,
    preset,
)
from focalvox.errors import InvalidSpec, ShapeMismatch
from focalvox.params import Initializer, ParamReader, ParamStore
from focalvox.sfm import SFMConfig, SfmBlockParams, sfm_block_params, srb_params
from focalvox.weights import serialize_weights
from helpers import closed_form_param_count

# sha256 of serialize_weights(init_network(preset(name))) before the layout
# was declared once: pins tensor names, their order, shapes and the order
# in which the seeded generator is drawn
INIT_SHA256 = {
    "tiny": "6c890860e3a920cc96b20892e4181668991a2b588db4967ee5c0dc0181213643",
    "argoverse2-like": "b19de4f1a1920b4be8601f4a45d39ad31169b7e72b40f9e999c38d18bc11cca2",
    "waymo-like": "4be6a2853c9f5d515023561ebe52e43ea01879c2fc0ef327a9e79b5b1b94ab94",
}


@pytest.mark.parametrize("name", sorted(INIT_SHA256))
def test_init_network_bytes_pinned(name):
    cfg = preset(name)
    store = init_network(cfg)
    assert hashlib.sha256(serialize_weights(store)).hexdigest() == INIT_SHA256[name]
    assert param_count(cfg) == closed_form_param_count(cfg) == store.scalar_count()


def test_network_template_declares_the_layout_without_draws():
    cfg = preset("tiny")
    store, template = init_network(cfg), network_template(cfg)
    assert template.names() == store.names()
    for name, t in store.items():
        want = np.ones if name.endswith((".gain", ".running_var")) else np.zeros
        got = template.data(name)
        assert got.dtype == t.data.dtype
        assert np.array_equal(got, want(t.data.shape, dtype=t.data.dtype)), name


@pytest.mark.parametrize("build", [init_network, network_template])
def test_tensor_beyond_numpy_named(build):
    # 10**30 channels exceed numpy's largest dimension: rejected before any allocation
    cfg = preset("tiny")
    wide = replace(cfg.stages[2], sfm=replace(cfg.stages[2].sfm, channels=10**30))
    cfg = replace(cfg, stages=(*cfg.stages[:2], wide, cfg.stages[3]))
    with pytest.raises(InvalidSpec) as err:
        build(cfg)
    assert str(err.value) == f"down2.conv.weight: cannot allocate shape (27, 32, {10**30})"


def test_bind_returns_the_stored_tensors():
    cfg = preset("tiny")
    store = init_network(cfg)
    net = SfmNet(cfg, store)
    assert net.store is store
    assert net.vfe_w is store.tensor("vfe.weight")
    assert net.downs[2].bn.running_var is store.tensor("down3.bn.running_var")
    block = net.stage2d[0]
    assert isinstance(block, SfmBlockParams)
    assert block.module.h[0] is store.tensor("backbone2d.sfm0.h.weight")


def test_bind_other_channels_names_the_tensor():
    cfg = preset("tiny")
    store = init_network(cfg)
    stage2 = replace(cfg.stages[1], sfm=replace(cfg.stages[1].sfm, channels=40))
    wider = replace(cfg, stages=(cfg.stages[0], stage2, *cfg.stages[2:]))
    with pytest.raises(ShapeMismatch, match=r"down1\.conv\.weight"):
        SfmNet(wider, store)


def test_bind_block_other_channels_names_the_tensor():
    store = ParamStore()
    srb_params(Initializer(store, 0), "s", 3, 3)
    with pytest.raises(ShapeMismatch, match=r"s\.conv1\.weight"):
        srb_params(ParamReader(store), "s", 4, 3)
    cfg = SFMConfig(channels=3, kernels=(3,), dilations=(1,))
    store = ParamStore()
    sfm_block_params(Initializer(store, 0), "b", cfg, 3)
    with pytest.raises(ShapeMismatch, match=r"b\.level1\.weight"):
        sfm_block_params(ParamReader(store), "b", cfg, 2)


def test_bind_missing_tensor_names_it():
    cfg = preset("tiny")
    full = init_network(cfg)
    store = ParamStore()
    for name, t in full.items():
        if name != "stage2.srb0.bn1.running_mean":
            store.add(name, t.data)
    with pytest.raises(ShapeMismatch, match=r"stage2\.srb0\.bn1\.running_mean"):
        SfmNet(cfg, store)


def test_stage_channels_follow_the_mixer():
    stage = StageConfig(n_sfm=1, n_srb=1,
                        sfm=SFMConfig(channels=8, kernels=(3,), dilations=(1,)))
    assert stage.channels == 8
