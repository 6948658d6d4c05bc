import json
import struct
import warnings

import numpy as np
import pytest

from focalvox.backbone import SfmNet, init_network, preset
from focalvox.cli import main
from focalvox.config import (
    config_from_json,
    config_to_json,
    load_config,
    save_config,
)
from focalvox.errors import (
    BadMagic,
    ConfigError,
    EmptyScene,
    InvalidSpec,
    ParseError,
    ShapeMismatch,
    TruncatedPayload,
    VersionMismatch,
)
from focalvox.params import ParamStore
from focalvox.points import (
    PointCloud,
    VoxelizerConfig,
    load_points,
    voxelize_raw,
    voxelize_vfe,
    write_bin,
)
from focalvox.tape import Tensor
from focalvox.weights import load_weights, parse_weights, save_weights, serialize_weights
from helpers import rel_err


class TestLoadPoints:
    def test_csv_intensity_default(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1.0,2.0,3.0\n")
        cloud = load_points(path, "csv")
        assert len(cloud) == 1
        np.testing.assert_array_equal(cloud.points[0], [1.0, 2.0, 3.0, 0.0])

    def test_csv_header_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y,z,intensity\n1,2,3,0.5\n")
        cloud = load_points(path, "csv")
        assert len(cloud) == 1
        assert cloud.points[0, 3] == 0.5

    def test_csv_nan_rejected_with_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1,2,3\nnan,2,3\n")
        with pytest.raises(ParseError) as err:
            load_points(path, "csv")
        assert err.value.row == 2

    def test_bin_single_quadruple(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.25))
        cloud = load_points(path, "bin")
        assert len(cloud) == 1
        np.testing.assert_allclose(cloud.points[0], [1.0, 2.0, 3.0, 0.25])

    def test_bin_bad_length(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(ParseError):
            load_points(path, "bin")

    def test_bin_nan_rejected_with_row(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(
            struct.pack("<4f", 1.0, 2.0, 3.0, 0.0)
            + struct.pack("<4f", float("nan"), 0.0, 0.0, 0.0)
        )
        with pytest.raises(ParseError) as err:
            load_points(path, "bin")
        assert err.value.row == 2

    def test_bin_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 4)).astype(np.float32)
        path = tmp_path / "r.bin"
        write_bin(pts, path)
        cloud = load_points(path, "bin")
        np.testing.assert_array_equal(cloud.points.astype(np.float32), pts)


class TestVoxelize:
    def cfg(self):
        return preset("tiny").voxelizer

    def test_centered_point(self):
        # dead center of voxel (32, 32, 16) for range start -3.2 and sizes (0.1, 0.1, 0.2)
        cloud = PointCloud(np.array([[0.05, 0.05, 0.1, 0.0]]))
        pre, coords = voxelize_raw(cloud, self.cfg())
        assert coords.tolist() == [[0, 32, 32, 16]]
        np.testing.assert_allclose(pre[0], [0.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_two_points_mean(self):
        cloud = PointCloud(np.array([[0.05, 0.05, 0.1, 0.0], [0.05, 0.05, 0.1, 1.0]]))
        pre, coords = voxelize_raw(cloud, self.cfg())
        assert coords.shape[0] == 1
        assert pre[0, 3] == 0.5

    def test_random_against_binning_oracle(self):
        rng = np.random.default_rng(1)
        pts = np.concatenate(
            (rng.uniform(-3.2, 3.2, (1000, 3)), rng.uniform(0, 1, (1000, 1))), axis=1
        )
        cfg = self.cfg()
        pre, coords = voxelize_raw(PointCloud(pts), cfg)
        # brute-force hash binning
        bins = {}
        lo = np.asarray(cfg.range_min)
        size = np.asarray(cfg.voxel_size)
        grid = cfg.grid_shape
        for p in pts:
            idx = tuple(int(v) for v in np.floor((p[:3] - lo) / size))
            if any(i < 0 or i >= g for i, g in zip(idx, grid)):
                continue
            center = lo + (np.asarray(idx) + 0.5) * size
            bins.setdefault(idx, []).append(np.concatenate((p[:3] - center, p[3:])))
        assert coords.shape[0] == len(bins)
        for row, c in enumerate(coords):
            key = tuple(int(v) for v in c[1:])
            expected = np.mean(bins[key], axis=0)
            assert rel_err(pre[row], expected) < 1e-12

    def test_sorted_and_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pts = np.concatenate(
            (rng.uniform(-3, 3, (300, 3)), rng.uniform(0, 1, (300, 1))), axis=1
        )
        cfg = self.cfg()
        pre1, coords1 = voxelize_raw(PointCloud(pts), cfg)
        pre2, coords2 = voxelize_raw(PointCloud(pts[rng.permutation(300)]), cfg)
        assert pre1.tobytes() == pre2.tobytes()
        assert coords1.tobytes() == coords2.tobytes()
        keys = [tuple(c) for c in coords1]
        assert keys == sorted(keys)

    def test_grid_beyond_int64_keys_rejected(self):
        # its keys would wrap: voxels (0, 0, 0) and (184467, 4407370, 9551616) would share key 0
        with pytest.raises(InvalidSpec, match=r"hold 1000000000000000000000 cells"):
            VoxelizerConfig((1e-6,) * 3, (0,) * 3, (10,) * 3)

    def test_out_of_range_dropped_and_empty_raises(self):
        cfg = self.cfg()
        with pytest.raises(EmptyScene):
            voxelize_raw(PointCloud(np.array([[50.0, 0.0, 0.0, 0.0]])), cfg)

    def test_points_beyond_int64_cells_dropped_without_a_warning(self):
        """Their cell index overflows int64, so it is never cast."""
        near = [0.05, 0.05, 0.1, 0.0]
        for far in ([1e20, 0.0, 0.0, 0.0], [0.0, -1e300, 0.0, 0.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pre, coords = voxelize_raw(PointCloud(np.array([far, near])), self.cfg())
            assert coords.tolist() == [[0, 32, 32, 16]]
            assert pre.shape == (1, 4)

    def test_vfe_projection_applies_relu(self):
        rng = np.random.default_rng(3)
        cfg = self.cfg()
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0, 0.5]]))
        w = Tensor(rng.standard_normal((4, 16)).astype(np.float32))
        b = Tensor(rng.standard_normal(16).astype(np.float32))
        t = voxelize_vfe(cloud, cfg, w, b)
        assert (t.features.data >= 0).all()
        assert t.channels == 16


# a one-tensor container whose header declares dims (2**32 - 1, 2**32 - 1)
OVERSIZED_HEADER = (b"SFMW" + struct.pack("<IIH", 1, 1, 10) + b"vfe.weight"
                    + struct.pack("<B2I", 2, 2**32 - 1, 2**32 - 1))


class TestWeightsContainer:
    def test_empty_store_is_twelve_bytes(self):
        blob = serialize_weights(ParamStore())
        assert len(blob) == 12
        assert blob == b"SFMW" + struct.pack("<II", 1, 0)
        assert parse_weights(blob) == []

    def test_single_tensor_layout(self):
        store = ParamStore()
        store.add("a", np.arange(4, dtype=np.float32).reshape(2, 2))
        blob = serialize_weights(store)
        # magic+version+count | name_len + "a" + rank + 2 dims | 16-byte payload
        assert len(blob) == 12 + (2 + 1 + 1 + 8) + 16
        records = parse_weights(blob)
        assert records[0][0] == "a"
        assert records[0][1] == (2, 2)
        np.testing.assert_array_equal(
            records[0][2], np.arange(4, dtype=np.float32).reshape(2, 2)
        )

    def test_roundtrip_bitwise(self, tmp_path):
        cfg = preset("tiny")
        store = init_network(cfg)
        path = tmp_path / "w.sfmw"
        save_weights(store, path)
        reloaded = load_weights(path, init_network(cfg, seed=4242))
        for name in store.names():
            assert store.data(name).tobytes() == reloaded.data(name).tobytes()
        assert serialize_weights(reloaded) == serialize_weights(store)

    def test_truncated_payload(self, tmp_path):
        store = ParamStore()
        store.add("a", np.ones((2, 2), dtype=np.float32))
        blob = serialize_weights(store)
        path = tmp_path / "t.sfmw"
        path.write_bytes(blob[:-4])
        with pytest.raises(TruncatedPayload):
            load_weights(path, store)

    def test_header_larger_than_the_file_is_truncated_payload(self):
        """(2**32 - 1)**2 floats: an int64 count wraps to a negative size."""
        with pytest.raises(TruncatedPayload, match=r"^file ends inside payload of vfe\.weight$"):
            parse_weights(OVERSIZED_HEADER)

    def test_bad_magic_and_version(self, tmp_path):
        store = ParamStore()
        blob = serialize_weights(store)
        path = tmp_path / "m.sfmw"
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(BadMagic):
            load_weights(path, store)
        path.write_bytes(b"SFMW" + struct.pack("<II", 9, 0))
        with pytest.raises(VersionMismatch):
            load_weights(path, store)

    def test_name_mismatch_rejected(self, tmp_path):
        donor = ParamStore()
        donor.add("a", np.ones(2, dtype=np.float32))
        path = tmp_path / "n.sfmw"
        save_weights(donor, path)
        expected = ParamStore()
        expected.add("b", np.ones(2, dtype=np.float32))
        with pytest.raises(ShapeMismatch):
            load_weights(path, expected)

    def test_shape_mismatch_rejected(self, tmp_path):
        donor = ParamStore()
        donor.add("a", np.ones(2, dtype=np.float32))
        path = tmp_path / "s.sfmw"
        save_weights(donor, path)
        expected = ParamStore()
        expected.add("a", np.ones(3, dtype=np.float32))
        with pytest.raises(ShapeMismatch):
            load_weights(path, expected)


def tiny_config_with(path: tuple, value) -> str:
    """The tiny preset's config JSON with ``value`` set at ``path``."""
    doc = json.loads(config_to_json(preset("tiny")))
    obj = doc
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value
    return json.dumps(doc)


# a value of the wrong JSON type, or one its config object rejects, and
# the start of the error, which names where it is
BAD_VALUES = [
    (("stages", 2, "channels"), 32.9, r"stages\[2\]: channels must be an integer"),
    (("stages", 1, "channels"), 0, r"stages\[1\]: channels must be at least 1, got 0"),
    (("stages", 1, "n_sfm"), 1.7, r"stages\[1\]: n_sfm must be an integer"),
    (("stages", 1, "n_sfm"), "1", r"stages\[1\]: n_sfm must be an integer"),
    (("stages", 1, "mlp_ratio"), "2", r"stages\[1\]: mlp_ratio must be a finite number"),
    (("stages", 1, "mlp_ratio"), 10**400, r"stages\[1\]: mlp_ratio must be a finite number"),
    (("seed",), True, r"config: seed must be an integer"),
    (("seed",), -1, r"config: seed must be non-negative, got -1$"),
    (("stages", 1, "mlp_ratio"), 1e308,
     r"stages\[1\]: mlp_ratio \* channels must be a positive integer, got inf$"),
    (("stages", 1, "channels"), 10**400,
     r"stages\[1\]: mlp_ratio \* channels must be a positive integer, got inf$"),
    (("stages", 1, "dilations"), "13", r"stages\[1\]: dilations must be an array"),
    (("backbone2d", "kernels"), [3, True], r"backbone2d: kernels\[1\] must be an integer"),
    (("stages", 2, "kernels"), [3, 4], r"stages\[2\]: kernel sizes must be odd"),
    (("stages", 0, "n_srb"), -1, r"stages\[0\]: block counts must be non-negative"),
    (("voxelizer", "voxel_size"), [0.1, 0.1], r"voxelizer: .* three values"),
    (("voxelizer", "voxel_size"), [1e-6] * 3, r"voxelizer: 1 batch\(es\) .* cells, more than int64"),
    (("voxelizer", "voxel_size"), [0.1, 0.1, 1e-320],
     r"voxelizer: range \(-3\.2, 3\.2\) over voxel size 1e-320 "
     r"gives a cell count beyond float range$"),
    (("voxelizer", "range_min"), [-1e308, -3.2, -3.2],
     r"voxelizer: range \(-1e\+308, 3\.2\) over voxel size 0\.1 "
     r"gives a cell count beyond float range$"),
]


class TestConfigFile:
    def test_roundtrip_byte_identical(self, tmp_path):
        cfg = preset("tiny")
        text = config_to_json(cfg)
        again = config_to_json(config_from_json(text))
        assert text == again
        path = tmp_path / "c.json"
        save_config(cfg, path)
        assert config_to_json(load_config(path)) == text

    @pytest.mark.parametrize("path, value", [
        (("surprise",), 1),
        # the VFE, downsample and BEV widths follow the stages: no keys of their own
        (("voxelizer", "out_channels"), 16),
        (("downsample_channels",), [32, 64, 128]),
        (("bev",), {"channels": 128}),
    ], ids=["surprise", "voxelizer.out_channels", "downsample_channels", "bev"])
    def test_unknown_key_rejected(self, path, value):
        with pytest.raises(ConfigError, match=rf"unknown keys \['{path[-1]}'\]"):
            config_from_json(tiny_config_with(path, value))

    @pytest.mark.parametrize("path, value, message", BAD_VALUES, ids=[
        ".".join(map(str, path)) + "=" + json.dumps(value)[:16] for path, value, _ in BAD_VALUES
    ])
    def test_bad_value_rejected_with_location(self, path, value, message):
        with pytest.raises(ConfigError, match=message):
            config_from_json(tiny_config_with(path, value))

    def test_unknown_nested_key_rejected(self):
        doc = json.loads(config_to_json(preset("tiny")))
        doc["stages"][0]["padding"] = 1
        with pytest.raises(ConfigError):
            config_from_json(json.dumps(doc))

    def test_missing_key_rejected(self):
        doc = json.loads(config_to_json(preset("tiny")))
        del doc["seed"]
        with pytest.raises(ConfigError):
            config_from_json(json.dumps(doc))

    def test_wrong_stage_count_rejected(self):
        doc = json.loads(config_to_json(preset("tiny")))
        doc["stages"] = doc["stages"][:3]
        with pytest.raises(ConfigError):
            config_from_json(json.dumps(doc))

    @pytest.mark.parametrize("raw", [b"\xff{}", b'{"seed": ' + b"1" * 5000 + b"}"],
                             ids=["not-utf8", "5000-digit-integer"])
    def test_unreadable_file_rejected(self, tmp_path, raw):
        path = tmp_path / "c.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError):
            load_config(path)


@pytest.fixture
def scene_files(tmp_path):
    rng = np.random.default_rng(5)
    pts = np.concatenate(
        (
            rng.uniform(-3, 3, (400, 2)),
            rng.uniform(-3, 3, (400, 1)),
            rng.uniform(0, 1, (400, 1)),
        ),
        axis=1,
    )
    points_path = tmp_path / "scene.csv"
    lines = [",".join(repr(float(v)) for v in p) for p in pts]
    points_path.write_text("\n".join(lines) + "\n")
    config_path = tmp_path / "net.json"
    save_config(preset("tiny"), config_path)
    return points_path, config_path


# numbers that fail to parse, and negative seeds (numpy rejects them)
BAD_NUMBERS = [
    (["bench", "--mixer", "sfm", "--n-list", "100,x"], "--n-list"),
    (["bench", "--mixer", "sfm", "--n-list", "100", "--kernels", "3,y"], "--kernels"),
    (["bench", "--mixer", "sfm", "--n-list", "100", "--dilations", "1,y"], "--dilations"),
    (["bench", "--mixer", "sfm", "--n-list", "100", "--seed", "-1"], "--seed"),
    (["erf", "--points", "p.csv", "--config", "c.json", "--init-seed", "1",
      "--query", "1,2,q", "--out-pgm", "e.pgm"], "--query"),
    (["erf", "--points", "p.csv", "--config", "c.json", "--init-seed", "1",
      "--seed", "-7", "--out-pgm", "e.pgm"], "--seed"),
    (["erf", "--points", "p.csv", "--config", "c.json", "--init-seed", "-1",
      "--seed", "7", "--out-pgm", "e.pgm"], "--init-seed"),
    (["forward", "--points", "p.csv", "--config", "c.json", "--init-seed", "-3",
      "--dump", "d.csv"], "--init-seed"),
    (["gradcheck", "--seed", "-1"], "--seed"),
    (["gradcheck", "--seed", "x"], "--seed"),
]


class TestCli:
    def test_selftest_exit_zero(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_voxelize_deterministic(self, scene_files, tmp_path, capsys):
        points, config = scene_files
        out1 = tmp_path / "v1.csv"
        out2 = tmp_path / "v2.csv"
        assert main(["voxelize", "--points", str(points), "--config", str(config),
                     "--out", str(out1)]) == 0
        assert main(["voxelize", "--points", str(points), "--config", str(config),
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("b,x,y,z,f0")

    def test_voxelize_uses_the_network_vfe_weights(self, scene_files, tmp_path):
        points, config = scene_files
        out = tmp_path / "v.csv"
        assert main(["voxelize", "--points", str(points), "--config", str(config),
                     "--out", str(out)]) == 0
        cfg = load_config(config)
        net = SfmNet(cfg, init_network(cfg))
        t = voxelize_vfe(load_points(points), cfg.voxelizer, net.vfe_w, net.vfe_b)
        lines = ["b,x,y,z," + ",".join(f"f{i}" for i in range(t.channels))]
        for c, f in zip(t.coords, t.features.data):
            lines.append(",".join([*(str(int(v)) for v in c), *(repr(float(v)) for v in f)]))
        assert out.read_text() == "\n".join(lines) + "\n"

    def test_forward_with_seeded_weights(self, scene_files, tmp_path):
        points, config = scene_files
        dump = tmp_path / "fwd.csv"
        code = main(["forward", "--points", str(points), "--config", str(config),
                     "--init-seed", "3", "--dump", str(dump)])
        assert code == 0
        body = dump.read_text().splitlines()
        assert body[0].startswith("b,x,y,f0")
        assert body[0].endswith("logit0,logit1,logit2")
        assert len(body) > 1

    def test_forward_weights_file_matches_seed(self, scene_files, tmp_path):
        points, config = scene_files
        cfg = load_config(config)
        store = init_network(cfg, seed=3)
        wpath = tmp_path / "w.sfmw"
        save_weights(store, wpath)
        d1, d2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["forward", "--points", str(points), "--config", str(config),
                     "--init-seed", "3", "--dump", str(d1)]) == 0
        assert main(["forward", "--points", str(points), "--config", str(config),
                     "--weights", str(wpath), "--dump", str(d2)]) == 0
        assert d1.read_bytes() == d2.read_bytes()

    @pytest.mark.parametrize("name", ["probe.weight", "stage1.srb0.conv1.weight"])
    def test_forward_rejects_non_finite_weights(self, scene_files, tmp_path, capsys, name):
        points, config = scene_files
        store = init_network(load_config(config), seed=3)
        store.data(name).flat[0] = np.nan  # written as-is; the loader must catch it
        wpath = tmp_path / "w.sfmw"
        save_weights(store, wpath)
        dump = tmp_path / "fwd.csv"
        assert main(["forward", "--points", str(points), "--config", str(config),
                     "--weights", str(wpath), "--dump", str(dump)]) == 1
        assert name in capsys.readouterr().err
        assert not dump.exists()

    def test_forward_oversized_weights_header_exit_one(self, scene_files, tmp_path, capsys):
        points, config = scene_files
        wpath = tmp_path / "w.sfmw"
        wpath.write_bytes(OVERSIZED_HEADER)
        dump = tmp_path / "fwd.csv"
        assert main(["forward", "--points", str(points), "--config", str(config),
                     "--weights", str(wpath), "--dump", str(dump)]) == 1
        assert capsys.readouterr() == ("", "error: file ends inside payload of vfe.weight\n")
        assert not dump.exists()

    def test_voxelize_far_point_prints_nothing(self, scene_files, tmp_path, capsys):
        points, config = scene_files
        with open(points, "a") as fh:
            fh.write("1e20,0,0,0\n")
        out = tmp_path / "v.csv"
        assert main(["voxelize", "--points", str(points), "--config", str(config),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.exists()

    def test_erf_inactive_query_exit_one(self, scene_files, tmp_path, capsys):
        points, config = scene_files
        code = main(["erf", "--points", str(points), "--config", str(config),
                     "--init-seed", "1", "--query", "63,63,31",
                     "--out-pgm", str(tmp_path / "e.pgm")])
        assert code == 1
        assert "63, 63, 31" in capsys.readouterr().err

    def test_erf_query_runs_the_stack_once(self, scene_files, tmp_path, capsys, monkeypatch):
        points, config = scene_files
        calls = []
        backbone3d = SfmNet.backbone3d

        def counted(net, *args, **kwargs):
            calls.append(1)
            return backbone3d(net, *args, **kwargs)

        monkeypatch.setattr(SfmNet, "backbone3d", counted)
        common = ["erf", "--points", str(points), "--config", str(config),
                  "--init-seed", "1", "--stage", "2", "--out-pgm", str(tmp_path / "e.pgm")]
        assert main([*common, "--seed", "7"]) == 0
        assert len(calls) == 2  # the seeded draw needs the output's active count
        query = capsys.readouterr().out.split("(")[1].split(")")[0].split(", ")[1:]
        calls.clear()
        assert main([*common, "--query", ",".join(query)]) == 0
        assert len(calls) == 1

    def test_erf_seeded_probe_writes_files(self, scene_files, tmp_path):
        points, config = scene_files
        pgm = tmp_path / "e.pgm"
        csv = tmp_path / "e.csv"
        code = main(["erf", "--points", str(points), "--config", str(config),
                     "--init-seed", "1", "--seed", "7",
                     "--out-pgm", str(pgm), "--out-csv", str(csv)])
        assert code == 0
        assert pgm.read_bytes().startswith(b"P5\n64 64\n255\n")
        assert csv.read_text().splitlines()[0] == "x,y,z,magnitude"

    def test_erf_deterministic(self, scene_files, tmp_path):
        points, config = scene_files
        payloads = []
        for name in ("p1.pgm", "p2.pgm"):
            path = tmp_path / name
            assert main(["erf", "--points", str(points), "--config", str(config),
                         "--init-seed", "1", "--seed", "7",
                         "--out-pgm", str(path)]) == 0
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_bench_report_jsonl(self, tmp_path):
        report = tmp_path / "bench.jsonl"
        code = main(["bench", "--mixer", "sfm",
                     "--n-list", "1000,2000,4000,8000", "--report", str(report)])
        assert code == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 5
        runs = [json.loads(l) for l in lines[:-1]]
        assert all(r["kind"] == "sfm" for r in runs)
        summary = json.loads(lines[-1])
        assert "slope" in summary

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--module", "conv"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_points_file_exit_two(self, scene_files, tmp_path):
        _, config = scene_files
        code = main(["voxelize", "--points", str(tmp_path / "nope.csv"),
                     "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_usage_error_exit_one(self, capsys):
        assert main(["voxelize"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", BAD_NUMBERS, ids=[
        f"{argv[0]} {flag}={argv[argv.index(flag) + 1]}" for argv, flag in BAD_NUMBERS
    ])
    def test_bad_number_is_a_usage_error_naming_the_flag(self, capsys, argv, flag):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"usage error: argument {flag}: ")

    @pytest.mark.parametrize("flag, value", [
        ("--n-list", "-3,5"), ("--kernels", "-3,3"), ("--dilations", "-1,3"),
        ("--query", "-1,2,3"),
    ])
    def test_negative_list_value_after_a_space(self, scene_files, tmp_path, capsys,
                                               flag, value):
        points, config = scene_files
        if flag == "--query":
            argv = ["erf", "--points", str(points), "--config", str(config),
                    "--init-seed", "1", "--out-pgm", str(tmp_path / "e.pgm")]
        else:
            argv = ["bench", "--mixer", "sfm"] + (["--n-list", "100,200"] * (flag != "--n-list"))
        assert main([*argv, f"{flag}={value}"]) == 1
        joined = capsys.readouterr()
        assert main([*argv, flag, value]) == 1
        assert capsys.readouterr() == joined
        assert joined.out == "" and joined.err.startswith("error: ")
        if flag == "--n-list":
            assert joined.err == "error: voxel counts must be at least 1, got -3\n"

    def test_voxelizer_grid_beyond_int64_keys_exit_one(self, scene_files, tmp_path, capsys):
        points, _ = scene_files
        config = tmp_path / "huge.json"
        config.write_text(tiny_config_with(("voxelizer",), {
            "voxel_size": [1e-6] * 3, "range_min": [0.0] * 3, "range_max": [10.0] * 3}))
        argv = ["voxelize", "--points", str(points), "--config", str(config),
                "--out", str(tmp_path / "v.csv")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: voxelizer: 1 batch(es) of a (10000000, 10000000, 10000000) grid "
                       "hold 1000000000000000000000 cells, more than int64 keys can address (2**63)\n")
        assert not (tmp_path / "v.csv").exists()

    # a config the file format accepts but no network can be built from:
    # 10**30 channels exceed numpy's largest dimension, so nothing is allocated
    @pytest.mark.parametrize("path, value, message", [
        (("seed",), -1, "config: seed must be non-negative, got -1"),
        (("stages", 1, "mlp_ratio"), 1e308,
         "stages[1]: mlp_ratio * channels must be a positive integer, got inf"),
        (("stages", 0, "channels"), 10**30,
         f"vfe.weight: cannot allocate shape (4, {10**30})"),
        (("voxelizer", "voxel_size"), [0.1, 0.1, 1e-320],
         "voxelizer: range (-3.2, 3.2) over voxel size 1e-320 gives a cell count beyond float range"),
    ], ids=["negative-seed", "infinite-mlp-width", "channels-beyond-numpy",
            "voxel-count-beyond-float"])
    @pytest.mark.parametrize("command", ["voxelize", "forward"])
    def test_unbuildable_config_exit_one(self, scene_files, tmp_path, capsys,
                                         command, path, value, message):
        points, _ = scene_files
        config = tmp_path / "bad.json"
        config.write_text(tiny_config_with(path, value))
        out = tmp_path / "out.csv"
        argv = [command, "--points", str(points), "--config", str(config)]
        argv += ["--out", str(out)] if command == "voxelize" else [
            "--init-seed", "0", "--dump", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_unknown_subcommand_exit_one(self):
        assert main(["explode"]) == 1
