import ast
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import focalvox.bench as fbench
import focalvox.sparse as fsp
from focalvox.bench import (
    BenchReport,
    scaling_experiment,
    sfm_bytes_model,
    uniform_scene,
    window_occupancy,
)
from focalvox.cli import main
from focalvox.errors import DegenerateFit, InvalidSpec
from focalvox.sfm import SFMConfig, sfm_pair_count
from focalvox.sparse import KernelSpec, build_rulebook_submanifold
from helpers import random_sparse, sparse_from_coords, window_neighbor_rows


class TestCounting:
    def test_single_voxel_sfm_count(self):
        t = sparse_from_coords([(0, 2, 2, 2)], (5, 5, 5), 4)
        cfg = SFMConfig(channels=4, kernels=(3, 3), dilations=(1, 1))
        # two center rulebook pairs + two gate products + one modulation
        assert sfm_pair_count(t, cfg)["total"] == 5

    def test_four_mutually_visible_tokens(self):
        coords = [(0, 2, 2, 2), (0, 2, 2, 3), (0, 2, 3, 2), (0, 3, 2, 2)]
        t = sparse_from_coords(coords, (6, 6, 6), 2)
        occupancy = window_occupancy(t, 3)
        assert occupancy.tolist() == [4, 4, 4, 4]
        # query-key alone is n^2 = 16; attention-value doubles it
        assert 2 * occupancy.sum() == 32

    @pytest.mark.parametrize(
        "shape, window",
        [((7, 7, 7), 3), ((7, 7, 7), 5), ((9, 9), 3)],
        ids=["3d-w3", "3d-w5", "2d-w3"],
    )
    def test_occupancy_matches_execution_instrumentation(self, shape, window):
        rng = np.random.default_rng(5)
        t = random_sparse(rng, shape, 0.3, 2, batches=2)
        occupancy = window_occupancy(t, window)
        neighbor_lists = window_neighbor_rows(t, window)
        assert occupancy.tolist() == [len(n) for n in neighbor_lists]

    @pytest.mark.parametrize(
        "shape, window",
        [((6, 7, 5), 3), ((7, 6), 3), ((8, 9), 5)],
        ids=["3d-w3", "2d-w3", "2d-w5"],
    )
    def test_window_rows_match_brute_force_in_offset_order(self, shape, window, monkeypatch):
        """On shuffled rows in two batches, each voxel's window rows are the
        active cells at ``coords + offset``, offsets enumerated row-major
        from ``-radius``, and the window rulebook stays in the cache."""
        rng = np.random.default_rng(11)
        base = random_sparse(rng, shape, 0.35, 1, batches=2)
        coords = base.coords[rng.permutation(base.n_active)]
        t = sparse_from_coords(coords, shape, 1)
        assert (np.diff(t.coords[:, 0]) < 0).any()  # rows not in key order
        row_of = {tuple(c): i for i, c in enumerate(t.coords.tolist())}
        radius = (window - 1) // 2
        offsets = list(itertools.product(range(-radius, radius + 1), repeat=len(shape)))
        got = window_neighbor_rows(t, window)
        for (b, *ijk), rows in zip(t.coords.tolist(), got, strict=True):
            cells = ((b, *(c + o for c, o in zip(ijk, off))) for off in offsets)
            assert rows.tolist() == [row_of[c] for c in cells if c in row_of]
        spec = KernelSpec.same(window, 1, dims=len(shape))
        monkeypatch.setattr(fsp, "build_rulebook_submanifold",
                            lambda *_: pytest.fail("window rulebook not cached"))
        fsp.rulebook(t, spec)

    def test_sfm_count_bound(self):
        rng = np.random.default_rng(6)
        cfg = SFMConfig(channels=3, kernels=(3, 3), dilations=(1, 2))
        t = random_sparse(rng, (9, 9, 9), 0.25, 3)
        n = t.n_active
        total = sfm_pair_count(t, cfg)["total"]
        assert total <= n * sum(k**3 for k in cfg.kernels) + n * (cfg.levels + 1)

    @pytest.mark.parametrize("window", [4, 0, -1])
    def test_even_window_rejected(self, window):
        t = random_sparse(np.random.default_rng(4), (4, 4, 4), 0.5, 2)
        with pytest.raises(InvalidSpec, match="odd and positive"):
            window_occupancy(t, window)

    def test_counts_from_geometry_alone(self):
        """The counts read geometry only: bench imports no op, parameter
        layout or tape from the engine."""
        tree = ast.parse(Path(fbench.__file__).read_text(encoding="utf-8"))
        engine = {node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert engine == {"errors", "sfm", "sparse"}


class TestBytesModel:
    def test_rulebook_term_is_the_stored_pair_bytes(self):
        """The model charges 4 bytes per pair, what a built rulebook keeps:
        on the scene of ``test_submanifold_keeps_four_bytes_per_pair`` it
        holds 4.4 bytes per pair, 4.0 of it pair data."""
        t = random_sparse(np.random.default_rng(7), (24, 24, 24), 0.22, 1)
        spec = KernelSpec.same(3, 1, dims=3)
        tracemalloc.start()
        try:
            rb = build_rulebook_submanifold(t, spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        cfg = SFMConfig(channels=1, kernels=(3,), dilations=(1,))
        n = t.n_active
        term = sfm_bytes_model(n, cfg, rb.total_pairs) - sfm_bytes_model(n, cfg, 0)
        assert term == 4 * rb.total_pairs
        assert term <= held <= 1.25 * term


class TestUniformScene:
    def test_exact_active_count_and_determinism(self):
        a = uniform_scene(500, (12, 12, 12), seed=9)
        b = uniform_scene(500, (12, 12, 12), seed=9)
        assert a.n_active == 500
        assert a.coords.tobytes() == b.coords.tobytes()

    def test_overfull_grid_rejected(self):
        with pytest.raises(InvalidSpec):
            uniform_scene(100, (4, 4, 4), seed=0)

    def test_grid_beyond_int64_keys_rejected(self):
        with pytest.raises(InvalidSpec, match=r"hold 73786976294838206464 cells"):
            uniform_scene(1, (2**22,) * 3, seed=0)

    # 10**14 int64 keys exceed a 47-bit address space, whatever the overcommit setting
    def test_unallocatable_scene_rejected(self):
        message = "^a scene of 100000000000000 voxels cannot be allocated$"
        with pytest.raises(InvalidSpec, match=message):
            uniform_scene(10**14, (46416,) * 3, seed=0)


class TestScaling:
    def test_sfm_slope_near_linear(self):
        cfg = SFMConfig(channels=8, kernels=(3, 3), dilations=(1, 3))
        reports, slope = scaling_experiment(
            "sfm", [1000, 2000, 4000, 8000, 16000], density=0.05, seed=0, config=cfg
        )
        assert len(reports) == 5
        assert 0.9 <= slope <= 1.1

    def test_attention_slope_near_quadratic(self):
        reports, slope = scaling_experiment(
            "local-attention", [250, 500, 1000, 2000], density=0.25, seed=1,
            window_edge=5,
        )
        assert 1.8 <= slope <= 2.2

    def test_constant_n_degenerate(self):
        with pytest.raises(DegenerateFit):
            scaling_experiment("sfm", [1000, 1000, 1000], density=0.05, seed=2)

    @pytest.mark.parametrize("kind", ["sfm", "local-attention"])
    @pytest.mark.parametrize("text, bad", [("0,5", 0), ("-3,5", -3)], ids=["zero", "negative"])
    def test_count_below_one_rejected(self, kind, text, bad, capsys):
        message = f"voxel counts must be at least 1, got {bad}"
        with pytest.raises(InvalidSpec, match=f"^{message}$"):
            scaling_experiment(kind, [bad, 5], density=0.1, seed=0)
        assert main(["bench", "--mixer", kind, f"--n-list={text}"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("edge", [0, -3, 4])
    def test_window_edge_checked_before_the_grid_is_sized(self, edge, capsys):
        message = "window edge must be odd and positive"
        with pytest.raises(InvalidSpec, match=f"^{message}$"):
            scaling_experiment("local-attention", [4, 8], 0.25, seed=0, window_edge=edge)
        argv = ["bench", "--mixer", "local-attention", "--n-list", "4,8", "--window", str(edge)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    EDGE_BEYOND_FLOAT = "5 voxels at density 1e-320 need a scene edge beyond float range"

    def test_density_with_no_finite_edge_rejected(self):
        with pytest.raises(InvalidSpec, match=f"^{self.EDGE_BEYOND_FLOAT}$"):
            scaling_experiment("sfm", [5, 10], density=1e-320, seed=0)

    def test_density_with_no_finite_edge_exit_one(self, capsys):
        assert main(["bench", "--mixer", "sfm", "--n-list", "5,10", "--density", "1e-320"]) == 1
        assert capsys.readouterr() == ("", f"error: {self.EDGE_BEYOND_FLOAT}\n")

    def test_unallocatable_scene_exit_one(self, capsys):
        assert main(["bench", "--mixer", "sfm", "--n-list", "100000000000000,200000000000000",
                     "--density", "1"]) == 1
        assert capsys.readouterr() == (
            "", "error: a scene of 100000000000000 voxels cannot be allocated\n")

    # grids whose volume wraps int64: the sfm edge grows as (n / density) ** (1/3),
    # the attention grid is window * 4 voxels on a side
    @pytest.mark.parametrize("mixer, flags, shape, cells", [
        ("sfm", ["--n-list", "8,16", "--density", "1e-19"], 4308869, 79999978830804998909),
        ("local-attention", ["--n-list", "4,8", "--window", "1000001"], 4000004,
         64000192000192000064),
    ], ids=["sfm", "local-attention"])
    def test_grid_beyond_int64_keys_exit_one(self, mixer, flags, shape, cells, capsys):
        assert main(["bench", "--mixer", mixer, *flags]) == 1
        message = (f"1 batch(es) of a {(shape,) * 3} grid hold {cells} cells, "
                   "more than int64 keys can address (2**63)")
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_occupancy_table_beyond_memory_exit_one(self, capsys):
        """The grid fits int64 keys, but its dense occupancy table (455 PiB)
        lies beyond the address space, so the allocation fails at once."""
        t = uniform_scene(4, (400004,) * 3, seed=0)
        message = ("the dense occupancy table of a (400004, 400004, 400004) grid "
                   "(64001920019200064 cells) cannot be allocated")
        with pytest.raises(InvalidSpec, match=rf"^{re.escape(message)}$"):
            window_occupancy(t, 3)
        argv = ["bench", "--mixer", "local-attention", "--n-list", "4,8", "--window", "100001"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_negative_kernel_named_as_not_positive(self, capsys):
        argv = ["bench", "--mixer", "sfm", "--n-list", "100,200", "--kernels", "-3,3"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: kernel sizes must be odd and positive: (-3, 3)\n")

    def test_counts_reproducible(self):
        cfg = SFMConfig(channels=4, kernels=(3,), dilations=(1,))
        r1, s1 = scaling_experiment("sfm", [500, 1000], density=0.1, seed=3, config=cfg)
        r2, s2 = scaling_experiment("sfm", [500, 1000], density=0.1, seed=3, config=cfg)
        assert [r.interaction_pairs for r in r1] == [r.interaction_pairs for r in r2]
        assert s1 == s2

    def test_report_json_fields(self):
        report = BenchReport("sfm", 10, 9, 55, 1024, 12345)
        record = json.loads(report.to_json())
        assert set(record) == {
            "kind", "n_active", "edge_voxels", "interaction_pairs",
            "bytes_model", "wall_ns",
        }
