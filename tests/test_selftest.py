"""The verification commands: gradcheck case table, oracle suite, report lines."""

import pytest

from focalvox.cli import _report
from focalvox.selftest import GRADCHECK_MODULES, gradcheck_suite, oracle_suite

CHECKS = {
    "all": ["linear", "layer_norm", "batch_norm", "gelu", "subm_conv", "regular_conv",
            "sfm_module", "sfm_block", "srb"],
    "conv": ["subm_conv", "regular_conv"],
    "sfm": ["sfm_module"],
    "block": ["sfm_block", "srb"],
}


@pytest.mark.parametrize("module", GRADCHECK_MODULES)
def test_gradcheck_check_names_in_order(module):
    checks = gradcheck_suite(0, module, cases=1)
    assert [name for name, _, _ in checks] == [f"{name}[0]" for name in CHECKS[module]]
    assert all(ok and detail.startswith("max rel err ") for _, ok, detail in checks)


def test_gradcheck_cases_run_inside_each_group():
    names = [name for name, _, _ in gradcheck_suite(0, "block", cases=2)]
    assert names == ["sfm_block[0]", "srb[0]", "sfm_block[1]", "srb[1]"]


def test_oracle_suite_check_names_in_order():
    assert [name for name, _, _ in oracle_suite()] == [
        "erf_table", "dense_oracle", "sparsity_preserved", "downsample_law",
        "weights_roundtrip", "weights_parse", "voxelize_permutation_invariant",
        "selftest_subm_conv[0]", "selftest_regular_conv[0]",
    ]


def test_report_lines_and_exit_code(capsys):
    checks = [("a", True, ""), ("b", True, "err 1"), ("c", False, ""), ("d", False, "err 2")]
    assert _report(checks, "widget checks") == 1
    assert capsys.readouterr().out == (
        "PASS a\nPASS b: err 1\nFAIL c\nFAIL d: err 2\n2/4 widget checks passed\n"
    )
    assert _report(checks[:2], "checks") == 0
    assert capsys.readouterr().out == "PASS a\nPASS b: err 1\n2/2 checks passed\n"
