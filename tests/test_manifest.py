"""The committed byte-identity manifest (``tests/manifest.py``).

Index arithmetic is pinned on every machine.  The float artifacts depend
on the BLAS kernel, so the cheap ones are compared only on the kernel and
numpy version the manifest was recorded with; elsewhere the test skips
and names both.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import manifest

COMMITTED = json.loads((Path(__file__).parent / "manifest.json").read_text(encoding="utf-8"))


def test_index_artifacts_match_on_every_machine():
    assert manifest.exact_artifacts() == COMMITTED["exact"]


def test_cheap_float_artifacts_match_on_the_recorded_kernel():
    here = (manifest.blas_core(), np.__version__)
    if here != (COMMITTED["blas_core"], COMMITTED["numpy"]):
        pytest.skip(f"BLAS core {here[0]} with numpy {here[1]}; the manifest was recorded "
                    f"on {COMMITTED['blas_core']} with numpy {COMMITTED['numpy']}")
    got = manifest.cli_artifacts(cheap_only=True)
    assert {name.split(".")[1] for name in got} == {"voxelize", "forward", "erf"}
    assert got == {name: COMMITTED["float"].get(name) for name in got}


def test_compare_lists_each_differing_artifact(tmp_path, capsys):
    a = {"blas_core": "X", "numpy": "1", "exact": {"e": "0"}, "float": {"f": "1", "g": "2"}}
    b = {"blas_core": "X", "numpy": "1", "exact": {"e": "0"}, "float": {"f": "9", "h": "2"}}
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(doc))
    assert manifest.main(["--compare", paths[0], paths[0]]) == 0
    assert capsys.readouterr().out == "no artifact differs\n0 of 3 artifacts differ\n"
    assert manifest.main(["--compare", *paths]) == 1
    assert capsys.readouterr().out == (
        "differs: f\nonly in A: g\nonly in B: h\n3 of 4 artifacts differ\n")
