"""tools/artifact_parity.py refuses a tree it cannot import the package from."""

import pathlib

from conftest import load_tool

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_a_tree_without_the_package_exits_2_before_any_command(tmp_path, capsys):
    tool = load_tool("artifact_parity")
    assert tool.main([tmp_path, tmp_path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and str(tmp_path) in err


def test_a_checkout_root_is_not_its_src():
    tool = load_tool("artifact_parity")
    assert tool.imports_from(str(ROOT / "src"), str(ROOT / "tests"))
    assert not tool.imports_from(str(ROOT), str(ROOT / "tests"))
