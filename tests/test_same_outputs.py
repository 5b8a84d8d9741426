"""``scripts/same_outputs.py`` names every output that is not byte-identical on both sides."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_differences_names_changed_missing_and_extra_files(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    sides = {"before": {"same": b"x", "changed": b"1", "only-before": b""},
             "after": {"same": b"x", "changed": b"2", "sub/only-after": b""}}
    for side, files in sides.items():
        for name, data in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_bytes(data)
    assert same_outputs.differences(tmp_path / "before", tmp_path / "after") == [
        "changed", "only-before", "sub/only-after"]
    assert same_outputs.differences(tmp_path / "before", tmp_path / "before") == []
