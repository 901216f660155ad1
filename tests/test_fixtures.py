"""The generated fixtures are exactly what ``scripts/make_fixtures.py`` writes.

The generators and the validation and verdict behind the script run the
package's normal forms, so this pins them as well as the fixture files.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def test_make_fixtures_reproduces_the_generated_fixtures(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "FIXTURES", tmp_path)
    assert module.main() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == ["generated_nonta_seed11.json", "generated_ta_seed7.json"]
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
