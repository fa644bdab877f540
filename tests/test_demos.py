"""Smoke test: every demo runs in-process and writes the files it names."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
MORPH_FRAMES = {f"morph/frame_{k:03d}.{ext}" for k in range(9) for ext in ("json", "svg")}
WRITES = {
    "01_mesh_basics.py": set(),
    "02_tutte_embedding.py": {"warped_grid4.json"},
    "03_mean_value_round_trip.py": set(),
    "04_retraction_flow.py": {"retraction_trace.jsonl"},
    "05_index_certificate.py": set(),
    "06_morph.py": MORPH_FRAMES,
    "07_render.py": {"grid4_embedded.svg", "grid4_folded.svg"},
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("[0-9]*.py")) == sorted(WRITES)


@pytest.mark.parametrize("name", sorted(WRITES))
def test_demo_runs_and_writes_its_files(name, tmp_path, capsys):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    out = tmp_path / "out"
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == WRITES[name]
    assert all((out / f).stat().st_size > 0 for f in written)
