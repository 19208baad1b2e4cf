"""Smoke runs of the experiment scripts, as subprocesses from the repo root."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, f"scripts/{script}", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_needle_race_prints_model_table():
    out = _run("needle_race.py", "--width", "4", "--depth", "50", "--samples", "8",
               "--races", "3", "--workers", "1,2")
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if "model E[min]" in line)
    assert lines[header].split() == ["N", "model", "E[min]", "model", "speedup", "race", "median",
                                     "race", "speedup"]
    assert [line.split()[0] for line in lines[header + 1:]] == ["1", "2"]


def test_random_sweep_prints_table_and_writes_csvs(tmp_path):
    rec, agg = tmp_path / "records.csv", tmp_path / "agg.csv"
    out = _run("random_sweep.py", "--sizes", "30", "--probs", "0.2", "--graphs-per-cell", "1",
               "--workers", "1,2", "--repeats", "1", "-o", str(rec), "--aggregate", str(agg))
    lines = out.splitlines()
    header = lines.index(next(line for line in lines if line.startswith("input ")))
    assert lines[header].split() == ["input", "alg", "N", "mean", "wall", "s", "speedup"]
    assert len(lines) - header - 1 == 10  # 1 input x (4 parallel algs x 2 + ndfs + owcty)
    assert rec.read_text().startswith("input,alg,workers,")
    assert agg.read_text().startswith("input,alg,workers,runs,mean_wall_s,speedup")
