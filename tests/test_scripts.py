"""Smoke runs of the experiment scripts, as subprocesses from the repo root
and from another directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, elsewhere: Path, *args: str) -> list[str]:
    # the scripts find the package next to themselves, wherever they start,
    # without help from PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    outs = []
    for cwd in (ROOT, elsewhere):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (cwd, proc.stderr)
        outs.append(proc.stdout)
    return outs


def test_needle_race_prints_model_table(tmp_path):
    for out in _run("needle_race.py", tmp_path, "--width", "4", "--depth", "50", "--samples", "8",
                    "--races", "3", "--workers", "1,2"):
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if "model E[min]" in line)
        assert lines[header].split() == ["N", "model", "E[min]", "model", "speedup", "race", "median",
                                         "race", "speedup"]
        assert [line.split()[0] for line in lines[header + 1:]] == ["1", "2"]



def test_needle_race_rejects_bad_counts_with_a_usage_error():
    for args in (["--width", "0"], ["--depth", "0"], ["--samples", "0"], ["--races", "0"], ["--workers", "0"],
                 ["--workers", "1,x"], ["--workers", ","]):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "needle_race.py"), *args],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == "" and "usage:" in proc.stderr and "Traceback" not in proc.stderr, args
