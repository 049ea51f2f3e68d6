"""The scripts under scripts/ run to the end on the current package.

Each runs in a subprocess with src/ on PYTHONPATH, as a user runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_growth_study_prints_both_tables(tmp_path):
    out = run_script("growth_study.py", "--steps", "4", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "== split4 under log(3X)/X" in lines and "== split4 under X^(-1/2)" in lines
    # one row per point, numbered 1..4, under each header
    assert [line.split()[0] for line in lines if line[:3].strip().isdigit()] == ["1", "2", "3", "4"] * 2


def test_make_traces_writes_and_audits_every_run(tmp_path):
    out = run_script("make_traces.py", "--outdir", str(tmp_path / "out"), cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    names = ("split4_log3x", "split4_pow", "grassmann42_log3x", "grassmann42_pow",
             "prodforms23_log3x", "prodforms23_pow")
    for name in names:
        trace = json.loads((tmp_path / "out" / f"{name}.json").read_text())
        assert trace["partial"] == name.endswith("log3x")
        assert json.loads((tmp_path / "out" / f"{name}.audit.json").read_text())["all_pass"]
    assert out.stdout.count("verify exit 0") == len(names)
