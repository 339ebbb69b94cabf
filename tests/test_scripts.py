"""The scripts and `python -m g2k.cli` run end to end in a fresh interpreter,
as a user starts them; one epoch is enough to reach every line they print."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert "Traceback" not in out.stderr, out.stderr
    return out


@pytest.mark.parametrize("script", ["overfit_glstm.py", "crossing_mcr.py"])
def test_memorization_script_runs_one_epoch(tmp_path, script):
    # one epoch does not reach the memorization line, so exit 1 is expected
    out = run([str(ROOT / "scripts" / script), "--epochs", "1"], tmp_path)
    assert out.returncode in (0, 1), out.stderr
    assert "memorization line" in out.stdout.splitlines()[-1]


def test_ablation_script_writes_its_table(tmp_path):
    csv = tmp_path / "ablation.csv"
    out = run([str(ROOT / "scripts" / "run_ablation.py"), "--epochs", "1",
               "--out", str(csv)], tmp_path)
    assert out.returncode in (0, 1), out.stderr
    assert out.stdout.splitlines()[-1] == f"wrote {csv}"
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "cell,ade,fde,d_ade,d_fde,status"
    assert len(lines) == 1 + 8
    assert [p.name for p in tmp_path.iterdir()] == ["ablation.csv"]


def test_module_entry_point_gradcheck(tmp_path):
    out = run(["-m", "g2k.cli", "gradcheck", "--variant", "g_lstm"], tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr


def test_mcr_mpc_without_image_warns_once_per_call(tmp_path):
    # train() warns once over all of its scenes; the gradient check, which
    # calls the model's run() directly, warns nothing
    (tmp_path / "desk.cfg").write_text(
        "hidden_size = 8\nnum_blocks = 2\nembed_pos = 4\n"
        "embed_vis = 4\nfeature_dim = 4\nzones = 4\ngrid_size = 2\n"
        "cell_channels = 4\nstatic_input_dim = 8\nstatic_hidden = 8\n"
        "obs_len = 3\npred_len = 2\nneighborhood_size = 8\nepochs = 2\n"
        "batch_size = 2\n")
    (tmp_path / "walk.cfg").write_text(
        "kind = group_walk\nn_peds = 3\nseed = 11\nobs_len = 3\npred_len = 2\n")
    out = run(["-m", "g2k.cli", "train", "--variant", "mcr_mpc",
               "--config", "desk.cfg", "--scenario", "walk.cfg", "--out", "run"], tmp_path)
    assert out.returncode == 0, out.stderr
    warned = [line for line in out.stderr.splitlines() if "UserWarning" in line]
    assert len(warned) == 1 and "using a constant fallback map" in warned[0], out.stderr
    out = run(["-m", "g2k.cli", "gradcheck", "--variant", "mcr_mpc"], tmp_path)
    assert out.returncode == 0 and out.stderr == "", out.stderr
