"""CLI contract: subcommands, determinism, exit codes, file formats."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hqcsim import io as hio
from hqcsim import states as st

HOM = {
    "schema": "hqc-circuit/1",
    "modes": 2,
    "prep": {"kind": "fock_pattern", "pattern": [1, 1]},
    "circuit": [
        {"type": "beamsplitter", "modes": [0, 1]},
        {"measure": "discrete", "modes": [0, 1], "name": "out"},
    ],
}


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hqcsim.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def hom_path(tmp_path):
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(HOM))
    return str(path)


@pytest.fixture
def fock2_path(tmp_path):
    s = st.from_fock_superposition({(2,): 1.0}, 1)
    path = tmp_path / "f2.json"
    hio.save_state(s, path)
    return str(path)


class TestRun:
    def test_byte_reproducible_across_workers(self, hom_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        r1 = run_cli("run", hom_path, "--shots", "200", "--seed", "7",
                     "--format", "csv", "--out", str(a))
        r2 = run_cli("run", hom_path, "--shots", "200", "--seed", "7",
                     "--format", "csv", "--workers", "4", "--out", str(b))
        assert r1.returncode == 0 and r2.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_from_environment(self, hom_path):
        r1 = run_cli("run", hom_path, "--shots", "50", "--format", "csv",
                     env_extra={"HQC_SEED": "99"})
        r2 = run_cli("run", hom_path, "--shots", "50", "--seed", "99", "--format", "csv")
        assert r1.stdout == r2.stdout

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope", "modes": 1, "circuit": []}))
        r = run_cli("run", str(bad))
        assert r.returncode == 1
        assert "error" in r.stderr


def test_import_leaves_scipy_unloaded():
    # scipy is imported where it is used; the CLI and the stellar routes run without it
    code = "import sys, hqcsim.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert r.stdout.strip() == "[]"


class TestProb:
    def test_hom_null(self, hom_path):
        r = run_cli("prob", hom_path, "--outcome", "1,1")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["probability"] <= 1e-12

    def test_bunching(self, hom_path):
        r = run_cli("prob", hom_path, "--outcome", "2,0")
        assert json.loads(r.stdout)["probability"] == pytest.approx(0.5, abs=1e-10)


class TestStateCommands:
    def test_rank(self, fock2_path):
        r = run_cli("rank", fock2_path)
        assert json.loads(r.stdout)["stellar_rank"] == 2

    def test_schmidt(self, tmp_path):
        s = st.from_fock_superposition({(1, 1): 1.0, (0, 0): 1.0}, 2)
        path = tmp_path / "ent.json"
        hio.save_state(st.normalized(s), path)
        r = run_cli("schmidt", str(path), "--partition", "0|1")
        doc = json.loads(r.stdout)
        assert doc["schmidt_rank"] == 2
        assert doc["separable"] is False

    def test_decompose(self, tmp_path):
        s = st.StellarState.make(
            1, st.PolyPart.make({(2,): 1.0}), st.GaussPart.make([[0.3]], [0.1], 0.0)
        )
        path = tmp_path / "s.json"
        hio.save_state(s, path)
        r = run_cli("decompose", str(path))
        doc = json.loads(r.stdout)
        assert doc["poly"][0]["index"] == [2]
        kinds = [g["type"] for g in doc["gaussian_program"]]
        assert kinds[0] == "displace" and kinds[-1] == "passive"

    def test_sample_deterministic(self, fock2_path):
        r1 = run_cli("sample", fock2_path, "--kind", "discrete", "--shots", "40",
                     "--seed", "3", "--format", "csv")
        r2 = run_cli("sample", fock2_path, "--kind", "discrete", "--shots", "40",
                     "--seed", "3", "--format", "csv")
        assert r1.stdout == r2.stdout
        assert r1.stdout.splitlines()[0] == "shot,name,mode,kind,re,im"


class TestEvolveAndTrace:
    def test_evolve_state_output(self, fock2_path):
        r = run_cli("evolve", fock2_path, "--gate", "R", "--re", "1.5707963267948966",
                    "--t", "1.0")
        doc = json.loads(r.stdout)
        assert doc["modes"] == 1

    def test_trajectory_csv(self, tmp_path):
        s = st.from_zeros([0.5, -0.5], 0, 0, 0)
        path = tmp_path / "s.json"
        hio.save_state(s, path)
        r = run_cli("evolve", str(path), "--gate", "P", "--re", "1.0", "--t", "2.0",
                    "--trajectory", "--steps", "21")
        lines = r.stdout.splitlines()
        assert lines[0].startswith("t,re_lambda1")
        assert len(lines) == 22

    def test_cm_trace(self, tmp_path):
        doc = {
            "q0": [[0, 0], [0, 0.5], [0, -0.5]],
            "p0": [[0, 0], [-2.5, 0], [2.5, 0]],
            "g": [1, 0],
            "omega": [0, 0],
        }
        path = tmp_path / "fig4.json"
        path.write_text(json.dumps(doc))
        r = run_cli("cm-trace", str(path), "--t0", "-3", "--t1", "3", "--steps", "61")
        lines = r.stdout.splitlines()
        assert lines[0] == "t,re_q1,im_q1,re_q2,im_q2,re_q3,im_q3"
        assert len(lines) == 62
        # 17-significant-digit numeric formatting
        assert all(len(f) <= 25 for f in lines[1].split(","))


class TestTable3Cli:
    def test_all_rows(self):
        r = run_cli("table3", "--modes", "3", "--photons", "2")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["worst_abs_diff"] <= 1e-10
        assert len(doc["rows"]) == 4
