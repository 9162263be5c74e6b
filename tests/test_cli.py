"""CLI contract: subcommands, determinism, exit codes, file formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hqcsim
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


@pytest.fixture(autouse=True)
def _package_importable(monkeypatch):
    """Subprocesses import the hqcsim under test, installed or not."""
    paths = [str(Path(hqcsim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))


def run_cli(*args, env_extra=None):
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
        # --workers still parses; shot 0's row is the same in a 1-shot call
        r2 = run_cli("run", hom_path, "--shots", "1", "--seed", "7",
                     "--format", "csv", "--workers", "4", "--out", str(b))
        assert r1.returncode == 0 and r2.returncode == 0
        assert a.read_bytes().startswith(b.read_bytes())
        assert len(b.read_bytes().splitlines()) == 3  # header + one 2-mode shot

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

    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize("flags, message", [
        (["--shots", "-3"], "--shots must be non-negative, got -3"),
        (["--cutoff", "-1"], "--cutoff must be non-negative, got -1"),
    ])
    def test_negative_shots_or_cutoff_rejected(self, hom_path, fock2_path, capsys,
                                               command, flags, message):
        from hqcsim import cli

        target = hom_path if command == "run" else fock2_path
        assert cli.main([command, target, *flags]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["run"], "hqcsim run: the following arguments are required: circuit"),
        (["run", "c.json", "--shots", "abc"], "hqcsim run: argument --shots: invalid int value"),
        (["--cutoff", "x", "sample", "s.json"], "hqcsim: argument --cutoff: invalid int value"),
        ([], "hqcsim: the following arguments are required: command"),
    ])
    def test_usage_error_is_a_validation_error(self, capsys, argv, message):
        # exit 2 is kept for numeric-tolerance failures
        from hqcsim import cli

        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["table3", "--help"]])
    def test_help_exits_0(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 0 and r.stdout.startswith("usage: hqcsim")

    @pytest.mark.parametrize("command, doc, field", [
        ("run", {**HOM, "circuit": [{"type": "squeeze", "xi": [0.1, 0]}]}, "field 'mode'"),
        ("run", {**HOM, "circuit": [{"measure": "discrete"}]}, "field 'modes'"),
        ("run", [HOM], "JSON object, not a list"),
        ("run", {**HOM, "circuit": 5}, "circuit document: malformed field"),
        ("run", {**HOM, "circuit": [{"measure": "discrete", "modes": [0], "name": ["a"]}]},
         "a measurement name is a string"),
        ("run", {**HOM, "prep": {"kind": "gaussian",
                                 "gates": [{"type": "squeeze", "mode": 0, "r": 0.1}]}},
         "field 'xi'"),
        ("cm-trace", {"q0": [[1, 0], [-1, 0]], "g": [1, 0]}, "field 'p0'"),
        ("run", {**HOM, "prep": {"kind": "fock"}}, "prep: missing field 'amplitudes'"),
        ("run", {**HOM, "prep": {"kind": "fock_pattern"}}, "prep: missing field 'pattern'"),
        ("run", {**HOM, "prep": {"kind": "photon_added", "ops": [{"mode": 0}]}},
         "missing field 'gate'"),
        ("run", {**HOM, "prep": {"kind": "gaussian", "gates": 5}}, "field 'gates'"),
        ("run", {**HOM, "prep": "vacuum"}, "prep: a JSON object, not a str"),
        ("run", {**HOM, "circuit": [{"measure": "discrete", "modes": 5}]},
         "field 'modes': 'int' object is not iterable"),
    ])
    def test_malformed_input_is_a_validation_error(self, tmp_path, capsys, command, doc,
                                                   field):
        from hqcsim import cli

        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    def test_coupling_passive_fails_before_any_shot(self, tmp_path, capsys):
        # the engine instantiates every constant gate when it is built
        from hqcsim import cli

        path = tmp_path / "c.json"
        path.write_text(json.dumps({**HOM, "circuit": [
            {"measure": "discrete", "modes": [0], "name": "a"},
            {"type": "beamsplitter", "modes": [0, 1]},
            {"measure": "discrete", "modes": [1], "name": "b"}]}))
        assert cli.main(["run", str(path), "--shots", "0"]) == cli.EXIT_VALIDATION
        assert "couples the active modes [1]" in capsys.readouterr().err

    def test_zero_shots_is_an_empty_run(self, hom_path, capsys):
        from hqcsim import cli

        assert cli.main(["run", hom_path, "--shots", "0", "--seed", "3"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"rows": [], "seed": 3, "shots": 0}


def test_import_leaves_scipy_unloaded():
    # scipy is imported where it is used; the CLI and the stellar routes run without it
    code = "import sys, hqcsim.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert r.stdout.strip() == "[]"


def test_closed_routes_leave_scipy_optimize_unloaded(tmp_path):
    # on a resolved grid cm_solve_path labels eigenvalues without scipy.optimize
    state = tmp_path / "s.json"
    hio.save_state(st.from_zeros([0.5, -0.4j, -0.6 + 0.2j], 0.1, 0.2j, 0), state)
    system = tmp_path / "cm.json"
    system.write_text(json.dumps({
        "q0": [[-1, 0], [0, 0.2], [1.2, 0]], "p0": [[0.3, 0], [0, 0], [-0.3, 0.1]],
        "g": [1, 0], "omega": [0.5, 0],
    }))
    calls = [
        ["evolve", str(state), "--gate", "S", "--re", "0.3", "--im", "0.2", "--trajectory"],
        ["evolve", str(state), "--gate", "P", "--re", "0.75", "--trajectory"],
        ["cm-trace", str(system), "--t1", "2.0"],
    ]
    code = (
        "import sys\nfrom hqcsim import cli\n"
        f"for argv in {calls!r}:\n"
        f"    assert cli.main(argv + ['--out', {str(tmp_path / 'o.csv')!r}]) == 0\n"
        "print('scipy.optimize' in sys.modules)"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert r.stdout.strip() == "False"


def test_compiled_stretch_leaves_scipy_unloaded(tmp_path, rng):
    # equal squeezers make the Bloch-Messiah form of the stretch refine a
    # degenerate block by a Takagi factorization, which needs no scipy
    from unittest import mock

    from hqcsim import circuits as circ
    from hqcsim import multimode as mm
    from conftest import random_unitary

    U = random_unitary(rng, 2)
    entries = [{"type": "squeeze", "mode": 0, "xi": [0.3, 0]},
               {"type": "squeeze", "mode": 1, "xi": [0, 0.3]},
               {"type": "passive", "matrix": [[[U[i, j].real, U[i, j].imag] for j in range(2)]
                                              for i in range(2)]}]
    for layer in range(3):
        entries += [{"type": "beamsplitter", "modes": [0, 1]},
                    {"type": "displace", "mode": 0, "amount": [0.1, 0.05 * layer]},
                    {"type": "displace", "mode": 1, "amount": [-0.05, 0.1]}]
    entries.append({"measure": "discrete", "modes": [0, 1], "name": "n"})
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema": "hqc-circuit/1", "modes": 2,
                                "prep": {"kind": "fock_pattern", "pattern": [1, 0]},
                                "circuit": entries}))
    spec = circ.parse_circuit(path.read_text())
    gates = [circ._instantiate(decl, {}, [0, 1]) for decl in spec.gates]
    with mock.patch.object(mm, "takagi", wraps=mm.takagi) as takagi:
        assert len(mm._compact(gates, 2)) == 4
    assert takagi.call_count == 1
    code = (
        "import sys\nfrom hqcsim import cli\n"
        f"assert cli.main(['run', {str(path)!r}, '--shots', '5', '--out', "
        f"{str(tmp_path / 'o.json')!r}]) == 0\n"
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert r.stdout.strip() == "[]"


class TestUnreadFlags:
    @pytest.mark.parametrize("argv", [
        ["prob", "c.json", "--outcome", "1"], ["rank", "s.json"],
        ["schmidt", "s.json", "--partition", "0|1"], ["decompose", "s.json"],
        ["table3", "--architecture", "fock-dv"], ["evolve", "s.json", "--gate", "S"],
        ["cm-trace", "sys.json"],
    ])
    @pytest.mark.parametrize("flags", [["--shots", "7"], ["--cutoff", "3"], ["--format", "csv"]])
    @pytest.mark.parametrize("before", [False, True])
    def test_rejected_by_other_commands(self, capsys, argv, flags, before):
        from hqcsim import cli

        argv = [*flags, *argv] if before else [*argv, *flags]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        command = argv[2] if before else argv[0]
        assert captured.out == ""
        assert captured.err == f"error: {command} does not read {flags[0]}\n"

    @pytest.mark.parametrize("command", ["run", "sample"])
    @pytest.mark.parametrize("before", [False, True])
    def test_read_by_run_and_sample(self, hom_path, fock2_path, monkeypatch, command, before):
        from hqcsim import cli

        seen = []
        monkeypatch.setattr(
            cli, "_run_and_write", lambda spec, args, final_summary=False: seen.append(args)
        )
        flags = ["--shots", "7", "--cutoff", "3", "--format", "csv"]
        target = [command, hom_path if command == "run" else fock2_path]
        cli.main([*flags, *target] if before else [*target, *flags])
        assert [(a.shots, a.cutoff, a.format) for a in seen] == [(7, 3, "csv")]


class TestParserReuse:
    def test_flags_do_not_carry_over(self, hom_path, monkeypatch):
        from hqcsim import cli

        seen = []
        monkeypatch.setattr(
            cli, "_run_and_write", lambda spec, args, final_summary=False: seen.append(args)
        )
        monkeypatch.setenv("HQC_SEED", "11")
        cli.main(["--shots", "7", "run", hom_path, "--seed", "5"])
        monkeypatch.setenv("HQC_SEED", "12")
        cli.main(["run", hom_path])
        assert [(a.seed, a.shots) for a in seen] == [(5, 7), (12, 1000)]
        assert cli.build_parser() is cli.build_parser()


class TestOutputFormats:
    def test_json_dump_text(self):
        from hqcsim import cli

        doc = {"x": [0.1, 1e-320, -0.0, 1e308], "y": (np.float64(2.5), -1e-300, 3)}
        assert cli._json_dump(doc) == (
            '{\n "x": [\n  0.1,\n  1e-320,\n  -0.0,\n  1e+308\n ],\n'
            ' "y": [\n  2.5,\n  -1e-300,\n  3\n ]\n}\n'
        )

    @staticmethod
    def _extremes(rng, shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape)
        x.flat[:4] = [-0.0, 1e300, -1e-300, 0.0]
        return x

    def test_trajectory_csv_matches_per_float(self, rng):
        from hqcsim.dynamics import ZeroTrajectory

        n, T = 3, 9
        traj = ZeroTrajectory(
            self._extremes(rng, T),
            self._extremes(rng, (n, T)) + 1j * self._extremes(rng, (n, T)),
            self._extremes(rng, (T, 3)) + 1j * self._extremes(rng, (T, 3)),
        )
        lines = ["t,re_lambda1,im_lambda1,re_lambda2,im_lambda2,re_lambda3,im_lambda3,"
                 "re_a,im_a,re_b,im_b,re_c,im_c"]
        for i, t in enumerate(traj.times):
            row = [f"{t:.17g}"]
            for z in [*traj.zeros[:, i], *traj.gauss_path[i]]:
                row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            lines.append(",".join(row))
        assert hio.trajectory_csv(traj) == "\n".join(lines) + "\n"

    def test_cm_trajectory_csv_matches_per_float(self, rng):
        times = self._extremes(rng, 7)
        pos = self._extremes(rng, (2, 7)) - 1j * self._extremes(rng, (2, 7))
        lines = ["t,re_q1,im_q1,re_q2,im_q2"]
        for i, t in enumerate(times):
            row = [f"{t:.17g}"]
            for z in pos[:, i]:
                row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            lines.append(",".join(row))
        text = hio.cm_trajectory_csv(times, pos)
        assert text == "\n".join(lines) + "\n"
        assert "-0," in text


class TestProb:
    def test_hom_null(self, hom_path):
        r = run_cli("prob", hom_path, "--outcome", "1,1")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert set(doc) == {"outcome", "probability"}
        assert doc["probability"] <= 1e-12

    def test_bunching(self, hom_path):
        r = run_cli("prob", hom_path, "--outcome", "2,0")
        assert json.loads(r.stdout)["probability"] == pytest.approx(0.5, abs=1e-10)

    def test_cutoff_rejected(self, hom_path):
        # prob is exact; --cutoff caps photons per measured mode of run and sample
        r = run_cli("prob", hom_path, "--outcome", "2,0", "--cutoff", "1")
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == "error: prob does not read --cutoff\n"


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

    @pytest.mark.parametrize("partition", ["0,1", "0|1|2"])
    def test_schmidt_names_partition_form(self, tmp_path, partition):
        path = tmp_path / "s.json"
        hio.save_state(st.from_fock_superposition({(1, 0, 1): 1.0}, 3), path)
        r = run_cli("schmidt", str(path), "--partition", partition)
        assert r.returncode == 1
        assert "I|J, e.g. 0,1|2" in r.stderr

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

    def test_decompose_program_replays(self, tmp_path, capsys, rng):
        # the printed program is hqc-circuit/1 gate entries: as a gaussian
        # prep it rebuilds the state's Gaussian exponents
        from hqcsim import circuits as circ
        from hqcsim import cli
        from hqcsim import multimode as mm
        from hqcsim.gates import Displace, Passive, Squeeze
        from conftest import random_unitary

        s = st.from_fock_superposition({(1, 1): 1.0, (2, 0): 0.5j}, 2)
        for gate in [Squeeze(0, 0.3 + 0.1j), Squeeze(1, -0.2j),
                     Passive.make(random_unitary(rng, 2)), Displace.make([0.2 - 0.1j, 0.4j])]:
            s = mm.apply_gate(s, gate)
        assert st.stellar_rank(s) == 2
        path = tmp_path / "s.json"
        hio.save_state(st.normalized(s), path)
        assert cli.main(["decompose", str(path)]) == cli.EXIT_OK
        program = json.loads(capsys.readouterr().out)["gaussian_program"]
        assert [g["mode"] for g in program if g["type"] == "displace"] == [0, 1]
        prepared = circ.prepare_input({"kind": "gaussian", "gates": program}, 2)
        np.testing.assert_allclose(prepared.gauss.A, s.gauss.A, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prepared.gauss.B, s.gauss.B, rtol=0, atol=1e-12)

    def test_decompose_rejects_unknown_gate(self, tmp_path, monkeypatch, capsys):
        from hqcsim import cli
        from hqcsim import multimode as mm
        from hqcsim.gates import Shear

        path = tmp_path / "s.json"
        hio.save_state(st.StellarState.vacuum(1), path)
        spec = mm.GaussianUnitarySpec.make(1, [Shear(0, 0.5)])
        monkeypatch.setattr(mm, "decompose_normal", lambda state: (state.poly, spec))
        assert cli.main(["decompose", str(path)]) == cli.EXIT_VALIDATION
        assert "unexpected gate" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, modes, message", [
        ("discrete", "5", "mode index 5 out of range"),
        ("discrete", "0,0", "mode 0 measured twice"),
        ("continuous", "0,0", "mode 0 measured twice"),
    ])
    def test_sample_bad_modes(self, tmp_path, capsys, kind, modes, message):
        from hqcsim import cli

        path = tmp_path / "v2.json"
        hio.save_state(st.StellarState.vacuum(2), path)
        rc = cli.main(["sample", str(path), "--kind", kind, "--modes", modes, "--shots", "2"])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

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

    @pytest.mark.parametrize("t, steps", [("-0.5", "201"), ("0", "4")])
    def test_trajectory_routes_share_the_grid(self, tmp_path, t, steps):
        """Both routes write --steps rows on linspace(0, t, steps), also for
        t <= 0, and agree within the RK4 error."""
        from hqcsim import cli

        path = tmp_path / "s.json"
        hio.save_state(st.from_zeros([0.4 + 0.1j, -0.3 + 0.2j], 0.1, 0.2, 0), path)
        tables = {}
        for route in ("closed", "ode"):
            out = tmp_path / f"{route}.csv"
            rc = cli.main(["evolve", str(path), "--gate", "S", "--re", "0.3", "--im", "0.2",
                           "--t", t, "--trajectory", "--steps", steps, "--route", route,
                           "--out", str(out)])
            assert rc == 0
            lines = out.read_text().splitlines()
            tables[route] = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        closed, ode = tables["closed"], tables["ode"]
        assert len(closed) == int(steps)
        np.testing.assert_array_equal(ode[:, 0], closed[:, 0])
        np.testing.assert_array_equal(closed[:, 0], np.linspace(0.0, float(t), int(steps)))
        np.testing.assert_allclose(ode[:, 1:], closed[:, 1:], rtol=0, atol=1e-9)

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


    @pytest.mark.parametrize("route", ["closed", "ode"])
    @pytest.mark.parametrize("steps", ["1", "0", "-3"])
    def test_trajectory_needs_two_steps(self, fock2_path, tmp_path, capsys, route, steps):
        from hqcsim import cli

        out = tmp_path / "traj.csv"
        rc = cli.main(["evolve", fock2_path, "--gate", "S", "--re", "0.2", "--trajectory",
                       "--route", route, "--steps", steps, "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--steps must be at least 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_cm_trace_needs_a_step(self, tmp_path, capsys, steps):
        from hqcsim import cli

        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"q0": [[1, 0], [-1, 0]], "p0": [[0, 0], [0, 0]],
                                    "g": [1, 0]}))
        out = tmp_path / "cm.csv"
        rc = cli.main(["cm-trace", str(path), "--steps", steps, "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--steps must be at least 1" in err
        assert not out.exists()


class TestTable3Cli:
    def test_all_rows(self):
        r = run_cli("table3", "--modes", "3", "--photons", "2")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["worst_abs_diff"] <= 1e-10
        assert len(doc["rows"]) == 4

    @pytest.mark.parametrize("argv,bound", [
        (["--modes", "2", "--photons", "3"], "0..2"),
        (["--architecture", "gaussian-dv", "--modes", "2", "--photons", "3"], "0..2"),
        (["--photons", "-1"], "0..3"),
    ])
    def test_photons_outside_the_modes_rejected(self, tmp_path, capsys, argv, bound):
        from hqcsim import cli

        out = tmp_path / "t3.json"
        assert cli.main(["table3", *argv, "--out", str(out)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"photons in {bound}" in err
        assert not out.exists()

    def test_leaves_scipy_stats_unimported(self, tmp_path):
        out = str(tmp_path / "t3.json")
        code = ("import sys; from hqcsim import cli; "
                f"rc = cli.main(['table3', '--out', {out!r}]); "
                "sys.exit(rc or 'scipy.stats' in sys.modules)")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr

    def test_documents_drive_run_and_prob(self, tmp_path):
        from hqcsim import cli

        out, probe = tmp_path / "t3.json", tmp_path / "probe.json"
        assert cli.main(["table3", "--out", str(out)]) == cli.EXIT_OK
        counted = []
        for row in json.loads(out.read_text())["rows"]:
            path = tmp_path / f"{row['architecture']}.json"
            path.write_text(json.dumps(row["circuit"]))
            assert cli.main(["run", str(path), "--shots", "5", "--out", str(probe)]) == 0
            assert len(json.loads(probe.read_text())["rows"]) == 5
            if row["circuit"]["circuit"][-1]["measure"] != "discrete":
                continue
            counted.append(row["architecture"])
            for outcome, eff in zip(row["outcomes"], row["efficient"], strict=True):
                argv = ["prob", str(path), "--outcome", ",".join(map(str, outcome))]
                assert cli.main([*argv, "--out", str(probe)]) == 0
                assert json.loads(probe.read_text())["probability"] == pytest.approx(
                    eff, rel=0, abs=1e-12)
        assert counted == ["gaussian-dv", "fock-dv"]
