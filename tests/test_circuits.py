"""Circuit parsing, preparation builders, adaptive execution, architectures."""

import json

import numpy as np
import pytest

from hqcsim import circuits as circ
from hqcsim import io as hio
from hqcsim import multimode as mm
from hqcsim import states as st
from hqcsim.sampling import SamplerConfig


def make_doc(modes, prep, entries):
    return {"schema": "hqc-circuit/1", "modes": modes, "prep": prep, "circuit": entries}


def circuit_to_dict(spec):
    """The hqc-circuit/1 document of a parsed circuit (the inverse of
    ``parse_circuit``)."""
    entries = []
    for item in spec.program:
        if isinstance(item, circ.MeasureDecl):
            entries.append(
                {"measure": item.kind, "modes": list(item.modes), "name": item.name}
            )
            continue
        if item.kind == "passive":
            entries.append(
                {
                    "type": "passive",
                    "matrix": [
                        [[item.matrix[i, j].real, item.matrix[i, j].imag]
                         for j in range(spec.modes)]
                        for i in range(spec.modes)
                    ],
                }
            )
            continue
        key = {"displace": "amount", "squeeze": "xi", "shear": "s", "phase": "phi"}[
            item.kind
        ]
        param = item.params[0]
        node = {"type": item.kind, "mode": item.modes[0]}
        if param.is_constant:
            node[key] = [param.base.real, param.base.imag]
        else:
            node[key] = {
                "base": [param.base.real, param.base.imag],
                "terms": [
                    {"ref": name, "index": index, "coeff": [c.real, c.imag]}
                    for name, index, c in param.terms
                ],
            }
        entries.append(node)
    return {"schema": circ.SCHEMA, "modes": spec.modes, "prep": spec.prep, "circuit": entries}


HOM_DOC = make_doc(
    2,
    {"kind": "fock_pattern", "pattern": [1, 1]},
    [
        {"type": "beamsplitter", "modes": [0, 1]},
        {"measure": "discrete", "modes": [0, 1], "name": "out"},
    ],
)


class TestParse:
    def test_minimal(self):
        doc = make_doc(1, {"kind": "vacuum"}, [{"measure": "discrete", "modes": [0]}])
        spec = circ.parse_circuit(json.dumps(doc))
        assert spec.modes == 1
        assert len(spec.measurements) == 1

    def test_boson_sampling_spec(self):
        doc = make_doc(
            3,
            {"kind": "fock_pattern", "pattern": [1, 1, 0]},
            [
                {
                    "type": "passive",
                    "matrix": [[[1, 0], [0, 0], [0, 0]],
                               [[0, 0], [1, 0], [0, 0]],
                               [[0, 0], [0, 0], [1, 0]]],
                },
                {"measure": "discrete", "modes": [0, 1, 2], "name": "out"},
            ],
        )
        spec = circ.parse_circuit(json.dumps(doc))
        assert len(spec.gates) == 1

    def test_forward_reference_rejected(self):
        doc = make_doc(
            2,
            {"kind": "vacuum"},
            [
                {"type": "displace", "mode": 0,
                 "amount": {"terms": [{"ref": "later", "coeff": [1, 0]}]}},
                {"measure": "continuous", "modes": [1], "name": "later"},
            ],
        )
        with pytest.raises(circ.CircuitError, match="precede"):
            circ.parse_circuit(json.dumps(doc))

    def test_double_measurement_rejected(self):
        doc = make_doc(
            1,
            {"kind": "vacuum"},
            [
                {"measure": "discrete", "modes": [0], "name": "a"},
                {"measure": "discrete", "modes": [0], "name": "b"},
            ],
        )
        with pytest.raises(circ.CircuitError, match="twice"):
            circ.parse_circuit(json.dumps(doc))

    def test_mode_out_of_range(self):
        doc = make_doc(1, {"kind": "vacuum"}, [{"type": "phase", "mode": 3, "phi": 1.0}])
        with pytest.raises(circ.CircuitError, match="range"):
            circ.parse_circuit(json.dumps(doc))

    def test_bad_schema(self):
        with pytest.raises(circ.CircuitError, match="schema"):
            circ.parse_circuit(json.dumps({"schema": "nope", "modes": 1, "circuit": []}))

    def test_round_trip(self):
        spec = circ.parse_circuit(json.dumps(HOM_DOC))
        doc = circuit_to_dict(spec)
        spec2 = circ.parse_circuit(json.dumps(doc))
        assert circuit_to_dict(spec2) == doc


class TestPrepare:
    def test_vacuum(self):
        s = circ.prepare_input({"kind": "vacuum"}, 2)
        assert st.stellar_rank(s) == 0

    def test_photon_added_squeezed(self):
        builder = {
            "kind": "photon_added",
            "base": {"kind": "gaussian", "gates": [
                {"type": "squeeze", "mode": 0, "xi": [0.4, 0]}]},
            "ops": [{"create": 0}],
        }
        s = circ.prepare_input(builder, 1)
        assert st.stellar_rank(s) == 1
        assert st.norm_squared(s) == pytest.approx(1.0, abs=1e-9)

    def test_photon_added_rank_counts(self):
        builder = {"kind": "photon_added", "ops": [{"create": 0}, {"create": 1}]}
        s = circ.prepare_input(builder, 2)
        assert st.stellar_rank(s) == 2

    def test_finite_superposition_from_file(self, tmp_path):
        # a grid-state approximant: finite Fock superposition loaded from disk
        amps = {(0,): 0.8, (4,): 0.5, (8,): 0.33}
        approx = st.normalized(st.from_fock_superposition(amps, 1))
        path = tmp_path / "gkp_approx.json"
        hio.save_state(approx, path)
        s = circ.prepare_input({"kind": "state_file", "path": str(path)}, 1)
        assert st.stellar_rank(s) == 8

    def test_inadmissible_gaussian_rejected(self):
        builder = {"kind": "state", "state": {
            "modes": 1, "poly": [{"index": [0], "re": 1, "im": 0}],
            "gauss": {"A": [[1.5, 0]], "B": [[0, 0]], "C": [0, 0]}}}
        with pytest.raises(st.AdmissibilityError):
            circ.prepare_input(builder, 1)


class TestRun:
    def test_vacuum_all_zero(self):
        doc = make_doc(2, {"kind": "vacuum"},
                       [{"measure": "discrete", "modes": [0, 1], "name": "n"}])
        spec = circ.parse_circuit(json.dumps(doc))
        res = circ.run_circuit(spec, SamplerConfig(seed=0, shots=20, cutoff=6))
        assert all(rec[0][3] == (0, 0) for _, rec in res.rows)

    def test_hom_no_coincidences(self):
        spec = circ.parse_circuit(json.dumps(HOM_DOC))
        res = circ.run_circuit(spec, SamplerConfig(seed=3, shots=500, cutoff=8))
        outcomes = [rec[0][3] for _, rec in res.rows]
        assert all(o in ((2, 0), (0, 2)) for o in outcomes)

    def test_worker_invariance(self):
        # shot i's row does not depend on how many shots the call makes
        spec = circ.parse_circuit(json.dumps(HOM_DOC))
        r300 = circ.run_circuit(spec, SamplerConfig(seed=5, shots=300, cutoff=8))
        for shots in (1, 40):
            short = circ.run_circuit(spec, SamplerConfig(seed=5, shots=shots, cutoff=8))
            assert short.rows == r300.rows[:shots]
            assert r300.outcomes_csv().startswith(short.outcomes_csv())

    def test_adaptive_displacement_tracking(self):
        doc = make_doc(
            2,
            {"kind": "vacuum"},
            [
                {"measure": "continuous", "modes": [0], "name": "a"},
                {"type": "displace", "mode": 1,
                 "amount": {"base": [0, 0],
                            "terms": [{"ref": "a", "index": 0, "coeff": [1, 0]}]}},
                {"measure": "continuous", "modes": [1], "name": "b"},
            ],
        )
        spec = circ.parse_circuit(json.dumps(doc))
        res = circ.run_circuit(spec, SamplerConfig(seed=11, shots=4000))
        a = np.array([rec[0][3][0] for _, rec in res.rows])
        b = np.array([rec[1][3][0] for _, rec in res.rows])
        da = a - a.mean()
        slope = np.real(np.vdot(da, b - b.mean())) / np.real(np.vdot(da, da))
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_adaptive_discrete_reference(self):
        # phase conditioned on a photon count parity: runs and is reproducible
        doc = make_doc(
            2,
            {"kind": "fock_pattern", "pattern": [1, 0]},
            [
                {"type": "beamsplitter", "modes": [0, 1]},
                {"measure": "discrete", "modes": [0], "name": "n"},
                {"type": "phase", "mode": 1,
                 "phi": {"terms": [{"ref": "n", "coeff": [3.14159, 0]}]}},
                {"measure": "discrete", "modes": [1], "name": "m"},
            ],
        )
        spec = circ.parse_circuit(json.dumps(doc))
        cfg = SamplerConfig(seed=2, shots=400, cutoff=6)
        r1 = circ.run_circuit(spec, cfg)
        r2 = circ.run_circuit(spec, SamplerConfig(seed=2, shots=1, cutoff=6))
        assert r2.rows == r1.rows[:1]
        # single photon: the two counters always sum to 1
        for _, rec in r1.rows:
            assert rec[0][3][0] + rec[1][3][0] == 1

    def _conditionals(self, entries, shots=300):
        """Normalised outcome masses of every discrete fill the shots reached,
        keyed by (discrete history, mode, values drawn so far)."""
        doc = make_doc(3, {"kind": "fock_pattern", "pattern": [2, 1, 1]}, entries)
        spec = circ.parse_circuit(json.dumps(doc))
        engine = circ._ShotEngine(spec, SamplerConfig(seed=3, shots=shots, cutoff=8),
                                  circ.prepare_input(spec.prep, spec.modes))
        for shot in range(shots):
            engine.run_shot(shot)
        return {
            (key[1], mode, values): np.array(masses) / total
            for (key, mode, values), (_, masses, _, total) in engine.discrete_cache.items()
        }

    def test_passive_after_measurement_on_active_modes(self):
        bs01 = {"type": "beamsplitter", "modes": [0, 1]}
        bs12 = {"type": "beamsplitter", "modes": [1, 2]}
        first = {"measure": "discrete", "modes": [0], "name": "a"}
        rest = {"measure": "discrete", "modes": [1, 2], "name": "b"}
        after = self._conditionals([bs01, first, bs12, rest])
        before = self._conditionals([bs01, bs12, first, rest])
        assert after.keys() == before.keys()
        assert {key[0] for key in after} >= {(), ("a", 0), ("a", 1), ("a", 2), ("a", 3)}
        for key, dist in after.items():
            np.testing.assert_allclose(dist, before[key], rtol=0, atol=1e-12)

    def test_passive_coupling_measured_mode_rejected(self):
        doc = make_doc(
            2,
            {"kind": "fock_pattern", "pattern": [1, 0]},
            [
                {"measure": "discrete", "modes": [0], "name": "a"},
                {"type": "beamsplitter", "modes": [0, 1]},
                {"measure": "discrete", "modes": [1], "name": "b"},
            ],
        )
        spec = circ.parse_circuit(json.dumps(doc))
        with pytest.raises(circ.CircuitError, match=r"couples the active modes \[1\]"):
            circ.run_circuit(spec, SamplerConfig(seed=0, shots=1, cutoff=4))

    def test_final_summary(self):
        doc = make_doc(2, {"kind": "fock_pattern", "pattern": [1, 1]},
                       [{"measure": "discrete", "modes": [0], "name": "n"}])
        spec = circ.parse_circuit(json.dumps(doc))
        res = circ.run_circuit(spec, SamplerConfig(seed=1, shots=5, cutoff=8),
                               final_summary=True)
        for shot, rank, norm in res.summaries:
            assert rank in (0, 1, 2)
            assert norm == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("final_summary, calls", [(False, 0), (True, 1)])
    def test_last_heterodyne_projects_only_for_summary(self, monkeypatch, final_summary, calls):
        doc = make_doc(2, {"kind": "fock_pattern", "pattern": [1, 0]},
                       [{"type": "beamsplitter", "modes": [0, 1]},
                        {"measure": "continuous", "modes": [0], "name": "a"}])
        spec = circ.parse_circuit(json.dumps(doc))
        cfg = SamplerConfig(seed=2, shots=6)
        reference = circ.run_circuit(spec, cfg)
        counted = []
        project = circ.project_coherent

        def counting(*args):
            counted.append(args)
            return project(*args)

        monkeypatch.setattr(circ, "project_coherent", counting)
        res = circ.run_circuit(spec, cfg, final_summary=final_summary)
        assert len(counted) == calls * cfg.shots
        assert res.rows == reference.rows
        assert len(res.summaries) == calls * cfg.shots

    def test_gate_layer_fused_and_instantiated_once(self, monkeypatch):
        # a gate_deep layer: beamsplitter, then S P R D on each of 2 modes
        entries = [{"type": "beamsplitter", "modes": [0, 1]}]
        for mode in (0, 1):
            entries += [
                {"type": "squeeze", "mode": mode, "xi": [0.05, 0.02]},
                {"type": "shear", "mode": mode, "s": -0.03},
                {"type": "phase", "mode": mode, "phi": 2.5},
                {"type": "displace", "mode": mode, "amount": [0.1, -0.05]},
            ]
        entries.append({"measure": "discrete", "modes": [0, 1], "name": "n"})
        doc = make_doc(2, {"kind": "fock_pattern", "pattern": [2, 1]}, entries)
        spec = circ.parse_circuit(json.dumps(doc))
        cfg = SamplerConfig(seed=4, shots=3, cutoff=12)
        reference = circ.run_circuit(spec, cfg)
        kernel, instantiate = mm._section_gate, circ._instantiate
        kernel_calls, instantiated = [], []
        monkeypatch.setattr(mm, "_section_gate",
                            lambda *a, **k: kernel_calls.append(a[1]) or kernel(*a, **k))
        monkeypatch.setattr(circ, "_instantiate",
                            lambda *a: instantiated.append(a[0]) or instantiate(*a))
        res = circ.run_circuit(spec, cfg)
        assert res.rows == reference.rows
        assert sorted(kernel_calls) == [0] * 3 + [1] * 3  # one per mode and shot
        assert len(instantiated) == len(spec.gates)  # once, not once per shot

    @pytest.mark.parametrize("layers, passive_calls, kernel_modes", [(10, 2, (0, 1)), (0, 1, ())])
    def test_constant_stretch_compiled_once(self, monkeypatch, layers, passive_calls,
                                            kernel_modes):
        # gate_deep-shaped layers (a beamsplitter, then S P R D on each of 2
        # modes) become [V, one ModeRun per mode, U]; a lone beamsplitter stays
        entries = [{"type": "beamsplitter", "modes": [0, 1]}]
        for layer in range(layers):
            for mode in (0, 1):
                entries += [
                    {"type": "squeeze", "mode": mode, "xi": [0.05, 0.01 * layer]},
                    {"type": "shear", "mode": mode, "s": 0.03 * (-1) ** layer},
                    {"type": "phase", "mode": mode, "phi": 0.7 * layer + mode},
                    {"type": "displace", "mode": mode, "amount": [0.1, -0.01 * layer]},
                ]
            entries.append({"type": "beamsplitter", "modes": [0, 1]})
        entries.append({"measure": "discrete", "modes": [0, 1], "name": "n"})
        doc = make_doc(2, {"kind": "fock_pattern", "pattern": [2, 1]}, entries)
        spec = circ.parse_circuit(json.dumps(doc))
        cfg = SamplerConfig(seed=4, shots=3, cutoff=24)
        with monkeypatch.context() as m:
            m.setattr(circ, "_compact", lambda gates, modes: mm._fused(gates))
            reference = circ.run_circuit(spec, cfg)
        compact, passive, kernel = circ._compact, mm.apply_passive, mm._section_gate
        compiled, passive_seen, kernel_seen = [], [], []

        def compiling(*a):
            compiled.append(a)
            seen = len(passive_seen), len(kernel_seen)
            out = compact(*a)
            # compiling applies the stretch and its form once to the vacuum
            del passive_seen[seen[0]:], kernel_seen[seen[1]:]
            return out

        monkeypatch.setattr(circ, "_compact", compiling)
        monkeypatch.setattr(mm, "apply_passive",
                            lambda *a: passive_seen.append(a) or passive(*a))
        monkeypatch.setattr(mm, "_section_gate",
                            lambda *a, **k: kernel_seen.append(a[1]) or kernel(*a, **k))
        res = circ.run_circuit(spec, cfg)
        assert res.rows == reference.rows
        assert len(compiled) == 1
        assert len(passive_seen) == passive_calls * cfg.shots
        assert sorted(kernel_seen) == sorted(kernel_modes * cfg.shots)  # one call per mode

    def test_adaptive_gate_instantiated_every_shot(self, monkeypatch):
        doc = make_doc(
            2, {"kind": "fock_pattern", "pattern": [1, 0]},
            [{"type": "beamsplitter", "modes": [0, 1]},
             {"measure": "discrete", "modes": [0], "name": "n"},
             {"type": "squeeze", "mode": 1, "xi": [0.1, 0.0]},
             {"type": "phase", "mode": 1, "phi": {"terms": [{"ref": "n", "coeff": [1.0, 0]}]}},
             {"measure": "discrete", "modes": [1], "name": "m"}],
        )
        spec = circ.parse_circuit(json.dumps(doc))
        instantiate = circ._instantiate
        instantiated = []
        monkeypatch.setattr(circ, "_instantiate",
                            lambda *a: instantiated.append(a[0].kind) or instantiate(*a))
        circ.run_circuit(spec, SamplerConfig(seed=1, shots=4, cutoff=8))
        assert sorted(instantiated) == ["passive", "phase", "phase", "phase", "phase", "squeeze"]

    def test_rank_bookkeeping_rank_preserving(self):
        # gates keep the rank, the continuous measurement cannot raise it
        doc = make_doc(
            2,
            {"kind": "fock_pattern", "pattern": [1, 1]},
            [
                {"type": "beamsplitter", "modes": [0, 1]},
                {"type": "squeeze", "mode": 0, "xi": [0.3, 0.1]},
                {"measure": "continuous", "modes": [0], "name": "a"},
            ],
        )
        spec = circ.parse_circuit(json.dumps(doc))
        res = circ.run_circuit(spec, SamplerConfig(seed=4, shots=10),
                               final_summary=True)
        for shot, rank, norm in res.summaries:
            assert rank <= 2
            assert norm == pytest.approx(1.0, abs=1e-9)


class TestTable3:
    @pytest.mark.parametrize("row", circ.TABLE3_ARCHITECTURES)
    def test_dual_route_agreement(self, row):
        rep = circ.table3_demo(row, m=3, photons=2)
        assert rep["max_abs_diff"] <= 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError, match="desk-scale"):
            circ.table3_demo("fock-dv", m=6, photons=2)
