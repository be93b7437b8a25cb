import csv
import math

import numpy as np
import pytest

from dmres import (
    ElementIndex,
    InvalidCouplingError,
    InvalidStateError,
    ShotPolicy,
    element_variance,
    plan_res,
)
from dmres.scenarios import (
    ScenarioSpec,
    default_spec,
    qutrit_sweep_state,
    run_fig3a,
    run_fig3b,
    run_fig3c,
    run_fig3d,
    run_scenario,
    two_qubit_sweep_state,
)


def rows_by_element(result, name):
    cols, rows = result.tables[name]
    out = {}
    for row in rows:
        rec = dict(zip(cols, row))
        out.setdefault(rec["element"], []).append(rec)
    return out


def as_complex(rec, prefix):
    return complex(float(rec[f"re_{prefix}"]), float(rec[f"im_{prefix}"]))


class TestFig3a:
    def test_phase_formulas_and_exactness(self):
        result = run_fig3a(default_spec("fig3a"))
        by_el = rows_by_element(result, "fig3a.csv")
        formulas = {
            "0,1": lambda p: np.exp(-1j * p) / 3,
            "1,2": lambda p: np.exp(-1j * (p + math.pi / 3)) / 3,
            "0,2": lambda p: np.exp(-1j * (2 * p + math.pi / 3)) / 3,
        }
        for label, recs in by_el.items():
            for rec in recs:
                p = float(rec["parameter"])
                theory = as_complex(rec, "theory")
                extracted = as_complex(rec, "extracted")
                assert abs(theory - formulas[label](p)) < 1e-12
                assert abs(abs(theory) - 1 / 3) < 1e-12
                assert abs(extracted - theory) < 1e-12

    def test_grid_outside_range_rejected(self):
        with pytest.raises(InvalidStateError):
            ScenarioSpec(scenario_id="fig3a", grid=(0.1,))


class TestFig3b:
    def test_linear_in_gamma_and_endpoint(self):
        result = run_fig3b(default_spec("fig3b"))
        rho0 = qutrit_sweep_state(2 * math.pi / 3)
        by_el = rows_by_element(result, "fig3b.csv")
        for label, recs in by_el.items():
            e = ElementIndex.create((3,), tuple(map(int, label.split(",")[0])),
                                    tuple(map(int, label.split(",")[1])))
            base = rho0.entry(e.s_flat, e.s_prime_flat)
            for rec in recs:
                gamma = float(rec["parameter"])
                assert abs(as_complex(rec, "extracted") - gamma * base) < 1e-12
        gamma0 = [as_complex(r, "extracted") for rs in by_el.values() for r in rs
                  if float(r["parameter"]) == 0.0]
        assert max(abs(v) for v in gamma0) < 1e-12


class TestFig3c:
    def test_formulas(self):
        result = run_fig3c(default_spec("fig3c"))
        by_el = rows_by_element(result, "fig3c.csv")
        for rec in by_el["01,10"]:
            p = float(rec["parameter"])
            assert abs(as_complex(rec, "theory") - np.exp(-2j * p) / 4) < 1e-12
            assert abs(as_complex(rec, "extracted") - as_complex(rec, "theory")) < 1e-12
        for rec in by_el["00,11"]:
            p = float(rec["parameter"])
            want = -np.exp(2j * (p + math.pi / 4)) / 4
            assert abs(as_complex(rec, "theory") - want) < 1e-12
            assert abs(abs(as_complex(rec, "theory")) - 0.25) < 1e-12


class TestFig3d:
    def test_linearity_and_endpoints(self):
        result = run_fig3d(default_spec("fig3d"))
        rho0 = two_qubit_sweep_state(math.pi / 3)
        by_el = rows_by_element(result, "fig3d.csv")
        for label, recs in by_el.items():
            s, sp = label.split(",")
            e = ElementIndex.create((2, 2), tuple(map(int, s)), tuple(map(int, sp)))
            base = rho0.entry(e.s_flat, e.s_prime_flat)
            for rec in recs:
                gamma = float(rec["parameter"])
                assert abs(as_complex(rec, "extracted") - gamma * base) < 1e-12


class TestShotColumns:
    def test_simulated_points_track_theory(self):
        spec = default_spec("fig3a", n_t=1e5)
        result = run_fig3a(spec)
        cols, rows = result.tables["fig3a.csv"]
        policy = ShotPolicy(n_t=1e5)
        plans = {e: plan_res(ElementIndex.create((3,), tuple(map(int, e.split(",")[0])),
                                                 tuple(map(int, e.split(",")[1]))), spec.g)
                 for e in ("0,1", "0,2", "1,2")}
        checks = []
        for row in rows:
            rec = dict(zip(cols, row))
            rho = qutrit_sweep_state(float(rec["parameter"]))
            var_re, var_im = element_variance(plans[rec["element"]], rho, policy)
            dev = as_complex(rec, "simulated") - as_complex(rec, "theory")
            checks.append(abs(dev.real) <= 5 * math.sqrt(var_re / policy.n_t))
            checks.append(abs(dev.imag) <= 5 * math.sqrt(var_im / policy.n_t))
        assert np.mean(checks) >= 0.99


class TestFig4:
    def test_reduced_run_structure(self, tmp_path):
        grid = (0.3, math.pi / 4, 1.2, math.pi / 2)
        spec = default_spec("fig4b", grid=grid, samples=150, seed=1)
        result = run_scenario(spec)
        cols, rows = result.tables["fig4b_curves.csv"]
        assert cols[0] == "scheme"
        schemes = {r[0] for r in rows}
        assert schemes == {"res", "seq"}
        assert "comparison" in result.manifest
        assert "efficiency" in result.manifest
        hist_cols, hist_rows = result.tables["fig4b_histograms.csv"]
        assert len(hist_rows) > 0
        out = result.write(tmp_path / "fig4b")
        assert (out / "manifest.json").exists()
        assert (out / "README.md").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        grid = (0.5, math.pi / 4)
        spec = default_spec("fig4a", grid=grid, samples=120, seed=2)
        a = run_scenario(spec).write(tmp_path / "a")
        b = run_scenario(spec).write(tmp_path / "b")
        for name in ("fig4a_curves.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_grid_without_a_regular_strength_names_it(self):
        # sin(2g) vanishes at pi, so res has no point to sweep: its builder says why
        with pytest.raises(InvalidCouplingError, match=r"sin\(2g\)=0"):
            run_scenario(default_spec("fig4a", grid=(math.pi,)))


class TestCsvTables:
    @pytest.mark.parametrize("spec, name", [
        (default_spec("fig3a"), "fig3a.csv"),
        (default_spec("fig4a", grid=(0.5, math.pi / 4), samples=120, seed=2, sampled_run=2),
         "fig4a_sampled.csv"),
    ])
    def test_rows_read_back_under_their_header(self, tmp_path, spec, name):
        # element labels such as 0,1 hold the delimiter, so they must be quoted
        result = run_scenario(spec)
        columns, rows = result.tables[name]
        with open(result.write(tmp_path) / name, newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == columns
            records = list(reader)
        assert len(records) == len(rows) > 0
        for rec, row in zip(records, rows):
            assert list(rec) == columns
            assert rec == dict(zip(columns, row))
        assert {rec["element"] for rec in records} >= {"0,1", "1,2"}


class TestManifest:
    def test_manifest_echoes_spec(self, tmp_path):
        spec = default_spec("fig3a", seed=9)
        result = run_fig3a(spec)
        out = result.write(tmp_path / "m")
        import json

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "fig3a"
        assert manifest["seed"] == 9
        assert manifest["artifact_version"]
        assert len(manifest["grid"]) == 21
