import json
import math
import time

import numpy as np
import pytest

from dmres import DensityMatrix, all_offdiagonal_elements, random_mixed_state, read_state, stream, write_state
from dmres.cli import build_parser, main, parse_angle, parse_element
from dmres.errors import DmresError
from dmres.validate import run_validation


@pytest.fixture
def mixed3(tmp_path):
    path = tmp_path / "mixed3.state"
    write_state(path, DensityMatrix.create(np.eye(3) / 3, (3,)))
    return path


@pytest.fixture
def bell(tmp_path):
    mat = np.zeros((4, 4), dtype=complex)
    for i in (1, 2):
        for j in (1, 2):
            mat[i, j] = 0.5
    path = tmp_path / "bell.state"
    write_state(path, DensityMatrix.create(mat, (2, 2)))
    return path


class TestParsing:
    def test_angles(self):
        assert parse_angle("pi/4") == math.pi / 4
        assert parse_angle("2pi/3") == 2 * math.pi / 3
        assert parse_angle("-pi") == -math.pi
        assert parse_angle("0.7854") == 0.7854

    def test_bad_angle(self):
        with pytest.raises(DmresError):
            parse_angle("four")

    @pytest.mark.parametrize("text", ["pi/0", "pi/0.0", "-2pi / 0"])
    def test_zero_denominator_is_a_domain_error(self, text):
        with pytest.raises(DmresError, match="divides by zero"):
            parse_angle(text)

    def test_elements(self):
        e = parse_element("01,10", (2, 2))
        assert e.s == (0, 1) and e.s_prime == (1, 0)
        with pytest.raises(DmresError):
            parse_element("0110", (2, 2))

    @pytest.mark.parametrize("dims", [(12, 12), (12,), (3, 3), (2, 2, 2)])
    def test_elements_read_their_labels(self, dims):
        for e in all_offdiagonal_elements(dims, ordered=True):
            assert parse_element(e.label(), dims) == e


class TestExtract:
    def test_maximally_mixed_prints_zero(self, mixed3, capsys):
        code = main(["extract", "--scheme", "res", "--element", "0,2",
                     "--g", "0.7854", "--state", str(mixed3)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Re = 0" in out and "Im = 0" in out

    def test_bell_swap_element(self, bell, capsys):
        code = main(["extract", "--scheme", "res", "--element", "01,10",
                     "--g", "pi/4", "--state", str(bell)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        re_val = float(lines[1].split("=")[1])
        assert abs(re_val - 0.5) < 1e-10

    def test_zero_strength_exits_3(self, mixed3, capsys):
        code = main(["extract", "--scheme", "res", "--element", "0,1",
                     "--g", "0", "--state", str(mixed3)])
        assert code == 3
        assert "sin(2g)=0" in capsys.readouterr().err

    def test_near_singular_res_strength_exits_3(self, mixed3, capsys):
        # sin(2g) is about 2e-10 here: inside the shared singular tolerance
        code = main(["extract", "--scheme", "res", "--element", "0,1",
                     "--g", repr(math.pi / 2 - 1e-10), "--state", str(mixed3)])
        assert code == 3
        assert "sin(2g)=0" in capsys.readouterr().err

    def test_near_singular_seq_strength_exits_3(self, mixed3, capsys):
        code = main(["extract", "--scheme", "seq", "--element", "0,1",
                     "--g", "1e-10", "--state", str(mixed3)])
        assert code == 3
        assert "no coupling" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["extract", "--scheme", "res", "--element", "0,1",
                     "--g", "0.3", "--state", str(tmp_path / "nope.state")])
        assert code == 2

    def test_out_of_range_element_exits_3(self, mixed3, capsys):
        code = main(["extract", "--scheme", "res", "--element", "0,5",
                     "--g", "0.3", "--state", str(mixed3)])
        assert code == 3

    def test_shot_output_and_plan_export(self, bell, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        code = main(["extract", "--scheme", "res", "--element", "01,10", "--g", "pi/4",
                     "--state", str(bell), "--shots", "1e6", "--seed", "3",
                     "--export-plan", str(plan_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "shot estimate" in out and "predicted stderr" in out
        doc = json.loads(plan_path.read_text())
        assert doc["scheme"] == "res"
        assert len(doc["coefficients"]) == 4 * 16


class TestCharacterize:
    def test_noiseless_roundtrip(self, tmp_path):
        rho = random_mixed_state((2, 2), stream(0, "cli"))
        src = tmp_path / "in.state"
        write_state(src, rho)
        out_dir = tmp_path / "out"
        code = main(["characterize", "--state", str(src), "--g", "pi/4",
                     "--out", str(out_dir), "--truth", str(src)])
        assert code == 0
        est = read_state(out_dir / "estimate.state", check_positive=False)
        assert np.max(np.abs(est.entries - rho.entries)) < 1e-10
        # output file round-trips bit-exactly through the reader
        text = (out_dir / "estimate.state").read_text()
        write_state(out_dir / "estimate2.state", est)
        assert (out_dir / "estimate2.state").read_text() == text
        report = (out_dir / "deviation.csv").read_text().splitlines()
        assert report[0].startswith("row,col")
        assert len(report) == 1 + 16

    def test_shot_mode_within_predicted_errors(self, tmp_path):
        rho = random_mixed_state((3,), stream(1, "cli"))
        src = tmp_path / "in.state"
        write_state(src, rho)
        out_dir = tmp_path / "out"
        code = main(["characterize", "--state", str(src), "--g", "pi/4", "--out", str(out_dir),
                     "--truth", str(src), "--shots", "1e6", "--seed", "5"])
        assert code == 0
        rows = (out_dir / "deviation.csv").read_text().splitlines()[1:]
        checks = []
        for row in rows:
            parts = row.split(",")
            dev, stderr = float(parts[6]), float(parts[7])
            checks.append(dev <= 5 * stderr)
        assert np.mean(checks) >= 0.99

    def test_empty_post_selection_exits_3_before_writing(self, tmp_path, capsys):
        # at n_t = 1e-3 the diagonal run of this seed counts no photon
        rho = random_mixed_state((2, 2), stream(0, "cli"))
        src = tmp_path / "in.state"
        write_state(src, rho)
        out_dir = tmp_path / "out"
        code = main(["characterize", "--state", str(src), "--g", "pi/4", "--out", str(out_dir),
                     "--shots", "1e-3"])
        assert code == 3
        assert "post-selection run at n_t=0.001 counted no photon" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_shot_report_builds_each_plan_once(self, tmp_path, monkeypatch):
        # each pair's plan serves both its draw and the deviation report;
        # entry (v, u) shares the shot variances of its conjugate (u, v)
        import dmres.res as res_module

        rho = random_mixed_state((2, 2), stream(4, "cli"))
        src = tmp_path / "in.state"
        write_state(src, rho)
        built = []
        counted = res_module.supports
        monkeypatch.setattr(res_module, "supports",
                            lambda elements: built.extend(elements) or counted(elements))
        code = main(["characterize", "--state", str(src), "--g", "0.6", "--out", str(tmp_path / "out"),
                     "--truth", str(src), "--shots", "1e5", "--seed", "2"])
        assert code == 0
        assert sorted((e.s_flat, e.s_prime_flat) for e in built) == [
            (u, v) for u in range(4) for v in range(u + 1, 4)]
        stderr = {}
        for row in (tmp_path / "out" / "deviation.csv").read_text().splitlines()[1:]:
            parts = row.split(",")
            stderr[int(parts[0]), int(parts[1])] = parts[7]
        assert all(stderr[u, v] == stderr[v, u] for u, v in stderr)


class TestPrecisionCommand:
    def test_rerun_output_is_byte_identical(self, tmp_path):
        # --workers is accepted and ignored, so this checks reruns only
        args = ["precision", "--system", "qutrit", "--scheme", "res",
                "--g-grid", "0.4,pi/4", "--samples", "150", "--seed", "4"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_point_report(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code = main(["precision", "--system", "qutrit", "--scheme", "res,seq",
                     "--g", "pi/4", "--samples", "150", "--out", str(out)])
        assert code == 0
        body = out.read_text().splitlines()
        assert body[0].startswith("scheme,N,d,g")
        rows = [line.split(",") for line in body[1:]]
        assert [row[0] for row in rows] == ["res", "seq"]
        assert abs(float(rows[0][6]) - 1 / 6) < 1e-12
        argmin = json.loads((tmp_path / "manifest.json").read_text())["argmin"]
        assert set(argmin) == {"res/per-setting-unit-time", "seq/per-setting-unit-time"}
        assert all(float(g) == math.pi / 4 for g in argmin.values())

    def test_empty_grid_exits_3(self, tmp_path):
        code = main(["precision", "--system", "qutrit", "--scheme", "res",
                     "--g-grid", ",", "--samples", "150", "--out", str(tmp_path / "x.csv")])
        assert code == 3

    @pytest.mark.parametrize("grid", ["", " , ,"])
    def test_grid_without_strengths_is_rejected(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        code = main(["precision", "--system", "qutrit", "--scheme", "res",
                     "--g-grid", grid, "--samples", "150", "--out", str(out)])
        assert code == 3
        assert "--g-grid" in capsys.readouterr().err
        assert not out.exists()


class TestBadInput:
    @pytest.mark.parametrize("args, cause", [
        (["precision", "--system", "qutrit", "--scheme", "foo", "--samples", "150"],
         "unknown scheme 'foo'"),
        (["precision", "--system", "qutrit", "--scheme", "", "--samples", "150"], "unknown scheme ''"),
        (["precision", "--system", "qutrit", "--g-grid", "0.4,pi/4", "--samples", "0"],
         "samples >= 100, got 0"),
        (["precision", "--system", "qutrit", "--g", "pi/4", "--samples", "0"], "samples >= 100, got 0"),
        (["precision", "--system", "qutrit", "--g-grid", "0,pi/2", "--samples", "150"], "sin(2g)=0 at g=0.0"),
        (["precision", "--system", "qutrit", "--g-grid", "nan,0.5", "--samples", "150"],
         "coupling strength g=nan is not finite"),
        (["scenario", "fig4a", "--samples", "0"], "samples >= 100, got 0"),
        (["extract", "--scheme", "res", "--element", "0,1", "--g", "nan"],
         "coupling strength g=nan is not finite"),
        (["extract", "--scheme", "seq", "--element", "0,1", "--g", "nan"],
         "coupling strength g=nan is not finite"),
        (["extract", "--element", "0,1", "--g", "pi/4", "--shots", "inf"], "photon rate n_t=inf"),
        (["extract", "--element", "0,1", "--g", "pi/0.0"], "cannot parse angle 'pi/0.0': it divides by zero"),
        (["precision", "--system", "qutrit", "--g", "pi/0", "--samples", "150"],
         "cannot parse angle 'pi/0': it divides by zero"),
        (["precision", "--system", "qutrit", "--g-grid", "0.4,pi/0", "--samples", "150"],
         "cannot parse angle 'pi/0': it divides by zero"),
        (["scenario", "fig3a", "--g", "pi/0"], "cannot parse angle 'pi/0': it divides by zero"),
        (["precision", "--system", "qutrit", "--scheme", "res,res", "--samples", "150"],
         "scheme 'res' is requested twice"),
        (["precision", "--system", "0,2", "--g", "0.5", "--samples", "150"],
         "invalid system (0 qudits of dimension 2)"),
        (["extract", "--element", "1,1", "--g", "pi/4", "--shots", "1e6"],
         "--shots and --export-plan cannot be used with diagonal element 1,1"),
        (["extract", "--scheme", "seq", "--element", "2,2", "--g", "pi/4"],
         "--export-plan cannot be used with diagonal element 2,2"),
        (["scenario", "fig4a", "--g", "0.3"], "fig4a sweeps its strength grid and reads no single g (got 0.3)"),
        (["scenario", "fig3a", "--sampled-run", "3"],
         "fig3a has no sampled run: only fig4a and fig4b shot-simulate random states"),
        (["scenario", "fig4b", "--sampled-run", "-1"], "sampled_run must be >= 0, got -1"),
        (["scenario", "fig3a", "--samples", "500"],
         "fig3a extracts from fixed states and draws no Haar samples (got samples=500)"),
        (["scenario", "fig4a", "--n-t", "5"],
         "fig4a reads n_t only for its sampled run, and none is requested (got n_t=5)"),
        (["precision", "--system", "qutrit", "--g", "0.3", "--g-grid", "0.5,0.9", "--samples", "150"],
         "--g 0.3 and --g-grid 0.5,0.9 both name strengths; give one"),
    ])
    def test_exits_3_naming_the_cause(self, mixed3, tmp_path, capsys, args, cause):
        out = tmp_path / "out"
        out.mkdir()
        args = args + {
            "precision": ["--out", str(out / "rep.csv")],
            "scenario": ["--out", str(out)],
            "extract": ["--state", str(mixed3), "--export-plan", str(out / "plan.json")],
        }[args[0]]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert cause in captured.err
        assert captured.out == ""
        assert list(out.iterdir()) == []


class TestCharacterizeBadInput:
    @pytest.mark.parametrize("extra, code, cause", [
        (["--g", "0"], 3, "sin(2g)=0"),
        (["--g", "nan"], 3, "coupling strength g=nan is not finite"),
        (["--g", "pi/0"], 3, "cannot parse angle 'pi/0': it divides by zero"),
        (["--g", "pi/4", "--shots", "inf"], 3, "photon rate n_t=inf"),
        (["--g", "pi/4", "--truth", "MISSING"], 2, "cannot parse state file"),
        (["--g", "pi/4", "--truth", "BELL"], 3, "truth dims (2, 2) differ from state dims (3,)"),
        (["--g", "pi/4", "--truth", ""], 2, "cannot parse state file"),
    ])
    def test_checks_before_writing(self, mixed3, bell, tmp_path, capsys, extra, code, cause):
        # every check and the estimate come before --out is created
        files = {"MISSING": str(tmp_path / "missing.state"), "BELL": str(bell)}
        extra = [files.get(a, a) for a in extra]
        out = tmp_path / "out"
        assert main(["characterize", "--state", str(mixed3), "--out", str(out)] + extra) == code
        captured = capsys.readouterr()
        assert cause in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestWorkersEnvironment:
    @pytest.mark.parametrize("command", [
        ["precision", "--system", "qutrit", "--scheme", "res", "--g", "0.5", "--samples", "150"],
        ["validate", "--group", "counts"],
    ])
    def test_workers_environment_is_ignored(self, tmp_path, monkeypatch, command):
        # DMRES_WORKERS is not read, so even a non-number cannot break a run
        monkeypatch.setenv("DMRES_WORKERS", "abc")
        if command[0] == "precision":
            command = command + ["--out", str(tmp_path / "x.csv")]
        assert main(command) == 0


class TestScenarioCommand:
    def test_fig3a_outputs(self, tmp_path):
        code = main(["scenario", "fig3a", "--out", str(tmp_path)])
        assert code == 0
        out = tmp_path / "fig3a"
        assert (out / "fig3a.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "README.md").exists()

    def test_unknown_scenario_exits_3(self, tmp_path):
        code = main(["scenario", "fig9z", "--out", str(tmp_path)])
        assert code == 3

    def test_seeded_reruns_identical(self, tmp_path):
        for sub in ("r1", "r2"):
            assert main(["scenario", "fig3b", "--out", str(tmp_path / sub), "--seed", "6"]) == 0
        a = (tmp_path / "r1" / "fig3b" / "fig3b.csv").read_bytes()
        b = (tmp_path / "r2" / "fig3b" / "fig3b.csv").read_bytes()
        assert a == b


class TestParserReuse:
    """One parser serves every call of a process; no call changes what a later one gets."""

    def test_calls_in_turn_keep_exit_codes_and_outputs(self, tmp_path, mixed3, capsys):
        calls = {
            "precision": (0, lambda out: ["precision", "--system", "qutrit", "--scheme", "res,seq",
                                          "--g-grid", "0.4,pi/4", "--samples", "150", "--out", f"{out}/p.csv"]),
            "scenario": (0, lambda out: ["scenario", "fig3b", "--seed", "6", "--out", str(out)]),
            "bad argument": (2, lambda out: ["precision", "--system", "qutrit", "--samples", "many",
                                             "--out", f"{out}/x.csv"]),
            "characterize": (0, lambda out: ["characterize", "--state", str(mixed3), "--g", "0.6",
                                             "--out", f"{out}/c"]),
        }

        def run(name, out):
            code, argv = calls[name]
            try:
                got = main(argv(out))
            except SystemExit as exc:  # argparse rejects the argument
                got = exc.code
            assert got == code, name
            printed = capsys.readouterr()
            files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}
            return printed.out.replace(str(out), "OUT"), printed.err.replace(str(out), "OUT"), files

        first = {name: run(name, tmp_path / "first" / name) for name in calls}
        again = {name: run(name, tmp_path / "again" / name) for name in reversed(calls)}
        assert first == again
        assert first["bad argument"][1].endswith("invalid int value: 'many'\n")
        assert build_parser() is build_parser()


class TestValidateCommand:
    def test_single_group(self, capsys):
        code = main(["validate", "--group", "exactness"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_full_run_under_budget(self, capsys):
        t0 = time.perf_counter()
        code = main(["validate"])
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 300
        out = capsys.readouterr().out
        assert out.count("PASS") == 9
        assert "haar-mean" in out

    def test_fault_injection_caught(self, monkeypatch):
        # flipping the sign of one weight of every res plan must trip the unbiasedness group
        import dmres.validate as v

        build = v.plan_res

        def flipped(element, g):
            plan = build(element, g)
            weights = plan.weights.copy()
            idx = np.unravel_index(np.argmax(np.abs(weights)), weights.shape)
            weights[idx] = -weights[idx]
            object.__setattr__(plan, "weights", weights)
            return plan

        monkeypatch.setattr(v, "plan_res", flipped)
        results = run_validation(["unbiasedness"])
        assert not results[0].passed
        assert results[0].name == "unbiasedness"

    def test_cli_reports_failure_naming_group(self, monkeypatch, capsys):
        import dmres.validate as v

        monkeypatch.setitem(v.GROUPS, "unbiasedness", lambda: (False, "injected"))
        code = main(["validate", "--group", "unbiasedness"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "unbiasedness" in out
