"""End-to-end orchestration: artifacts, determinism, sweeps, CLI contract."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest

from conftest import fast_config
from parosc import pipeline
from parosc.cli import main
from parosc.config import RunConfig, validate_config
from parosc.errors import ConfigError, SpectralError
from parosc.fitting import DoublePairModel
from parosc.pipeline import (
    PSD_FILES,
    FIT_FILES,
    _ratio,
    report_artifacts,
    run_single,
    run_sweep_ratio_vs_s,
    run_sweep_variance_vs_tone_ratio,
)
from parosc.spectral import Psd

TWO_PI = 2.0 * math.pi


def tiny_config(**overrides):
    merged = dict(
        duration="12s", schedule_period="3s", welch_segment="0.7s",
        repetitions="2", seed="1234",
    )
    merged.update(overrides)
    return fast_config(**merged)


def fit_to_known_spectrum(monkeypatch, *areas, reps=(0, 1)):
    """Have the pipeline's double fits of repetitions `reps` fit, instead
    of the record, the noise-free double-pair spectrum at s = 0.5 with the
    areas (broad Stokes, narrow Stokes, broad anti-Stokes, narrow
    anti-Stokes) about the tiny grid's sideband centres, at its own
    20 Hz reference width."""
    centers = (6100.0, 3900.0)
    freqs = np.linspace(3500.0, 6500.0, 3001)
    density = DoublePairModel(*centers, 20.0).value(np.array([0.004, 0.5, *areas]), freqs)
    known = Psd(freqs=freqs, density=density, rbw=1.0, n_averages=100, effective_averages=100.0,
                window="hann", onesided=True)
    fit_double = pipeline.fit_double_pair
    calls = count()

    def fit(psd, gamma_eff, centers_hz, margin):
        if next(calls) in reps:
            assert centers_hz == pytest.approx(centers)
            return fit_double(known, TWO_PI * 20.0, centers_hz, margin)
        return fit_double(psd, gamma_eff, centers_hz, margin)

    monkeypatch.setattr(pipeline, "fit_double_pair", fit)


def read_tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestImports:
    def test_package_imports_no_scipy_signal_or_stats(self):
        # scipy.signal pulls in scipy.stats: together about half the set-up
        # time of a verb and 20-30 MiB of its peak resident memory;
        # scipy.optimize pulls in scipy.sparse and scipy.spatial, another
        # 16 MiB
        modules = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.sparse", "scipy.spatial")
        code = (
            "import sys\n"
            "import parosc, parosc.pipeline, parosc.cli\n"
            f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]


class TestRunSingle:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("single")
        report = run_single(tiny_config(), out)
        return out, report

    def test_artifacts_complete(self, run):
        out, report = run
        for name in ("config.txt", "report.json", "report.txt"):
            assert (out / name).exists()
        for rep in range(2):
            for name in PSD_FILES + FIT_FILES:
                assert (out / f"rep{rep:02d}" / name).exists(), name
        for rel in report["artifacts"]:
            assert (out / rel).exists(), rel

    def test_ratio_over_zero_consistent_area_not_estimated(self, tmp_path, monkeypatch):
        # both repetitions fit a spectrum whose broad anti-Stokes area is
        # negative (the weights at n_bar = 0.24 < s/2), within two sigma of
        # zero for any sigma, so R+ is not an estimate
        fit_to_known_spectrum(monkeypatch, 1.49, 0.99, -0.01, 0.49)
        report = run_single(tiny_config(), tmp_path)
        for rep in range(2):
            doc = json.loads((tmp_path / f"rep{rep:02d}" / "fit_heterodyne_double.json").read_text())
            assert "area_broad_antistokes_consistent_with_zero" in doc["flags"]
        check = next(c for c in report["checks"] if c["name"] == "r_plus_recovery")
        assert not check["passed"]
        assert check["detail"] == "not estimated: area_broad_antistokes consistent with zero in rep 00"

    @pytest.mark.realization
    def test_flat_phase_warning_names_the_seed(self, tmp_path):
        # at s = 0 the demodulation phase is undefined; the warning names the
        # repetition and points at the line that called run_single
        with pytest.warns(UserWarning, match="seed") as caught:
            report = run_single(tiny_config(s_target="0", repetitions="1"), tmp_path)
        flat = [w for w in caught if "flat in the demodulation phase" in str(w.message)]
        assert len(flat) == 1
        assert f"repetition seed {report['seeds'][0]}:" in str(flat[0].message)
        assert flat[0].filename == __file__

    def test_degenerate_fit_warning_names_the_seed(self, tmp_path, monkeypatch):
        # a fit with a near-singular normal matrix warns once, naming the
        # repetition, the fit's artifact and the direction, at the line that
        # called run_single
        fit_double = pipeline.fit_double_pair
        monkeypatch.setattr(
            pipeline, "fit_double_pair",
            lambda *args: replace(fit_double(*args), degenerate_direction="+0.71 s -0.71 area"),
        )
        with pytest.warns(UserWarning, match="near-singular") as caught:
            report = run_single(tiny_config(repetitions="1"), tmp_path)
        singular = [w for w in caught if "near-singular" in str(w.message)]
        assert len(singular) == 1
        message = str(singular[0].message)
        assert f"repetition seed {report['seeds'][0]}: fit_heterodyne_double.json:" in message
        assert message.endswith("direction: +0.71 s -0.71 area")
        assert singular[0].filename == __file__

    def test_artifacts_carry_config_hash(self, run):
        out, report = run
        cfg_hash = report["config_hash"]
        first = (out / "rep00" / "heterodyne_detuned.csv").read_text().splitlines()[0]
        assert cfg_hash in first
        fit = json.loads((out / "rep00" / "fit_heterodyne_double.json").read_text())
        assert fit["provenance"]["config_hash"] == cfg_hash

    def test_report_structure(self, run):
        _, report = run
        agg = report["aggregate"]
        assert len(agg["s_hat"]["values"]) == 2
        assert agg["s_hat"]["std"] >= 0.0
        assert report["theory"]["s"] == 0.5
        assert {c["name"] for c in report["checks"]} >= {
            "s_recovery", "r_plus_recovery", "gamma_eff_reference",
            "detuned_channels_indistinguishable",
        }
        assert report["tolerances"]["s_abs"] == 0.05
        assert "lockin" in report

    def test_report_records_library_versions(self, run):
        # artifact bytes are fixed per config, seed and environment: the
        # FFTs' rounding depends on numpy and scipy
        import scipy

        import parosc

        out, report = run
        expected = {"parosc": parosc.__version__, "numpy": np.__version__, "scipy": scipy.__version__}
        assert report["provenance"] == expected
        assert json.loads((out / "report.json").read_text())["provenance"] == expected

    @pytest.mark.realization
    def test_phase_optimizer_recovers_frame(self, run):
        _, report = run
        agg = report["aggregate"]
        for theta, phi in zip(agg["theta_star"]["values"], agg["frame_phase"]["values"]):
            delta = abs((theta - phi + math.pi / 2) % math.pi - math.pi / 2)
            assert delta < 0.2

    def test_report_verb_renders(self, run):
        out, _ = run
        text, ok = report_artifacts(out)
        assert "checks:" in text
        assert "config hash" in text


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny_config(repetitions="1")
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_single(cfg, a)
        run_single(cfg, b)
        ta, tb = read_tree_bytes(a), read_tree_bytes(b)
        assert ta.keys() == tb.keys()
        for name in ta:
            assert ta[name] == tb[name], name

    def test_seed_changes_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_single(tiny_config(repetitions="1"), a)
        run_single(tiny_config(repetitions="1", seed="999"), b)
        assert (a / "rep00" / "heterodyne_detuned.csv").read_bytes() != (
            b / "rep00" / "heterodyne_detuned.csv"
        ).read_bytes()

    def test_run_single_worker_count_does_not_change_bytes(self, tmp_path):
        # raw records included: the streamed records must not depend on it
        trees = {}
        for workers in (1, 2, 5):
            out = tmp_path / f"w{workers}"
            run_single(tiny_config(workers=str(workers), keep_raw="true"), out)
            trees[workers] = read_tree_bytes(out)
        for workers in (2, 5):
            assert trees[1].keys() == trees[workers].keys()
            for name in trees[1]:
                assert trees[1][name] == trees[workers][name], (workers, name)

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = tiny_config(repetitions="1")
        s_values = [0.0, 0.3, 0.5]
        a = tmp_path / "w1"
        b = tmp_path / "w2"
        run_sweep_ratio_vs_s(cfg.with_overrides(workers="1"), s_values, a)
        run_sweep_ratio_vs_s(cfg.with_overrides(workers="3"), s_values, b)
        ta, tb = read_tree_bytes(a), read_tree_bytes(b)
        assert ta.keys() == tb.keys()
        for name in ta:
            assert ta[name] == tb[name], name


class TestSweepRatios:
    def test_empty_sweep_is_refused(self, tmp_path):
        # a sweep of no points is a config error, refused before its
        # directory is made
        with pytest.raises(ConfigError, match="no s_set values to sweep"):
            run_sweep_ratio_vs_s(tiny_config(), [], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_failed_point_is_isolated(self, tmp_path):
        cfg = tiny_config(n_bar="0.3")
        summary = run_sweep_ratio_vs_s(cfg, [0.1, 0.7], tmp_path)
        assert summary[0]["status"] == "ok"
        assert summary[1]["status"] == "failed"
        assert "quantum" in summary[1]["error"].lower() or "0.7" in summary[1]["error"]
        rows = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == "ok"
        assert rows[2].split(",")[2] == "failed"
        assert (tmp_path / "point_00" / "report.json").exists()

    def test_theory_overlay_rows_are_model_ratios(self, tmp_path):
        from parosc.model import ratios

        cfg = tiny_config(n_bar="3.2")
        # one point that fails at once (s >= 1 is unstable): the overlay
        # does not depend on the points
        run_sweep_ratio_vs_s(cfg, [1.5], tmp_path)
        lines = (tmp_path / "theory_overlay.csv").read_text().splitlines()
        assert lines[0] == "s,r_plain,r_plus,r_minus"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(rows) == 96
        for s, *row in rows:
            assert row == pytest.approx(list(ratios(3.2, s)), rel=1e-11)

    def test_summary_columns(self, tmp_path):
        summary = run_sweep_ratio_vs_s(tiny_config(repetitions="1"), [0.5], tmp_path)
        assert summary[0]["status"] == "ok"
        header = (tmp_path / "sweep_summary.csv").read_text().splitlines()[0].split(",")
        assert header[:5] == ["index", "s_set", "status", "s_hat", "s_hat_sigma"]
        assert "theory_r_plus" in header

    @staticmethod
    def _flat_phase_warnings(cfg, s_values, out):
        with pytest.warns(UserWarning) as caught:
            run_sweep_ratio_vs_s(cfg, s_values, out)
        flat = [w for w in caught if "flat in the demodulation phase" in str(w.message)]
        assert flat
        return flat

    @pytest.mark.realization
    def test_point_warning_names_the_sweep_caller(self, tmp_path):
        # at s = 0 a point's phase is undefined; its warning points at the
        # line that called the sweep, not at a line of the package
        flat = self._flat_phase_warnings(tiny_config(repetitions="1", workers="1"), [0.0], tmp_path)
        assert [w.filename for w in flat] == [__file__]

    @pytest.mark.realization
    def test_pool_point_warning_is_not_the_packages(self, tmp_path):
        # points on pool threads have no caller frame of their own: the
        # warning names the line that called the sweep, which the sweep
        # recorded on the calling thread
        flat = self._flat_phase_warnings(tiny_config(repetitions="1", workers="2"), [0.0, 0.0], tmp_path)
        assert [w.filename for w in flat] == [__file__] * len(flat)


class TestNonFiniteRatios:
    def test_ratio_over_zero_is_infinite(self):
        # a fitted variance may sit on its lower bound 0
        assert _ratio((1.0, 0.1), (0.0, 0.2)) == (math.inf, math.inf)
        val, sig = _ratio((1.0, 0.1), (2.0, 0.2))
        assert val == 0.5
        assert sig == pytest.approx(0.5 * math.hypot(0.1, 0.1), rel=1e-15)

    def test_zero_denominator_area_is_flagged(self, tmp_path, monkeypatch):
        # the second repetition fits a spectrum with a narrow anti-Stokes
        # dip, so its narrow anti-Stokes area sits on its bound 0, r_minus
        # is inf and its spread over the repetitions undefined
        fit_to_known_spectrum(monkeypatch, 1.2, 0.9, 0.5, -0.05, reps=(1,))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run_single(tiny_config(n_bar="0.3", s_target="0.1", workers="1"), tmp_path)
        r_minus = report["aggregate"]["r_minus"]
        assert math.isinf(r_minus["values"][1])
        assert math.isnan(r_minus["std"])
        doc = json.loads((tmp_path / "rep01" / "fit_heterodyne_double.json").read_text())
        assert "area_narrow_antistokes_consistent_with_zero" in doc["flags"]


class TestSweepVariances:
    @pytest.mark.realization
    def test_epsilon_one_gives_unity_ratios(self, tmp_path):
        cfg = tiny_config(
            repetitions="1",
            rate_source="params", g="5kHz", epsilon_c="0.8", delta_pump="200kHz",
        )
        summary = run_sweep_variance_vs_tone_ratio(cfg, [1.0], tmp_path)
        assert summary[0]["status"] == "ok", summary[0]["error"]
        report = summary[0]["report"]
        assert report["theory"]["s"] == 0.0
        assert report["aggregate"]["var_ratio_x"]["mean"] == pytest.approx(1.0, abs=0.15)
        assert report["aggregate"]["var_ratio_y"]["mean"] == pytest.approx(1.0, abs=0.15)


class TestCli:
    def test_validate_config_ok(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(tiny_config().snapshot())
        assert main(["validate-config", "--config", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("sample_rate = 1kHz\n")
        assert main(["validate-config", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_fit_band_too_narrow_exit_2(self, tmp_path, capsys):
        # 3 Hz of quadrature band holds 2 bins of the 1.43 Hz Welch axis:
        # refused before anything is synthesized
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(tiny_config(repetitions="1", fit_margin="3Hz").snapshot())
        assert main(["validate-config", "--config", str(cfg_path)]) == 2
        assert "quadrature fit band holds 2 bins" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        assert main(["validate-config", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "line",
        [
            "n_bar = ..", "n_bar = 1e", "decimate = 2.7", "window = nosuch",
            # a 3-sample Welch hop on the defaults: judged, never run
            "welch_overlap = 0.99999",
            # removed keys that were never read
            "omega_par_offset = 12kHz", "mass = 1e-10", "temperature = 7K",
            # no longer checked by CavityPumpParams, only here
            "delta_lo = 0Hz",
            # each once crashed validation or failed only after synthesis
            "welch_segment = 0s", "welch_segment = -1s", "q_factor = 0", "fit_margin = 0Hz",
            # found by fuzzing: an empty required value, a number that overflows
            "n_bar = ", "duration = 1e999s",
            # 2e8 drive segments: refused before the schedule is built
            "duration = 1e9s",
            # each once passed validation and raised a traceback in simulate
            "shot_psd = -0.001", "seed = -1",
            # a sample count that overflows a float
            "duration = 1e300s\nschedule_period = 1e296s\nwelch_segment = 4e295s\n"
            "sample_rate = 1e20Hz",
        ],
    )
    def test_malformed_value_exit_2(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        assert main(["validate-config", "--config", str(path)]) == 2
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stopband_above_nyquist_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("decimate = 1\ncarrier = 80kHz\nlowpass_cutoff = 30kHz\n")
        assert main(["validate-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "config error: lowpass_cutoff 30000 Hz: stopband edge 130000 Hz leaves no "
            "response point below the Nyquist frequency 125000 Hz\n"
        )

    @pytest.mark.parametrize("line", ["gain = 0", "gain = -1"])
    def test_gain_not_positive_exit_2(self, tmp_path, capsys, line):
        # a record without signal is pure shot noise and fails most checks
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        config = RunConfig.from_text(path.read_text())
        assert validate_config(config) == [f"gain must be > 0, got {config.values['gain']:.6g}"]
        assert main(["validate-config", "--config", str(path)]) == 2
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: gain must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["validate-config", "simulate", "sweep-ratios", "sweep-variances"])
    @pytest.mark.parametrize("config", ["missing.cfg", ".", "binary.cfg"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, monkeypatch, verb, config):
        monkeypatch.chdir(tmp_path)
        Path("binary.cfg").write_bytes(b"\xff\xfe\x00")
        out = [] if verb == "validate-config" else ["--out", "out"]
        assert main([verb, "--config", config, *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not Path("out").exists()

    @pytest.mark.parametrize("verb", ["simulate", "sweep-ratios", "sweep-variances"])
    def test_out_is_a_file_exit_2(self, tmp_path, capsys, verb):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(tiny_config(repetitions="1").snapshot())
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert main([verb, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory") and err.count("\n") == 1
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "verb,option,values",
        [
            ("sweep-ratios", "--s-values", "0.1,abc"),
            ("sweep-variances", "--epsilon-values", "1.0,0.9x"),
        ],
    )
    def test_malformed_value_list_exit_2(self, tmp_path, capsys, verb, option, values):
        out = tmp_path / "out"
        assert main([verb, "--out", str(out), option, values]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb,option,values", [
        ("sweep-ratios", "--s-values", ""),
        ("sweep-variances", "--epsilon-values", ","),
    ])
    def test_empty_value_list_exit_2(self, tmp_path, capsys, verb, option, values):
        out = tmp_path / "out"
        assert main([verb, "--out", str(out), option, values]) == 2
        assert f"config error: the value list {values!r} is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("segment", ["2.4204s", "2.4204225s"])
    def test_welch_segments_counted_in_samples_exit_2(self, tmp_path, capsys, segment):
        # two segments fit the 4.841 s usable part in seconds, but not in
        # samples: at 2.4204 s not the lock-in output's slice (2 x 75,638 >
        # 151,252), at 2.4204225 s not the record's (2 x 605,106 > 1,210,211);
        # once a run failed on it after synthesis, with exit 3
        path = tmp_path / "run.cfg"
        path.write_text(f"duration = 20s\nwelch_overlap = 0\nwelch_segment = {segment}\n")
        assert main(["validate-config", "--config", str(path)]) == 2
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("usable part of each drive segment" in line for line in err)
        assert not (tmp_path / "out").exists()

    def test_simulate_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(tiny_config(repetitions="1").snapshot())
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "report.txt").exists()
        code = main(["report", "--out", str(out)])
        captured = capsys.readouterr()
        assert "checks:" in captured.out
        assert code in (0, 4)

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_report_out_not_a_directory_exit_2(self, tmp_path, capsys, kind):
        out = tmp_path / "out"
        if kind == "file":
            out.write_text("not a directory\n")
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_report_empty_directory_exit_4(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 4
        captured = capsys.readouterr()
        assert "missing report.json" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        "name,text",
        [
            ("report.json", '{"config_hash": "ab'),  # truncated
            ("report.json", "{}"),
            ("sweep_summary.csv", "index,s_set,status,error\nnot a row\n"),
            ("sweep_summary.csv", "index,s_set,status,error\nx,0.1,failed,boom\n"),
        ],
        ids=["truncated-report", "empty-report", "short-summary-row", "bad-summary-index"],
    )
    def test_report_corrupt_artifact_exit_4(self, tmp_path, capsys, name, text):
        (tmp_path / name).write_text(text)
        assert main(["report", "--out", str(tmp_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out.startswith(f"unreadable {tmp_path / name}: ")
        assert captured.out.count("\n") == 1
        assert captured.err == ""

    def test_report_sweep_without_points_exit_4(self, tmp_path, capsys):
        path = tmp_path / "sweep_summary.csv"
        path.write_text("index,s_set,status,error\n")
        assert main(["report", "--out", str(tmp_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == f"no points in {path}\n"
        assert captured.err == ""

    @pytest.mark.parametrize("workers", ["0", "65", "1000000"])
    def test_workers_out_of_range_exit_2(self, tmp_path, capsys, workers):
        path = tmp_path / "run.cfg"
        path.write_text(f"workers = {workers}\n")
        assert main(["validate-config", "--config", str(path)]) == 2
        assert f"workers must lie in [1, 64], got {workers}" in capsys.readouterr().err

    def test_report_missing_artifacts_exit_4(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(tiny_config(repetitions="1").snapshot())
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        (out / "rep00" / "heterodyne_detuned.csv").unlink()
        assert main(["report", "--out", str(out)]) == 4

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(tiny_config(repetitions="1").snapshot())
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        main(["simulate", "--config", str(cfg_path), "--out", str(out1), "--seed", "7"])
        main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--seed", "8"])
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        assert a["seeds"] != b["seeds"]


class TestAnalyticOnlyMode:
    def test_quantum_regime_emits_analytic_report(self, tmp_path):
        cfg = tiny_config(n_bar="0.3", s_target="0.7")
        report = run_single(cfg, tmp_path)
        assert report["mode"] == "analytic_only"
        assert report["theory"]["regime"]["quantum_squeezed"] is True
        assert (tmp_path / "analytic_stokes.csv").exists()
        assert (tmp_path / "analytic_antistokes.csv").exists()
        text = (tmp_path / "report.txt").read_text()
        assert "quantum-squeezing regime" in text
        assert "analytic spectra only" in text
        _, ok = report_artifacts(tmp_path)
        assert ok  # no checks, nothing missing

    def test_sweep_point_in_regime_marked_failed(self, tmp_path):
        cfg = tiny_config(n_bar="0.3")
        summary = run_sweep_ratio_vs_s(cfg, [0.7], tmp_path)
        assert summary[0]["status"] == "failed"
        assert "quantum-squeezing" in summary[0]["error"]
        # the refused point leaves no point_00/, only its failed row, which
        # alone fails the sweep's report
        assert not (tmp_path / "point_00").exists()
        text, ok = report_artifacts(tmp_path)
        assert not ok
        assert "point_00 [FAILED] QuantumSqueezingRegimeError" in text
        assert main(["report", "--out", str(tmp_path)]) == 4


class TestSweepFailedRows:
    @pytest.mark.parametrize(
        "sweep,cfg,values",
        [
            (run_sweep_ratio_vs_s, dict(n_bar="0.3"), [0.7]),
            # epsilon_c = 0 leaves only the anti-damping modulation tone
            (
                run_sweep_variance_vs_tone_ratio,
                dict(rate_source="params", g="5kHz", delta_pump="200kHz"),
                [0.0],
            ),
        ],
        ids=["ratios", "variances"],
    )
    def test_failed_row_fills_the_header(self, tmp_path, sweep, cfg, values):
        summary = sweep(tiny_config(**cfg), values, tmp_path)
        assert [e["status"] for e in summary] == ["failed"]
        header, *rows = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        header = header.split(",")
        assert header[-1] == "error"
        cells = rows[0].split(",", len(header) - 1)
        assert len(cells) == len(header)
        assert cells[2] == "failed"
        assert cells[-1] == summary[0]["error"]
        assert all(c == "" for c in cells[3:-1])


class TestCliNumericalFailure:
    def test_runtime_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # a valid config whose quadrature fit fails at runtime
        def failing_fit(*args, **kwargs):
            raise SpectralError("fit band selects fewer than 8 bins")

        monkeypatch.setattr(pipeline, "fit_quadrature", failing_fit)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(tiny_config(repetitions="1").snapshot())
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "stage 'quadrature fit'" in err

    @pytest.mark.filterwarnings(
        "ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning", "ignore:repetition seed:UserWarning"
    )
    @pytest.mark.parametrize("setting", [{"gain": "1e150"}, {"shot_psd": "1e300"}])
    def test_overflowed_power_exit_3(self, tmp_path, capsys, setting):
        # the Welch power overflows to inf; the fits refuse it instead of
        # passing it to lstsq
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(tiny_config(repetitions="1", **setting).snapshot())
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: stage '") and "fit': fit band holds a non-finite density" in err


class TestWorkersArgument:
    # the config key workers is the one way to set the workers, and it is
    # validated before any directory is made or pool started
    def test_run_single_refuses_zero_workers(self, tmp_path):
        with pytest.raises(ConfigError, match=r"workers must lie in \[1, 64\], got 0"):
            run_single(tiny_config(repetitions="1", workers="0"), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_sweep_refuses_zero_workers(self, tmp_path):
        with pytest.raises(ConfigError, match=r"workers must lie in \[1, 64\], got 0"):
            run_sweep_ratio_vs_s(tiny_config(repetitions="1", workers="0"), [0.3], tmp_path / "out")
        assert not (tmp_path / "out").exists()


def _traced_peak(cfg, out) -> float:
    """The tracemalloc peak of run_single, in records of 8 bytes a sample.
    The module caches are cleared first: what earlier tests left in them
    would otherwise be missing from the peak."""
    import tracemalloc

    from parosc import detect, spectral, synth

    detect._block_phasor.cache_clear()
    spectral._window_terms.cache_clear()
    synth._ou_band.cache_clear()
    tracemalloc.start()
    try:
        run_single(cfg, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * cfg.grid(0).n_samples)


class TestMemoryBound:
    def test_traced_peak_is_a_few_real_records(self, tmp_path):
        # Both records are streamed in blocks and no array spans the
        # record, so the traced peak stays below 1.6 records of 8 bytes per
        # sample (1.15 here, 0.08 of it the OU chains' solve bands, one
        # per decay; 0.96 while the blocks were also cut at the
        # drive-segment bounds, which made most of them shorter on this
        # grid).
        # Holding the decimated complex baseband whole (half a record at
        # decimate 4) peaked at 1.41 records on this grid, the component
        # record whole at 1.80, whole-record synthesis (two complex
        # envelopes beside the record) at 6.5.
        cfg = tiny_config(duration="60s", schedule_period="5s", repetitions="1")
        peak = _traced_peak(cfg, tmp_path)
        assert peak < 1.6, peak

    def test_keep_raw_peak_below_two_records(self, tmp_path):
        # With keep_raw each record piece is written from the array the run
        # already holds, and each piece of the demodulated channels as the
        # lock-in hands it on (rotated in the file at the end); the peak
        # stays below 1.5 records (1.15 here).  With the component record
        # held whole it peaked at 1.63 records on this grid, and copying
        # the records and channels for the dump at 3.0.
        cfg = tiny_config(duration="60s", schedule_period="5s", repetitions="1", keep_raw="true")
        peak = _traced_peak(cfg, tmp_path)
        assert (tmp_path / "rep00" / "raw" / "record_component.bin").exists()
        assert peak < 1.5, peak

    def test_peak_with_segments_longer_than_a_block(self, tmp_path):
        # 15 s drive segments of 375 000 samples span several processing
        # blocks.  Only the slice assembler's one buffer, one pass at a
        # time, is segment-sized, so the peak stays below 1.6 records (1.36
        # here); with every stage working on whole segments it read 2.09
        # records.
        cfg = tiny_config(duration="60s", schedule_period="15s", repetitions="1")
        peak = _traced_peak(cfg, tmp_path)
        assert peak < 1.6, peak

    def test_peak_does_not_grow_with_the_record(self, tmp_path):
        # No array of a repetition spans the record: the traced peaks at 60 s
        # and 120 s differ by less than one 3 s drive segment of decimated
        # baseband (16 bytes a sample at 6.25 kHz).  They differed by 6 KB
        # here; with the baseband held whole, by its 60 s, 6 MB.
        peaks = []
        for duration in (60, 120):
            cfg = tiny_config(duration=f"{duration}s", repetitions="1")
            records = _traced_peak(cfg, tmp_path / f"{duration}s")
            peaks.append(records * 8 * cfg.grid(0).n_samples)
        segment_bytes = 16 * 3.0 * 25e3 / 4
        assert abs(peaks[1] - peaks[0]) < segment_bytes, peaks


class TestKeepRaw:
    def test_raw_records_persisted(self, tmp_path):
        cfg = tiny_config(repetitions="1", keep_raw="true")
        run_single(cfg, tmp_path)
        raw = tmp_path / "rep00" / "raw"
        assert (raw / "record_wigner.bin").exists()
        assert (raw / "record_component.bin").exists()
        assert (raw / "demod_channels.bin").exists()
        from parosc.recordio import read_record_bin

        samples, rate = read_record_bin(raw / "record_wigner.bin")
        assert rate == 25e3
        assert len(samples) == int(12 * 25e3)


class TestWidthCrossCheck:
    @pytest.mark.realization
    def test_heterodyne_widths_agree_with_quadrature_widths(self, tmp_path):
        # the double-fit widths gamma_eff(1 +- s) agree with the directly
        # fitted channel widths of the same run within joint uncertainty
        cfg = fast_config(duration="60s", repetitions="2", seed="20260823")
        report = run_single(cfg, tmp_path / "run")
        agg = report["aggregate"]
        gamma_ref = np.array(agg["gamma_eff_ref_hz"]["values"])
        s_hat = np.array(agg["s_hat"]["values"])
        s_sig = np.array(agg["s_hat"]["sigmas"])
        for sign, ch_key in ((+1.0, "gamma_x_res_hz"), (-1.0, "gamma_y_res_hz")):
            het = gamma_ref * (1.0 + sign * s_hat)
            het_sig = gamma_ref * s_sig
            ch = np.array(agg[ch_key]["values"])
            ch_sig = np.array(agg[ch_key]["sigmas"])
            n = len(het)
            diff = abs(het.mean() - ch.mean())
            joint = math.hypot(
                math.sqrt(float(np.sum(het_sig**2))) / n,
                math.sqrt(float(np.sum(ch_sig**2))) / n,
            )
            assert diff <= joint, (ch_key, het.mean(), ch.mean(), joint)


class TestCliSweeps:
    def test_sweep_ratios_verb(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(tiny_config(repetitions="1").snapshot())
        out = tmp_path / "out"
        code = main([
            "sweep-ratios", "--config", str(cfg_path), "--out", str(out),
            "--s-values", "0.3,0.5",
        ])
        assert code == 0
        assert (out / "sweep_summary.csv").exists()
        assert "2/2 points ok" in capsys.readouterr().out
        # a point's missing artifact fails the sweep as it fails a run
        (out / "point_01" / "rep00" / "heterodyne_detuned.csv").unlink()
        text, ok = report_artifacts(out)
        assert not ok
        assert "missing artifacts:\n  rep00/heterodyne_detuned.csv" in text

    def test_sweep_variances_verb(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            tiny_config(
                repetitions="1", rate_source="params",
                g="5kHz", delta_pump="200kHz",
            ).snapshot()
        )
        out = tmp_path / "out"
        code = main([
            "sweep-variances", "--config", str(cfg_path), "--out", str(out),
            "--epsilon-values", "1.0",
        ])
        assert code == 0
        assert (out / "sweep_summary.csv").exists()


class TestRatioSweepStraddlesTheory:
    @pytest.mark.realization
    def test_six_point_sweep_pulls(self, tmp_path):
        # fitted ratios scatter around the theory curves with calibrated
        # pulls: none is a gross outlier and the signs are mixed
        cfg = fast_config(duration="30s", repetitions="1", seed="31415")
        s_values = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        summary = run_sweep_ratio_vs_s(cfg, s_values, tmp_path)
        pulls = []
        for entry in summary:
            assert entry["status"] == "ok", entry["error"]
            agg = entry["report"]["aggregate"]
            th = entry["report"]["theory"]
            for key, target in (("r_plus", th["r_plus"]), ("r_minus", th["r_minus"])):
                pulls.append(
                    (agg[key]["mean"] - target) / max(agg[key]["sem_fit"], 1e-9)
                )
        pulls = np.array(pulls)
        assert np.max(np.abs(pulls)) < 5.0
        assert np.any(pulls > 0) and np.any(pulls < 0)
