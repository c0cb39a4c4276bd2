"""Config parsing, unit suffixes, validation and hashing."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import fast_config
from parosc.cli import main
from parosc.config import (
    _HZ_SCALE,
    _TIME_SCALE,
    FIELDS,
    MAX_WORKERS,
    RunConfig,
    _fit_band_problems,
    validate_config,
)
from parosc.detect import lockin_baseband, schedule_drive
from parosc.errors import ConfigError
from parosc.synth import Streams

TWO_PI = 2.0 * math.pi


class TestParsing:
    def test_angular_frequencies_convert_to_rad_per_s(self):
        cfg = RunConfig.from_text("kappa = 1.4MHz\nomega_m = 530kHz\n")
        assert cfg.values["kappa"] == pytest.approx(TWO_PI * 1.4e6)
        assert cfg.values["omega_m"] == pytest.approx(TWO_PI * 530e3)

    def test_milli_and_mega_are_distinct(self):
        cfg = RunConfig.from_text("gamma_m = 520mHz\n")
        assert cfg.values["gamma_m"] == pytest.approx(TWO_PI * 0.52)

    def test_plain_rates_stay_in_hz(self):
        cfg = RunConfig.from_text("sample_rate = 250kHz\nlowpass_cutoff = 13kHz\n")
        assert cfg.values["sample_rate"] == 250e3
        assert cfg.values["lowpass_cutoff"] == 13e3

    def test_times(self):
        cfg = RunConfig.from_text("duration = 100s\nschedule_period = 5s\nwelch_segment = 700ms\n")
        assert cfg.values["duration"] == 100.0
        assert cfg.values["schedule_period"] == 5.0
        assert cfg.values["welch_segment"] == pytest.approx(0.7)

    def test_comments_and_blank_lines(self):
        cfg = RunConfig.from_text("# heading\n\nn_bar = 5.8  # measured\n")
        assert cfg.values["n_bar"] == 5.8

    def test_missing_unit_suffix_rejected(self):
        with pytest.raises(ConfigError, match="suffix"):
            RunConfig.from_text("kappa = 1.4e6\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_text("kappa_typo = 1MHz\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            RunConfig.from_text("just words\n")

    def test_booleans(self):
        assert RunConfig.from_text("keep_raw = true\n").values["keep_raw"] is True
        assert RunConfig.from_text("keep_raw = off\n").values["keep_raw"] is False


class TestDerivedObjects:
    def test_oscillator_gamma_from_q(self):
        cfg = RunConfig.from_text("omega_m = 530kHz\nq_factor = 6.4e6\n")
        osc = cfg.oscillator()
        assert osc.gamma_m == pytest.approx(TWO_PI * 530e3 / 6.4e6)

    def test_explicit_gamma_overrides_q(self):
        cfg = RunConfig.from_text("gamma_m = 1Hz\nq_factor = 6.4e6\n")
        assert cfg.oscillator().gamma_m == pytest.approx(TWO_PI)

    def test_target_rates(self):
        cfg = RunConfig.from_text("rate_source = target\ngamma_eff_target = 20Hz\ns_target = 0.5\n")
        rates = cfg.derived_rates()
        assert rates.gamma_eff == pytest.approx(TWO_PI * 20.0)
        assert rates.s == 0.5

    def test_params_rates(self):
        cfg = RunConfig.from_text(
            "rate_source = params\ng = 1kHz\nepsilon_c = 0.8\ndelta_pump = 200kHz\n"
        )
        rates = cfg.derived_rates()
        assert 0.0 < rates.s < 1.0


class TestValidation:
    def test_defaults_validate(self):
        assert validate_config(RunConfig.defaults()) == []

    def test_nyquist_margin(self):
        cfg = RunConfig.defaults().with_overrides(sample_rate="100kHz")
        problems = validate_config(cfg)
        assert any("Nyquist" in p for p in problems)

    def test_quantum_regime_is_a_valid_config(self):
        # s > 2*n_bar routes the pipeline to analytic-only mode rather than
        # rejecting the configuration
        cfg = RunConfig.defaults().with_overrides(n_bar="0.3", s_target="0.7")
        assert validate_config(cfg) == []

    def test_lowpass_window(self):
        cfg = RunConfig.defaults().with_overrides(lowpass_cutoff="5kHz")
        problems = validate_config(cfg)
        assert any("lowpass" in p.lower() for p in problems)

    def test_delta_lo_against_omega_m(self):
        cfg = RunConfig.defaults().with_overrides(delta_lo="200kHz", lowpass_cutoff="13kHz")
        problems = validate_config(cfg)
        assert any("omega_m" in p for p in problems)

    def test_welch_segment_resolution(self):
        cfg = RunConfig.defaults().with_overrides(welch_segment="0.1s")
        problems = validate_config(cfg)
        assert any("resolve" in p for p in problems)

    def test_welch_segment_fits_the_usable_part(self):
        # two segments must fit in the 5 s period less the 10/gamma_minus
        # settling guard (0.159 s at the defaults): 4.8 s do, 4.9 s do not
        base = RunConfig.defaults()
        assert validate_config(base.with_overrides(welch_segment="2.4s")) == []
        problems = validate_config(base.with_overrides(welch_segment="2.45s"))
        assert problems == [
            "welch_segment 2.45 s too long for the 4.841 s usable part of each drive segment"
        ]

    @pytest.mark.parametrize("decimate, cutoff", [(1, "2.5kHz"), (4, "2.5kHz"), (8, "1.45kHz")])
    def test_lockin_refusal_agrees_with_the_lockin_slices(self, decimate, cutoff):
        # drive periods of a whole number of decimated samples whose
        # shortest lock-in slice is two Welch segments less one sample,
        # exactly two and two plus one: the config refuses exactly when a
        # slice the lock-in walks is shorter than two segments
        base = fast_config(decimate=str(decimate), lowpass_cutoff=cutoff, repetitions="1")
        rates = base.derived_rates()
        fs_q = base.values["sample_rate"] / decimate
        segment = round(base.values["welch_segment"] * fs_q)

        def shortest_slice(cfg):
            grid = cfg.grid(0)
            schedule = schedule_drive(grid, cfg.values["schedule_period"], rates.gamma_minus)
            baseband = lockin_baseband(grid, cfg.detection(), cfg.passband_edge_hz(rates), decimate,
                                       schedule, Streams.for_grid(grid))
            return min(s.stop - s.start for _, s in baseband.usable_slices())

        trimmed = round(base.values["schedule_period"] * fs_q) - shortest_slice(base)
        for excess in (-1, 0, 1):
            period = (2 * segment + excess + trimmed) / fs_q
            cfg = base.with_overrides(schedule_period=f"{period!r}s")
            assert shortest_slice(cfg) == 2 * segment + excess
            problems = validate_config(cfg)
            assert bool(problems) == (excess < 0), (excess, problems)
            assert all("at the lock-in output" in p for p in problems)

    def test_overflowing_welch_segment_is_a_problem(self):
        v = dict(RunConfig.defaults().values, welch_segment=1e300, sample_rate=1e20)
        assert _fit_band_problems(v) == [
            "the heterodyne Welch segment of 1e+300 s overflows",
            "the quadrature Welch segment of 1e+300 s overflows",
        ]


class TestSnapshotAndHash:
    def test_hash_stable_and_sensitive(self):
        a = RunConfig.defaults()
        b = RunConfig.defaults()
        assert a.config_hash() == b.config_hash()
        c = a.with_overrides(n_bar="1.0")
        assert c.config_hash() != a.config_hash()

    def test_snapshot_round_trips(self):
        cfg = RunConfig.defaults().with_overrides(n_bar="2.5", s_target="0.3")
        again = RunConfig.from_text(cfg.snapshot())
        assert again.config_hash() == cfg.config_hash()
        assert again.values["n_bar"] == 2.5

    def test_overrides_do_not_mutate(self):
        base = RunConfig.defaults()
        base_hash = base.config_hash()
        base.with_overrides(n_bar="9.9")
        assert base.config_hash() == base_hash

    def test_workers_left_out_of_snapshot_and_hash(self):
        # workers only changes how a run is computed, never its artifacts
        base = RunConfig.defaults()
        two = base.with_overrides(workers="2")
        assert two.values["workers"] == 2
        assert two.snapshot() == base.snapshot()
        assert two.config_hash() == base.config_hash()
        assert "workers" not in base.snapshot()

    def test_workers_bounded(self):
        # each worker is a thread and a Welch segment row: a count past
        # MAX_WORKERS is refused before any pool is sized by it
        base = RunConfig.defaults()
        assert validate_config(base.with_overrides(workers=str(MAX_WORKERS))) == []
        for workers in (0, MAX_WORKERS + 1, 1_000_000):
            problems = validate_config(base.with_overrides(workers=str(workers)))
            assert problems == [f"workers must lie in [1, {MAX_WORKERS}], got {workers}"]

    def test_readme_example_is_the_defaults(self):
        # the README's ini block documents the defaults: a key it keeps after
        # the config drops it, or a default it misstates, fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.S | re.M)
        assert len(blocks) == 1
        cfg = RunConfig.from_text(blocks[0])
        assert validate_config(cfg) == []
        assert cfg.config_hash() == RunConfig.defaults().config_hash()


class TestMalformedValues:
    @pytest.mark.parametrize("text", ["n_bar = ..", "n_bar = 1e", "n_bar = +-"])
    def test_unparsable_number_is_config_error(self, text):
        with pytest.raises(ConfigError):
            RunConfig.from_text(text)

    @pytest.mark.parametrize("text", ["decimate = 2.7", "decimate = 1e999"])
    def test_non_integer_int_field_rejected(self, text):
        with pytest.raises(ConfigError):
            RunConfig.from_text(text)

    def test_integral_float_text_accepted_for_int(self):
        assert RunConfig.from_text("decimate = 4.0").values["decimate"] == 4

    def test_unknown_window_is_a_validation_problem(self):
        problems = validate_config(RunConfig.defaults().with_overrides(window="nosuch"))
        assert any("window" in p for p in problems)
        assert validate_config(RunConfig.defaults().with_overrides(window="blackman")) == []

    def test_window_without_a_known_bin_step_is_a_validation_problem(self):
        # a valid scipy window whose periodogram bins stay correlated at lag 2
        problems = validate_config(RunConfig.defaults().with_overrides(window="flattop"))
        assert any("window must be one of boxcar, hann, hamming, blackman" in p for p in problems)


# valid suffixes per value kind; any other kind takes none
_KIND_SUFFIXES = {
    "angular_freq": list(_HZ_SCALE), "plain_freq": list(_HZ_SCALE),
    "time": list(_TIME_SCALE),
}
_NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0", "1e999", "-1e999", "5e-324", "1e308", "1e9", "1e-9"]),
)
_VALUES = st.one_of(
    st.tuples(_NUMBERS, st.sampled_from(["", "Hz", "kHz", "mHz", "s", "ms", "K", "rad", "x"])).map("".join),
    st.sampled_from(["true", "false", "hann", "target", "params", "optimize", "fixed"]),
    st.text(max_size=8),
)


@st.composite
def _known_line(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    suffixes = _KIND_SUFFIXES.get(FIELDS[name][0], [""])
    value = draw(st.one_of(st.tuples(_NUMBERS, st.sampled_from(suffixes)).map("".join), _VALUES))
    return f"{name} = {value}"


_CONFIG_TEXTS = st.lists(
    st.one_of(
        _known_line(),
        st.tuples(st.text(max_size=6), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
        st.text(max_size=10),
    ),
    max_size=6,
).map("\n".join)


class TestFuzzedConfigs:
    """Random `key = value` texts: known keys with numbers and unit
    suffixes, unknown keys and junk."""

    @settings(max_examples=300, deadline=None)
    @given(_CONFIG_TEXTS)
    def test_from_text_parses_or_raises_config_error(self, text):
        try:
            config = RunConfig.from_text(text)
        except ConfigError:
            return
        assert isinstance(validate_config(config), list)

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=_CONFIG_TEXTS)
    def test_validate_config_exits_0_or_2(self, tmp_path, capsys, text):
        path = tmp_path / "fuzz.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["validate-config", "--config", str(path)]) in (0, 2)
        capsys.readouterr()
