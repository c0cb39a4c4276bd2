"""Flat key=value run configuration with explicit unit suffixes.

Frequency-like quantities take Hz/kHz/MHz/GHz (or mHz) suffixes.  Fields
declared angular are converted to rad/s internally (the stored value is
2*pi times the suffixed cycles/s); sampling and analysis frequencies stay in
plain Hz.  Times take s/ms.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field, replace

from .errors import ConfigError, FilterDesignError
from .spectral import BIN_STEP_BY_WINDOW, MAX_OVERLAP
from .model import CavityPumpParams, DerivedRates, OscillatorParams
from .synth import SimGrid
from .detect import DetectionParams, design_lockin_fir, schedule_drive
from .fitting import MIN_BAND_BINS, band_bins, quadrature_intervals, sideband_intervals

TWO_PI = 2.0 * math.pi

# kind -> accepted suffixes and multiplier to the stored unit
ANGULAR = "angular_freq"  # suffix in Hz-family, stored rad/s
PLAIN_HZ = "plain_freq"  # suffix in Hz-family, stored Hz
TIME = "time"
FLOAT = "float"
INT = "int"
BOOL = "bool"
STR = "str"

_HZ_SCALE = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "mHz": 1e-3}
_TIME_SCALE = {"s": 1.0, "ms": 1e-3, "us": 1e-6}

# name -> (kind, default-as-text, help)
FIELDS: dict[str, tuple[str, str, str]] = {
    # oscillator
    "omega_m": (ANGULAR, "530kHz", "mechanical mode frequency"),
    "q_factor": (FLOAT, "6.4e6", "mechanical quality factor (sets gamma_m)"),
    "gamma_m": (ANGULAR, "", "intrinsic damping; overrides q_factor when set"),
    "n_bar": (FLOAT, "5.8", "steady-state occupancy under cooling"),
    # cavity / pump
    "kappa": (ANGULAR, "1.4MHz", "cavity linewidth"),
    "g": (ANGULAR, "5kHz", "total pump optomechanical coupling"),
    "epsilon_c": (FLOAT, "0.8", "cooling-tone fraction of total pump power"),
    "delta_pump": (ANGULAR, "200kHz", "mean pump detuning (positive = red cooling tone)"),
    "delta_lo": (ANGULAR, "11kHz", "heterodyne LO offset"),
    # rates
    "rate_source": (STR, "target", "target | params"),
    "gamma_eff_target": (ANGULAR, "20Hz", "effective width for rate_source=target"),
    "s_target": (FLOAT, "0.5", "parametric gain for rate_source=target"),
    # grid
    "sample_rate": (PLAIN_HZ, "250kHz", "record sample rate"),
    "duration": (TIME, "100s", "record duration"),
    "carrier": (ANGULAR, "50kHz", "reduced intermediate carrier"),
    "seed": (INT, "20260809", "master seed"),
    # detection
    "gain": (FLOAT, "1.0", "detector units per quadrature quantum"),
    "shot_psd": (FLOAT, "0.002", "flat one-sided noise floor, units^2/Hz"),
    "lowpass_cutoff": (PLAIN_HZ, "13kHz", "lock-in low-pass passband edge"),
    "schedule_period": (TIME, "5s", "drive alternation period"),
    "decimate": (INT, "8", "demodulated-channel decimation factor"),
    # analysis
    "welch_segment": (TIME, "1s", "Welch segment length"),
    "welch_overlap": (
        FLOAT, "0.5",
        "Welch overlap fraction in [0, 0.9]: past about 0.75 a tapered window gains almost "
        "no effective averages, while Welch's segment array grows as 1/(1 - overlap)",
    ),
    "window": (STR, "hann", "Welch window: boxcar, hann, hamming or blackman"),
    "fit_margin": (PLAIN_HZ, "500Hz", "half-width of each fit window"),
    # run
    "repetitions": (INT, "5", "independent repetitions per point"),
    "workers": (INT, "1", "threads: within a repetition for simulate, across points for sweeps"),
    "keep_raw": (BOOL, "false", "persist raw records"),
}

# Execution settings: they change how a run is computed, never its results,
# so they stay out of the snapshot and the config hash.
EXECUTION_KEYS = ("workers",)
# Each worker is a thread and a Welch segment row: a count past this is
# refused before either is made.
MAX_WORKERS = 64

_VALUE_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([A-Za-z]*)\s*$")


def _parse_value(name: str, kind: str, text: str):
    text = text.strip()
    if kind == STR:
        return text
    if kind == BOOL:
        low = text.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{name}: cannot parse boolean {text!r}")
    if not text:
        # only the optional fields (empty default) may be left unset
        if FIELDS[name][1]:
            raise ConfigError(f"{name}: needs a value")
        return None
    m = _VALUE_RE.match(text)
    if m is None:
        raise ConfigError(f"{name}: cannot parse value {text!r}")
    try:
        number = float(m.group(1))
    except ValueError:
        raise ConfigError(f"{name}: cannot parse number {m.group(1)!r} in {text!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name}: {text!r} is not a finite number")
    suffix = m.group(2)
    if kind in (ANGULAR, PLAIN_HZ):
        if suffix not in _HZ_SCALE:
            raise ConfigError(
                f"{name}: frequency needs an explicit Hz-family suffix, got {text!r}"
            )
        hz = number * _HZ_SCALE[suffix]
        return TWO_PI * hz if kind == ANGULAR else hz
    if kind == TIME:
        if suffix not in _TIME_SCALE:
            raise ConfigError(f"{name}: time needs an s/ms/us suffix, got {text!r}")
        return number * _TIME_SCALE[suffix]
    if kind == FLOAT:
        if suffix:
            raise ConfigError(f"{name}: dimensionless value has suffix {suffix!r}")
        return number
    if kind == INT:
        if suffix:
            raise ConfigError(f"{name}: integer value has suffix {suffix!r}")
        if not number.is_integer():
            raise ConfigError(f"{name}: expected an integer, got {text!r}")
        return int(number)
    raise ConfigError(f"{name}: unknown kind {kind}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (angular rates in rad/s)."""

    values: dict
    raw_text: dict

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls.from_items({})

    @classmethod
    def from_items(cls, items: dict[str, str]) -> "RunConfig":
        unknown = sorted(set(items) - set(FIELDS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        raw = {name: FIELDS[name][1] for name in FIELDS}
        raw.update({k: v.strip() for k, v in items.items()})
        values = {
            name: _parse_value(name, FIELDS[name][0], raw[name]) for name in FIELDS
        }
        return cls(values=values, raw_text=raw)

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        items = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
            key, value = stripped.split("=", 1)
            items[key.strip()] = value.strip()
        return cls.from_items(items)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"config file {path} is not UTF-8 text") from None
        return cls.from_text(text)

    def with_overrides(self, **items: str) -> "RunConfig":
        merged = dict(self.raw_text)
        merged.update({k: str(v) for k, v in items.items()})
        return RunConfig.from_items(merged)

    def snapshot(self) -> str:
        """Canonical diff-friendly text; hashing input.  Execution settings
        (EXECUTION_KEYS) are left out: they do not change any artifact."""
        lines = [
            f"{name} = {self.raw_text[name]}"
            for name in sorted(FIELDS)
            if name not in EXECUTION_KEYS
        ]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.snapshot().encode()).hexdigest()[:16]

    # --- domain object builders -------------------------------------------

    def oscillator(self) -> OscillatorParams:
        gamma_m = self.values["gamma_m"]
        if gamma_m is None:
            if not self.values["q_factor"] > 0:
                raise ConfigError(f"q_factor must be > 0, got {self.values['q_factor']:.6g}")
            gamma_m = self.values["omega_m"] / self.values["q_factor"]
        return OscillatorParams(
            omega_m=self.values["omega_m"],
            gamma_m=gamma_m,
            n_bar=self.values["n_bar"],
        )

    def pump(self, epsilon_c: float | None = None) -> CavityPumpParams:
        return CavityPumpParams(
            kappa=self.values["kappa"],
            g=self.values["g"],
            epsilon_c=self.values["epsilon_c"] if epsilon_c is None else epsilon_c,
            delta_pump=self.values["delta_pump"],
        )

    def derived_rates(self) -> DerivedRates:
        if self.values["rate_source"] == "target":
            return DerivedRates.from_target(
                self.values["gamma_eff_target"], self.values["s_target"], self.values["n_bar"]
            )
        return DerivedRates.from_params(self.pump(), self.oscillator())

    def detection(self) -> DetectionParams:
        return DetectionParams(
            gain=self.values["gain"],
            shot_psd=self.values["shot_psd"],
            lowpass_cutoff=self.values["lowpass_cutoff"],
        )

    def grid(self, seed: int) -> SimGrid:
        return SimGrid(
            sample_rate=self.values["sample_rate"],
            duration=self.values["duration"],
            carrier=self.values["carrier"],
            seed=seed,
        )

    def passband_edge_hz(self, rates: DerivedRates) -> float:
        return (self.values["delta_lo"] + 10.0 * rates.gamma_plus) / TWO_PI


def validate_config(config: RunConfig) -> list[str]:
    """Cross-module precondition checks; returns human-readable problems."""
    problems: list[str] = []
    v = config.values
    try:
        osc = config.oscillator()
    except (ValueError, ConfigError) as exc:
        problems.append(f"oscillator: {exc}")
        osc = None
    rates = None
    try:
        rates = config.derived_rates()
    except Exception as exc:
        problems.append(f"rates: {exc}")
    if v["rate_source"] not in ("target", "params"):
        problems.append(f"rate_source must be 'target' or 'params', got {v['rate_source']!r}")
    if not v["delta_lo"] > 0:
        problems.append("delta_lo must be > 0")
    if osc is not None and v["delta_lo"] >= osc.omega_m / 5.0:
        problems.append("delta_lo must stay well below omega_m (limit omega_m/5)")
    if v["repetitions"] < 1:
        problems.append("repetitions must be >= 1")
    problems += _workers_problems(v)
    if not 0.0 <= v["welch_overlap"] <= MAX_OVERLAP:
        problems.append(
            f"welch_overlap must lie in [0, {MAX_OVERLAP}], got {v['welch_overlap']:.6g}"
        )
    if v["window"] not in BIN_STEP_BY_WINDOW:
        problems.append(
            f"window must be one of {', '.join(BIN_STEP_BY_WINDOW)} (the windows "
            f"whose bin correlation step is known), got {v['window']!r}"
        )
    if v["decimate"] < 1:
        problems.append("decimate must be >= 1")
    if not v["welch_segment"] > 0:
        problems.append(f"welch_segment must be > 0, got {v['welch_segment']:.6g} s")
    if not v["fit_margin"] > 0:
        problems.append(f"fit_margin must be > 0, got {v['fit_margin']:.6g} Hz")
    if not v["gain"] > 0:
        problems.append(f"gain must be > 0, got {v['gain']:.6g}")
    if not v["shot_psd"] >= 0:
        problems.append(f"shot_psd must be >= 0, got {v['shot_psd']:.6g}")
    if v["seed"] < 0:
        problems.append(f"seed must be >= 0, got {v['seed']}")
    # a quantum-squeezed regime (s > 2*n_bar) is a valid configuration: the
    # pipeline then falls back to analytic spectra and no record is ever
    # synthesized, so the synthesis-path checks below do not apply
    if rates is not None and rates.weights.quantum_squeezed:
        return problems
    if rates is not None:
        f_upper = (v["carrier"] + v["delta_lo"] + 10.0 * rates.gamma_plus) / TWO_PI
        if v["sample_rate"] <= 2.0 * f_upper:
            problems.append(
                f"sample_rate {v['sample_rate']:.6g} Hz below the Nyquist margin "
                f"2*{f_upper:.6g} Hz"
            )
        try:
            taps = design_lockin_fir(v["sample_rate"], v["lowpass_cutoff"], v["carrier"],
                                     config.passband_edge_hz(rates), v["decimate"])
        except (FilterDesignError, ValueError, ArithmeticError) as exc:
            problems.append(f"lowpass_cutoff {v['lowpass_cutoff']:.6g} Hz: {exc}")
        if not math.isfinite(v["duration"] * v["sample_rate"]):
            problems.append(
                f"duration {v['duration']:.6g} s at sample_rate {v['sample_rate']:.6g} Hz "
                "gives a sample count that overflows"
            )
        try:
            schedule = schedule_drive(config.grid(seed=0), v["schedule_period"], rates.gamma_minus)
        except Exception as exc:
            problems.append(f"schedule: {exc}")
        # a segment that is not positive is reported above
        rbw = 1.0 / v["welch_segment"] if v["welch_segment"] > 0 else 0.0
        gamma_minus_hz = rates.gamma_minus / TWO_PI
        if rbw > gamma_minus_hz / 5.0:
            problems.append(
                f"welch_segment {v['welch_segment']:.4g} s gives rbw {rbw:.4g} Hz "
                f"which cannot resolve gamma_minus/5 = {gamma_minus_hz / 5.0:.4g} Hz"
            )
    if not problems:
        problems += _usable_part_problems(v, schedule, taps)
    if not problems:
        problems += _fit_band_problems(v)
    return problems


def _workers_problems(v: dict) -> list[str]:
    if 1 <= v["workers"] <= MAX_WORKERS:
        return []
    return [f"workers must lie in [1, {MAX_WORKERS}], got {v['workers']}"]


def _usable_part_problems(v: dict, schedule, taps) -> list[str]:
    """Two Welch segments must fit in every usable slice of the schedule,
    counted in samples as a run counts them on both Welch axes: the
    heterodyne record at sample_rate, the lock-in baseband at
    sample_rate/decimate, whose slices also lose the filter's half length
    at their tail (detect.Baseband).  Judged only on an otherwise valid
    config; the first axis that fails is the one reported."""
    n_samples = schedule.n_samples(v["sample_rate"])
    for fs, n, tail_guard, where in (
        (v["sample_rate"], n_samples, 0.0, ""),
        (v["sample_rate"] / v["decimate"], -(-n_samples // v["decimate"]),
         (len(taps) // 2) / v["sample_rate"], " at the lock-in output"),
    ):
        shortest = min((s.stop - s.start for _, s in schedule.usable_slices(fs, n, tail_guard)),
                       default=0)
        segment_len = v["welch_segment"] * fs
        if not (math.isfinite(segment_len) and 2 * int(round(segment_len)) <= shortest):
            return [
                f"welch_segment {v['welch_segment']:.6g} s too long for the "
                f"{shortest / fs:.4g} s usable part of each drive segment{where}"
            ]
    return []


def _fit_band_problems(v: dict) -> list[str]:
    """The fits' bin minimum, counted on the Welch axes a run builds: the
    heterodyne record at sample_rate, the quadrature channels at
    sample_rate/decimate.  Judged only on an otherwise valid config."""
    f_c, f_lo, margin = v["carrier"] / TWO_PI, v["delta_lo"] / TWO_PI, v["fit_margin"]
    problems = []
    for name, fs, intervals in (
        ("heterodyne", v["sample_rate"], sideband_intervals((f_c + f_lo, f_c - f_lo), margin)),
        ("quadrature", v["sample_rate"] / v["decimate"], quadrature_intervals(f_lo, margin)),
    ):
        segment_len = v["welch_segment"] * fs
        if not math.isfinite(segment_len):
            problems.append(f"the {name} Welch segment of {v['welch_segment']:.6g} s overflows")
            continue
        n_bins = band_bins(int(round(segment_len)), fs, intervals)
        if n_bins < MIN_BAND_BINS:
            problems.append(
                f"the {name} fit band holds {n_bins} bins at fit_margin {margin:.6g} Hz "
                f"and welch_segment {v['welch_segment']:.6g} s; fits need {MIN_BAND_BINS}"
            )
    return problems


def require_valid(config: RunConfig) -> None:
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))


def require_valid_workers(config: RunConfig) -> None:
    """The one check a sweep makes of its base config: each point's config
    is validated when the point runs, and a failing point keeps its row."""
    problems = _workers_problems(config.values)
    if problems:
        raise ConfigError("; ".join(problems))
