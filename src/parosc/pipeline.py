"""Experiment orchestration: seeded end-to-end runs, the two sweeps,
artifact persistence and report emission.

Every run synthesizes one scheduled record per backend (Wigner for the
quadrature-demodulation path, component for the sideband path), estimates
per-drive-class PSDs, performs the reference fit that pins the effective
width, then the constrained double fit and the quadrature fits.  Fitted
values and theory overlays always come from one shared DerivedRates
instance.  A repetition streams its records in blocks through one block
driver, the sideband record first.  Both passes cut their pieces at the
usable slices' bounds (spectral.slice_parts) and feed the parts straight
to the Welch estimate of their drive class, in one loop: the sideband pass
the record's blocks, the quadrature pass the decimated baseband the
lock-in hands on for each block.  theta* and the channel spectra both
come from the quadrature pass's Welch sums.  So no array spans the record
or a slice, and what a pass holds is bounded by a block and the Welch
segments, whatever the drive period.  Each pass's tables go with it.
Artifacts are byte-reproducible for a fixed (config, seed) and environment
(the numpy version, which every report records), independent of the
worker count.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, recordio
from .config import TWO_PI, RunConfig, require_valid, require_valid_workers
from .detect import (
    FLAT_PHASE_DEPTH,
    demod_baseband,
    compose_heterodyne_components,
    compose_heterodyne_wigner,
    lockin_baseband,
    lockin_demodulate,
    optimize_demod_phase,
    schedule_drive,
)
from .errors import ConfigError, ParoscError, PipelineError, QuantumSqueezingRegimeError
from .fitting import fit_double_pair, fit_quadrature, fit_single_pair
from .model import DerivedRates, analytic_sideband_psd, quadrature_variances, ratios, squeeze_param
from .parallel import thread_map
from .spectral import Welch, chi2_indistinguishable, slice_parts, write_psd_csv
from .spectral import welch_psd_chunks  # noqa: F401  (perfbench/spans.py wraps it by name)
from .synth import (
    DETUNED,
    RESONANT,
    STREAM_FRAME_PHASE,
    Streams,
    simulate_scheduled_envelopes,
    simulate_scheduled_quadratures,
    stream_rng,
)

# Pass/fail tolerances applied by the report stage; pinned here, not tuned
# per run.
TOLERANCES = {
    "s_abs": 0.05,
    "ratio_sigma_multiple": 1.0,
    "var_ratio_rel": 0.05,
    "width_var_sigma_multiple": 1.0,
    "gamma_eff_rel": 0.05,
    "chi2_level": 0.01,
}

# Record samples per processing block: a repetition synthesizes, composes
# and lock-in filters its records one block at a time.
_BLOCK = 1 << 17

PSD_FILES = (
    "heterodyne_detuned.csv",
    "heterodyne_resonant.csv",
    "quadrature_x_detuned.csv",
    "quadrature_y_detuned.csv",
    "quadrature_x_resonant.csv",
    "quadrature_y_resonant.csv",
)

FIT_FILES = (
    "fit_heterodyne_reference.json",
    "fit_heterodyne_double.json",
    "fit_quadrature_x_detuned.json",
    "fit_quadrature_y_detuned.json",
    "fit_quadrature_x_resonant.json",
    "fit_quadrature_y_resonant.json",
)


def rep_seed(master_seed: int, point_key: tuple[int, ...], rep: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(*point_key, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ParoscError as exc:
        raise PipelineError(f"stage '{name}': {exc}") from exc


def _caller() -> tuple:
    """(filename, lineno, globals) of the first frame outside this package:
    the line that called run_single or a sweep."""
    frame = sys._getframe(1)
    while frame.f_back is not None and Path(frame.f_code.co_filename).parent == Path(__file__).parent:
        frame = frame.f_back
    return frame.f_code.co_filename, frame.f_lineno, frame.f_globals


def _warn(message: str) -> None:
    """Warn at the line that called run_single or a sweep.  A sweep point
    may run on a pool thread, below which no such line lies: there the
    sweep's caller, recorded by _run_sweep, is used."""
    filename, lineno, module_globals = getattr(_point, "caller", None) or _caller()
    warnings.warn_explicit(message, UserWarning, filename, lineno, module_globals.get("__name__"),
                           module_globals.setdefault("__warningregistry__", {}))


def _make_out_dir(out_dir) -> Path:
    """Create the artifact directory; a path that cannot be one is a config error."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _ratio(num: tuple[float, float], den: tuple[float, float]) -> tuple[float, float]:
    """num/den of two (value, sigma) pairs with the propagated sigma; a zero
    denominator (a fitted variance on its lower bound) gives (inf, inf)."""
    if den[0] == 0.0:
        return math.inf, math.inf
    val = num[0] / den[0]
    sig = abs(val) * math.hypot(num[1] / num[0], den[1] / den[0]) if num[0] else math.inf
    return val, sig


def _run_repetition(
    config: RunConfig, rates: DerivedRates, seed: int, raw_dir: Path | None, workers: int
):
    v = config.values
    osc = config.oscillator()
    det = config.detection()
    grid = config.grid(seed)
    schedule = _stage("schedule", schedule_drive, grid, v["schedule_period"], rates.gamma_minus)
    delta_lo = v["delta_lo"]
    f_lo = delta_lo / TWO_PI
    decim = v["decimate"]
    fs_q = grid.sample_rate / decim
    passband_edge = config.passband_edge_hz(rates)
    frame_phase = float(stream_rng(seed, STREAM_FRAME_PHASE).uniform(0.0, math.pi))
    demod_path = None if raw_dir is None else raw_dir / "demod_channels.bin"

    # Both backends stream their records in blocks of _BLOCK samples, the
    # random streams continuing from block to block.  A pass asks for its
    # record's blocks one at a time: each is synthesized, composed, written
    # raw at its offset with keep_raw and handed on as (grid, samples).  The
    # two records draw from disjoint streams, so each pass makes Streams of
    # its own, which own its tables; they go with the pass.
    def record(streams, synthesize, compose, raw_name, **compose_kw):
        for b0 in range(0, grid.n_samples, _BLOCK):
            blk = grid.segment(b0, min(b0 + _BLOCK, grid.n_samples))
            arrays = _stage("synthesis", synthesize, osc, rates, blk, schedule,
                            workers=workers, streams=streams)
            samples = _stage("composition", compose, *arrays, det, blk, delta_lo,
                             workers=workers, streams=streams, **compose_kw)
            del arrays
            if raw_dir is not None:
                recordio.write_record_bin(raw_dir / raw_name, samples, grid.sample_rate,
                                          offset=b0, length=grid.n_samples)
            yield blk, samples
            del samples  # before the next block is synthesized

    # Each pass is a function, so its tables and Welch tails are gone
    # before the next pass starts.  Both cut their record's pieces at the
    # usable slices (slice_parts) and feed each part straight to its drive
    # class's Welch estimate at the rate fs, the part that ends a slice
    # ending that estimate's chunk, and return the estimates.  Each step
    # lets go of a piece (the dels) before the next is asked for, so no
    # block is held while the next one is made.
    def welch_per_class(fs, slices, pieces):
        nperseg = int(round(v["welch_segment"] * fs))
        welch = {tag: Welch(fs, nperseg, v["welch_overlap"], v["window"], "constant")
                 for tag in (DETUNED, RESONANT)}
        for tag, part, last in slice_parts(slices, pieces):
            welch[tag].feed(part, workers, last)
            del part
        return welch

    def sideband():
        # component backend: the pieces are the record's blocks
        def pieces():
            for _, samples in record(Streams(seed, grid.dt, grid.n_samples),
                                     simulate_scheduled_envelopes, compose_heterodyne_components,
                                     "record_component.bin"):
                yield samples
                del samples

        return welch_per_class(grid.sample_rate,
                               schedule.usable_slices(grid.sample_rate, grid.n_samples), pieces())

    def quadrature():
        # Wigner backend: the pieces are the decimated baseband the lock-in
        # hands on for each block.  The raw channels are written unrotated
        # and rotated by theta* at the end.  The lock-in mixes from the
        # carrier table of the record's streams, the one the composition
        # uses.
        streams = Streams(seed, grid.dt, grid.n_samples)
        baseband = _stage("demodulation", lockin_baseband, grid, det, passband_edge, decim, schedule,
                          streams)

        def pieces():
            j0 = 0
            for blk, samples in record(streams, simulate_scheduled_quadratures,
                                       compose_heterodyne_wigner, "record_wigner.bin",
                                       frame_phase=frame_phase):
                z = _stage("demodulation", demod_baseband, baseband, samples, blk, workers)
                del samples
                if demod_path is not None:
                    recordio.write_record_bin(demod_path, (z.real, z.imag), fs_q, offset=j0,
                                              length=baseband.n_decimated)
                j0 += len(z)
                yield z
                del z

        # the slices' tail guard is the filter's half length
        return welch_per_class(fs_q, baseband.usable_slices(), pieces())

    psd_h = {tag: _stage("heterodyne psd", w.psd) for tag, w in sideband().items()}
    welch_q = quadrature()
    theta, depth = _stage("demodulation phase", optimize_demod_phase, welch_q[RESONANT])
    if depth < FLAT_PHASE_DEPTH:
        _warn(
            f"repetition seed {seed}: variance is flat in the demodulation phase "
            f"(depth {depth:.3g} < {FLAT_PHASE_DEPTH}, s ~ 0): phase undefined, "
            "using the formal minimum"
        )
    # x detuned, y detuned, x resonant, y resonant: welch_q's order
    psd_q = _stage("quadrature psd", lockin_demodulate, welch_q, theta)
    if demod_path is not None:
        recordio.rotate_record_bin(demod_path, theta)
    del welch_q

    # Fits: reference first, then the constrained double fit it seeds.
    f_c = grid.carrier / TWO_PI
    centers = (f_c + f_lo, f_c - f_lo)
    margin = v["fit_margin"]
    ref = _stage("reference fit", fit_single_pair, psd_h[DETUNED], centers, margin)
    gamma_eff_ref = ref.estimates["gamma_hz"] * TWO_PI
    dbl = _stage("double fit", fit_double_pair, psd_h[RESONANT], gamma_eff_ref, centers, margin)
    quad_fits = {
        key: _stage("quadrature fit", fit_quadrature, psd, f_lo, margin)
        for key, psd in psd_q.items()
    }

    # Upper half-band only: the channel density mirrors exactly around f_lo,
    # so including both halves would double-count every bin in the statistic.
    same, p_value = chi2_indistinguishable(
        psd_q[("x", DETUNED)].band(f_lo, f_lo + margin),
        psd_q[("y", DETUNED)].band(f_lo, f_lo + margin),
        TOLERANCES["chi2_level"],
    )

    sigma2_x0 = quad_fits[("x", DETUNED)].derived["sigma2"]
    sigma2_y0 = quad_fits[("y", DETUNED)].derived["sigma2"]
    sigma2_0 = 0.5 * (sigma2_x0[0] + sigma2_y0[0])
    sigma2_0_sig = 0.5 * math.hypot(sigma2_x0[1], sigma2_y0[1])
    sigma2_x = quad_fits[("x", RESONANT)].derived["sigma2"]
    sigma2_y = quad_fits[("y", RESONANT)].derived["sigma2"]

    var_ratio_x = _ratio(sigma2_x, (sigma2_0, sigma2_0_sig))
    var_ratio_y = _ratio(sigma2_y, (sigma2_0, sigma2_0_sig))
    s_hat = dbl.derived["s"]

    scalars = {
        "theta_star": (theta, 0.0),
        "frame_phase": (frame_phase, 0.0),
        "gamma_eff_ref_hz": (ref.estimates["gamma_hz"], ref.sigmas["gamma_hz"]),
        "ratio": ref.derived["ratio"],
        "n_bar": ref.derived["n_bar"],
        "s_hat": s_hat,
        "r_plus": dbl.derived["r_plus"],
        "r_minus": dbl.derived["r_minus"],
        "ratio_total": dbl.derived["ratio_total"],
        "width_plus": (1.0 + s_hat[0], s_hat[1]),
        "width_minus": (1.0 - s_hat[0], s_hat[1]),
        "sigma2_0": (sigma2_0, sigma2_0_sig),
        "var_ratio_x": var_ratio_x,
        "var_ratio_y": var_ratio_y,
        "var_inferred_plus": _ratio((sigma2_0, sigma2_0_sig), sigma2_x),
        "var_inferred_minus": _ratio((sigma2_0, sigma2_0_sig), sigma2_y),
        "gamma_x_det_hz": quad_fits[("x", DETUNED)].derived["gamma_hz"],
        "gamma_y_det_hz": quad_fits[("y", DETUNED)].derived["gamma_hz"],
        "gamma_x_res_hz": quad_fits[("x", RESONANT)].derived["gamma_hz"],
        "gamma_y_res_hz": quad_fits[("y", RESONANT)].derived["gamma_hz"],
        "detuned_chi2_p": (p_value, 0.0),
    }
    # psd_q and quad_fits run x detuned, y detuned, x resonant, y resonant,
    # the order of the file names
    fits = dict(zip(FIT_FILES, (ref, dbl, *quad_fits.values())))
    for name, fit in fits.items():
        if fit.degenerate_direction is not None:
            _warn(
                f"repetition seed {seed}: {name}: near-singular normal matrix at the "
                f"optimum; direction: {fit.degenerate_direction}"
            )
    psds = dict(zip(PSD_FILES, (psd_h[DETUNED], psd_h[RESONANT], *psd_q.values())))
    return {
        "seed": seed,
        "detuned_indistinguishable": same,
        "scalars": scalars,
        "fits": fits,
        "psds": psds,
    }


def _aggregate(reps: list[dict]) -> dict:
    keys = reps[0]["scalars"].keys()
    out = {}
    for key in keys:
        vals = np.array([r["scalars"][key][0] for r in reps], dtype=float)
        sigs = np.array([r["scalars"][key][1] for r in reps], dtype=float)
        n = len(vals)
        if n == 1:
            std = 0.0
        elif np.all(np.isfinite(vals)):
            std = float(np.std(vals, ddof=1))
        else:
            std = math.nan  # a spread over a non-finite value is undefined
        out[key] = {
            "mean": float(np.mean(vals)),
            "std": std,
            "sem_fit": float(np.sqrt(np.sum(sigs**2)) / n),
            "values": [float(x) for x in vals],
            "sigmas": [float(x) for x in sigs],
        }
    return out


def _theory_block(rates: DerivedRates) -> dict:
    var_x, var_y = quadrature_variances(rates.n_bar, rates.s)
    regime = rates.regime()
    return {
        "gamma_eff_hz": rates.gamma_eff / TWO_PI,
        "gamma_plus_hz": rates.gamma_plus / TWO_PI,
        "gamma_minus_hz": rates.gamma_minus / TWO_PI,
        "s": rates.s,
        "n_bar": rates.n_bar,
        "r_plain": rates.r_plain,
        "r_plus": rates.r_plus,
        "r_minus": rates.r_minus,
        "weights": list(rates.weights.as_tuple()),
        "var_x": var_x,
        "var_y": var_y,
        "var_ratio_x": 1.0 / (1.0 + rates.s),
        "var_ratio_y": 1.0 / (1.0 - rates.s),
        "regime": {
            "stable": regime.stable,
            "quantum_squeezed": regime.quantum_squeezed,
            "quantum_squeezing_reachable": regime.quantum_squeezing_reachable,
        },
    }


def _checks(aggregate: dict, theory: dict, reps: list[dict]) -> list[dict]:
    tol = TOLERANCES
    checks = []

    def add(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    s_err = abs(aggregate["s_hat"]["mean"] - theory["s"])
    add("s_recovery", s_err <= tol["s_abs"],
        f"|s_hat - s| = {s_err:.4g} (limit {tol['s_abs']})")

    # a ratio over an area consistent with zero is not an estimate
    for key, area in (("r_plus", "area_broad_antistokes"), ("r_minus", "area_narrow_antistokes")):
        zero_reps = [
            i for i, r in enumerate(reps)
            if f"{area}_consistent_with_zero" in r["fits"]["fit_heterodyne_double.json"].flags
        ]
        if zero_reps:
            add(f"{key}_recovery", False,
                f"not estimated: {area} consistent with zero in rep {zero_reps[0]:02d}")
            continue
        target = theory[key]
        sem = max(aggregate[key]["sem_fit"], 1e-12)
        pull = abs(aggregate[key]["mean"] - target) / sem
        add(f"{key}_recovery", pull <= tol["ratio_sigma_multiple"],
            f"|{key} - theory| = {pull:.3g} combined sigma (limit {tol['ratio_sigma_multiple']})")

    for key, target in (("var_ratio_x", theory["var_ratio_x"]), ("var_ratio_y", theory["var_ratio_y"])):
        rel = abs(aggregate[key]["mean"] / target - 1.0)
        add(f"{key}_recovery", rel <= tol["var_ratio_rel"],
            f"relative error {rel:.4g} (limit {tol['var_ratio_rel']})")

    for w_key, v_key in (("width_plus", "var_inferred_plus"), ("width_minus", "var_inferred_minus")):
        diff = abs(aggregate[w_key]["mean"] - aggregate[v_key]["mean"])
        joint = math.hypot(max(aggregate[w_key]["sem_fit"], 1e-12),
                           max(aggregate[v_key]["sem_fit"], 1e-12))
        add(f"{w_key}_consistency", diff <= tol["width_var_sigma_multiple"] * joint,
            f"|width - variance inferred| = {diff:.4g} vs joint sigma {joint:.4g}")

    rel = abs(aggregate["gamma_eff_ref_hz"]["mean"] / theory["gamma_eff_hz"] - 1.0)
    add("gamma_eff_reference", rel <= tol["gamma_eff_rel"],
        f"relative error {rel:.4g} (limit {tol['gamma_eff_rel']})")

    all_same = all(r["detuned_indistinguishable"] for r in reps)
    add("detuned_channels_indistinguishable", all_same,
        f"chi-square test at {tol['chi2_level']:.0%} level, p = "
        + ", ".join(f"{r['scalars']['detuned_chi2_p'][0]:.3g}" for r in reps))
    return checks


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_report(config: RunConfig, out: Path, report: dict, artifacts: list[str]) -> dict:
    """Write config.txt, report.json and report.txt, listing `artifacts` and
    the package and numpy versions too: the FFTs' rounding, and so the
    artifacts' last digits, depend on numpy."""
    report["artifacts"] = sorted(["config.txt", "report.json", "report.txt", *artifacts])
    report["provenance"] = {"parosc": __version__, "numpy": np.__version__}
    with open(out / "config.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash = {report['config_hash']}\n")
        fh.write(config.snapshot())
    _write_json(out / "report.json", report)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
    return report


def _run_analytic_only(config: RunConfig, out: Path, rates: DerivedRates) -> dict:
    """Quantum-squeezing regime (s > 2*n_bar): time-domain synthesis is
    refused, so the run emits the closed-form sideband spectra and a report
    that states the regime prominently."""
    gamma_plus = rates.gamma_plus
    omega = np.linspace(-30.0 * gamma_plus, 30.0 * gamma_plus, 4001)
    cfg_hash = config.config_hash()
    artifacts = []
    for side in ("stokes", "antistokes"):
        psd = analytic_sideband_psd(rates.n_bar, rates.s, rates.gamma_eff, side, omega)
        name = f"analytic_{side}.csv"
        write_psd_csv_with_hash(psd, out / name, cfg_hash)
        artifacts.append(name)
    report = {
        "config_hash": cfg_hash,
        "mode": "analytic_only",
        "theory": _theory_block(rates),
        "checks": [],
        "tolerances": TOLERANCES,
    }
    return _write_report(config, out, report, artifacts)


def run_single(
    config: RunConfig,
    out_dir,
    point_key: tuple[int, ...] = (0,),
) -> dict:
    """One seeded end-to-end run with the configured number of repetitions.

    Writes per-repetition PSD CSVs and fit reports plus a consolidated
    report.json / report.txt; returns the report dictionary.  In the
    quantum-squeezing regime (s > 2*n_bar) the run degrades to analytic
    spectra only, since the component backend refuses negative weights.
    The kernels of each repetition run on the config's `workers` threads;
    the artifacts do not depend on it.
    """
    require_valid(config)
    out = _make_out_dir(out_dir)
    rates = config.derived_rates()
    if rates.weights.quantum_squeezed:
        return _run_analytic_only(config, out, rates)
    v = config.values
    cfg_hash = config.config_hash()
    reps = []
    artifacts = []
    for rep in range(v["repetitions"]):
        seed = rep_seed(v["seed"], point_key, rep)
        rep_dir = _make_out_dir(out / f"rep{rep:02d}")
        raw_dir = _make_out_dir(rep_dir / "raw") if v["keep_raw"] else None
        result = _run_repetition(config, rates, seed, raw_dir, v["workers"])
        for name, psd in result["psds"].items():
            write_psd_csv_with_hash(psd, rep_dir / name, cfg_hash)
        for name, fit in result["fits"].items():
            doc = fit.to_json_dict()
            doc["provenance"] = {"config_hash": cfg_hash, "seed": result["seed"]}
            _write_json(rep_dir / name, doc)
        artifacts += [f"{rep_dir.name}/{name}" for name in (*result["psds"], *result["fits"])]
        reps.append(result)
    aggregate = _aggregate(reps)
    theory = _theory_block(rates)
    report = {
        "config_hash": cfg_hash,
        "point_key": list(point_key),
        "repetitions": v["repetitions"],
        "seeds": [r["seed"] for r in reps],
        "theory": theory,
        "aggregate": aggregate,
        "checks": _checks(aggregate, theory, reps),
        "tolerances": TOLERANCES,
        "lockin": {
            "lowpass_cutoff_hz": v["lowpass_cutoff"],
            "passband_edge_hz": config.passband_edge_hz(rates),
            "decimate": v["decimate"],
            "window": v["window"],
            "welch_segment_s": v["welch_segment"],
            "welch_overlap": v["welch_overlap"],
        },
    }
    return _write_report(config, out, report, artifacts)


def write_psd_csv_with_hash(psd, path, cfg_hash: str) -> None:
    write_psd_csv(psd, path, config_hash=cfg_hash)


def render_report(report: dict) -> str:
    lines = []
    th = report["theory"]
    lines.append(f"config hash      : {report['config_hash']}")
    if "repetitions" in report:
        lines.append(f"repetitions      : {report['repetitions']}")
    lines.append(
        "theory           : s = {s:.6g}, n_bar = {n}, gamma_eff = {g:.6g} Hz".format(
            s=th["s"], n=th["n_bar"], g=th["gamma_eff_hz"]
        )
    )
    regime = th["regime"]
    lines.append(
        "regime           : stable={stable} quantum_squeezed={qs} reachable_below_instability={qr}".format(
            stable=regime["stable"], qs=regime["quantum_squeezed"],
            qr=regime["quantum_squeezing_reachable"],
        )
    )
    if regime["quantum_squeezed"]:
        lines.append(
            "                   NOTE: quantum-squeezing regime (s > 2*n_bar) --"
        )
        lines.append(
            "                   time-domain synthesis is refused; this run used"
        )
        lines.append(
            "                   analytic spectra only."
        )
    if "aggregate" in report:
        agg = report["aggregate"]
        for key in ("gamma_eff_ref_hz", "ratio", "n_bar", "s_hat", "r_plus", "r_minus",
                    "var_ratio_x", "var_ratio_y"):
            a = agg[key]
            lines.append(
                f"{key:<17}: {a['mean']:.6g} +- {a['std']:.3g} (std over reps), "
                f"+- {a['sem_fit']:.3g} (fit)"
            )
    lines.append("tolerances       : " + json.dumps(report["tolerances"], sort_keys=True))
    lines.append("checks:")
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(f"  [{status}] {check['name']}: {check['detail']}")
    if not report["checks"]:
        lines.append("  (none: no synthesized data in this mode)")
    if "lockin" in report:
        lines.append("lock-in settings : " + json.dumps(report["lockin"], sort_keys=True))
    return "\n".join(lines) + "\n"


# --- sweeps ----------------------------------------------------------------


# .caller: the caller of the sweep whose point runs on this thread, for _warn.
_point = threading.local()


def _run_point(args):
    index, config, out_dir, caller = args
    _point.caller = caller
    try:
        # sweep rows need fitted quantities, so a point in the
        # quantum-squeezing regime is reported as failed with the synth
        # refusal message rather than silently degrading to analytic mode
        rates = config.derived_rates()
        if rates.weights.quantum_squeezed:
            raise QuantumSqueezingRegimeError(
                f"s = {rates.s:.4g} > 2*n_bar = {2 * rates.n_bar:.4g}: "
                "quantum-squeezing regime, time-domain synthesis refused"
            )
        # the sweep spends its workers on points, so each point's kernels
        # run on one thread and pools never nest; run_single is looked up
        # on the module at call time, so a tracer that wraps it sees points
        report = run_single(config.with_overrides(workers="1"), out_dir, point_key=(index,))
        return index, report, None
    except Exception as exc:  # error isolation: a failing point must not kill siblings
        return index, None, f"{type(exc).__name__}: {exc}"
    finally:
        _point.caller = None


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(x).lower()
    return f"{x:.12g}"


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(c) for c in row) + "\n")


class _SweepSpec(NamedTuple):
    """What one sweep varies and what its summary and overlay hold."""

    axis: str  # summary key and column of the swept value
    overrides: Callable[[float], dict]  # swept value -> config overrides of one point
    columns: tuple  # (header, getter(report)) pairs between status and error
    overlay_header: tuple[str, ...]
    overlay_rows: Callable[[RunConfig], list[list]]


def _fitted(key: str, header: str | None = None) -> tuple:
    """Summary columns of an aggregated estimate: its mean and fit sigma."""
    return (
        (header or key, lambda r: r["aggregate"][key]["mean"]),
        (f"{key}_sigma", lambda r: r["aggregate"][key]["sem_fit"]),
    )


def _theory(key: str, header: str | None = None) -> tuple:
    return ((header or f"theory_{key}", lambda r: r["theory"][key]),)


def _run_sweep(spec: _SweepSpec, config: RunConfig, values, out_dir) -> list[dict]:
    """Run one point per swept value (per-point artifacts in point_XX/), then
    write sweep_summary.csv and theory_overlay.csv.  A failed point keeps
    its row: empty result cells and the error in the last column.  The
    points run on the config's `workers` threads."""
    require_valid_workers(config)
    if not len(values):
        raise ConfigError(f"no {spec.axis} values to sweep")
    out = _make_out_dir(out_dir)
    caller = _caller()
    points = [
        (i, config.with_overrides(**spec.overrides(x)), out / f"point_{i:02d}", caller)
        for i, x in enumerate(values)
    ]
    results = thread_map(_run_point, points, config.values["workers"])  # in point order
    header = ["index", spec.axis, "status", *(name for name, _ in spec.columns), "error"]
    rows = []
    summary = []
    for (i, report, error), x in zip(results, values):
        status = "ok" if error is None else "failed"
        summary.append({"index": i, spec.axis: float(x), "status": status,
                        "error": error, "report": report})
        if error is None:
            cells = [get(report) for _, get in spec.columns] + [""]
        else:
            cells = [None] * len(spec.columns) + [error]
        rows.append([i, x, status, *cells])
    write_csv(out / "sweep_summary.csv", header, rows)
    write_csv(out / "theory_overlay.csv", list(spec.overlay_header), spec.overlay_rows(config))
    return summary


_RATIO_SWEEP = _SweepSpec(
    axis="s_set",
    overrides=lambda s: {"rate_source": "target", "s_target": f"{s:.12g}"},
    columns=(
        *_fitted("s_hat"), *_fitted("r_plus", "r_plus_hat"), *_fitted("r_minus", "r_minus_hat"),
        *_theory("r_plus"), *_theory("r_minus"),
    ),
    overlay_header=("s", "r_plain", "r_plus", "r_minus"),
    overlay_rows=lambda config: [
        [s, *ratios(config.values["n_bar"], s)] for s in np.linspace(0.0, 0.95, 96)
    ],
)


def run_sweep_ratio_vs_s(config: RunConfig, s_values, out_dir) -> list[dict]:
    """Sweep of the sideband-component ratios versus the set parametric gain
    at constant occupancy.  Per-point artifacts land in point_XX/; the summary
    table and a dense theory overlay are emitted as CSV."""
    return _run_sweep(_RATIO_SWEEP, config, s_values, out_dir)


def _variance_overlay(config: RunConfig) -> list[list]:
    """Closed-form variance ratios wherever the tone split gives a stable gain."""
    if config.values["rate_source"] != "params":
        return []
    osc = config.oscillator()
    rows = []
    for eps in np.linspace(0.5, 1.0, 101):
        try:
            s = squeeze_param(config.pump(epsilon_c=float(eps)), osc)
        except ParoscError:
            continue
        if 0.0 <= s < 1.0:
            rows.append([eps, s, 1.0 / (1.0 + s), 1.0 / (1.0 - s)])
    return rows


_VARIANCE_SWEEP = _SweepSpec(
    axis="epsilon_c",
    overrides=lambda eps: {"rate_source": "params", "epsilon_c": f"{eps:.12g}"},
    columns=(
        *_theory("s", "s_model"),
        *_fitted("var_ratio_x"), *_fitted("var_ratio_y"),
        *_theory("var_ratio_x"), *_theory("var_ratio_y"),
        *_fitted("width_plus"), *_fitted("width_minus"),
        *_fitted("var_inferred_plus"), *_fitted("var_inferred_minus"),
    ),
    overlay_header=("epsilon_c", "s", "var_ratio_x", "var_ratio_y"),
    overlay_rows=_variance_overlay,
)


def run_sweep_variance_vs_tone_ratio(config: RunConfig, epsilon_values, out_dir) -> list[dict]:
    """Quadrature-variance sweep versus the modulation/cooling tone split at
    constant total pump power, with the three-way consistency columns:
    measured normalized variances, their theory 1/(1 +- s), and the widths of
    the heterodyne components expressed as (1 +- s)."""
    return _run_sweep(_VARIANCE_SWEEP, config, epsilon_values, out_dir)


# --- report verb -------------------------------------------------------------


def report_artifacts(artifacts_dir) -> tuple[str, bool]:
    """Render the human summary for a run or sweep directory and evaluate the
    pass/fail state; returns (text, ok).  A directory holding neither a
    report nor a sweep summary fails, and so does one whose report or
    summary cannot be read, a sweep summary without a point, and a sweep
    when a point fails, including a point refused before it wrote any
    artifact.  Raises ConfigError when artifacts_dir is not a directory."""
    root = Path(artifacts_dir)
    if not root.is_dir():
        raise ConfigError(f"{artifacts_dir} is not an artifact directory")
    path = root / "sweep_summary.csv"
    if not path.exists():
        path = root / "report.json"
        if not path.exists():
            return f"missing report.json and sweep_summary.csv under {root}\n", False
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            missing = [a for a in report["artifacts"] if not (root / a).exists()]
            ok = all(c["passed"] for c in report["checks"]) and not missing
            text = render_report(report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return _unreadable(path, exc), False
        if missing:
            text += "missing artifacts:\n" + "\n".join(f"  {m}" for m in missing) + "\n"
        return text, ok
    try:
        summary = path.read_text(encoding="utf-8")
        header, *rows = summary.splitlines()
        if not rows:
            return f"no points in {path}\n", False
        failed = []
        for row in rows:
            # the error is the last cell and the only one that may hold commas
            index, _, status, *_, error = row.split(",", len(header.split(",")) - 1)
            if status == "failed":
                failed.append(f"== point_{int(index):02d} [FAILED] {error}")
    except (OSError, ValueError) as exc:
        return _unreadable(path, exc), False
    texts = []
    ok = not failed
    for pd in sorted(p for p in root.iterdir() if p.is_dir() and p.name.startswith("point_")):
        text, point_ok = report_artifacts(pd)
        ok &= point_ok
        texts += [f"== {pd.name} [{'PASS' if point_ok else 'FAIL'}]", text]
    texts += [*failed, summary]
    return "\n".join(texts), ok


def _unreadable(path: Path, exc: Exception) -> str:
    return f"unreadable {path}: {type(exc).__name__}: {exc}\n"
