"""Write seven small artifact trees and print the SHA-256 of every file.

    PYTHONPATH=src python3 tools/artifact_digests.py OUT_DIR

The trees are built on the test suite's tiny grid (12 s records at 25 kHz,
3 s drive segments, two repetitions, seed 1234):

- ``single``: ``run_single`` with ``keep_raw``, so raw records are included;
- ``analytic``: the analytic-only run at ``n_bar=0.3``, ``s_target=0.7``;
- ``ratio_sweep``: ``run_sweep_ratio_vs_s`` over ``[0.1, 0.7]`` at ``n_bar=0.3``;
- ``variance_sweep``: ``run_sweep_variance_vs_tone_ratio`` over ``[1.0, 0.0]``;
- ``long_segments``: ``run_single`` with ``keep_raw`` and 6 s drive segments
  (150,000 samples), longer than the pipeline's processing block, so the
  records are cut inside drive segments too;
- ``partial_period``: ``run_single`` with ``keep_raw`` on a 13 s record, so
  the last 3 s drive segment runs on to the record's end and is 4 s long;
- ``blackman_odd``: ``run_single`` with the Blackman window (5 taps) and
  0.70004 s Welch segments, odd on both axes: 17,501 samples at the full
  rate and 4,375 after decimation.

Each tree is written with the config key ``workers`` at 1, 2 and 5, under
``OUT_DIR/workers_N``.
The script exits 1, naming the files, when the worker counts disagree;
otherwise it prints one ``sha256  tree/relative/path`` line per file.  Run it
on two commits and ``diff`` the listings: a differing line is an artifact
whose bytes changed.  OUT_DIR must be absent or empty.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from parosc import pipeline
from parosc.config import RunConfig

# tests/conftest.py FAST_OVERRIDES and tests/test_pipeline.py tiny_config,
# restated so the script does not depend on test code.
TINY_GRID = dict(
    sample_rate="25kHz",
    carrier="5kHz",
    delta_lo="1.1kHz",
    lowpass_cutoff="2.5kHz",
    decimate="4",
    duration="12s",
    schedule_period="3s",
    welch_segment="0.7s",
    fit_margin="300Hz",
    repetitions="2",
    rate_source="target",
    gamma_eff_target="20Hz",
    s_target="0.5",
    n_bar="5.8",
    seed="1234",
)
WORKER_COUNTS = (1, 2, 5)


def tiny_config(**overrides: str) -> RunConfig:
    return RunConfig.defaults().with_overrides(**{**TINY_GRID, **overrides})


def write_trees(root: Path, workers: int) -> None:
    def config(**overrides: str) -> RunConfig:
        return tiny_config(workers=str(workers), **overrides)

    pipeline.run_single(config(keep_raw="true"), root / "single")
    pipeline.run_single(config(n_bar="0.3", s_target="0.7"), root / "analytic")
    pipeline.run_sweep_ratio_vs_s(config(n_bar="0.3"), [0.1, 0.7], root / "ratio_sweep")
    pipeline.run_sweep_variance_vs_tone_ratio(config(), [1.0, 0.0], root / "variance_sweep")
    pipeline.run_single(config(schedule_period="6s", keep_raw="true"), root / "long_segments")
    pipeline.run_single(config(duration="13s", keep_raw="true"), root / "partial_period")
    pipeline.run_single(config(window="blackman", welch_segment="0.70004s"), root / "blackman_odd")


def digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    listings = {}
    for workers in WORKER_COUNTS:
        root = out / f"workers_{workers}"
        write_trees(root, workers)
        listings[workers] = digests(root)
    reference = listings[WORKER_COUNTS[0]]
    differing = sorted({
        name
        for workers in WORKER_COUNTS[1:]
        for name in reference.keys() | listings[workers].keys()
        if reference.get(name) != listings[workers].get(name)
    })
    if differing:
        print("files differ between worker counts:", *differing, sep="\n  ", file=sys.stderr)
        return 1
    for name, digest in reference.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
