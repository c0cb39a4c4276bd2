"""tools/design_size.py: its three counts on a small package tree whose
counts are known, and its config key count and defaulted options on this
checkout."""

import importlib.util
from pathlib import Path

from parosc import config

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "design_size.py"

CONFIG_PY = """\
FIELDS = {"rate": 1, "seed": 2, "span": 3}


def run(x, y=1, *, z=2, w):
    return x
"""

MODEL_PY = """\
import dataclasses

scale = lambda v, k=2.0: k * v


@dataclasses.dataclass(frozen=True)
class Params:
    a: float
    b: float = 0.5


class Plain:
    c: int = 3
"""


# Every defaulted option of src/parosc as (module, function or dataclass,
# option).  An option that gains a default fails the checkout test until it
# is named here.
DEFAULTED_OPTIONS = {
    ("cli", "main", "argv"),
    ("config", "RunConfig.pump", "epsilon_c"),
    ("fitting", "LorentzianPairModel", "scale"),
    ("fitting", "LorentzianPairModel", "offset"),
    ("fitting", "FitResult", "flags"),
    ("fitting", "FitResult", "degenerate_direction"),
    ("pipeline", "run_single", "point_key"),
    ("pipeline", "_fitted", "header"),
    ("pipeline", "_theory", "header"),
    ("spectral", "Welch.feed", "last"),
    ("spectral", "welch_psd_chunks", "overlap_frac"),
    ("spectral", "welch_psd_chunks", "window"),
    ("spectral", "welch_psd_chunks", "workers"),
    ("spectral", "welch_psd_chunks", "detrend"),
    ("spectral", "write_psd_csv", "config_hash"),
    ("spectral", "chi2_indistinguishable", "level"),
    ("synth", "SimGrid", "start"),
    ("synth", "Schedule.usable_slices", "tail_guard"),
    ("synth", "OUChain.draw", "out"),
    ("synth", "OUChain.draw", "add"),
    ("synth", "Streams.chain", "part"),
    ("synth", "_draw_pieces", "add"),
}


def design_size():
    spec = importlib.util.spec_from_file_location("design_size", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_a_known_tree(tmp_path, capsys):
    package = tmp_path / "src" / "parosc"
    package.mkdir(parents=True)
    (package / "config.py").write_text(CONFIG_PY)
    (package / "model.py").write_text(MODEL_PY)
    (package / "notes.txt").write_text("not\ncounted\n")
    assert design_size().main(["design_size.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "src/parosc lines: 18",
        "config keys: 3",
        # y, z, k and Params.b: not w, which has no default, nor Plain.c,
        # whose class is no dataclass
        "defaulted options: 4",
    ]
    assert design_size().package_defaulted_options(package) == [
        ("config", "run", "y"), ("config", "run", "z"),
        ("model", "<lambda>", "k"), ("model", "Params", "b"),
    ]


def test_config_keys_of_the_checkout(capsys):
    assert design_size().main(["design_size.py"]) == 0
    counts = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert int(counts["config keys"]) == len(config.FIELDS)


def test_defaulted_options_of_the_checkout(capsys):
    package = SCRIPT.parents[1] / "src" / "parosc"
    options = design_size().package_defaulted_options(package)
    assert len(options) == len(set(options))
    assert set(options) == DEFAULTED_OPTIONS
    assert design_size().main(["design_size.py"]) == 0
    counts = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert int(counts["defaulted options"]) == len(DEFAULTED_OPTIONS)
