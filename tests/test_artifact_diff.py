"""tools/artifact_diff.py on small artifact trees whose differences are
known."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from parosc.recordio import write_record_bin

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"

CSV = "# config=abc123\n# rbw_hz=1.25 window=hann n_averages=7\nfreq_hz,psd\n0,1.5\n1.25,{x}\n"


def artifact_diff():
    spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(passed: bool, value: float) -> str:
    return json.dumps({
        "aggregate": {"s_hat": {"mean": value}},
        "checks": [{"name": "s_recovery", "passed": True, "detail": "ok"},
                   {"name": "gamma_eff_reference", "passed": passed, "detail": "ok"}],
    })


def write_tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def run(tmp_path, old: dict, new: dict, capsys):
    code = artifact_diff().main([
        str(write_tree(tmp_path / "old", old)), str(write_tree(tmp_path / "new", new)),
    ])
    lines = capsys.readouterr().out.splitlines()
    # "<status>  <path>" per file; the flipped checks are indented
    status = {
        line.split()[-1]: line.rsplit(" ", 1)[0].strip()
        for line in lines
        if "/" in line and not line.startswith(" ")
    }
    return code, status, lines


def test_numeric_moves_only(tmp_path, capsys):
    old = {"rep00/a.csv": CSV.format(x="2.00000000000"), "rep00/same.csv": CSV.format(x="3"),
           "point_00/report.json": report(True, 0.5)}
    new = {"rep00/a.csv": CSV.format(x="2.00000000002"), "rep00/same.csv": CSV.format(x="3"),
           "point_00/report.json": report(True, 0.5000001)}
    code, status, lines = run(tmp_path, old, new, capsys)
    assert code == 0
    assert status["rep00/same.csv"] == "identical"
    assert status["rep00/a.csv"] == "max rel 1e-11"
    assert status["point_00/report.json"] == "max rel 2e-07"
    assert "checks flipped: 0" in lines


def test_flipped_check_missing_extra_and_text_changes_fail(tmp_path, capsys):
    old = {"r/report.json": report(True, 0.5), "r/gone.csv": CSV.format(x="1"),
           "r/config.txt": "window = hann\n"}
    new = {"r/report.json": report(False, 0.5), "r/added.csv": CSV.format(x="1"),
           "r/config.txt": "window = blackman\n"}
    code, status, lines = run(tmp_path, old, new, capsys)
    assert code == 1
    assert status["r/gone.csv"] == "missing in NEW"
    assert status["r/added.csv"] == "extra in NEW"
    assert status["r/config.txt"] == "non-numeric difference"
    assert "checks flipped: 1" in lines
    assert "  r/report.json: gamma_eff_reference: True -> False" in lines


def test_raw_records_compared_by_sample(tmp_path, capsys):
    old, new = tmp_path / "old" / "raw", tmp_path / "new" / "raw"
    for root in (old, new):
        root.mkdir(parents=True)
    x = np.linspace(1.0, 2.0, 100)
    write_record_bin(old / "rec.bin", (x, -x), 1e3)
    moved = x.copy()
    moved[7] *= 1.0 + 4e-12
    write_record_bin(new / "rec.bin", (moved, -x), 1e3)
    write_record_bin(old / "short.bin", x, 1e3)
    write_record_bin(new / "short.bin", x[:50], 1e3)
    assert artifact_diff().main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    lines = capsys.readouterr().out.splitlines()
    rel = float(next(line for line in lines if line.endswith("raw/rec.bin")).split()[2])
    assert 3e-12 < rel < 5e-12
    assert any(line.startswith("non-numeric difference") and line.endswith("raw/short.bin")
               for line in lines)


def test_names_where_the_largest_difference_lies(tmp_path, capsys):
    # a moved iteration count is told apart from a moved value: the JSON
    # key path, the CSV column or else the line of each file's largest
    # relative difference follows its status line
    def fit(iterations, r_plus):
        return json.dumps({"iterations": iterations, "values": {"r_plus": r_plus}, "note": "tol 1e-10"})

    old = {"a/fit.json": fit(100, 0.5), "a/b.json": fit(100, 0.5),
           "a/psd.csv": CSV.format(x="2.0"), "a/head.csv": CSV.format(x="2.0"), "a/report.txt": "x = 1\ny = 2\n"}
    new = {"a/fit.json": fit(116, 0.5000002), "a/b.json": fit(100, 0.5000002),
           "a/psd.csv": CSV.format(x="2.2"), "a/head.csv": CSV.format(x="2.0").replace("1.25", "1.5", 1),
           "a/report.txt": "x = 1\ny = 3\n"}
    code, status, lines = run(tmp_path, old, new, capsys)
    assert code == 0
    where = {lines[i].split()[-1]: lines[i + 1].strip() for i in range(len(lines) - 1)
             if lines[i + 1].lstrip().startswith("at ")}
    assert status["a/fit.json"] == "max rel 0.138" and where["a/fit.json"] == "at iterations"
    assert status["a/b.json"] == "max rel 4e-07" and where["a/b.json"] == "at values.r_plus"
    assert status["a/psd.csv"] == "max rel 0.0909" and where["a/psd.csv"] == "at column psd"
    assert where["a/head.csv"] == "at line 2"
    assert where["a/report.txt"] == "at line 2"


def test_non_integer_cells_beside_a_moved_count(tmp_path, capsys):
    # a JSON or CSV file's largest move over the cells that are not
    # integers in both trees follows, so a fit's moved iteration count does
    # not hide how far its values moved; other texts have no such line
    def fit(iterations, r_plus):
        return json.dumps({"iterations": iterations, "values": {"r_plus": r_plus, "n": 3},
                           "note": f"after {iterations} steps"})

    table = "# n=1\nn,psd\n{n},{x}\n7,2.5\n"
    old = {"a/fit.json": fit(100, 0.5), "a/count.json": fit(100, 0.5),
           "a/t.csv": table.format(n=10, x="1.0"), "a/report.txt": "n = 100\nx = 0.5\n"}
    new = {"a/fit.json": fit(133, 0.5000003), "a/count.json": fit(90, 0.5),
           "a/t.csv": table.format(n=12, x="1.001"), "a/report.txt": "n = 133\nx = 0.5000003\n"}
    code, status, lines = run(tmp_path, old, new, capsys)
    assert code == 0
    follow = {}
    for i, line in enumerate(lines):
        if "/" in line and not line.startswith(" "):
            follow[line.split()[-1]] = [x.strip() for x in lines[i + 1 : i + 3] if x.startswith(" ")]
    assert status["a/fit.json"] == "max rel 0.248"
    assert follow["a/fit.json"] == ["at iterations", "non-integer max rel 6e-07 at values.r_plus"]
    assert follow["a/count.json"] == ["at iterations", "non-integer max rel 0"]
    assert status["a/t.csv"] == "max rel 0.167"
    assert follow["a/t.csv"] == ["at column n", "non-integer max rel 0.000999 at column psd"]
    assert follow["a/report.txt"] == ["at line 1"]
