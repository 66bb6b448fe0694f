import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renyicq import cli
from renyicq.centers import CenterResult
from renyicq.channels import noiseless_channel, save_channel
from renyicq.exponents import ExponentCurve
from renyicq.operators import DensityOperator

LN2 = math.log(2.0)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCenterCommand:
    def test_noiseless_value(self, tmp_path):
        out = tmp_path / "center.csv"
        code = cli.main([
            "center", "--preset", "noiseless:2", "--alpha", "2", "--z", "2",
            "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["value"]) == pytest.approx(LN2, abs=1e-9)
        assert float(row["residual"]) <= 1e-10
        assert row["converged"] == "True"

    def test_json_center_matrix(self, tmp_path):
        out = tmp_path / "center.json"
        code = cli.main([
            "center", "--preset", "noiseless:2", "--alpha", "2", "--z", "2",
            "--format", "json", "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        mat = np.array([[complex(re, im) for re, im in row] for row in doc["center"]])
        assert np.abs(mat - np.eye(2) / 2).max() < 1e-9

    def test_bits_units(self, tmp_path):
        out = tmp_path / "center_bits.csv"
        cli.main([
            "center", "--preset", "noiseless:2", "--alpha", "2", "--z", "2",
            "--units", "bits", "--output", str(out),
        ])
        header, rows = read_csv(out)
        assert float(dict(zip(header, rows[0]))["value"]) == pytest.approx(1.0, abs=1e-9)

    def test_large_order_on_d4_preset(self):
        assert cli.main(["center", "--preset", "random:4:4:7", "--alpha", "600"]) == 0

    def test_large_order_on_qubit_preset(self):
        assert cli.main(["center", "--preset", "random:2:3:7", "--alpha", "600"]) == 0

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        bad = CenterResult(
            center=DensityOperator(np.eye(2) / 2), value=0.0, iterations=1,
            residual=1.0, converged=False, method="fixed_point",
        )
        monkeypatch.setattr(cli, "solve_center_D", lambda *a, **k: bad)
        code = cli.main(["center", "--preset", "noiseless:2", "--alpha", "2",
                         "--output", str(tmp_path / "x.csv")])
        assert code == 3


class TestExponentCurveCommand:
    def test_noiseless_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = cli.main([
            "exponent-curve", "--preset", "noiseless:2",
            "--rmin", "0.1", "--rmax", "2.0", "--steps", "50",
            "--output", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["R", "value", "argmax_alpha"]
        assert len(rows) == 50
        for row in rows:
            r, v = float(row[0]), float(row[1])
            assert v == pytest.approx(max(0.0, r - LN2), abs=1e-6)

    def test_round_trip_precision(self, tmp_path):
        out_csv = tmp_path / "c.csv"
        out_json = tmp_path / "c.json"
        args = ["exponent-curve", "--preset", "noiseless:2", "--rmin", "0.3",
                "--rmax", "1.4", "--steps", "7"]
        cli.main(args + ["--output", str(out_csv)])
        cli.main(args + ["--format", "json", "--output", str(out_json)])
        _, rows = read_csv(out_csv)
        doc = json.loads(out_json.read_text())
        assert doc["columns"] == ["R", "value", "argmax_alpha"]
        for csv_row, json_row in zip(rows, doc["rows"]):
            for a, b in zip(csv_row, json_row):
                assert float(a) == pytest.approx(float(b), abs=1e-12)
        # 12 significant digits: round trip exact to 1e-12 relative
        want = np.linspace(0.3, 1.4, 7)
        got = np.array([float(r[0]) for r in rows])
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_rate_validation(self, tmp_path):
        code = cli.main(["exponent-curve", "--preset", "noiseless:2",
                         "--rmin", "0.0", "--rmax", "1.0", "--steps", "5"])
        assert code == 2
        code = cli.main(["exponent-curve", "--preset", "noiseless:2",
                         "--rmin", "0.5", "--rmax", "1.0", "--steps", "1"])
        assert code == 2


class TestChiAndCutoff:
    def test_chi_list(self, tmp_path):
        out = tmp_path / "chi.csv"
        code = cli.main(["chi", "--preset", "noiseless:2", "--alpha", "1.5,2,4",
                         "--output", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        for row in rows:
            assert float(row[2]) == pytest.approx(LN2, abs=1e-9)

    def test_chi_beta(self, tmp_path):
        out = tmp_path / "beta.csv"
        code = cli.main(["chi", "--preset", "noiseless:2", "--alpha", "2",
                         "--z", "2", "--beta", "2", "--output", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0][3]) == pytest.approx(LN2, abs=1e-4)

    def test_cutoff(self, tmp_path):
        out = tmp_path / "cut.csv"
        code = cli.main(["cutoff", "--preset", "noiseless:2",
                         "--kappa", "0.25,0.5,0.75", "--output", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        for row in rows:
            assert float(row[2]) == pytest.approx(LN2, abs=1e-9)

    def test_kappa_validation(self):
        assert cli.main(["cutoff", "--preset", "noiseless:2", "--kappa", "1.5"]) == 2


class TestDivergenceCommand:
    def test_pairwise_table(self, tmp_path):
        out = tmp_path / "div.csv"
        code = cli.main(["divergence", "--preset", "noiseless:2", "--alpha", "0.5",
                         "--z", "1", "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "y", "alpha", "z", "value"]
        table = {(r[0], r[1]): float(r[4]) for r in rows}
        assert table[("0", "0")] == pytest.approx(0.0, abs=1e-12)
        assert math.isinf(table[("0", "1")])

    def test_log_euclidean_large_order_is_finite(self, capsys):
        # Tr exp(512 log W_0 - 511 log W_1) is past the largest double.
        assert cli.main(["divergence", "--preset", "random:4:3:1", "--alpha", "512",
                         "--z", "inf"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        values = {(r[0], r[1]): float(r[4]) for r in rows}
        assert len(values) == 9 and all(math.isfinite(v) for v in values.values())
        assert values[("0", "1")] == pytest.approx(2.351656387714214, abs=1e-10)


class TestInputsAndErrors:
    def test_file_input(self, tmp_path):
        w, p = noiseless_channel(2)
        path = tmp_path / "chan.json"
        save_channel(path, w, p)
        out = tmp_path / "out.csv"
        code = cli.main(["center", "--input", str(path), "--alpha", "2", "--z", "2",
                         "--output", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert float(dict(zip(header, rows[0]))["value"]) == pytest.approx(LN2, abs=1e-9)

    def test_malformed_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "symbols": ["a"], "outputs": {}}', encoding="utf-8")
        assert cli.main(["center", "--input", str(path), "--alpha", "2"]) == 2

    def test_dim_cap_exit_4(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 65, "symbols": ["a"], "outputs": {}}),
                        encoding="utf-8")
        assert cli.main(["center", "--input", str(path), "--alpha", "2"]) == 4

    def test_bad_preset_exit_2(self):
        assert cli.main(["center", "--preset", "nope:3", "--alpha", "2"]) == 2

    def test_missing_input_exit_2(self):
        assert cli.main(["center", "--alpha", "2"]) == 2

    def test_parser_is_built_once_per_process(self, capsys):
        cli._build_parser.cache_clear()
        outputs = []
        for _ in range(2):
            assert cli.main(["center", "--preset", "noiseless:2", "--alpha", "2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert cli._build_parser.cache_info().misses == 1

    def test_import_leaves_verify_and_classical_unloaded(self):
        # A fresh process: importing the CLI must not compile the verify
        # suite or the scalar oracle; the verify command loads them itself.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, renyicq.cli as c\n"
                "print(sorted(m for m in ('renyicq.verify', 'renyicq.classical') if m in sys.modules))\n"
                "print(c.main(['verify', '--seed', '42']))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.splitlines()
        assert out[0] == "[]"
        assert out[-1] == "0"


class TestRendering:
    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["chi", "--preset", "random:2:3:7", "--alpha", "2", "--z", "2"]
        cli.main(args + ["--output", str(a)])
        cli.main(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_lf_and_significant_digits(self, tmp_path):
        out = tmp_path / "x.csv"
        cli.main(["chi", "--preset", "noiseless:2", "--alpha", "2", "--z", "2",
                  "--output", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw
        value = raw.decode().splitlines()[1].split(",")[2]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12

    def test_empty_guard(self):
        with pytest.raises(ValueError):
            cli.render_rows(["a"], [], "csv")

    def test_infinite_argmax_serialization(self):
        curve = ExponentCurve(
            rates=np.array([1.0]), values=np.array([0.5]),
            maximizing_alpha=np.array([math.inf]),
        )
        text = cli.render_curve(curve, "csv", "nats")
        assert text.splitlines()[1].split(",")[2] == "inf"
        doc = json.loads(cli.render_curve(curve, "json", "nats"))
        assert doc["rows"][0][2] == math.inf

    def test_bits_scaling(self):
        curve = ExponentCurve(
            rates=np.array([LN2]), values=np.array([LN2 / 2]),
            maximizing_alpha=np.array([2.0]),
        )
        doc = json.loads(cli.render_curve(curve, "json", "bits"))
        assert doc["rows"][0][0] == pytest.approx(1.0, abs=1e-12)
        assert doc["rows"][0][1] == pytest.approx(0.5, abs=1e-12)
        assert doc["rows"][0][2] == pytest.approx(2.0)
