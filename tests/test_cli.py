import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from miselect import SyntheticSpec, generate
from miselect.cli import main

EX1_CSV = """x1,x2,x3,x4,C
0,0,0,0,0
1,0,0,1,1
0,1,0,0,1
1,1,0,1,1
0,0,1,0,1
1,0,1,1,1
0,1,1,0,0
1,1,1,1,1
"""


@pytest.fixture()
def ex1_csv(tmp_path):
    path = tmp_path / "ex1.csv"
    path.write_text(EX1_CSV)
    return str(path)


def run(args):
    return main(args)


class TestSelect:
    def test_forward_jmi_trace(self, ex1_csv, tmp_path):
        out = tmp_path / "trace.json"
        rc = run(["select", ex1_csv, "--target", "C", "--criterion", "jmi",
                  "--k", "3", "--quantizer", "pass-through",
                  "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["selected"]) == 3
        assert doc["stop_reason"] == "reached-k"
        # the selected triple resolves the class completely
        assert set(doc["selected"]) in ({"x1", "x2", "x3"}, {"x2", "x3", "x4"})

    def test_features_out_csv(self, ex1_csv, tmp_path):
        out = tmp_path / "trace.json"
        feats = tmp_path / "feats.csv"
        run(["select", ex1_csv, "--target", "C", "--criterion", "md",
             "--k", "2", "--quantizer", "pass-through",
             "--out", str(out), "--features-out", str(feats)])
        with open(feats) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "feature"]
        assert [r[1] for r in rows[1:]] == ["x1", "x2"]

    def test_backward_strategy(self, ex1_csv, tmp_path):
        out = tmp_path / "trace.json"
        rc = run(["select", ex1_csv, "--target", "C", "--criterion", "md",
                  "--strategy", "backward", "--k", "3",
                  "--quantizer", "pass-through", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["steps"][0]["direction"] == "remove"

    def test_byte_identical_reports(self, ex1_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(["select", ex1_csv, "--target", "C", "--criterion", "jmi",
                 "--k", "3", "--quantizer", "pass-through", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_input_exit_3(self, tmp_path):
        rc = run(["select", str(tmp_path / "nope.csv"), "--target", "C",
                  "--k", "1"])
        assert rc == 3

    def test_bad_target_exit_4(self, ex1_csv):
        rc = run(["select", ex1_csv, "--target", "label", "--k", "1"])
        assert rc == 4

    def test_invalid_k_exit_4(self, ex1_csv):
        rc = run(["select", ex1_csv, "--target", "C", "--k", "99",
                  "--quantizer", "pass-through"])
        assert rc == 4

    @pytest.mark.parametrize("strategy", ["backward", "plus-l-take-away-r"])
    def test_strategy_without_k_exit_4(self, ex1_csv, capsys, tmp_path, strategy):
        out = tmp_path / "trace.json"
        rc = run(["select", ex1_csv, "--target", "C", "--criterion", "md",
                  "--strategy", strategy, "--quantizer", "pass-through",
                  "--out", str(out)])
        assert rc == 4
        assert f"--strategy {strategy} requires --k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option", [["--criterion", "mifs", "--k", "2", "--beta"],
                                        ["--threshold"]])
    def test_non_finite_parameter_exit_4(self, ex1_csv, capsys, option, value):
        rc = run(["select", ex1_csv, "--target", "C", "--quantizer", "pass-through",
                  *option, value])
        assert rc == 4
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("options, named", [
        (["--criterion", "md", "--strategy", "backward", "--k", "3", "--threshold", "5"],
         "--threshold"),
        (["--strategy", "plus-l-take-away-r", "--k", "2", "--threshold", "0.1"], "--threshold"),
        (["--k", "2", "--l", "7"], "--l"),
        (["--k", "2", "--r", "3"], "--r"),
        (["--criterion", "md", "--strategy", "backward", "--k", "3", "--l", "2"], "--l"),
        (["--criterion", "jmi", "--k", "2", "--beta", "0.3"], "--beta"),
        (["--criterion", "md", "--strategy", "backward", "--k", "3", "--beta", "1"], "--beta"),
    ])
    def test_option_the_run_never_reads_exit_4(self, ex1_csv, capsys, tmp_path, options,
                                                named):
        out = tmp_path / "trace.json"
        rc = run(["select", ex1_csv, "--target", "C", "--quantizer", "pass-through",
                  *options, "--out", str(out)])
        assert rc == 4
        assert f"{named} applies only to" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_of_strategy_options(self, ex1_csv, tmp_path):
        """Unset --beta, --l and --r read as 1, 2 and 1, where they apply."""
        docs = {}
        for name, extra in (("unset", []), ("set", ["--beta", "1", "--l", "2", "--r", "1"])):
            out = tmp_path / f"{name}.json"
            assert run(["select", ex1_csv, "--target", "C", "--quantizer", "pass-through",
                        "--criterion", "mifs", "--strategy", "plus-l-take-away-r",
                        "--k", "2", *extra, "--out", str(out)]) == 0
            docs[name] = out.read_bytes()
        assert docs["unset"] == docs["set"]
        assert json.loads(docs["set"])["meta"]["l"] == 2


class TestAnalyze:
    def test_example1_report(self, ex1_csv, tmp_path):
        out = tmp_path / "report.json"
        rc = run(["analyze", ex1_csv, "--target", "C",
                  "--quantizer", "pass-through", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        levels = {f: v["level"] for f, v in doc["relevance"].items()}
        assert levels == {"x1": "weakly-relevant", "x2": "strongly-relevant",
                          "x3": "strongly-relevant", "x4": "weakly-relevant"}
        assert doc["markov_blankets"]["x4"] == [["x1"]]

    @pytest.mark.parametrize("option", ["--epsilon", "--lagrange"])
    def test_non_finite_parameter_exit_4(self, ex1_csv, capsys, option):
        rc = run(["analyze", ex1_csv, "--target", "C", "--quantizer", "pass-through",
                  option, "nan"])
        assert rc == 4
        assert "must be finite" in capsys.readouterr().err

    def test_negative_epsilon_exit_4(self, ex1_csv, capsys):
        rc = run(["analyze", ex1_csv, "--target", "C", "--quantizer", "pass-through",
                  "--epsilon", "-1"])
        assert rc == 4
        assert "epsilon must be non-negative" in capsys.readouterr().err


class TestBounds:
    def test_json_table(self, ex1_csv, tmp_path):
        out = tmp_path / "bounds.json"
        rc = run(["bounds", ex1_csv, "--target", "C",
                  "--quantizer", "pass-through", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        by_feature = {r["feature"]: r for r in doc["bounds"]}
        assert by_feature["x1"]["upper"] == pytest.approx(0.25, abs=1e-9)
        assert by_feature["x1"]["exact"] == pytest.approx(0.25, abs=1e-9)

    def test_csv_table(self, ex1_csv, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = run(["bounds", ex1_csv, "--target", "C", "--format", "csv",
                  "--quantizer", "pass-through", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "mi", "lower", "upper", "exact"]
        assert len(rows) == 5


class TestGen:
    def test_roundtrip_through_select(self, tmp_path):
        data = tmp_path / "synth.csv"
        rc = run(["gen", "--out", str(data), "--n", "400", "--relevant", "2",
                  "--noise", "2", "--seed", "11"])
        assert rc == 0
        truth = json.loads((tmp_path / "synth.csv.truth.json").read_text())
        assert set(truth["roles"].values()) == {"relevant", "noise"}
        out = tmp_path / "trace.json"
        rc = run(["select", str(data), "--target", "C", "--criterion", "jmi",
                  "--k", "2", "--quantizer", "pass-through", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        relevant = {f for f, r in truth["roles"].items() if r == "relevant"}
        assert set(doc["selected"]) == relevant

    def test_exhaustive_example1_shape(self, tmp_path):
        data = tmp_path / "ex.csv"
        rc = run(["gen", "--out", str(data), "--relevant", "1",
                  "--xor-groups", "1", "--redundant-copies", "1",
                  "--exhaustive"])
        assert rc == 0
        with open(data) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "x3", "x4", "C"]
        assert len(rows) == 9

    def test_exhaustive_csv_holds_the_generated_dataset(self, tmp_path):
        data = tmp_path / "truth.csv"
        rc = run(["gen", "--out", str(data), "--relevant", "2", "--xor-groups", "1",
                  "--redundant-copies", "1", "--noise", "2", "--flip-prob", "0.05",
                  "--seed", "3", "--exhaustive"])
        assert rc == 0
        ds, _ = generate(SyntheticSpec(relevant=2, xor_groups=1, redundant_copies=1,
                                       noise=2, flip_prob=0.05, seed=3, exhaustive=True))
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(ds.feature_names) + ["C"]
        want = np.column_stack([ds.features, ds.class_codes])
        assert rows[1:] == [[str(v) for v in row] for row in want.tolist()]

    def test_degenerate_spec_exit_4(self, tmp_path):
        rc = run(["gen", "--out", str(tmp_path / "x.csv"), "--relevant", "0",
                  "--n", "10"])
        assert rc == 4

    def test_too_wide_exhaustive_table_exit_4(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run(["gen", "--out", str(out), "--relevant", "1", "--noise", "20",
                  "--exhaustive"])
        assert rc == 4
        assert "21 base columns" in capsys.readouterr().err
        assert not out.exists()


class TestInfo:
    def test_independent_columns_near_zero(self, tmp_path):
        data = tmp_path / "noise.csv"
        run(["gen", "--out", str(data), "--n", "5000", "--relevant", "1",
             "--noise", "3", "--seed", "7"])
        out = tmp_path / "info.json"
        rc = run(["info", str(data), "--target", "C",
                  "--quantizer", "pass-through", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        noise_pairs = [v for k, v in doc["pairwise_mi"].items()
                       if "x1" not in k.split("|")]
        assert noise_pairs and all(v < 0.01 for v in noise_pairs)

    def test_stdout_output(self, ex1_csv, capsys):
        rc = run(["info", ex1_csv, "--target", "C",
                  "--quantizer", "pass-through"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class_relevance"]["x1"] == pytest.approx(0.311278124459,
                                                             abs=1e-9)

    def test_pass_through_values_past_int64(self, tmp_path, capsys):
        """A target of 1e20 and 2e20 keeps two classes, so b, its copy,
        carries one bit about it."""
        data = tmp_path / "huge.csv"
        data.write_text("a,b,C\n1e20,1e20,1e20\n2e20,2e20,2e20\n"
                        "-3e19,1e20,1e20\n1e20,2e20,2e20\n")
        rc = run(["info", str(data), "--target", "C", "--quantizer", "pass-through"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class_relevance"]["b"] == pytest.approx(1.0, abs=1e-12)
        assert doc["class_relevance"]["a"] == pytest.approx(0.5, abs=1e-12)

    def test_report_ignores_thread_env(self, ex1_csv, tmp_path, monkeypatch):
        args = ["info", ex1_csv, "--target", "C", "--quantizer", "pass-through"]
        monkeypatch.delenv("MISELECT_THREADS", raising=False)
        run(args + ["--out", str(tmp_path / "a.json")])
        monkeypatch.setenv("MISELECT_THREADS", "4")
        run(args + ["--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_runs_as_a_process(self, ex1_csv):
        """`python -m miselect.cli` exits with main's return code."""
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        args = [sys.executable, "-m", "miselect.cli", "info", ex1_csv,
                "--quantizer", "pass-through", "--target"]
        done = subprocess.run(args + ["C"], env=env, capture_output=True, text=True)
        assert done.returncode == 0
        assert json.loads(done.stdout)["class_relevance"]["x1"] == pytest.approx(
            0.311278124459, abs=1e-9)
        done = subprocess.run(args + ["nope"], env=env, capture_output=True, text=True)
        assert done.returncode == 4


class TestBadTokens:
    def test_empty_csv_exit_4(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        rc = run(["info", str(data), "--target", "C", "--out", str(tmp_path / "out.json")])
        assert rc == 4
        assert "empty CSV file" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("quantizer", ["equal-width", "equal-frequency"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NA"])
    def test_numeric_column_with_token_exit_4(self, tmp_path, capsys, token, quantizer):
        data = tmp_path / "bad.csv"
        data.write_text(f"a,b,C\n1.0,0.5,0\n2.0,1.5,1\n{token},2.5,0\n3.0,0.1,1\n")
        rc = run(["bounds", str(data), "--target", "C", "--quantizer", quantizer,
                  "--bins", "2", "--out", str(tmp_path / "out.json")])
        assert rc == 4
        assert f"'{token}'" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("text, quantizer, message", [
        ("a,C\n1,0\n2,0.5\n", "equal-width", "column 'C', got 0.5"),
        ("a,b,C\n1,1,0\n2,1.5,1\n", "pass-through", "column 'b', got 1.5"),
    ])
    def test_non_integer_pass_through_names_the_column_exit_4(self, tmp_path, capsys, text,
                                                             quantizer, message):
        """The target is always passed through; a feature only under
        `--quantizer pass-through`."""
        data = tmp_path / "frac.csv"
        data.write_text(text)
        rc = run(["info", str(data), "--target", "C", "--quantizer", quantizer,
                  "--out", str(tmp_path / "out.json")])
        assert rc == 4
        assert f"pass-through quantizer requires integer-valued {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_equal_width_over_the_float_range(self, tmp_path):
        data = tmp_path / "wide.csv"
        data.write_text("a,C\n-1e308,0\n0,1\n1e308,0\n")
        out = tmp_path / "info.json"
        rc = run(["info", str(data), "--target", "C", "--quantizer", "equal-width",
                  "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["class_relevance"]["a"] > 0

    def test_field_past_csv_limit_exit_4(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("a,C\n1,0\n" + "7" * (csv.field_size_limit() + 1) + ",1\n")
        rc = run(["info", str(data), "--target", "C", "--out", str(tmp_path / "out.json")])
        assert rc == 4
        assert "CSV line 3" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_repeated_header_name_exit_4(self, tmp_path, capsys):
        data = tmp_path / "repeat.csv"
        data.write_text("a,C,C\n0,0,1\n1,1,0\n")
        rc = run(["info", str(data), "--target", "C", "--quantizer", "pass-through",
                  "--out", str(tmp_path / "out.json")])
        assert rc == 4
        assert "column name 'C' repeated in header" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_target_only_header_exit_4(self, tmp_path, capsys):
        data = tmp_path / "target.csv"
        data.write_text("C\n0\n1\n")
        rc = run(["select", str(data), "--target", "C", "--quantizer", "pass-through",
                  "--out", str(tmp_path / "out.json")])
        assert rc == 4
        assert "CSV has no feature columns" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_byte_order_mark_before_target_header(self, tmp_path):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + EX1_CSV.replace(
            "x1,x2,x3,x4,C", "C,x1,x2,x3,x4").encode())
        out = tmp_path / "info.json"
        rc = run(["info", str(data), "--target", "C", "--quantizer", "pass-through",
                  "--out", str(out)])
        assert rc == 0
        assert sorted(json.loads(out.read_text())["class_relevance"]) == [
            "x1", "x2", "x3", "x4"]
