"""Command-line interface: subcommands, exit codes, tolerance plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from logroots.cli import main


@pytest.fixture
def pslz_path(tmp_path):
    path = tmp_path / "pslz.json"
    assert main(["example", "pslz-section5", "--out", str(path)]) == 0
    return str(path)


class TestClassify:
    def test_exit_zero_and_output(self, pslz_path, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["classify", pslz_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"][0]["result"]["canonical"] == ["(0,-1,-2)"]

    def test_pretty(self, pslz_path, capsys):
        assert main(["classify", pslz_path, "--pretty"]) == 0
        text = capsys.readouterr().out
        assert "(0,-1,-2)" in text
        assert "both" in text

    def test_exact_flag(self, pslz_path, capsys):
        assert main(["classify", pslz_path, "--exact"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["chern"]["exact"] is True

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["classify", "/does/not/exist.json"]) == 2

    def test_invalid_document_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": "1", "reps": []}))
        assert main(["classify", str(path)]) == 2

    @pytest.mark.parametrize(
        "entry", ['{"angle": "1/0"}', "[NaN, 0]", "[1e400, 0]",
                  f"[{10 ** 400}, 0]"],
        ids=["zero-denominator", "nan", "infinity", "huge-integer"])
    def test_unreadable_entry_is_schema_error(self, entry, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "1", "reps": [{"n": 1, '
                        f'"m0": [[{entry}]], "m1": [[[1.0, 0.0]]]}}]}}')
        assert main(["classify", str(path)]) == 2
        assert "$.reps[0].m0[0][0]" in capsys.readouterr().err

    def test_singular_matrix_is_computation_error(self, tmp_path, capsys):
        doc = {"version": "1", "reps": [{
            "n": 1, "m0": [[[0.0, 0.0]]], "m1": [[[1.0, 0.0]]]}]}
        path = tmp_path / "sing.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == 3


    def test_run_tolerance_decides_singularity(self, tmp_path, capsys):
        # |det m0| = 1e-13 is singular under the default eps_sing = 1e-12
        # only; with --keep-going the rep becomes an error record
        doc = {"version": "1", "reps": [{
            "n": 1, "m0": [[[1e-13, 0.0]]], "m1": [[[1.0, 0.0]]]}]}
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path), "--tol-eps-sing", "1e-20"]) == 0
        assert json.loads(capsys.readouterr().out)["results"][0]["result"]
        assert main(["classify", str(path)]) == 3
        capsys.readouterr()
        assert main(["classify", str(path), "--keep-going"]) == 3
        (rec,) = json.loads(capsys.readouterr().out)["results"]
        assert rec["error"]["type"] == "SingularMatrix"

    def test_linalg_error_is_computation_error(self, pslz_path, monkeypatch,
                                               capsys):
        # LAPACK's refusal of a rep exits 3 like the program's own, with
        # or without --keep-going
        import numpy as np

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # the stacked solve fails, and so does each matrix solved alone
        monkeypatch.setattr(np.linalg, "eigvals", failing)
        assert main(["classify", pslz_path]) == 3
        assert "LinAlgError: Eigenvalues did not converge" in \
            capsys.readouterr().err
        assert main(["classify", pslz_path, "--keep-going"]) == 3
        (rec,) = json.loads(capsys.readouterr().out)["results"]
        assert rec["error"]["type"] == "LinAlgError"

    def test_overflowing_product_is_computation_error(self, tmp_path,
                                                       capsys):
        # each generator is finite, so the parser accepts the rep; its
        # M0*M1 overflows to infinity where the spectra are computed
        doc = {"version": "1", "reps": [
            {"label": "overflow", "n": 1,
             "m0": [[[1e200, 0.0]]], "m1": [[[1e200, 0.0]]]},
            {"label": "good", "n": 1,
             "m0": [[[-1.0, 0.0]]], "m1": [[{"angle": "1/2"}]]}]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path), "--keep-going"]) == 3
        bad, good = json.loads(capsys.readouterr().out)["results"]
        assert bad["label"] == "overflow"
        assert bad["error"] == {"type": "NonFiniteMatrix",
                                "message": "matrix entries must be finite"}
        assert good["label"] == "good"
        assert good["result"]["canonical"] == ["(-1)"]
        assert main(["classify", str(path)]) == 3
        err = capsys.readouterr().err
        assert err == "error: NonFiniteMatrix: matrix entries must be finite\n"


class TestRuntimeDependencies:
    def test_classify_runs_without_jsonschema(self, tmp_path):
        # jsonschema is a test dependency only; block its import and run
        # the command line end to end in a fresh interpreter
        script = (
            "import sys\n"
            "sys.modules['jsonschema'] = None\n"
            "from logroots.cli import main\n"
            "path = sys.argv[1]\n"
            "assert main(['example', 'pslz-section5', '--out', path]) == 0\n"
            "sys.exit(main(['classify', path]))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "in.json")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        (rec,) = json.loads(proc.stdout)["results"]
        assert rec["result"]["canonical"] == ["(0,-1,-2)"]

    def test_exact_classify_runs_without_mpmath(self, tmp_path):
        # exact mode certifies LAPACK eigenvalues; mpmath is a test
        # dependency only
        script = (
            "import sys\n"
            "sys.modules['mpmath'] = None\n"
            "from logroots.cli import main\n"
            "path = sys.argv[1]\n"
            "assert main(['example', 'pslz-section5', '--out', path]) == 0\n"
            "sys.exit(main(['classify', path, '--exact']))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "in.json")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        (rec,) = json.loads(proc.stdout)["results"]
        assert rec["chern"]["exact"] is True
        assert rec["result"]["canonical"] == ["(0,-1,-2)"]


class TestChern:
    def test_json_output(self, pslz_path, capsys):
        assert main(["chern", pslz_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["chern"]["c1"] == -3

    def test_pretty(self, pslz_path, capsys):
        assert main(["chern", pslz_path, "--pretty"]) == 0
        assert "c1 = -3" in capsys.readouterr().out


class TestTree:
    def test_offsets(self, capsys):
        assert main(["tree", "3", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["patterns"]) == 4
        assert doc["c1"] is None

    def test_with_degree(self, capsys):
        assert main(["tree", "3", "3", "-3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["canonical"]) == ["(-1,-1,-1)", "(0,-1,-2)"]

    def test_more_punctures_flagged_conjectural(self, capsys):
        assert main(["tree", "4", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conjectural"] is True

    @pytest.mark.parametrize("args", [["1", "2"], ["3", "0"], ["x", "2"]])
    def test_out_of_range_is_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tree", *args])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestVerify:
    def test_single_ensemble(self, capsys):
        assert main(["verify", "--ensemble", "generic", "--dim", "2",
                     "--count", "50", "--seed", "6"]) == 0
        assert "generic" in capsys.readouterr().out

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--ensemble", "unitary", "--dim", "2",
                     "--count", "30", "--seed", "2", "--out", str(out)]) == 0
        reports = json.loads(out.read_text())
        assert reports[0]["ok"] is True

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_below_one_is_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--count", count])
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err

    def test_count_alone_selects_one_suite(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--count", "3", "--out", str(out)]) == 0
        (report,) = json.loads(out.read_text())
        assert report["spec"]["count"] == 3
        assert report["spec"]["ensemble"] == "generic"

    @pytest.mark.parametrize("ensemble, dim, split", [
        ("blockUpperTriangular", 2, "1+1"),
        ("blockUpperTriangular", 3, "2+1"),
        ("generic", 2, None),
    ])
    def test_report_records_planted_split(self, ensemble, dim, split,
                                          tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["verify", "--ensemble", ensemble, "--dim", str(dim),
              "--count", "2", "--out", str(out)])
        (report,) = json.loads(out.read_text())
        assert report["spec"]["split"] == split

    def test_planted_character_is_usage_error(self, capsys):
        assert main(["verify", "--ensemble", "blockUpperTriangular",
                     "--dim", "1", "--count", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verify: blockUpperTriangular needs dim 2 or 3: a "
            "character has no invariant subspace to plant\n")

    def test_explicit_checks(self, capsys):
        assert main(["verify", "--ensemble", "generic", "--dim", "3",
                     "--count", "20", "--checks", "sum-rule",
                     "integrality"]) == 0


class TestExample:
    def test_prints_document(self, capsys):
        assert main(["example", "aux-character"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reps"][0]["n"] == 1

    def test_unknown_name(self, capsys):
        assert main(["example", "whatever"]) == 2


class TestTolerances:
    def test_flag_override(self, pslz_path, capsys):
        # an absurd singularity threshold rejects every unit-determinant rep
        assert main(["classify", pslz_path, "--tol-eps-sing", "10"]) == 3

    def test_config_file(self, pslz_path, tmp_path, capsys):
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps({"eps_sing": 10.0}))
        assert main(["classify", pslz_path, "--config", str(cfg)]) == 3

    def test_flag_beats_config(self, pslz_path, tmp_path, capsys):
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps({"eps_sing": 10.0}))
        assert main(["classify", pslz_path, "--config", str(cfg),
                     "--tol-eps-sing", "1e-12"]) == 0

    def test_unknown_config_key(self, pslz_path, tmp_path, capsys):
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps({"no_such_tolerance": 1.0}))
        assert main(["classify", pslz_path, "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("name", ["cond_max", "eps_rank"])
    def test_retired_tolerance_is_unknown(self, name, pslz_path, tmp_path,
                                          capsys):
        # the Jordan-basis condition bound and rank threshold are gone
        # with their flags
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps({name: 1e-9}))
        assert main(["classify", pslz_path, "--config", str(cfg)]) == 2
        assert f"unknown tolerance names in config: ['{name}']" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        {"eps_sing": "x"}, {"eps_sing": -1.0}, {"eps_int": True},
        {"eps_sing": None}, {"eps_recon": 1e400}, {"max_denominator": 2.5},
        {"max_denominator": 0}, {"max_denominator": True},
        {"max_denominator": "60"},
    ])
    def test_bad_config_value_is_schema_error(self, config, pslz_path,
                                              tmp_path, capsys):
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps(config))
        assert main(["classify", pslz_path, "--exact",
                     "--config", str(cfg)]) == 2
        (name,) = config
        assert f"tolerance {name}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--tol-eps-sing", "-1"), ("--tol-eps-sing", "nan"),
        ("--tol-eps-recon", "inf"), ("--tol-max-denominator", "0"),
        ("--tol-max-denominator", "-5"),
    ])
    def test_bad_flag_value_is_schema_error(self, flag, value, pslz_path,
                                            capsys):
        assert main(["classify", pslz_path, flag, value]) == 2
        name = flag[len("--tol-"):].replace("-", "_")
        assert f"tolerance {name}:" in capsys.readouterr().err

    def test_config_must_be_an_object(self, pslz_path, tmp_path, capsys):
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps([1, 2]))
        assert main(["classify", pslz_path, "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_valid_values_are_accepted(self, pslz_path, tmp_path, capsys):
        # zero is a valid float tolerance, an integer a valid float value
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps({"eps_branch": 0, "eps_int": 1e-6,
                                   "max_denominator": 12}))
        assert main(["classify", pslz_path, "--exact", "--config", str(cfg),
                     "--tol-eps-sing", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"][0]["result"]["canonical"] == ["(0,-1,-2)"]
