import json
import os
import shutil
import subprocess
import venv
from fractions import Fraction
from pathlib import Path

import wordmaplab.cli as cli
from wordmaplab.familycheck import (adversarial_families, random_family,
                                    save_family)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_verify_theorem_json(capsys):
    code, rep = run_json(capsys, ["verify-theorem", "--group", "S3",
                                  "--word", "x1^2"])
    assert code == 0
    assert rep["pass"] is True
    thm = rep["results"]["theorem"]
    assert thm["rho"] == "2/3"
    assert thm["solutions"]["count"] == "108"
    assert thm["qualifying_pairs"] == "16"
    assert thm["triples"] == "46"
    assert thm["slack"] == str(108 - 46)
    assert thm["checks_run"] == ["census-exact", "pairs", "triples", "chain"]
    cfg = rep["config"]
    assert cfg["subcommand"] == "verify-theorem"
    assert cfg["group"] == "S3" and cfg["word"] == "x1^2"
    # No machine-dependent default (such as a thread count) in the config.
    assert "workers" not in cfg
    assert isinstance(rep["timings"]["total_seconds"], float)


def test_reports_identical_up_to_timings(capsys):
    argv = ["verify-theorem", "--group", "Q8", "--word", "x1^3"]
    code1, rep1 = run_json(capsys, argv)
    code2, rep2 = run_json(capsys, argv)
    assert code1 == code2 == 0
    rep1.pop("timings")
    rep2.pop("timings")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_json_output_is_canonical(capsys):
    assert cli.run(["commuting-probability", "--group", "D4"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.run(["derive-word", "--word", "x1*x2", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(path.read_text())
    d = rep["results"]["derive"]
    assert d["derived"] == "x1^-1*x3*x5*x2^-1*x4*x5^-1*x4^-1*x3^-1*x1*x2"
    assert d["derived_length"] == 10
    assert d["nontrivial"] is True


def test_derive_word_trivial(capsys):
    code, rep = run_json(capsys, ["derive-word", "--word", "x1"])
    assert code == 0
    assert rep["results"]["derive"]["derived"] == "1"
    assert rep["results"]["derive"]["nontrivial"] is False


def test_verify_mann(capsys):
    code, rep = run_json(capsys, ["verify-mann", "--group", "Q8", "-e", "2"])
    assert code == 0
    m = rep["results"]["mann"]
    assert m["equal"] is True
    assert m["direct_count"] == m["derived_count"]


def test_verify_commuting(capsys):
    code, rep = run_json(capsys, ["verify-commuting", "--group", "S3"])
    assert code == 0
    c = rep["results"]["commuting"]
    assert c["commuting_probability"] == "1/2"
    assert c["equation_consistent"] is True


def test_verify_lemma_suite(capsys):
    code, rep = run_json(capsys, ["verify-lemma"])
    assert code == 0
    lm = rep["results"]["lemma"]
    assert lm["instances"] == len(adversarial_families())
    assert lm["passed"] == lm["instances"]
    assert lm["failures"] == []

    code, rep = run_json(capsys, ["verify-lemma", "--fuzz", "25",
                                  "--seed", "7"])
    assert code == 0
    assert rep["results"]["lemma"]["instances"] == \
        len(adversarial_families()) + 25


def test_verify_lemma_file(tmp_path, capsys):
    inst = random_family(20, 12, Fraction(1, 2), seed=1)
    path = tmp_path / "fam.txt"
    save_family(inst, path)
    code, rep = run_json(capsys, ["verify-lemma", "--file", str(path)])
    assert code == 0
    assert rep["results"]["lemma"]["instances"] == 1


def test_fiber_stats(capsys):
    code, rep = run_json(capsys, ["fiber-stats", "--group", "C4",
                                  "--word", "x1^2"])
    assert code == 0
    fb = rep["results"]["fibers"]
    assert fb["histogram"] == {"0": 2, "2": 2}
    assert fb["max_fiber"] == "1/2"


def test_hom_search(capsys):
    code, rep = run_json(capsys, ["hom-search", "--group", "S3",
                                  "--word", "x1^2"])
    assert code == 0
    h = rep["results"]["homs"]
    assert h["endomorphisms"] == 10
    assert h["automorphisms"] == 6
    assert h["best_agreement"] == "2/3"
    assert h["witness_components"] == [[0] * 6]


def test_hom_search_witness_d2(capsys):
    code, rep = run_json(capsys, ["hom-search", "--group", "C4", "--d", "2",
                                  "--word", "x1*x2"])
    assert code == 0
    h = rep["results"]["homs"]
    assert (h["endomorphisms"], h["automorphisms"], h["homs"]) == (4, 2, 16)
    assert h["best_agreement"] == "1/1"
    assert h["witness_components"] == [[0, 1, 2, 3], [0, 1, 2, 3]]


def test_hom_search_enumerates_once(capsys, monkeypatch):
    calls = []
    homs_power = cli.homset.homs_power

    def counting(*args, **kwargs):
        calls.append(args)
        return homs_power(*args, **kwargs)

    monkeypatch.setattr(cli.homset, "homs_power", counting)
    code, rep = run_json(capsys, ["hom-search", "--group", "S3", "--d", "2",
                                  "--word", "x1*x2"])
    assert code == 0
    assert len(calls) == 1
    h = rep["results"]["homs"]
    assert (h["endomorphisms"], h["homs"]) == (10, 22)
    assert h["best_agreement"] == "1/3"
    assert h["witness_components"] == [[0, 1, 0, 1, 1, 0]] * 2


def test_commuting_probability(capsys):
    code, rep = run_json(capsys, ["commuting-probability", "--group", "D4"])
    assert code == 0
    c = rep["results"]["commuting_probability"]
    assert c["commuting_probability"] == "5/8"
    assert c["conjugacy_classes"] == 5


def test_estimate_mode(capsys):
    code, rep = run_json(capsys, ["verify-theorem", "--group", "S3",
                                  "--word", "x1^2", "--samples", "2000",
                                  "--seed", "1"])
    assert code == 0
    sol = rep["results"]["theorem"]["solutions"]
    assert sol["mode"] == "estimate"
    assert sol["samples"] == 2000
    assert "pass_chain" not in rep["results"]["theorem"]


def test_hom_file(tmp_path, capsys):
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps(
        {"components": [[0, 1, 2, 3], [0, 1, 2, 3]]}
    ))
    code, rep = run_json(capsys, ["verify-theorem", "--group", "C4",
                                  "--word", "x1*x2", "--d", "2",
                                  "--hom", str(hom)])
    assert code == 0
    assert rep["results"]["theorem"]["rho"] == "1/1"

    hom.write_text(json.dumps({"components": [[0, 2, 1, 3], [0, 1, 2, 3]]}))
    assert cli.run(["verify-theorem", "--group", "C4", "--word", "x1*x2",
                    "--d", "2", "--hom", str(hom)]) == 2  # not an endo

    hom.write_text(json.dumps({"components": [[0, 1, 2, 3]]}))
    assert cli.run(["verify-theorem", "--group", "C4", "--word", "x1*x2",
                    "--d", "2", "--hom", str(hom)]) == 2  # wrong arity

    hom.write_text(json.dumps([[0, 1, 2, 3], [0, 1, 2, 3]]))
    assert cli.run(["verify-theorem", "--group", "C4", "--word", "x1*x2",
                    "--d", "2", "--hom", str(hom)]) == 2  # bare list, no key

    hom.write_text(json.dumps({"components": [7, [0, 1, 2, 3]]}))
    assert cli.run(["verify-theorem", "--group", "C4", "--word", "x1*x2",
                    "--d", "2", "--hom", str(hom)]) == 2  # non-list entry


def test_hom_file_non_commuting_images(tmp_path, capsys):
    # Two endomorphisms of S3 whose images do not commute elementwise are
    # not the components of a hom S3^2 -> S3.
    hom = tmp_path / "hom.json"
    ident, trivial = list(range(6)), [0] * 6
    argv = ["verify-theorem", "--group", "S3", "--word", "x1*x2", "--d", "2",
            "--hom", str(hom)]
    hom.write_text(json.dumps({"components": [ident, ident]}))
    assert cli.run(argv) == 2
    assert "non-commuting images" in capsys.readouterr().err
    hom.write_text(json.dumps({"components": [ident, trivial]}))
    assert cli.run(argv) == 0


def test_text_format(capsys):
    code = cli.run(["commuting-probability", "--group", "D4",
                    "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("PASS\n")
    assert "results.commuting_probability.commuting_probability = 5/8" in out


def test_usage_errors(capsys):
    cases = [
        ["verify-theorem", "--group", "S3", "--word", "x1^0"],
        ["verify-theorem", "--group", "Z9", "--word", "x1"],
        ["verify-theorem", "--word", "x1^2"],            # missing group
        ["verify-theorem", "--group", "S3"],             # missing word
        ["verify-mann", "--group", "S3"],                # missing -e
        ["verify-theorem", "--group", "S3", "--word", "x1^2",
         "--samples", "10"],
        ["verify-theorem", "--group", "S3", "--word", "x1^2",
         "--seed", "-1"],
        ["verify-theorem", "--group", "S3", "--word", "x1*x2", "--d", "1"],
        ["verify-lemma", "--file", "/nonexistent/family.txt"],
        ["no-such-subcommand"],
        ["verify-theorem", "--group", "S3", "--word", "x1^2", "--bogus"],
        ["verify-theorem", "--group", "S3", "--word", "x1^2",
         "--workers", "2"],                              # removed flag
        ["verify-lemma", "--fuzz", "-3"],
    ]
    for argv in cases:
        assert cli.run(argv) == 2, argv
        capsys.readouterr()


def test_budget_exit(capsys):
    assert cli.run(["verify-theorem", "--group", "S3", "--word", "x1*x2",
                    "--budget-iter", "1000"]) == 3
    assert cli.run(["verify-theorem", "--group", "S7",
                    "--word", "x1^2"]) == 3
    err = capsys.readouterr().err
    assert "budget" in err


def test_check_failure_exit(capsys, monkeypatch):
    # No known input makes the equivalence fail, so force a count that no
    # census can match.
    monkeypatch.setattr(cli.census, "power_equation_count",
                        lambda *a, **k: -1)
    code, rep = run_json(capsys, ["verify-mann", "--group", "C2", "-e", "2"])
    assert code == 1
    assert rep["pass"] is False


def test_mutually_exclusive_modes(capsys):
    assert cli.run(["verify-theorem", "--group", "S3", "--word", "x1^2",
                    "--exact", "--samples", "2000"]) == 2


def test_console_script_installed(tmp_path):
    # Install a copy of this checkout into a fresh venv, so the test checks
    # this checkout's console script and never writes into the checkout.
    # setuptools' own `develop` command installs offline and needs no
    # `wheel` package, unlike `pip install -e .`.
    root = Path(__file__).resolve().parent.parent
    copy = tmp_path / "checkout"
    copy.mkdir()
    shutil.copy2(root / "pyproject.toml", copy)
    shutil.copytree(root / "src" / "wordmaplab", copy / "src" / "wordmaplab",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    env_dir = tmp_path / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    bindir = env_dir / "bin"
    # An inherited PYTHONPATH=src resolves to the copy's src: `develop` then
    # sees it on sys.path already, writes no easy-install.pth, and the
    # script fails with PackageNotFoundError.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PATH"] = str(bindir)
    install = subprocess.run(
        [str(bindir / "python"), "-c", "import setuptools; setuptools.setup()",
         "develop", "--no-deps"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    assert install.returncode == 0, install.stderr
    script = bindir / "wordmaplab"
    assert script.exists(), install.stdout + install.stderr

    proc = subprocess.run(
        [str(script), "derive-word", "--word", "x1^2"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["derive"]["derived_length"] == 10
