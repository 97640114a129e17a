import dataclasses
import json
import os
import shutil
import subprocess
import time
import tracemalloc
import venv
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import wordmaplab.cli as cli
from wordmaplab.familycheck import adversarial_families, random_family

from conftest import save_family


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


def test_verify_lemma_fuzz_streams(capsys):
    # Fuzz families are drawn and checked one at a time, so the peak does
    # not grow with --fuzz; holding all 1000 families took about 20 MB.
    tracemalloc.start()
    try:
        code = cli.run(["verify-lemma", "--fuzz", "1000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["lemma"]["instances"] == \
        len(adversarial_families()) + 1000
    assert peak < 5 * 2 ** 20, peak


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
    # Unlike verify-theorem and hom-search, fiber-stats takes --d 0: the
    # word map on the one-point domain G^0.
    code, rep = run_json(capsys, ["fiber-stats", "--group", "S3",
                                  "--word", "1", "--d", "0"])
    assert code == 0
    assert rep["results"]["fibers"]["domain_size"] == "1"


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


def assert_stderr(capsys, argv, code, line):
    """``argv`` exits with ``code`` and prints exactly ``line`` on stderr."""
    assert cli.run(argv) == code, argv
    captured = capsys.readouterr()
    assert captured.err == line + "\n", argv
    assert captured.out == ""


NOT_ENDO = "error: component table is not an endomorphism"
NOT_IDS = "error: component tables must be lists of n element ids"


def test_hom_file(tmp_path, capsys):
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps(
        {"components": [[0, 1, 2, 3], [0, 1, 2, 3]]}
    ))
    argv = ["verify-theorem", "--group", "C4", "--word", "x1*x2", "--d", "2",
            "--hom", str(hom)]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["results"]["theorem"]["rho"] == "1/1"

    arity = 'error: hom file must be an object with "components": 2 tables'
    # The stderr lines are those of the check that ran in the CLI before
    # the hom check moved into the library.
    for data, line in (
        ({"components": [[0, 2, 1, 3], [0, 1, 2, 3]]}, NOT_ENDO),
        ({"components": [[0, 1, 2, 3]]}, arity),      # wrong arity
        ([[0, 1, 2, 3], [0, 1, 2, 3]], arity),        # bare list, no key
        ({"components": [7, [0, 1, 2, 3]]}, NOT_IDS),  # non-list entry
    ):
        hom.write_text(json.dumps(data))
        assert_stderr(capsys, argv, 2, line)

    argv = ["verify-theorem", "--group", "C4", "--word", "x1^2",
            "--hom", str(hom)]
    for table, line in (
        # JSON booleans are not element ids, though Python counts them as
        # ints.
        ([False, True, 2, 3], NOT_IDS),
        ([1, 0, 3, 2], NOT_ENDO),   # a bijection that moves the identity
        ([0, 0, 0, 1], NOT_ENDO),   # fixes the identity, fails 1 * 3 = 3
    ):
        hom.write_text(json.dumps({"components": [table]}))
        assert_stderr(capsys, argv, 2, line)
    assert_stderr(capsys, argv[:-1] + [str(tmp_path / "missing.json")], 2,
                  "error: [Errno 2] No such file or directory: "
                  f"'{tmp_path / 'missing.json'}'")


def test_hom_file_non_commuting_images(tmp_path, capsys):
    # Two endomorphisms of S3 whose images do not commute elementwise are
    # not the components of a hom S3^2 -> S3.
    hom = tmp_path / "hom.json"
    ident, trivial = list(range(6)), [0] * 6
    argv = ["verify-theorem", "--group", "S3", "--word", "x1*x2", "--d", "2",
            "--hom", str(hom)]
    hom.write_text(json.dumps({"components": [ident, ident]}))
    assert_stderr(capsys, argv, 2,
                  "error: components 0 and 1 have non-commuting images")
    # An endomorphism check failure is reported before the commuting one.
    hom.write_text(json.dumps({"components": [ident, [1] * 6]}))
    assert_stderr(capsys, argv, 2, NOT_ENDO)
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
        (["verify-theorem", "--group", "S3", "--word", "x1^0"],
         "exponent must be nonzero (at position 3)"),
        (["verify-theorem", "--group", "Z9", "--word", "x1"],
         "unrecognised group atom: 'Z9'"),
        (["verify-theorem", "--word", "x1^2"],
         "--group is required for this subcommand"),
        (["verify-theorem", "--group", "S3"],
         "--word is required for this subcommand"),
        (["verify-mann", "--group", "S3"], "-e is required for verify-mann"),
        (["verify-theorem", "--group", "S3", "--word", "x1^2",
          "--samples", "10"], "--samples must be >= 1000"),
        (["verify-theorem", "--group", "S3", "--word", "x1^2",
          "--seed", "-1"], "--seed must be an unsigned 64-bit integer"),
        (["verify-theorem", "--group", "S3", "--word", "x1*x2", "--d", "1"],
         "word uses x2 but --d is 1"),
        (["hom-search", "--group", "S3", "--word", "x1*x2", "--d", "1"],
         "word uses x2 but --d is 1"),
        (["hom-search", "--group", "S3", "--budget-hom", "0"],
         "--budget-hom must be >= 1"),
        (["verify-lemma", "--file", "/nonexistent/family.txt"],
         "[Errno 2] No such file or directory: '/nonexistent/family.txt'"),
        (["verify-lemma", "--fuzz", "-3"], "--fuzz must be >= 0"),
        (["verify-theorem", "--group", "S3", "--word", "1", "--d", "0"],
         "--d must be >= 1"),
        (["hom-search", "--group", "S3", "--d", "0"], "--d must be >= 1"),
        (["verify-theorem", "--group", "S3", "--word", "1", "--d", "-1"],
         "--d must be >= 0"),
        (["fiber-stats", "--group", "S3", "--word", "1", "--d", "-1"],
         "--d must be >= 0"),
        (["hom-search", "--group", "S3", "--d", "-1"], "--d must be >= 0"),
        (["fiber-stats", "--group", "S3", "--word", "x1*x2", "--d", "1"],
         "word uses x2 but --d is 1"),
    ]
    for argv, line in cases:
        assert_stderr(capsys, argv, 2, "error: " + line)
    # argparse's own refusals: its usage text wraps with the terminal, so
    # only the last line is pinned.
    cases = [
        (["verify-theorem", "--group", "S3", "--word", "x1^2", "--bogus"],
         "wordmaplab: error: unrecognized arguments: --bogus"),
        (["verify-theorem", "--group", "S3", "--word", "x1^2",
          "--workers", "2"],                              # removed flag
         "wordmaplab: error: unrecognized arguments: --workers 2"),
        (["no-such-subcommand"],
         "wordmaplab: error: argument subcommand: invalid choice: "
         "'no-such-subcommand'"),
    ]
    for argv, line in cases:
        assert cli.run(argv) == 2, argv
        assert capsys.readouterr().err.splitlines()[-1].startswith(line)


# The flags each subcommand is run with; a subcommand missing here fails
# the tests below with a KeyError.
FLAGS = {
    "verify-theorem": ["--group", "S3", "--word", "x1^2", "--seed", "5"],
    "verify-mann": ["--group", "Q8", "-e", "2"],
    "verify-commuting": ["--group", "S3", "--seed", "3"],
    "verify-lemma": ["--fuzz", "3", "--seed", "7"],
    "derive-word": ["--word", "x1*x2"],
    "fiber-stats": ["--group", "C4", "--word", "x1^2", "--d", "2"],
    "hom-search": ["--group", "S3", "--word", "x1^2"],
    "commuting-probability": ["--group", "D4", "--budget-order", "100"],
}

CONFIG_KEYS = sorted([
    "subcommand", "group", "word", "d", "e", "exact", "samples", "seed",
    "budget_iter", "budget_hom", "budget_order", "budget_table", "format",
    "out", "fuzz", "family_file", "hom_file",
])


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_flags_before_subcommand(capsys, name):
    # The one parser takes the flags on either side of the subcommand name.
    code, after = run_json(capsys, [name] + FLAGS[name])
    assert code == 0
    code, before = run_json(capsys, FLAGS[name] + [name])
    assert code == 0
    for rep in (after, before):
        rep.pop("timings")
    assert before == after


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_config_keys_every_subcommand(capsys, name):
    # Every subcommand echoes the whole flag set, wherever the flags stand.
    for argv in ([name] + FLAGS[name], FLAGS[name] + [name]):
        code, rep = run_json(capsys, argv)
        assert code == 0
        assert sorted(rep["config"]) == CONFIG_KEYS
        assert rep["config"]["subcommand"] == name


@pytest.mark.parametrize("extra", [
    ["--d", "x"],
    ["--format", "xml"],
    ["--exact", "--samples", "2000"],
])
def test_refused_flag_values(capsys, extra):
    argv = ["verify-theorem", "--group", "S3", "--word", "x1^2"] + extra
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("wordmaplab: error:")


def test_verify_lemma_failure_report(capsys, monkeypatch):
    # No known family fails the lemma, so raise one instance's requirement
    # past its pair count.
    verify_lemma = cli.familycheck.verify_lemma
    failed = []

    def fail_first(inst):
        rep = verify_lemma(inst)
        if not failed:
            rep = dataclasses.replace(
                rep, required_pairs=Fraction(rep.qualifying_pairs + 1))
            failed.append(rep.label)
        return rep

    monkeypatch.setattr(cli.familycheck, "verify_lemma", fail_first)
    code, rep = run_json(capsys, ["verify-lemma"])
    assert code == 1
    assert rep["pass"] is False
    lm = rep["results"]["lemma"]
    assert lm["instances"] == len(adversarial_families())
    assert lm["passed"] == lm["instances"] - 1
    (entry,) = lm["failures"]
    assert sorted(entry) == sorted([
        "label", "x_size", "i_size", "rho", "overlap_threshold",
        "qualifying_pairs", "required_pairs", "pass"])
    assert entry["label"] == failed[0]
    assert entry["pass"] is False
    assert entry["required_pairs"] == f"{int(entry['qualifying_pairs']) + 1}/1"


def test_unwritable_out(capsys):
    # The report is written inside the CLI's error handling: a path that
    # cannot be opened exits 2 with one stderr line and no traceback.
    assert_stderr(capsys, ["derive-word", "--word", "x1*x2",
                           "--out", "/nonexistent/d/x"], 2,
                  "error: [Errno 2] No such file or directory: "
                  "'/nonexistent/d/x'")


@pytest.mark.parametrize("d", [10 ** 6, 10 ** 9])
@pytest.mark.parametrize("argv,step,n", [
    (["verify-theorem", "--group", "S3", "--word", "x1^2"], "word table", 6),
    (["fiber-stats", "--group", "S3", "--word", "x1^2"], "word table", 6),
    (["hom-search", "--group", "S3"], "hom enumeration", 10),
])
def test_huge_exponent_refused(capsys, argv, step, n, d):
    # n^d is refused before it is formed: at d = 10^6 it has too many
    # digits to print, and at d = 10^9 it takes seconds to compute.
    t0 = time.perf_counter()
    assert_stderr(capsys, argv + ["--d", str(d)], 3,
                  f"budget exceeded: {step} needs {n}^{d}, budget "
                  f"{10 ** 8 if step == 'word table' else 10 ** 7}")
    assert time.perf_counter() - t0 < 5.0


def test_derive_word_budget(capsys):
    # 3 (d + |w| + syllables) = 3 (1 + 1000 + 1) syllables are built.
    argv = ["derive-word", "--word", "x1^1000", "--budget-table"]
    assert_stderr(capsys, argv + ["3005"], 3,
                  "budget exceeded: derived word needs 3006, budget 3005")
    code, rep = run_json(capsys, argv + ["3006"])
    assert code == 0 and rep["results"]["derive"]["nontrivial"] is True
    # A huge exponent or variable index is refused at the default budget.
    for word, need in (("x1^100000000", 300000006),
                       ("x1000000000", 3000000006)):
        assert_stderr(capsys, ["derive-word", "--word", word], 3,
                      f"budget exceeded: derived word needs {need}, "
                      "budget 100000000")


def test_verify_lemma_bad_family_header(tmp_path, capsys):
    # X * I = 10**10 cells exceed --budget-table before anything is
    # allocated (exit 3); a non-positive X or I is malformed (exit 2).
    path = tmp_path / "family.txt"
    bad = "error: bad family header: {} (X and I must be positive)"
    for header, code, line in (
        ("X=100000 I=100000 rho=1/2", 3,
         "budget exceeded: membership matrix needs 10000000000, "
         "budget 100000000"),
        ("X=0 I=3 rho=1/2", 2, bad.format("['X=0', 'I=3', 'rho=1/2']")),
        ("X=4 I=0 rho=1/2", 2, bad.format("['X=4', 'I=0', 'rho=1/2']")),
        ("X=4 I=-2 rho=1/2", 2, bad.format("['X=4', 'I=-2', 'rho=1/2']")),
        ("X=4 I=2 rho=1/0", 2,
         "error: bad family header: ['X=4', 'I=2', 'rho=1/0']"),
    ):
        path.write_text(header + "\n")
        assert_stderr(capsys, ["verify-lemma", "--file", str(path)], code,
                      line)


def test_budget_exit(capsys):
    for argv, line in (
        (["verify-theorem", "--group", "S3", "--word", "x1*x2",
          "--budget-iter", "1000"], "exact census needs 46656, budget 1000"),
        (["verify-theorem", "--group", "S7", "--word", "x1^2"],
         "closure of S7 needs 2184, budget 2000"),
        (["verify-theorem", "--group", "S3", "--word", "x1^2",
          "--budget-table", "3"], "word table needs 6, budget 3"),
        (["verify-theorem", "--group", "S4", "--word", "x1*x2", "--d", "2",
          "--budget-hom", "100"], "endomorphism search needs 576, budget 100"),
        (["hom-search", "--group", "S4", "--d", "6"],
         "hom enumeration needs 38068692544, budget 10000000"),
        (["fiber-stats", "--group", "S3", "--word", "x1^2", "--d", "12"],
         "word table needs 2176782336, budget 100000000"),
        (["verify-mann", "--group", "S6", "-e", "2", "--budget-iter", "1000"],
         "power equation census needs 373248000, budget 1000"),
        # Three (3d, CHUNK) buffers of draws: 9 * 2000 * 8192 cells.
        (["verify-theorem", "--group", "C1", "--word", "x1", "--d", "2000",
          "--samples", "10000"],
         "sampled census chunk needs 147456000, budget 100000000"),
    ):
        assert_stderr(capsys, argv, 3, "budget exceeded: " + line)


@pytest.mark.parametrize("argv", [
    ["verify-theorem", "--word", "x1", "--d", "64"],
    ["verify-theorem", "--word", "x1", "--d", "64", "--samples", "1000"],
    ["hom-search", "--word", "x1", "--d", "70"],
])
def test_trivial_group_beyond_numpy_rank_limit(capsys, argv):
    # No budget bounds d over C1, whose one hom agrees with every word.
    # Scoring it must not build an array of rank d + 1: numpy allows 64.
    code, rep = run_json(capsys, argv[:1] + ["--group", "C1"] + argv[1:])
    assert code == 0 and rep["pass"] is True
    res = rep["results"]
    assert (res["homs"]["best_agreement"] if "homs" in res
            else res["theorem"]["rho"]) == "1/1"


def test_trivial_group_hom_search_at_large_d(capsys):
    # Growing the one hom tuple by a column at a time stays fast at d = 8000.
    t0 = time.perf_counter()
    code, rep = run_json(capsys, ["hom-search", "--group", "C1",
                                  "--d", "8000"])
    assert time.perf_counter() - t0 < 5.0
    assert code == 0 and rep["results"]["homs"]["homs"] == 1


def test_memory_error_exit(capsys, monkeypatch):
    # Running out of memory, numpy's allocation failure included, exits 3
    # with one stderr line and no traceback.
    numpy_oom = np._core._exceptions._ArrayMemoryError((1 << 40,),
                                                       np.dtype(np.int64))
    for exc in (MemoryError(), numpy_oom):
        def fail(cfg, exc=exc):
            raise exc
        monkeypatch.setitem(cli._COMMANDS, "fiber-stats", fail)
        assert cli.run(["fiber-stats", "--group", "C4",
                        "--word", "x1^2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: out of memory")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_check_failure_exit(capsys, monkeypatch):
    # No known input makes the equivalence fail, so force a count that no
    # census can match.
    monkeypatch.setattr(cli.census, "power_equation_count",
                        lambda *a, **k: -1)
    code, rep = run_json(capsys, ["verify-mann", "--group", "C2", "-e", "2"])
    assert code == 1
    assert rep["pass"] is False


def test_exact_flag_removed(capsys):
    # The exact census is the default, so there is no flag to select it.
    assert cli.run(["verify-theorem", "--group", "S3", "--word", "x1^2",
                    "--exact"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "wordmaplab: error: unrecognized arguments: --exact")


def test_config_exact_derived(capsys):
    argv = ["verify-theorem", "--group", "S3", "--word", "x1^2"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["config"]["exact"] is True
    code, rep = run_json(capsys, argv + ["--samples", "2000"])
    assert code == 0
    assert rep["config"]["exact"] is False


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
