"""Benchmark of the wordmaplab CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 0 --seconds 60 \
        --trace 0

One run sets up the workload, then runs passes over its case list (each case
a CLI argument vector, run in-process through ``wordmaplab.cli.run``) until
another pass would end after ``--seconds``.  Every case's exit code and
results digest are checked against ``expected.json``.

``--trace 0`` reports the end-to-end metrics from uninstrumented passes.
``--trace 1`` alternates uninstrumented and traced passes and reports the
per-layer metrics from the traced ones (see ``spans.py``).
``--workload all`` runs every workload in its own process and prints one
table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with per-case times and the run's provenance, goes to
``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 15

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "cpu_s": "s", "case_s.p50": "s",
    "case_s.max": "s", "peak_rss_mb": "MB",
}

# Per-layer metrics.  ``<function>.s`` is busy time (the union of the
# function's spans), ``.self_s`` self time and ``.calls`` the call count;
# ``<layer>.self_s`` adds up a module's self times.  ``tables`` is the module
# ``_tables``.  The end-to-end metric each should move, and where:
#
#   homset.endomorphisms.{calls,s}, endo_candidates, endos_found, endo_yield
#       -> pass_s on search (the C6xS3 case)
#   homset.homs_power.{calls,self_s}, hom_tuples, homs_found,
#   homset.best_agreement.self_s, homs_scored
#       -> pass_s on search (the D20 cases)
#   census.count_solutions_exact.s, exact_triples, exact_rate
#       -> pass_s and cpu_s on count (S4 case; C24 is the control)
#   census.estimate_solutions.s, census.samples, rng.randbelow_block.s
#       -> the count S4 sampled case and the search D20 d=2 case
#   census.{translate_pair_count,triple_count,fiber_stats,verify_theorem,
#   verify_commuting_corollary}.self_s
#       -> the workload that calls them
#   tables.word_values.{calls,s}, tables.word_cells
#       -> search (C30xC30 at d=2); every verify-theorem computes the table
#          3 times, so a cache shows here
#   familycheck.{fuzz_instances.self_s,random_family.s,verify_lemma.s,
#   load_family.s}, members_drawn, overlap_cells
#       -> pass_s on count
#   group.{build.self_s,closure.s,direct_product.s,validate_table.s,
#   conjugacy_class_count.s}, group.elements
#       -> pass_s and peak_rss_mb on search
#   cli.run.self_s, freeword.parse_word.s, bounds.f.s, <layer>.self_s,
#   trace.overhead_share, trace.self_share
#       -> none: cli, freeword and bounds should stay negligible;
#          overhead_share is the traced passes' extra wall time over the
#          untraced ones, self_share the layers' self time over pass time
SPAN_METRICS = [
    "homset.endomorphisms.calls", "homset.endomorphisms.s",
    "homset.homs_power.calls", "homset.homs_power.self_s",
    "homset.best_agreement.self_s",
    "census.count_solutions_exact.s", "census.estimate_solutions.s",
    "rng.randbelow_block.s",
    "census.translate_pair_count.self_s", "census.triple_count.self_s",
    "census.fiber_stats.self_s", "census.verify_theorem.self_s",
    "census.verify_commuting_corollary.self_s",
    "tables.word_values.calls", "tables.word_values.s",
    "familycheck.fuzz_instances.self_s", "familycheck.random_family.s",
    "familycheck.verify_lemma.s", "familycheck.load_family.s",
    "group.build.self_s", "group.closure.s", "group.direct_product.s",
    "group.validate_table.s", "group.conjugacy_class_count.s",
    "cli.run.self_s", "freeword.parse_word.s", "bounds.f.s",
]
COUNT_METRICS = [
    "homset.endo_candidates", "homset.endos_found", "homset.hom_tuples",
    "homset.homs_found", "homset.homs_scored", "census.exact_triples",
    "census.samples", "tables.word_cells", "familycheck.members_drawn",
    "familycheck.overlap_cells", "group.elements",
]
LAYER_SELF = [f"{spans.layer_name(m)}.self_s" for m in spans.LAYERS]


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_METRICS:
        units[name] = "count" if name.endswith(".calls") else "s"
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "s" for name in LAYER_SELF})
    units.update({"homset.endo_yield": "ratio", "census.exact_rate": "1/s",
                  "trace.overhead_share": "ratio",
                  "trace.self_share": "ratio"})
    return units


# -- running cases ------------------------------------------------------------

def digest(report: dict) -> str:
    """SHA-256 of the canonical JSON of {results, pass}.  ``config`` echoes
    flags and ``timings`` holds wall times, so both are left out."""
    body = {"results": report["results"], "pass": report["pass"]}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(cli, argv: list[str]) -> tuple[int, str | None, float]:
    """Exit code, results digest (None when no report was printed) and
    seconds to the verdict."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.run(argv)
        dt = time.perf_counter() - t0
    text = out.getvalue()
    return code, digest(json.loads(text)) if text else None, dt


class Checker:
    """Compares each case outcome with the expected one.

    Cases that do not depend on the seed must reproduce ``expected.json`` at
    every seed; seeded cases must match it at the default seed and, at other
    seeds, reproduce the run's first digest on every later pass.
    """

    def __init__(self, workload: str, seed: int):
        with open(EXPECTED) as fh:
            self.expected = json.load(fh)[workload]
        self.seed = seed
        self.first: dict[str, str | None] = {}

    def ok(self, label: str, seeded: bool, code: int,
           dig: str | None) -> bool:
        exp = self.expected[label]
        if code != exp["exit"]:
            return False
        if exp.get("refusal"):
            return dig is None
        if seeded and self.seed != workloads.DEFAULT_SEED:
            return self.first.setdefault(label, dig) == dig
        return dig == exp["digest"]


def run_pass(cli, case_list, checker: Checker, tracer=None) -> dict:
    """One pass over the case list; with ``tracer`` its wrappers are
    installed for the pass and restored afterwards."""
    records = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        for label, argv, seeded in case_list:
            if tracer is not None:
                tracer.case = label
            code, dig, dt = run_case(cli, argv)
            records.append({"case": label, "exit": code, "digest": dig,
                            "seconds": dt,
                            "ok": checker.ok(label, seeded, code, dig)})
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.restore()
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "cases": records}


def write_spans(tracer, path: Path) -> None:
    """The spans of the last traced pass, one JSON object a line."""
    with open(path, "w") as fh:
        for row in tracer.span_rows():
            fh.write(json.dumps(row) + "\n")


# -- set-up -------------------------------------------------------------------

def time_setup(workload: str, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import the package and build
    the workload's inputs."""
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls with sleeps of up to 50 ms, which
    # would quantize the measurement.
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                    str(seed)], cwd=ROOT, check=True)
    return time.perf_counter() - t0


# -- provenance ---------------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wordmaplab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance() -> dict:
    import numpy
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# -- metrics ------------------------------------------------------------------

def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    per_case: dict[str, list[float]] = {}
    for p in passes:
        for r in p["cases"]:
            per_case.setdefault(r["case"], []).append(r["seconds"])
    executions = [t for times in per_case.values() for t in times]
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "case_s.p50": statistics.median(executions),
        "case_s.max": max(statistics.median(t) for t in per_case.values()),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric."""
    rows = []
    for p in traced:
        summary = p["summary"]
        m = {}
        for name in SPAN_METRICS:
            fn, _, field = name.rpartition(".")
            m[name] = summary.get(fn, {}).get(field, 0)
        for name in LAYER_SELF:
            prefix = name[:-len("self_s")]
            m[name] = sum(v["self_s"] for k, v in summary.items()
                          if k.startswith(prefix))
        m.update({name: p["counts"].get(name, 0) for name in COUNT_METRICS})
        cands = m["homset.endo_candidates"]
        m["homset.endo_yield"] = m["homset.endos_found"] / cands \
            if cands else 0.0
        exact_s = m["census.count_solutions_exact.s"]
        m["census.exact_rate"] = m["census.exact_triples"] / exact_s \
            if exact_s else 0.0
        m["trace.self_share"] = sum(m[k] for k in LAYER_SELF) / p["wall_s"]
        rows.append(m)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    base = statistics.median(p["wall_s"] for p in untraced)
    out["trace.overhead_share"] = \
        (statistics.median(p["wall_s"] for p in traced) - base) / base
    return out


# -- one workload -------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    load_start = os.getloadavg()
    setup = [time_setup(workload, seed) for _ in range(SETUP_PROBES)]

    from wordmaplab import cli
    case_list = workloads.cases(workload, seed, OUT)
    OUT.mkdir(parents=True, exist_ok=True)
    checker = Checker(workload, seed)
    tracer = spans.Tracer() if trace else None

    passes: list[dict] = []
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        is_traced = trace and len(passes) % 2 == 1
        if tracer is not None and not is_traced and tracer.installed():
            problems.append("span wrappers installed during an untraced pass")
        p = run_pass(cli, case_list, checker, tracer if is_traced else None)
        if is_traced:
            p["summary"] = tracer.summary()
            p["counts"] = dict(tracer.counts)
            write_spans(tracer, OUT / f"spans-{workload}-seed{seed}.jsonl")
            # Held span records would slow later passes' garbage collection.
            tracer.reset()
        passes.append(p)
        elapsed = time.perf_counter() - start
        longest = max(q["wall_s"] for q in passes)
        if len(passes) >= (2 if trace else 1) and elapsed + longest > seconds:
            break
    if tracer is not None and tracer.installed():
        problems.append("span wrappers left installed after the run")

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if traced:
        ref = {r["case"]: r["digest"] for r in untraced[0]["cases"]}
        for p in traced:
            for r in p["cases"]:
                if r["digest"] != ref[r["case"]]:
                    problems.append(f"traced digest differs on {r['case']}")

    attempted = sum(len(p["cases"]) for p in passes)
    failed = sum(1 for p in passes for r in p["cases"] if not r["ok"])
    if trace:
        values = per_layer(traced, untraced)
        units = per_layer_units()
    else:
        values = end_to_end(passes, setup)
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = failed == 0 and not problems

    prov = provenance()
    prov["loadavg_start"] = list(load_start)
    prov["loadavg_end"] = list(os.getloadavg())
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "provenance": prov, "setup_samples_s": setup,
        "passes": passes,
        "problems": problems, "failed_share": failed / attempted,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))

    for msg in problems:
        print(f"problem: {msg}")
    for p in passes:
        bad = [r["case"] for r in p["cases"] if not r["ok"]]
        if bad:
            print(f"failed cases: {', '.join(bad)}")
    print(f"provenance: {json.dumps(prov)}")
    print(f"{workload}: {len(passes)} passes, {attempted} case runs, "
          f"failed_share {failed / attempted:g}")
    for k, m in metrics.items():
        print(f"  {k:45s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process; one table and one JSON line."""
    correct, attempted, failed, metrics, shares = True, 0, 0, {}, []
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{w}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        shares.append(res["failed"] / res["attempted"])
        metrics.update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    first = workloads.WORKLOADS[0]
    names = [k[len(first) + 1:] for k in metrics if k.startswith(first + ".")]
    print(f"{'metric':40s} {'unit':6s}" +
          "".join(f"{w:>14s}" for w in workloads.WORKLOADS))
    for k in names:
        unit = metrics[f"{first}.{k}"]["unit"]
        print(f"{k:40s} {unit:6s}" + "".join(
            f"{metrics[f'{w}.{k}']['value']:14.6g}"
            for w in workloads.WORKLOADS))
    print(f"{'failed_share':40s} {'share':6s}" +
          "".join(f"{v:14.6g}" for v in shares))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "wordmaplab" / "cli.py").is_file():
        print(f"error: no wordmaplab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be an unsigned 64-bit integer")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
