"""Command line interface.

Every subcommand builds one report dict {config, results, pass, timings},
prints it as canonical JSON (or a text rendering) and exits with:

    0  every check in scope passed
    1  a mathematical check failed
    2  usage, parse, or validation error
    3  a configured budget would be exceeded

Reports embed the full run configuration, which holds only the flags given
and their fixed defaults.  With one exception a report is byte-identical
across runs and machines for the same flags (including seeds): the
``timings`` block holds wall-clock seconds and necessarily varies; all other
content is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import census, familycheck, group, homset
from .bounds import rat_str
from .errors import BudgetExceededError
from .freeword import (WordParseError, derived_word, is_nontrivial_derived,
                       parse_word, reduce)
from .group import GroupSpecError, commuting_probability, conjugacy_class_count

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_ITER = census.DEFAULT_ITER_BUDGET
DEFAULT_HOM = homset.DEFAULT_CANDIDATE_BUDGET
DEFAULT_ORDER = group.DEFAULT_ORDER_BUDGET
DEFAULT_TABLE = census.DEFAULT_TABLE_BUDGET


@dataclass(frozen=True)
class RunConfig:
    """Full flag set of one run; embedded verbatim in every report."""

    subcommand: str
    group: str | None = None
    word: str | None = None
    d: int | None = None
    e: int | None = None
    exact: bool = True
    samples: int | None = None
    seed: int = 0
    budget_iter: int = DEFAULT_ITER
    budget_hom: int = DEFAULT_HOM
    budget_order: int = DEFAULT_ORDER
    budget_table: int = DEFAULT_TABLE
    format: str = "json"
    out: str | None = None
    fuzz: int | None = None
    family_file: str | None = None
    hom_file: str | None = None

    def validate(self) -> None:
        if self.samples is not None and self.samples < census.MIN_SAMPLES:
            raise ValueError(
                f"--samples must be >= {census.MIN_SAMPLES}"
            )
        for name in ("budget_iter", "budget_hom", "budget_order",
                     "budget_table"):
            if getattr(self, name) < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("--seed must be an unsigned 64-bit integer")
        if self.fuzz is not None and self.fuzz < 0:
            raise ValueError("--fuzz must be >= 0")


def _census_dict(r: census.CensusResult) -> dict:
    out = {"mode": r.mode, "space_size": str(r.space_size)}
    if r.mode == "exact":
        out["count"] = str(r.count)
        out["proportion"] = rat_str(r.proportion)
    else:
        out["estimate_mean"] = rat_str(r.estimate_mean)
        out["ci_half_width"] = rat_str(r.ci_half_width)
        out["samples"] = r.samples
        out["seed"] = str(r.seed)
    return out


def _theorem_dict(rep: census.TheoremReport) -> dict:
    out = {
        "group": rep.group,
        "word": rep.word,
        "d": rep.d,
        "order": rep.order,
        "s_size": str(rep.s_size),
        "rho": rat_str(rep.rho),
        "f1": rat_str(rep.bounds.f1),
        "f2": rat_str(rep.bounds.f2),
        "f": rat_str(rep.bounds.f),
        "required_solutions": rat_str(rep.required),
        "solutions": _census_dict(rep.solutions),
        "pair_threshold": rat_str(rep.pair_threshold),
        "required_pairs": rat_str(rep.required_pairs),
        "required_triples": rat_str(rep.required_triples),
        "checks_run": list(rep.checks_run),
        "pass_solutions": rep.pass_solutions,
    }
    if rep.qualifying_pairs is not None:
        out["qualifying_pairs"] = str(rep.qualifying_pairs)
        out["triples"] = str(rep.triples)
        out["pass_pairs"] = rep.pass_pairs
        out["pass_triples"] = rep.pass_triples
        if rep.pass_chain is not None:
            out["pass_chain"] = rep.pass_chain
            # Solutions beyond the in-S triples; measured, no claim attached.
            out["slack"] = str(rep.solutions.count - rep.triples)
    return out


def _build_group(cfg: RunConfig) -> group.GroupTable:
    if not cfg.group:
        raise ValueError("--group is required for this subcommand")
    return group.build(cfg.group, cfg.budget_order)


def _parse_word(cfg: RunConfig):
    if cfg.word is None:
        raise ValueError("--word is required for this subcommand")
    return parse_word(cfg.word)


def _load_hom(cfg: RunConfig, G: group.GroupTable, d: int) -> np.ndarray:
    """The (d, n) component table of the hom in ``cfg.hom_file``."""
    with open(cfg.hom_file) as fh:
        data = json.load(fh)
    comps = data.get("components") if isinstance(data, dict) else None
    if not isinstance(comps, list) or len(comps) != d:
        raise ValueError(
            f'hom file must be an object with "components": {d} tables'
        )
    for tab in comps:
        if not isinstance(tab, list) or len(tab) != G.n or not all(
            isinstance(v, int) and 0 <= v < G.n for v in tab
        ):
            raise ValueError("component tables must be lists of n element ids")
    phi = np.array(comps, dtype=np.int64)
    for values in phi:
        if not homset._full_hom_check(G.mul, values):
            raise ValueError("component table is not an endomorphism")
    commutes = G.mul == G.mul.T
    for i in range(d):
        for j in range(i + 1, d):
            if not commutes[np.ix_(phi[i], phi[j])].all():
                raise ValueError(
                    f"components {i} and {j} have non-commuting images"
                )
    return phi


# -- subcommand bodies: each returns (results dict, all-passed flag) ----------

def _cmd_verify_theorem(cfg: RunConfig):
    G = _build_group(cfg)
    w = _parse_word(cfg)
    d = cfg.d if cfg.d is not None else max(w.arity, 1)
    if w.arity > d:
        raise ValueError(f"word uses x{w.arity} but --d is {d}")
    hom = _load_hom(cfg, G, d) if cfg.hom_file else None
    rep = census.verify_theorem(
        w, G, d,
        samples=None if cfg.exact else cfg.samples,
        seed=cfg.seed,
        hom_budget=cfg.budget_hom,
        iter_budget=cfg.budget_iter,
        table_budget=cfg.budget_table,
        hom=hom,
    )
    return {"theorem": _theorem_dict(rep)}, rep.passed


def _cmd_verify_mann(cfg: RunConfig):
    if cfg.e is None:
        raise ValueError("-e is required for verify-mann")
    G = _build_group(cfg)
    direct = census.power_equation_count(cfg.e, G, cfg.budget_iter)
    derived_count = census.count_solutions_exact(
        reduce([(1, cfg.e)]), G, 1, cfg.budget_iter, cfg.budget_table
    ).count
    equal = direct == derived_count
    results = {
        "group": G.name,
        "e": cfg.e,
        "direct_count": str(direct),
        "derived_count": str(derived_count),
        "equal": equal,
    }
    return {"mann": results}, equal


def _cmd_verify_commuting(cfg: RunConfig):
    G = _build_group(cfg)
    rep = census.verify_commuting_corollary(
        G, seed=cfg.seed, hom_budget=cfg.budget_hom,
        table_budget=cfg.budget_table,
    )
    results = {
        "group": rep.group,
        "rho": rat_str(rep.rho),
        "commuting_probability": rat_str(rep.commuting_probability),
        "bound": rat_str(rep.bound),
        "equation_samples": rep.equation_samples,
        "equation_consistent": rep.equation_consistent,
        "pass_bound": rep.pass_bound,
    }
    return {"commuting": results}, rep.passed


def _lemma_dict(rep: familycheck.LemmaReport) -> dict:
    return {
        "label": rep.label,
        "x_size": rep.x_size,
        "i_size": rep.i_size,
        "rho": rat_str(rep.rho),
        "overlap_threshold": rat_str(rep.overlap_threshold),
        "qualifying_pairs": str(rep.qualifying_pairs),
        "required_pairs": rat_str(rep.required_pairs),
        "pass": rep.passed,
    }


def _cmd_verify_lemma(cfg: RunConfig):
    if cfg.family_file:
        inst = familycheck.load_family(cfg.family_file, label=cfg.family_file)
        instances = [inst]
    else:
        instances = familycheck.adversarial_families()
        if cfg.fuzz:
            instances += familycheck.fuzz_instances(cfg.fuzz, cfg.seed)
    reports = [familycheck.verify_lemma(i) for i in instances]
    passed = sum(1 for r in reports if r.passed)
    results = {
        "instances": len(reports),
        "passed": passed,
        "failures": [_lemma_dict(r) for r in reports if not r.passed],
    }
    return {"lemma": results}, passed == len(reports)


def _cmd_derive_word(cfg: RunConfig):
    w = _parse_word(cfg)
    v = derived_word(w)
    results = {
        "word": str(w),
        "d": w.arity,
        "derived": str(v),
        "derived_length": v.length,
        "derived_variables": 3 * w.arity,
        "nontrivial": is_nontrivial_derived(w),
    }
    return {"derive": results}, True


def _cmd_fiber_stats(cfg: RunConfig):
    G = _build_group(cfg)
    w = _parse_word(cfg)
    d = cfg.d if cfg.d is not None else max(w.arity, 1)
    st = census.fiber_stats(w, G, d, cfg.budget_table)
    results = {
        "group": G.name,
        "word": str(w),
        "d": st.d,
        "domain_size": str(st.domain_size),
        "histogram": {str(k): v for k, v in sorted(st.histogram.items())},
        "max_fiber": rat_str(st.max_fiber),
    }
    return {"fibers": results}, True


def _cmd_hom_search(cfg: RunConfig):
    G = _build_group(cfg)
    d = cfg.d if cfg.d is not None else 1
    endos, tuples = homset.homs_power(G, d, cfg.budget_hom)
    results = {
        "group": G.name,
        "d": d,
        "endomorphisms": len(endos),
        "automorphisms": int(homset._bijective(endos).sum()),
        "homs": len(tuples),
    }
    if cfg.word is not None:
        w = _parse_word(cfg)
        if w.arity > d:
            raise ValueError(f"word uses x{w.arity} but --d is {d}")
        rho, phi = homset.best_agreement(
            w, G, d, cfg.budget_hom, cfg.budget_table, homs=(endos, tuples)
        )
        results["word"] = str(w)
        results["best_agreement"] = rat_str(rho)
        results["witness_components"] = phi.tolist()
    return {"homs": results}, True


def _cmd_commuting_probability(cfg: RunConfig):
    G = _build_group(cfg)
    results = {
        "group": G.name,
        "commuting_probability": rat_str(commuting_probability(G)),
        "conjugacy_classes": conjugacy_class_count(G),
        "order": G.n,
    }
    return {"commuting_probability": results}, True


_COMMANDS = {
    "verify-theorem": _cmd_verify_theorem,
    "verify-mann": _cmd_verify_mann,
    "verify-commuting": _cmd_verify_commuting,
    "verify-lemma": _cmd_verify_lemma,
    "derive-word": _cmd_derive_word,
    "fiber-stats": _cmd_fiber_stats,
    "hom-search": _cmd_hom_search,
    "commuting-probability": _cmd_commuting_probability,
}


def _make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wordmaplab",
        description="verify agreement-implies-solution-count bounds on "
                    "finite groups",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--group", help="group spec, e.g. S3, C2xC4, Q8")
        p.add_argument("--word", help="word, e.g. 'x1*x2^-1'")
        p.add_argument("--d", type=int, help="power of G mapped from")
        p.add_argument("-e", type=int, help="exponent for verify-mann")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true", default=None,
                          help="force the exact census (default)")
        mode.add_argument("--samples", type=int,
                          help="estimate with this many samples")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget-iter", type=int,
                       default=census.DEFAULT_ITER_BUDGET)
        p.add_argument("--budget-hom", type=int,
                       default=homset.DEFAULT_CANDIDATE_BUDGET)
        p.add_argument("--budget-order", type=int,
                       default=group.DEFAULT_ORDER_BUDGET)
        p.add_argument("--budget-table", type=int,
                       default=census.DEFAULT_TABLE_BUDGET)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--fuzz", type=int,
                       help="verify-lemma: number of random instances")
        p.add_argument("--file", dest="family_file",
                       help="verify-lemma: check one saved instance")
        p.add_argument("--hom", dest="hom_file",
                       help="verify-theorem: JSON file with component tables")
    return top


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(**{**vars(ns), "exact": ns.samples is None})


def _render_text(report: dict) -> str:
    lines = []

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}{k}.", v) if isinstance(v, (dict, list)) \
                    else lines.append(f"{prefix}{k} = {v}")
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}{i}.", v) if isinstance(v, (dict, list)) \
                    else lines.append(f"{prefix}{i} = {v}")

    walk("", {"results": report["results"]})
    lines.append("PASS" if report["pass"] else "FAIL")
    return "\n".join(lines) + "\n"


def _emit(report: dict, cfg: RunConfig) -> None:
    if cfg.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_text(report)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv: list[str]) -> int:
    """Parse argv, run the subcommand, emit the report, return the exit code."""
    parser = _make_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = _config_from_args(ns)
        cfg.validate()
        t0 = time.perf_counter()
        results, passed = _COMMANDS[cfg.subcommand](cfg)
    except (WordParseError, GroupSpecError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    report = {
        "config": asdict(cfg),
        "results": results,
        "pass": passed,
        "timings": {"total_seconds": round(time.perf_counter() - t0, 6)},
    }
    _emit(report, cfg)
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))
