"""Command line interface.

Every subcommand builds one report dict {config, results, pass, timings},
prints it as canonical JSON (or a text rendering) and exits with:

    0  every check in scope passed
    1  a mathematical check failed
    2  usage, parse, or validation error
    3  a configured budget would be exceeded, or memory ran out

Reports embed the full run configuration, which holds only the flags given
and their fixed defaults, plus ``exact``: derived, not a flag, it is true
exactly when ``--samples`` is not given.  With one exception a report is
byte-identical across runs and machines for the same flags (including
seeds): the ``timings`` block holds wall-clock seconds and necessarily
varies; all other content is deterministic.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import numpy as np

from . import census, errors, familycheck, group, homset
from .bounds import rat_str
from .freeword import derived_word, parse_word, reduce
from .group import commuting_probability

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# The least --d of each subcommand that maps from G^d; 0 elsewhere.
_D_LEAST = {"verify-theorem": 1, "hom-search": 1}


def _validate(ns: argparse.Namespace) -> None:
    """Range checks on the parsed flags, which are the run configuration."""
    if ns.samples is not None and ns.samples < census.MIN_SAMPLES:
        raise ValueError(f"--samples must be >= {census.MIN_SAMPLES}")
    for name in ("budget_iter", "budget_hom", "budget_table"):
        if getattr(ns, name) < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1")
    if not 0 <= ns.seed < 2 ** 64:
        raise ValueError("--seed must be an unsigned 64-bit integer")
    if ns.fuzz is not None and ns.fuzz < 0:
        raise ValueError("--fuzz must be >= 0")
    least = _D_LEAST.get(ns.subcommand, 0)
    if ns.d is not None and ns.d < least:
        raise ValueError(f"--d must be >= {least}")


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


def _build_group(cfg: argparse.Namespace) -> group.GroupTable:
    if not cfg.group:
        raise ValueError("--group is required for this subcommand")
    return group.build(cfg.group, cfg.budget_table)


def _parse_word(cfg: argparse.Namespace):
    if cfg.word is None:
        raise ValueError("--word is required for this subcommand")
    return parse_word(cfg.word)


def _resolve_d(cfg: argparse.Namespace, w, default: int) -> int:
    """``--d``, or ``default`` when it is not given; refuses a word ``w``
    that uses more variables."""
    d = default if cfg.d is None else cfg.d
    if w is not None and w.arity > d:
        raise ValueError(f"word uses x{w.arity} but --d is {d}")
    return d


def _load_hom(cfg: argparse.Namespace, G: group.GroupTable,
              d: int) -> np.ndarray:
    """The (d, n) table in ``cfg.hom_file``; verify_theorem checks it."""
    with open(cfg.hom_file) as fh:
        data = json.load(fh)
    comps = data.get("components") if isinstance(data, dict) else None
    if not isinstance(comps, list) or len(comps) != d:
        raise ValueError(
            f'hom file must be an object with "components": {d} tables'
        )
    for tab in comps:
        # type(), not isinstance(): JSON true and false are ints to Python.
        if not isinstance(tab, list) or len(tab) != G.n or not all(
            type(v) is int and 0 <= v < G.n for v in tab
        ):
            raise ValueError("component tables must be lists of n element ids")
    return np.array(comps, dtype=np.int64)


# -- subcommand bodies: each returns (results dict, all-passed flag) ----------

def _cmd_verify_theorem(cfg: argparse.Namespace):
    G = _build_group(cfg)
    w = _parse_word(cfg)
    d = _resolve_d(cfg, w, max(w.arity, 1))
    hom = _load_hom(cfg, G, d) if cfg.hom_file else None
    rep = census.verify_theorem(
        w, G, d,
        samples=cfg.samples,
        seed=cfg.seed,
        hom_budget=cfg.budget_hom,
        iter_budget=cfg.budget_iter,
        table_budget=cfg.budget_table,
        hom=hom,
    )
    return {"theorem": _theorem_dict(rep)}, rep.passed


def _cmd_verify_mann(cfg: argparse.Namespace):
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


def _cmd_verify_commuting(cfg: argparse.Namespace):
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


def _cmd_verify_lemma(cfg: argparse.Namespace):
    if cfg.family_file:
        instances = [familycheck.load_family(
            cfg.family_file, label=cfg.family_file,
            table_budget=cfg.budget_table)]
    else:
        # Fuzz families are drawn and checked one at a time.
        instances = itertools.chain(
            familycheck.adversarial_families(),
            familycheck.fuzz_instances(cfg.fuzz or 0, cfg.seed),
        )
    count, failures = 0, []
    for count, inst in enumerate(instances, 1):
        rep = familycheck.verify_lemma(inst)
        if not rep.passed:
            failures.append(_lemma_dict(rep))
    results = {"instances": count, "passed": count - len(failures),
               "failures": failures}
    return {"lemma": results}, not failures


def _cmd_derive_word(cfg: argparse.Namespace):
    w = _parse_word(cfg)
    # The derivation builds 3d syllables for the substituted arguments, 3|w|
    # from substituting them and three more copies of w's syllables.
    errors.check_budget(3 * (w.arity + w.length + len(w.syllables)),
                        cfg.budget_table, "derived word")
    v = derived_word(w)
    results = {
        "word": str(w),
        "d": w.arity,
        "derived": str(v),
        "derived_length": v.length,
        "derived_variables": 3 * w.arity,
        "nontrivial": bool(v),
    }
    return {"derive": results}, True


def _cmd_fiber_stats(cfg: argparse.Namespace):
    G = _build_group(cfg)
    w = _parse_word(cfg)
    d = _resolve_d(cfg, w, max(w.arity, 1))
    st = census.fiber_stats(w, G, d, cfg.budget_iter, cfg.budget_table)
    results = {
        "group": G.name,
        "word": str(w),
        "d": st.d,
        "domain_size": str(st.domain_size),
        "histogram": {str(k): v for k, v in sorted(st.histogram.items())},
        "max_fiber": rat_str(st.max_fiber),
    }
    return {"fibers": results}, True


def _cmd_hom_search(cfg: argparse.Namespace):
    G = _build_group(cfg)
    w = None if cfg.word is None else parse_word(cfg.word)
    d = _resolve_d(cfg, w, 1)
    endos, tuples = homset.homs_power(G, d, cfg.budget_hom,
                                      cfg.budget_table)
    results = {
        "group": G.name,
        "d": d,
        "endomorphisms": len(endos),
        "automorphisms": int(homset._bijective(endos).sum()),
        "homs": len(tuples),
    }
    if w is not None:
        rho, phi = homset.best_agreement(
            w, G, d, cfg.budget_hom, cfg.budget_table, homs=(endos, tuples)
        )
        results["word"] = str(w)
        results["best_agreement"] = rat_str(rho)
        results["witness_components"] = phi.tolist()
    return {"homs": results}, True


def _cmd_commuting_probability(cfg: argparse.Namespace):
    G = _build_group(cfg)
    cp = commuting_probability(G)
    results = {
        "group": G.name,
        "commuting_probability": rat_str(cp),
        # k(G) = |G| cp(G) by Burnside's lemma: the classes are the orbits
        # of conjugation, and g fixes |C_G(g)| elements.
        "conjugacy_classes": int(cp * G.n),
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
    p = argparse.ArgumentParser(
        prog="wordmaplab",
        description="verify agreement-implies-solution-count bounds on "
                    "finite groups",
    )
    p.add_argument("subcommand", choices=_COMMANDS)
    p.add_argument("--group", help="group spec, e.g. S3, C2xC4, Q8")
    p.add_argument("--word", help="word, e.g. 'x1*x2^-1'")
    p.add_argument("--d", type=int, help="power of G mapped from")
    p.add_argument("-e", type=int, help="exponent for verify-mann")
    p.add_argument("--samples", type=int,
                   help="estimate with this many samples (default: exact "
                        "census)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-iter", type=int,
                   default=errors.DEFAULT_ITER_BUDGET)
    p.add_argument("--budget-hom", type=int,
                   default=errors.DEFAULT_CANDIDATE_BUDGET)
    p.add_argument("--budget-table", type=int,
                   default=errors.DEFAULT_TABLE_BUDGET)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--fuzz", type=int,
                   help="verify-lemma: number of random instances")
    p.add_argument("--file", dest="family_file",
                   help="verify-lemma: check one saved instance")
    p.add_argument("--hom", dest="hom_file",
                   help="verify-theorem: JSON file with component tables")
    return p


def _render_text(report: dict) -> str:
    lines = []

    def walk(prefix, obj):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            if isinstance(v, (dict, list)):
                walk(f"{prefix}{k}.", v)
            else:
                lines.append(f"{prefix}{k} = {v}")

    walk("", {"results": report["results"]})
    lines.append("PASS" if report["pass"] else "FAIL")
    return "\n".join(lines) + "\n"


def _emit(report: dict, cfg: argparse.Namespace) -> None:
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
        ns.exact = ns.samples is None
        _validate(ns)
        t0 = time.perf_counter()
        results, passed = _COMMANDS[ns.subcommand](ns)
        report = {
            "config": vars(ns),
            "results": results,
            "pass": passed,
            "timings": {"total_seconds": round(time.perf_counter() - t0, 6)},
        }
        _emit(report, ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except errors.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        detail = f": {exc}" if str(exc) else ""
        print(f"budget exceeded: out of memory{detail}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
