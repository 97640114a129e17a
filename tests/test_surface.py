"""Surface guards: every function or class in the package serves a caller,
every exported name resolves, one module owns the working-memory block
size, and every report record stores only what its step measured.

Each module-level function or class of ``src/wordmaplab``, public or
private, must be named somewhere in ``src/`` outside its own definition (so
a recursive call does not count); a public one may instead be a
``[project.scripts]`` entry point.  Being listed in ``wordmaplab.__all__``
is not a use: an export nothing in ``src/`` calls is a helper for tests, and
those belong in ``tests/conftest.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import re
from functools import cached_property
from pathlib import Path

from wordmaplab import (CensusResult, CommutingReport, FiberStats,
                        LemmaReport, TheoremReport)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wordmaplab"


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _entry_points() -> set[tuple[str, str]]:
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'"wordmaplab\.(\w+):(\w+)"', section))


def _definitions(modules, private: bool):
    """(module, node) for every module-level function or class whose name
    is private (``_``-prefixed) or public, as asked."""
    return [(mod, node) for mod, tree in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") == private]


def _unnamed(modules, defs) -> list[str]:
    """The definitions that no name or attribute reference in src/ names
    outside the definition itself."""
    # Every name and attribute reference in src/, by node identity.
    refs = [(node, node.id if isinstance(node, ast.Name) else node.attr)
            for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    dead = []
    for mod, definition in defs:
        inside = {id(n) for n in ast.walk(definition)}
        if not any(name == definition.name and id(node) not in inside
                   for node, name in refs):
            dead.append(f"{mod}.{definition.name}")
    return dead


def test_no_dead_public_helpers():
    modules = _modules()
    defs = _definitions(modules, private=False)
    assert {("census", "verify_theorem"), ("cli", "main")} <= \
        {(mod, node.name) for mod, node in defs}
    dead = _unnamed(modules, [(mod, node) for mod, node in defs
                              if (mod, node.name) not in _entry_points()])
    assert not dead, f"public helpers nothing in src/ uses: {dead}"


def test_no_dead_private_helpers():
    modules = _modules()
    defs = _definitions(modules, private=True)
    assert ("homset", "_hom_values") in {(mod, node.name)
                                         for mod, node in defs}
    dead = _unnamed(modules, defs)
    assert not dead, f"private helpers nothing in src/ uses: {dead}"


def test_public_names_resolve():
    # Every exported name exists, so a removed class cannot stay exported.
    import wordmaplab

    missing = [name for name in wordmaplab.__all__
               if not hasattr(wordmaplab, name)]
    assert missing == []


def test_block_size_lives_in_errors():
    # Every blocked step reads ``errors.BLOCK_CELLS`` through
    # ``errors.row_blocks``.  A copy in another module, assigned or
    # imported, would be a second policy that patching ``errors`` misses.
    owners = [f"{mod}.{name}" for mod in _modules()
              for name in vars(importlib.import_module(
                  f"wordmaplab.{mod}".removesuffix(".__init__")))
              if name.endswith("BLOCK_CELLS")]
    assert owners == ["errors.BLOCK_CELLS"]


# Each record's stored fields, then the names it derives from them.
REPORT_FIELDS = {
    TheoremReport: (
        ("group", "word", "d", "order", "s_size", "solutions",
         "qualifying_pairs", "triples"),
        ("rho", "bounds", "required", "required_triples", "pair_threshold",
         "required_pairs", "pass_solutions", "pass_pairs", "pass_triples",
         "pass_chain", "checks_run", "passed")),
    CensusResult: (
        ("space_size", "count", "samples", "seed"),
        ("mode", "proportion", "ci_half_width")),
    FiberStats: (("d", "n", "counts"),
                 ("domain_size", "histogram", "max_fiber")),
    CommutingReport: (
        ("group", "rho", "commuting_probability", "equation_samples",
         "equation_consistent"),
        ("bound", "pass_bound", "passed")),
    LemmaReport: (
        ("label", "x_size", "i_size", "rho", "qualifying_pairs"),
        ("overlap_threshold", "required_pairs", "passed")),
}


def test_reports_store_only_what_was_measured():
    # A floor, threshold or verdict stored beside the counts it comes from
    # could disagree with them; each is a property instead.
    for cls, (stored, derived) in REPORT_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == stored, cls
        assert all(isinstance(vars(cls).get(name),
                              (property, cached_property))
                   for name in derived), cls
    assert sum(len(stored) for stored, _ in REPORT_FIELDS.values()) == 25
