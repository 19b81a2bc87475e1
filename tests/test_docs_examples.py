"""Executable documentation: doctests, README/docs snippets, drift guards.

Four layers keep the documentation honest:

* the doctest examples embedded in the package docstrings run as tests,
* every fenced ``python`` block in ``README.md`` and the narrative pages
  under ``docs/`` is executed in a fresh namespace (the snippets contain
  their own asserts),
* the ``method=`` registry (:mod:`repro.core.methods`) is checked against
  the ``mvn_probability`` docstring, the ``ValueError`` text, and the
  generated block of ``docs/methods.md`` — one shared tuple, no drift,
* the generated API reference (``docs/api.md``) is regenerated from
  :func:`repro.utils.apidoc.api_markdown` and compared, so the public
  surface cannot drift from its documentation; every ``repro`` module's
  ``__all__`` must resolve, and every ``benchmarks/bench_*.py`` must
  import, so a deleted name fails here and not at the next figure run.

All of these carry the ``docs`` marker: ``pytest -m docs`` runs exactly
the executable-documentation suite (it is part of the default tier-1 run).
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro
import repro.batch
import repro.batch.batched
import repro.batch.cache
import repro.mvn.result
import repro.query
import repro.query.planner
import repro.query.spec
import repro.serve
import repro.serve.broker
import repro.serve.net
import repro.serve.net.placement
import repro.serve.pool
import repro.solver
import repro.solver.solver
import repro.utils.timers
from repro.core.methods import (
    ACCEPTED_METHODS,
    METHOD_SPECS,
    canonical_method,
    methods_markdown,
    unknown_method_message,
)
from repro.utils.apidoc import api_markdown

pytestmark = pytest.mark.docs

REPO_ROOT = Path(__file__).resolve().parent.parent


def _python_blocks(path: Path) -> list[str]:
    blocks = re.findall(r"```python\n(.*?)```", path.read_text(), flags=re.DOTALL)
    assert blocks, f"{path} contains no fenced python blocks"
    return blocks


class TestDoctests:
    @pytest.mark.parametrize(
        "module",
        [repro, repro.batch, repro.batch.batched, repro.batch.cache,
         repro.mvn.result, repro.query, repro.query.planner, repro.query.spec,
         repro.serve, repro.serve.broker, repro.serve.net,
         repro.serve.net.placement, repro.serve.pool,
         repro.solver, repro.solver.solver, repro.utils.timers],
        ids=lambda m: m.__name__,
    )
    def test_module_doctests(self, module):
        outcome = doctest.testmod(module, verbose=False)
        assert outcome.attempted > 0, f"{module.__name__} has no doctest examples"
        assert outcome.failed == 0


class TestDocumentSnippets:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "docs/batch.md", "docs/solver.md", "docs/performance.md",
         "docs/serving.md", "docs/query.md", "docs/runtime.md",
         "docs/updates.md", "docs/pipelines.md"],
    )
    def test_python_blocks_execute(self, name):
        for idx, block in enumerate(_python_blocks(REPO_ROOT / name)):
            namespace: dict = {}
            try:
                exec(compile(block, f"{name}[block {idx}]", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - failure reporting
                pytest.fail(f"{name} python block {idx} failed: {exc!r}\n{block}")

    def test_readme_links_resolve(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for target in re.findall(r"\]\((docs/[^)#]+)", readme):
            assert (REPO_ROOT / target).is_file(), f"README links to missing {target}"
        assert "## Glossary" in readme
        for term in ("SOV", "PMVN", "TLR", "CRD", "Chain block", "Micro-batching",
                     "Shard", "Factor fingerprint", "Kernel backend",
                     "Workspace pooling", "Query", "Query plan", "Error target",
                     "Rank-k update", "Lineage fingerprint", "Pipeline",
                     "Plan edge", "Stage fusion"):
            assert term in readme, f"glossary term {term} missing from README"

    def test_every_docs_page_reachable_from_readme(self):
        """Documentation must not orphan: each docs/*.md is linked from README."""
        readme = (REPO_ROOT / "README.md").read_text()
        linked = set(re.findall(r"\]\(docs/([^)#]+)\)", readme))
        for page in sorted((REPO_ROOT / "docs").glob("*.md")):
            assert page.name in linked, f"docs/{page.name} is not linked from README"

    def test_docs_cross_links_resolve(self):
        """Relative links between docs pages must point at real files."""
        for page in sorted((REPO_ROOT / "docs").glob("*.md")):
            text = page.read_text()
            for target in re.findall(r"\]\(([A-Za-z0-9_.-]+\.md)[#)]", text):
                assert (REPO_ROOT / "docs" / target).is_file(), (
                    f"docs/{page.name} links to missing docs/{target}"
                )


class TestMethodRegistrySync:
    def test_docstring_lists_every_method(self):
        doc = repro.mvn_probability.__doc__
        for spec in METHOD_SPECS:
            assert f'``"{spec.name}"``' in doc, f"{spec.name} missing from docstring"
        assert "__METHOD_LIST__" not in doc and "__METHOD_SET__" not in doc

    def test_error_message_generated_from_registry(self):
        with pytest.raises(ValueError) as excinfo:
            repro.mvn_probability([0.0], [1.0], [[1.0]], method="nope")
        assert str(excinfo.value) == unknown_method_message("nope")
        for name in ACCEPTED_METHODS:
            assert f"'{name}'" in str(excinfo.value)

    def test_aliases_resolve(self):
        for spec in METHOD_SPECS:
            assert canonical_method(spec.name) == spec.name
            for alias in spec.aliases:
                assert canonical_method(alias) == spec.name
            assert canonical_method(spec.name.upper()) == spec.name

    def test_methods_md_matches_generator(self):
        text = (REPO_ROOT / "docs" / "methods.md").read_text()
        marker = re.search(
            r"<!-- BEGIN GENERATED METHODS.*?-->\n(.*?)<!-- END GENERATED METHODS -->",
            text,
            flags=re.DOTALL,
        )
        assert marker, "docs/methods.md lost its GENERATED markers"
        assert marker.group(1).strip() == methods_markdown().strip(), (
            "docs/methods.md is out of date; regenerate with "
            "python -c 'from repro.core.methods import methods_markdown; print(methods_markdown())'"
        )

    def test_methods_md_mentions_every_benchmark(self):
        text = (REPO_ROOT / "docs" / "methods.md").read_text()
        for script in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
            assert script.name in text, f"{script.name} missing from docs/methods.md"

    @pytest.mark.parametrize(
        "stem", sorted(path.stem for path in (REPO_ROOT / "benchmarks").glob("bench_*.py"))
    )
    def test_every_benchmark_imports(self, stem, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO_ROOT))
        importlib.import_module(f"benchmarks.{stem}")

    def test_every_module_all_resolves(self):
        checked = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            names = getattr(module, "__all__", ())
            assert len(set(names)) == len(names), f"{info.name}.__all__ repeats a name"
            for name in names:
                assert hasattr(module, name), f"{info.name}.__all__ names missing {name!r}"
            checked.append(info.name)
        assert "repro.core.pmvn" in checked and "repro.serve.net.gateway" in checked

    def test_api_md_matches_generator(self):
        text = (REPO_ROOT / "docs" / "api.md").read_text()
        marker = re.search(
            r"<!-- BEGIN GENERATED API REFERENCE.*?-->\n(.*?)<!-- END GENERATED API REFERENCE -->",
            text,
            flags=re.DOTALL,
        )
        assert marker, "docs/api.md lost its GENERATED markers"
        assert marker.group(1).strip() == api_markdown().strip(), (
            "docs/api.md is out of date; regenerate with "
            "python -c 'from repro.utils.apidoc import api_markdown; print(api_markdown())'"
        )

    def test_api_md_covers_public_surface(self):
        """Every __all__ name of the documented packages appears in docs/api.md."""
        import repro.core.api

        text = (REPO_ROOT / "docs" / "api.md").read_text()
        for module in (repro.solver, repro.query, repro.batch, repro.serve,
                       repro.core.api):
            for name in module.__all__:
                assert f"`{name}`" in text, (
                    f"{module.__name__}.{name} missing from docs/api.md"
                )

    def test_cli_choices_match_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        seen = []
        for sub in parser._subparsers._group_actions:
            for name, choice in sub.choices.items():
                for action in choice._actions:
                    if action.dest != "method":
                        continue
                    seen.append(name)
                    if name in ("mvn", "batch"):
                        # the general-purpose subcommands offer the full registry
                        assert tuple(action.choices) == ACCEPTED_METHODS, name
                    else:
                        # specialized subcommands may restrict, never invent
                        assert set(action.choices) <= set(ACCEPTED_METHODS), name
        assert {"mvn", "batch"} <= set(seen)
