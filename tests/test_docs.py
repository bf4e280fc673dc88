"""Documentation integrity tests (the docs CI step).

Three guarantees keep ``docs/`` honest as the code grows:

* the solver/scoring reference tables in ``docs/solvers.md`` name exactly
  the registered solvers and scoring functions (and every listed alias
  resolves to the same entry);
* every relative markdown link in ``docs/`` and ``README.md`` points at a
  file that exists, and every backticked ``repro.…`` dotted reference
  resolves to a real module or attribute;
* the README's examples list covers every script under ``examples/`` and
  the service page documents every request kind of the wire protocol.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from repro.core.scoring import available_scoring_functions, get_scoring_function
from repro.service.registry import available_solvers, solver_spec
from repro.service.requests import _REQUEST_TYPES

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
DOC_PAGES = (
    "architecture.md",
    "service.md",
    "solvers.md",
    "parallel.md",
    "performance.md",
    "observability.md",
    "durability.md",
    "storage.md",
)

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_BACKTICKED = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"^repro(?:\.\w+)+$")


def _read(path: Path) -> str:
    assert path.is_file(), f"missing documentation file: {path}"
    return path.read_text(encoding="utf-8")


def _table_rows(markdown: str, heading: str) -> list[list[str]]:
    """The body rows of the first table under ``heading``."""
    lines = markdown.splitlines()
    try:
        start = next(i for i, line in enumerate(lines) if line.strip() == heading)
    except StopIteration:
        raise AssertionError(f"heading {heading!r} not found") from None
    rows: list[list[str]] = []
    in_table = False
    for line in lines[start + 1 :]:
        stripped = line.strip()
        if stripped.startswith("#"):
            break  # next section
        if stripped.startswith("|"):
            in_table = True
            cells = [cell.strip() for cell in stripped.strip("|").split("|")]
            if set(cells[0]) <= {"-", " ", ":"}:  # separator row
                continue
            rows.append(cells)
        elif in_table and stripped == "":
            break
    assert rows, f"no table found under {heading!r}"
    return rows[1:]  # drop the header row


def _names_in_cell(cell: str) -> list[str]:
    return _BACKTICKED.findall(cell)


def _first_name(row: list[str]) -> str:
    names = _names_in_cell(row[0])
    assert names, f"table row has no backticked name: {row}"
    return names[0]


class TestSolverReferenceTables:
    @pytest.fixture(scope="class")
    def solvers_page(self) -> str:
        return _read(DOCS_DIR / "solvers.md")

    def test_cra_table_matches_registry(self, solvers_page):
        rows = _table_rows(solvers_page, "## Conference (CRA) solvers")
        documented = {_first_name(row) for row in rows}
        assert documented == set(available_solvers("cra"))

    def test_jra_table_matches_registry(self, solvers_page):
        rows = _table_rows(solvers_page, "## Journal (JRA) solvers")
        documented = {_first_name(row) for row in rows}
        assert documented == set(available_solvers("jra"))

    def test_scoring_table_matches_registry(self, solvers_page):
        rows = _table_rows(solvers_page, "## Scoring functions")
        documented = {_first_name(row) for row in rows}
        assert documented == set(available_scoring_functions())

    @pytest.mark.parametrize(
        "heading,kind",
        [("## Conference (CRA) solvers", "cra"), ("## Journal (JRA) solvers", "jra")],
    )
    def test_documented_solver_aliases_resolve(self, solvers_page, heading, kind):
        for row in _table_rows(solvers_page, heading):
            canonical = _first_name(row)
            for alias in _names_in_cell(row[1]):
                assert solver_spec(kind, alias).name == canonical, (
                    f"alias {alias!r} does not resolve to {canonical!r}"
                )

    @pytest.mark.parametrize(
        "heading,kind",
        [("## Conference (CRA) solvers", "cra"), ("## Journal (JRA) solvers", "jra")],
    )
    def test_fast_path_column_matches_registry_tags(self, solvers_page, heading, kind):
        """The delta support a row claims must equal the solver's registry
        tags — the conformance harness enforces the tags, this test keeps
        the human-readable table from drifting away from them."""
        for row in _table_rows(solvers_page, heading):
            canonical = _first_name(row)
            documented = set(_names_in_cell(row[2])) & {"delta"}
            registered = set(solver_spec(kind, canonical).tags) & {"delta"}
            assert documented == registered, (
                f"{canonical}: fast-path cell says {sorted(documented)!r} but the "
                f"registry tags say {sorted(registered)!r}"
            )

    def test_documented_scoring_aliases_resolve(self, solvers_page):
        for row in _table_rows(solvers_page, "## Scoring functions"):
            canonical = _first_name(row)
            for alias in _names_in_cell(row[1]):
                assert get_scoring_function(alias).name == canonical


class TestLinksAndReferences:
    def _pages(self) -> list[Path]:
        return [DOCS_DIR / page for page in DOC_PAGES] + [REPO_ROOT / "README.md"]

    def test_all_doc_pages_exist(self):
        for path in self._pages():
            assert path.is_file(), f"missing documentation file: {path}"

    def test_relative_links_resolve(self):
        for path in self._pages():
            for target in _LINK.findall(_read(path)):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                assert resolved.exists(), f"{path.name}: broken link {target!r}"

    def test_dotted_repro_references_resolve(self):
        """Every backticked ``repro.…`` token must be importable.

        Pages referencing symbols that no longer exist fail here — the
        "stale docs" guard the docs CI step exists for.
        """
        failures: list[str] = []
        for path in self._pages():
            for token in _BACKTICKED.findall(_read(path)):
                candidate = token.split("(")[0].strip()
                if not _DOTTED.match(candidate):
                    continue
                if not self._resolves(candidate):
                    failures.append(f"{path.name}: `{candidate}`")
        assert not failures, "stale documentation references:\n" + "\n".join(failures)

    @staticmethod
    def _resolves(dotted: str) -> bool:
        parts = dotted.split(".")
        for split in range(len(parts), 0, -1):
            module_name = ".".join(parts[:split])
            try:
                obj = importlib.import_module(module_name)
            except ImportError:
                continue
            try:
                for attribute in parts[split:]:
                    obj = getattr(obj, attribute)
            except AttributeError:
                return False
            return True
        return False


class TestCoverageOfRepoArtifacts:
    def test_readme_lists_every_example_script(self):
        readme = _read(REPO_ROOT / "README.md")
        for script in sorted((REPO_ROOT / "examples").glob("*.py")):
            assert script.name in readme, (
                f"examples/{script.name} is not registered in the README examples list"
            )

    def test_service_page_documents_every_request_kind(self):
        rows = _table_rows(
            _read(DOCS_DIR / "service.md"),
            "Request kinds and their fields:",
        )
        documented = {_first_name(row) for row in rows}
        assert documented == set(_REQUEST_TYPES)
        # Every field the parser fills, apart from the envelope (``id`` and
        # ``seq`` on the wire), is named in its kind's row.
        envelope = {"request_id", "client_seq"}
        for row in rows:
            kind = _first_name(row)
            named = set(_names_in_cell(row[1]))
            for field in dataclasses.fields(_REQUEST_TYPES[kind]):
                if field.name not in envelope:
                    assert field.name in named, f"{kind!r} row lacks `{field.name}`"

    def test_readme_names_every_request_kind(self):
        readme = _read(REPO_ROOT / "README.md")
        for kind in _REQUEST_TYPES:
            assert f"`{kind}`" in readme

    def test_service_page_error_type_table_matches_the_vocabulary(self):
        from repro.service.session import ERROR_TYPES

        rows = _table_rows(_read(DOCS_DIR / "service.md"), "### Error types")
        documented = {_first_name(row) for row in rows}
        assert documented == set(ERROR_TYPES)

    def test_service_page_management_table_matches_the_server(self):
        from repro.net.server import MANAGEMENT_KINDS

        rows = _table_rows(
            _read(DOCS_DIR / "service.md"), "### Tenant-management requests"
        )
        documented = {_first_name(row) for row in rows}
        assert documented == set(MANAGEMENT_KINDS)

    def test_management_descriptions_name_every_field(self):
        """Each management kind's description, in the server and on the
        service page, names every field of its request dataclass (the
        fieldless kinds take the envelope only)."""
        from repro.net.server import _MANAGEMENT_TYPES, MANAGEMENT_KINDS
        from repro.service.requests import Request

        rows = _table_rows(
            _read(DOCS_DIR / "service.md"), "### Tenant-management requests"
        )
        documented = {_first_name(row): row[1] for row in rows}
        envelope = {"request_id", "client_seq"}
        for kind, description in MANAGEMENT_KINDS.items():
            for cell in (description, documented[kind]):
                named = set(_names_in_cell(cell))
                for field in dataclasses.fields(_MANAGEMENT_TYPES.get(kind, Request)):
                    if field.name not in envelope:
                        assert field.name in named, f"{kind!r} lacks `{field.name}`"

    def test_service_page_replication_table_matches_the_protocol(self):
        """Verbatim (descriptions included), like the failpoint table —
        the replication frame semantics ARE the contract."""
        from repro.replication import REPLICATION_KINDS

        rows = _table_rows(
            _read(DOCS_DIR / "service.md"), "### Replication requests"
        )
        documented = {_first_name(row): row[1] for row in rows}
        assert documented == REPLICATION_KINDS


class TestObservabilityPage:
    """The span/metric tables mirror the contract of ``repro.obs.names``."""

    @pytest.fixture(scope="class")
    def obs_page(self) -> str:
        return _read(DOCS_DIR / "observability.md")

    def test_span_table_matches_the_contract(self, obs_page):
        from repro.obs.names import SPAN_NAMES

        rows = _table_rows(obs_page, "## Span names")
        documented = {_first_name(row) for row in rows}
        assert documented == set(SPAN_NAMES)

    def test_metric_table_matches_the_contract(self, obs_page):
        from repro.obs.names import METRIC_NAMES

        rows = _table_rows(obs_page, "## Metric names")
        documented = {_first_name(row) for row in rows}
        assert documented == set(METRIC_NAMES)


class TestDurabilityPage:
    """The durability tables mirror the code's closed vocabularies —
    failpoint sites and firing modes verbatim (descriptions included),
    fsync policies verbatim, journaled kinds by name."""

    @pytest.fixture(scope="class")
    def durability_page(self) -> str:
        return _read(DOCS_DIR / "durability.md")

    def test_failpoint_site_table_matches_the_registry(self, durability_page):
        from repro.fault import FAILPOINT_SITES

        rows = _table_rows(durability_page, "### Failpoint sites")
        documented = {_first_name(row): row[1] for row in rows}
        assert documented == FAILPOINT_SITES

    def test_firing_mode_table_matches_the_registry(self, durability_page):
        from repro.fault import FIRE_MODES

        rows = _table_rows(durability_page, "### Firing modes")
        documented = {_first_name(row): row[1] for row in rows}
        assert documented == FIRE_MODES

    def test_fsync_policy_table_matches_the_wal(self, durability_page):
        from repro.durability import FSYNC_POLICIES

        rows = _table_rows(durability_page, "### Fsync policies")
        documented = {_first_name(row): row[1] for row in rows}
        assert documented == FSYNC_POLICIES

    def test_journaled_kind_table_matches_the_wire_protocol(self, durability_page):
        from repro.service.requests import MUTATION_KINDS

        rows = _table_rows(durability_page, "### Journaled request kinds")
        documented = {_first_name(row) for row in rows}
        assert documented == set(MUTATION_KINDS)
