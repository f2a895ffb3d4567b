"""Impact-based test selection: changed files -> affected test files.

CI velocity tooling (ROADMAP "CI velocity refactor"): the tier-1 suite
is 1100+ tests and grows ~150 per PR; running all of it twice per
matrix leg on every push is the iteration bottleneck. This module maps
a changed-file set (``git diff --name-only BASE``) to the transitive
closure of *affected* test files over a statically-derived module
dependency graph, so a PR touching ``src/repro/apps/firewall.py`` runs
the firewall/integration tests instead of the world.

The selector is **conservative by construction**:

* The graph is built by parsing every Python file under ``src/``,
  ``tests/`` and ``benchmarks/`` with :mod:`ast` — no project code is
  imported, so a syntactically-broken tree cannot crash the selector
  (it widens instead).
* Importing ``repro.obi.instance`` also executes ``repro/__init__`` and
  ``repro/obi/__init__``; the graph records an edge to every package
  prefix, so ``__init__`` changes propagate to all submodule importers.
* Fixtures arrive without imports, so test files get **fixture edges**:
  for every fixture a test file references (function arguments and
  ``usefixtures`` markers, over-collected on purpose), edges are added
  to the modules that fixture's body touches in every ``conftest.py``
  on the file's directory chain — transitively through fixture
  parameters and conftest-local helpers. Changes to a ``conftest.py``
  itself always widen to the full suite.
* Anything the graph cannot reason about — non-Python files, unknown
  Python files (new dirs, deletions), ``pyproject.toml`` (markers and
  pytest config live there), any ``conftest.py``, the shared
  ``core/`` and ``protocol/messages.py`` foundations, and this module
  itself — **widens the selection to the full suite**.

The safety net is twofold: a mutation harness
(``tests/tools/test_testselect_safety.py``) seeds real single-module
breakages and asserts every failing test is inside the selected
subset, and the nightly CI workflow runs the unselected full suite.

CLI::

    python -m repro.tools.testselect --base origin/main [--out FILE]
    python -m repro.tools.testselect --changed src/repro/apps/ips.py
    python -m repro.tools.testselect --changed src/repro/obi/fastpath.py \
        --explain tests/obi/test_fastpath.py
    python -m repro.tools.testselect --orphans

The output is one pytest-ready path per line (the literal ``tests``
directory when widened). ``--explain`` prints the import chain that
justifies a test file's selection. ``--orphans`` is a separate,
read-only dead-code report over the same scan (see :func:`orphans`).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import os
import pathlib
import re
import subprocess
import sys
from collections import deque
from typing import Iterable

#: Repository root (the directory holding ``src/``, ``tests/`` ...).
def _find_repo_root() -> pathlib.Path:
    """Locate the repo root robustly.

    Walking up from ``__file__`` breaks when this module runs from a
    copied ``src/`` tree (the mutation harness shadows ``src`` into a
    tmp dir via PYTHONPATH) — so require the marker files and fall back
    to the working directory, which is the repo root in every CI and
    harness invocation.
    """
    for parent in pathlib.Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").is_file() and (parent / "tests").is_dir():
            return parent
    return pathlib.Path.cwd()


REPO_ROOT = _find_repo_root()

#: Directories scanned into the module graph, with their dotted-name
#: roots. ``src`` maps ``src/repro/a/b.py`` to ``repro.a.b``; the test
#: and benchmark trees are packages of their own.
SCAN_ROOTS = (("src", ""), ("tests", "tests"), ("benchmarks", "benchmarks"))

#: Changed-path prefixes that always select the full suite: shared
#: foundations whose blast radius the import graph understates (blocks
#: are looked up by *name* through the registry, messages by type tag).
WIDEN_PREFIXES = ("src/repro/core/",)

#: Individual files that always select the full suite.
WIDEN_FILES = frozenset({
    "src/repro/protocol/messages.py",
    "pyproject.toml",
    # A selector bug must never be allowed to shrink its own audit.
    "src/repro/tools/testselect.py",
})


@dataclasses.dataclass
class ModuleNode:
    """One Python file in the graph."""

    module: str                  # dotted name, e.g. "repro.obi.engine"
    path: str                    # repo-relative posix path
    imports: set[str] = dataclasses.field(default_factory=set)
    markers: frozenset[str] = frozenset()
    parse_error: str | None = None
    #: conftest.py only: fixture name -> dotted modules its body touches.
    fixture_refs: dict[str, set[str]] = dataclasses.field(default_factory=dict)
    #: conftest.py only: fixture name -> names of fixtures it requests.
    fixture_params: dict[str, set[str]] = dataclasses.field(default_factory=dict)
    #: test/benchmark files: fixture names this file may request.
    uses_fixtures: set[str] = dataclasses.field(default_factory=set)
    #: package __init__ only: exported name -> dotted source target.
    bindings: dict[str, str] = dataclasses.field(default_factory=dict)
    #: package __init__ whose body is only imports/docstring/dunders.
    #: Pure re-exports are *weak*: their imports are not followed in
    #: reverse (a change to ``obc.py`` does not impact every importer
    #: of ``repro`` just because ``repro/__init__`` re-exports it) —
    #: instead, importers of ``repro.X`` are bound to X's home module.
    pure_reexport: bool = False

    @property
    def is_test_file(self) -> bool:
        return (
            self.path.startswith("tests/")
            and os.path.basename(self.path).startswith("test_")
        )


@dataclasses.dataclass
class Selection:
    """The outcome of mapping a changed-file set to test files."""

    changed: list[str]
    full: bool
    reason: str
    tests: list[str]             # repo-relative test files (all, when full)

    def pytest_args(self) -> list[str]:
        """Arguments for a pytest invocation honouring the selection."""
        return ["tests"] if self.full else list(self.tests)


def _module_name(rel_path: str) -> str:
    """Dotted module name for a repo-relative path, e.g.
    ``src/repro/obi/engine.py`` -> ``repro.obi.engine``."""
    parts = pathlib.PurePosixPath(rel_path).parts
    root, tail = parts[0], parts[1:]
    for scan_root, prefix in SCAN_ROOTS:
        if root == scan_root:
            segments = (prefix.split(".") if prefix else []) + list(tail)
            break
    else:  # root-level file, e.g. conftest.py
        segments = list(parts)
    segments[-1] = segments[-1][:-3]  # strip .py
    if segments[-1] == "__init__":
        segments.pop()
    return ".".join(segment for segment in segments if segment)


def _collect_markers(tree: ast.Module) -> frozenset[str]:
    """Pytest marker names applied in a module: ``pytestmark``
    assignments plus ``@pytest.mark.X`` decorators."""

    def _marker_name(node: ast.AST) -> str | None:
        # pytest.mark.chaos or pytest.mark.chaos(...)
        if isinstance(node, ast.Call):
            node = node.func
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "mark"
        ):
            return node.attr
        return None

    markers: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "pytestmark"
            for target in node.targets
        ):
            values = (
                node.value.elts
                if isinstance(node.value, (ast.List, ast.Tuple))
                else [node.value]
            )
            for value in values:
                name = _marker_name(value)
                if name:
                    markers.add(name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for decorator in node.decorator_list:
                name = _marker_name(decorator)
                if name:
                    markers.add(name)
    return frozenset(markers)


def _scan_conftest_fixtures(node: ModuleNode, tree: ast.Module) -> None:
    """Record, per fixture defined in a conftest, the dotted modules its
    body references (transitively through conftest-local helpers) and
    the fixtures it requests as parameters."""
    bindings: dict[str, str] = {}
    local_defs: dict[str, ast.AST] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bindings[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and not stmt.level and stmt.module:
            for alias in stmt.names:
                bindings[alias.asname or alias.name] = (
                    f"{stmt.module}.{alias.name}"
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local_defs[stmt.name] = stmt

    def _is_fixture(fn: ast.AST) -> bool:
        for decorator in fn.decorator_list:  # type: ignore[attr-defined]
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else (
                target.id if isinstance(target, ast.Name) else ""
            )
            if name == "fixture":
                return True
        return False

    def _refs(fn: ast.AST, seen: set[str]) -> set[str]:
        refs: set[str] = set()
        for inner in ast.walk(fn):
            if not (isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)):
                continue
            if inner.id in bindings:
                refs.add(bindings[inner.id])
            elif inner.id in local_defs and inner.id not in seen:
                seen.add(inner.id)
                refs |= _refs(local_defs[inner.id], seen)
        return refs

    for name, fn in local_defs.items():
        if not _is_fixture(fn):
            continue
        node.fixture_refs[name] = _refs(fn, {name})
        args = fn.args  # type: ignore[attr-defined]
        node.fixture_params[name] = {
            arg.arg for arg in args.args + args.kwonlyargs
            if arg.arg not in ("self", "request")
        }


def _scan_package_init(node: ModuleNode, tree: ast.Module, package: str) -> None:
    """Record a package ``__init__``'s re-export bindings and whether
    it is a *pure* re-export (imports, docstring and dunder assignments
    only). Impure ``__init__`` bodies — e.g. element registration hooks
    — keep their full strong edges."""
    pure = True
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                node.bindings[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                base_parts = package.split(".") if package else []
                base_parts = base_parts[: len(base_parts) - stmt.level + 1]
                base = ".".join(base_parts)
                stem = (
                    f"{base}.{stmt.module}" if base and stmt.module
                    else (stmt.module or base)
                )
            else:
                stem = stmt.module or ""
            for alias in stmt.names:
                if stem and alias.name != "*":
                    node.bindings[alias.asname or alias.name] = (
                        f"{stem}.{alias.name}"
                    )
        elif (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            continue  # docstring
        elif isinstance(stmt, ast.Assign) and all(
            isinstance(target, ast.Name)
            and target.id.startswith("__") and target.id.endswith("__")
            for target in stmt.targets
        ):
            continue  # __all__, __version__, ...
        else:
            pure = False
    node.pure_reexport = pure


def _collect_fixture_uses(tree: ast.Module) -> set[str]:
    """Fixture names a test file may request: every function argument
    (tests, local fixtures, helpers — over-collection only adds edges,
    which errs conservative) plus ``usefixtures`` marker strings."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= {
                arg.arg for arg in node.args.args + node.args.kwonlyargs
                if arg.arg != "self"
            }
        elif isinstance(node, ast.Call):
            target = node.func
            if isinstance(target, ast.Attribute) and target.attr == "usefixtures":
                used |= {
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                }
    return used


class ImpactGraph:
    """Module-level dependency graph over src/, tests/ and benchmarks/."""

    def __init__(self) -> None:
        self.nodes: dict[str, ModuleNode] = {}
        self.by_path: dict[str, str] = {}
        self._reverse: dict[str, set[str]] | None = None

    # -- construction --------------------------------------------------
    @classmethod
    def scan(cls, root: pathlib.Path = REPO_ROOT) -> "ImpactGraph":
        graph = cls()
        files: list[str] = []
        for scan_root, _prefix in SCAN_ROOTS:
            base = root / scan_root
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                files.append(path.relative_to(root).as_posix())
        if (root / "conftest.py").is_file():
            files.append("conftest.py")

        for rel_path in files:
            graph._add_file(root, rel_path)
        graph._add_conftest_edges()
        return graph

    def _add_file(self, root: pathlib.Path, rel_path: str) -> None:
        module = _module_name(rel_path)
        node = ModuleNode(module=module, path=rel_path)
        self.nodes[module] = node
        self.by_path[rel_path] = module
        try:
            source = (root / rel_path).read_text(encoding="utf-8")
            tree = ast.parse(source, filename=rel_path)
        except (OSError, SyntaxError, ValueError) as exc:
            node.parse_error = f"{type(exc).__name__}: {exc}"
            return
        node.markers = _collect_markers(tree)
        package = module if rel_path.endswith("__init__.py") else (
            module.rpartition(".")[0]
        )
        for target in self._imported_names(tree, package):
            node.imports.add(target)
        if os.path.basename(rel_path) == "conftest.py":
            _scan_conftest_fixtures(node, tree)
        elif node.path.split("/", 1)[0] in ("tests", "benchmarks"):
            node.uses_fixtures = _collect_fixture_uses(tree)
        if rel_path.endswith("__init__.py"):
            _scan_package_init(node, tree, package)

    @staticmethod
    def _imported_names(tree: ast.Module, package: str) -> Iterable[str]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
                    # A bare package import exposes every re-export via
                    # attribute access; the ".*" form expands bindings.
                    yield f"{alias.name}.*"
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: resolve against package
                    base_parts = package.split(".") if package else []
                    base_parts = base_parts[: len(base_parts) - node.level + 1]
                    base = ".".join(base_parts)
                    stem = (
                        f"{base}.{node.module}" if base and node.module
                        else (node.module or base)
                    )
                else:
                    stem = node.module or ""
                if not stem:
                    continue
                yield stem
                for alias in node.names:
                    # "from repro.obi import instance" names a module.
                    yield f"{stem}.{alias.name}"

    def _add_conftest_edges(self) -> None:
        """Fixture edges: for every fixture a test/benchmark file may
        request, depend on the modules that fixture's body touches in
        each ``conftest.py`` on the file's directory chain (closed over
        fixture-to-fixture parameters). Fixtures arrive without an
        import, so these edges cannot come from the AST import scan;
        changes to a conftest itself widen to the full suite instead.
        """
        for node in self.nodes.values():
            parts = pathlib.PurePosixPath(node.path).parts
            if parts[0] not in ("tests", "benchmarks"):
                continue
            if os.path.basename(node.path) == "conftest.py":
                continue
            chain = []
            for depth in range(1, len(parts)):
                conftest = "/".join(parts[:depth] + ("conftest.py",))
                conftest_module = self.by_path.get(conftest)
                if conftest_module:
                    chain.append(self.nodes[conftest_module])
            if not chain:
                continue
            needed = set(node.uses_fixtures)
            queue = deque(needed)
            while queue:
                fixture = queue.popleft()
                for conftest_node in chain:
                    for param in conftest_node.fixture_params.get(fixture, ()):
                        if param not in needed:
                            needed.add(param)
                            queue.append(param)
            for fixture in needed:
                for conftest_node in chain:
                    node.imports |= conftest_node.fixture_refs.get(fixture, set())

    # -- resolution ----------------------------------------------------
    def resolve(self, dotted: str, _seen: set[str] | None = None) -> set[str]:
        """Known modules a dotted import name binds.

        Includes every known package prefix (their ``__init__`` bodies
        all execute on import), and follows package re-export bindings:
        ``repro.OpenBoxController`` resolves through
        ``repro/__init__`` -> ``repro.controller`` ->
        ``repro.controller.obc``. A trailing ``*`` (star import, or a
        bare ``import package``) expands every binding of the package.
        """
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return set()
        seen.add(dotted)
        found: set[str] = set()
        parts = dotted.split(".")
        longest: tuple[str, int] | None = None
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix in self.nodes:
                found.add(prefix)
                longest = (prefix, depth)
        if longest is None:
            return found
        prefix, depth = longest
        leftover = parts[depth:]
        if not leftover:
            return found
        bindings = self.nodes[prefix].bindings
        if leftover[0] == "*":
            for target in bindings.values():
                found |= self.resolve(target, seen)
        elif leftover[0] in bindings:
            found |= self.resolve(bindings[leftover[0]], seen)
        return found

    def _reverse_edges(self) -> dict[str, set[str]]:
        if self._reverse is None:
            reverse: dict[str, set[str]] = {m: set() for m in self.nodes}
            for module, node in self.nodes.items():
                if node.pure_reexport:
                    # Weak: importers of the package are bound to the
                    # re-exported members' home modules directly, so a
                    # member change need not impact every importer.
                    continue
                for dotted in node.imports:
                    for target in self.resolve(dotted):
                        if target != module:
                            reverse[target].add(module)
            self._reverse = reverse
        return self._reverse

    def dependents(self, seeds: Iterable[str]) -> set[str]:
        """Seeds plus every module that transitively imports one."""
        reverse = self._reverse_edges()
        seen = set()
        queue = deque(module for module in seeds if module in self.nodes)
        seen.update(queue)
        while queue:
            for dependent in reverse[queue.popleft()]:
                if dependent not in seen:
                    seen.add(dependent)
                    queue.append(dependent)
        return seen

    def test_files(self, modules: Iterable[str] | None = None) -> list[str]:
        """Repo-relative test file paths among ``modules`` (all, if None)."""
        if modules is None:
            nodes: Iterable[ModuleNode] = self.nodes.values()
        else:
            nodes = (self.nodes[m] for m in modules if m in self.nodes)
        return sorted(node.path for node in nodes if node.is_test_file)

    def parse_errors(self) -> dict[str, str]:
        return {
            node.path: node.parse_error
            for node in self.nodes.values()
            if node.parse_error
        }

    def import_chain(self, from_module: str, to_modules: set[str]) -> list[str] | None:
        """Shortest forward import chain from ``from_module`` to any of
        ``to_modules`` (both ends included), or None."""
        if from_module not in self.nodes:
            return None
        parents: dict[str, str | None] = {from_module: None}
        queue = deque([from_module])
        while queue:
            module = queue.popleft()
            if module in to_modules:
                chain = [module]
                while parents[chain[-1]] is not None:
                    chain.append(parents[chain[-1]])  # type: ignore[arg-type]
                return list(reversed(chain))
            for dotted in self.nodes[module].imports:
                for target in self.resolve(dotted):
                    if target not in parents:
                        parents[target] = module
                        queue.append(target)
        return None


def widening_reason(rel_path: str, graph: ImpactGraph) -> str | None:
    """Why ``rel_path`` forces the full suite, or None if it is safely
    mappable through the import graph."""
    if os.path.basename(rel_path) == "conftest.py":
        return f"{rel_path}: conftest.py changes fixtures for a whole subtree"
    if rel_path in WIDEN_FILES:
        return f"{rel_path}: shared foundation (always full suite)"
    for prefix in WIDEN_PREFIXES:
        if rel_path.startswith(prefix):
            return f"{rel_path}: under {prefix} (blocks resolved by name)"
    if not rel_path.endswith(".py"):
        return f"{rel_path}: non-Python file (outside the import graph)"
    module = graph.by_path.get(rel_path)
    if module is None:
        return f"{rel_path}: unknown Python file (new/deleted/unscanned)"
    node = graph.nodes[module]
    if node.parse_error:
        return f"{rel_path}: unparseable ({node.parse_error})"
    return None


def select(
    changed: Iterable[str],
    root: pathlib.Path = REPO_ROOT,
    graph: ImpactGraph | None = None,
) -> Selection:
    """Map a changed-file set to the affected test files."""
    graph = graph or ImpactGraph.scan(root)
    changed = sorted({pathlib.PurePosixPath(p).as_posix() for p in changed})

    def _full(reason: str) -> Selection:
        return Selection(
            changed=changed, full=True, reason=reason,
            tests=graph.test_files(),
        )

    if not changed:
        return _full("no changed files reported; defaulting to full suite")
    errors = graph.parse_errors()
    if errors:
        first = next(iter(errors.items()))
        return _full(f"graph incomplete: {first[0]} failed to parse ({first[1]})")
    for rel_path in changed:
        reason = widening_reason(rel_path, graph)
        if reason:
            return _full(reason)

    seeds = {graph.by_path[rel_path] for rel_path in changed}
    affected = graph.dependents(seeds)
    return Selection(
        changed=changed,
        full=False,
        reason=(
            f"{len(changed)} changed file(s) -> {len(affected)} affected "
            f"module(s)"
        ),
        tests=graph.test_files(affected),
    )


def explain(
    test_file: str,
    changed: Iterable[str],
    root: pathlib.Path = REPO_ROOT,
    graph: ImpactGraph | None = None,
) -> str:
    """Human-readable justification for ``test_file``'s selection."""
    graph = graph or ImpactGraph.scan(root)
    selection = select(changed, root=root, graph=graph)
    rel = pathlib.PurePosixPath(test_file).as_posix()
    if selection.full:
        return f"{rel}: full suite selected — {selection.reason}"
    if rel not in selection.tests:
        return f"{rel}: NOT selected for {selection.changed}"
    module = graph.by_path[rel]
    seeds = {graph.by_path[path] for path in selection.changed}
    chain = graph.import_chain(module, seeds)
    if chain is None:
        return f"{rel}: selected (no single chain; via package/conftest edges)"
    hops = []
    for dotted in chain:
        suffix = " (changed)" if dotted in seeds else ""
        hops.append(f"{dotted} [{graph.nodes[dotted].path}]{suffix}")
    return f"{rel}:\n  " + "\n  -> ".join(hops)


def affects(
    changed: Iterable[str],
    targets: Iterable[str],
    root: pathlib.Path = REPO_ROOT,
    graph: ImpactGraph | None = None,
) -> dict[str, bool]:
    """Whether the changed set reaches each target.

    A target is a repo-relative path prefix (``benchmarks``,
    ``tests/integration``), a single file, or ``marker:NAME`` (any
    impacted module carrying that pytest marker). CI uses this to
    decide whether optional jobs (chaos, bench) need to run for a PR.
    Anything that widens ``select()`` to the full suite affects every
    target — the same conservative failure mode.
    """
    graph = graph or ImpactGraph.scan(root)
    targets = list(targets)
    selection = select(changed, root=root, graph=graph)
    if selection.full:
        return {target: True for target in targets}
    seeds = {graph.by_path[path] for path in selection.changed}
    impacted = [graph.nodes[module] for module in graph.dependents(seeds)]
    verdicts: dict[str, bool] = {}
    for target in targets:
        if target.startswith("marker:"):
            name = target[len("marker:"):]
            verdicts[target] = any(name in node.markers for node in impacted)
            continue
        prefix = pathlib.PurePosixPath(target).as_posix().rstrip("/")
        verdicts[target] = any(
            node.path == prefix or node.path.startswith(prefix + "/")
            for node in impacted
        )
    return verdicts


#: ``--orphans`` baseline: public API that only tests, examples and
#: benchmarks call — paper-reproduction entry points, protocol-library
#: accessors, stdlib hook methods. A ratchet: an entry leaves when its
#: code is deleted or gains a caller under ``src/`` (a stale entry fails
#: the report too); new code does not get to join.
ORPHAN_ALLOWLIST = frozenset("""
    FirewallApp.block_source RateLimiterApp.set_rate WebCacheApp.add_page
    FaultyStorage.healthy FaultyStorage.durable_size
    OpenBoxApplication.request_read OpenBoxApplication.request_stats
    LeaseStore.peek InProcLeaseStore.peek LeaseManager.is_leader
    OpenBoxController.unregister_application
    OpenBoxController.request_telemetry_rewind OpenBoxController.attribute_trace
    OptimizationReport.total_changes ReplicationHub.lag
    ScalingManager.register_group ScalingManager.group_of
    ObiStatsTracker.live_obis TrafficSteering.register_chain
    TrafficSteering.set_selector TcamMatcher.entry_count
    ProcessingGraph.iter_paths ProcessingGraph.classifiers make_http_get
    MacAddress.broadcast MacAddress.is_broadcast MacAddress.is_multicast
    Ipv4Header.src_text Ipv4Header.dst_text NshHeader.decrement_si
    TcpFlags.to_text PacketOutcome.forwarded PacketOutcome.effects_key
    HeadlessBuffer.buffered_total OpenBoxInstance.publish_telemetry
    OpenBoxInstance.observability_snapshot PacketStorageService.fetch
    PacketStorageService.purge ImportReport.rejected_total Histogram.quantile
    all_specs dynamic_port_types AddCustomModuleRequest.from_binary
    VmMeasurement.mean_path_length SimNetwork.add_multiplexer
    generate_firewall_rules generate_snort_web_rules
    ChainMeasurement.throughput_mbps ChainMeasurement.latency_us
    ChainMeasurement.latency_percentile_us measure_single
    SaturationResult.utilization_of simulate_saturation
    TrafficGenerator.overload_burst TrafficGenerator.syn_flood
    TrafficGenerator.established_flows TelemetryBus.known_obis
    FaultyChannel.partitioned _Handler.log_message _Handler.do_POST
    RetryPolicy.worst_case
""".split())


def orphans(
    root: pathlib.Path = REPO_ROOT, graph: ImpactGraph | None = None
) -> dict[str, str]:
    """Dead-code report: ``qualname -> path:line`` of every top-level
    function, class and method under ``src/repro`` whose bare name is
    mentioned nowhere else under ``src/`` (as a name, an attribute or an
    import — so something only tests call *is* an orphan). Dunders and
    console-script entry points are exempt. Read-only."""
    graph = graph or ImpactGraph.scan(root)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    scripts = set(re.findall(
        r'= "repro[\w.]*:(\w+)"',
        (root / "pyproject.toml").read_text(encoding="utf-8"),
    ))
    mentioned: set[str] = set()
    defined: dict[str, str] = {}
    for node in graph.nodes.values():
        if not node.path.startswith("src/") or node.parse_error:
            continue
        tree = ast.parse((root / node.path).read_text(encoding="utf-8"))
        for item in ast.walk(tree):
            if isinstance(item, ast.Name):
                mentioned.add(item.id)
            elif isinstance(item, ast.Attribute):
                mentioned.add(item.attr)
            elif isinstance(item, (ast.Import, ast.ImportFrom)):
                mentioned.update(a.name.rpartition(".")[2] for a in item.names)
        for item in tree.body:
            if isinstance(item, functions) and item.name not in scripts:
                defined[item.name] = f"{node.path}:{item.lineno}"
            elif isinstance(item, ast.ClassDef):
                defined[item.name] = f"{node.path}:{item.lineno}"
                for sub in item.body:
                    if isinstance(sub, functions):
                        defined[f"{item.name}.{sub.name}"] = (
                            f"{node.path}:{sub.lineno}"
                        )
    return {
        name: where for name, where in defined.items()
        if (bare := name.rpartition(".")[2]) not in mentioned
        and not bare.startswith("__")
    }


def changed_files(base: str, root: pathlib.Path = REPO_ROOT) -> list[str]:
    """Changed paths vs ``base``: merge-base diff of worktree+commits,
    plus untracked files under the scanned trees."""

    def _git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, check=True,
            capture_output=True, text=True,
        ).stdout

    try:
        merge_base = _git("merge-base", base, "HEAD").strip() or base
    except subprocess.CalledProcessError:
        merge_base = base
    diff = _git("diff", "--name-only", merge_base)
    untracked = _git("ls-files", "--others", "--exclude-standard",
                     "src", "tests", "benchmarks")
    paths = {line.strip() for line in (diff + untracked).splitlines()}
    return sorted(path for path in paths if path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.testselect",
        description="Impact-based test selection over the static import graph.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--base", metavar="REF",
                        help="git ref to diff against (merge-base aware)")
    source.add_argument("--changed", nargs="+", metavar="PATH",
                        help="explicit changed-file list (bypasses git)")
    source.add_argument("--orphans", action="store_true",
                        help="report definitions under src/repro that nothing"
                             " else under src/ references; exit 1 unless the"
                             " report equals the in-file allowlist")
    parser.add_argument("--explain", metavar="TEST_FILE",
                        help="print the import chain justifying TEST_FILE")
    parser.add_argument("--affects", nargs="+", metavar="NAME=PATHS",
                        help="gate mode: for each NAME=path[,path|marker:M...]"
                             " print NAME=true|false (job scheduling) instead"
                             " of a test selection")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the selected paths to FILE")
    parser.add_argument("--verbose", action="store_true",
                        help="print the selection reason to stderr")
    args = parser.parse_args(argv)

    graph = ImpactGraph.scan(REPO_ROOT)
    if args.orphans:
        found = orphans(graph=graph)
        for name in sorted(found, key=found.get):
            tag = "allowlisted" if name in ORPHAN_ALLOWLIST else "ORPHAN"
            print(f"{found[name]}: {name} [{tag}]")
        for name in sorted(ORPHAN_ALLOWLIST - set(found)):
            print(f"stale allowlist entry (deleted, or now referenced): {name}")
        return 0 if set(found) == ORPHAN_ALLOWLIST else 1
    changed = args.changed if args.changed else changed_files(args.base)
    if args.explain:
        print(explain(args.explain, changed, graph=graph))
        return 0
    if args.affects:
        specs = []
        for raw in args.affects:
            name, _, rest = raw.partition("=")
            specs.append((name, (rest or name).split(",")))
        flat = sorted({part for _, parts in specs for part in parts})
        verdicts = affects(changed, flat, graph=graph)
        for name, parts in specs:
            hit = any(verdicts[part] for part in parts)
            print(f"{name}={'true' if hit else 'false'}")
        return 0
    selection = select(changed, graph=graph)
    lines = selection.pytest_args()
    if args.verbose or args.out:
        total = len(graph.test_files())
        kind = "FULL SUITE" if selection.full else (
            f"{len(selection.tests)}/{total} test files"
        )
        print(f"testselect: {kind} — {selection.reason}", file=sys.stderr)
    output = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        pathlib.Path(args.out).write_text(output)
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
