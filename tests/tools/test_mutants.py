"""Seeded mutants: the tier-1 suite must kill every one.

Each entry in :data:`MUTATIONS` is a real behavioural bug confined to
one module (invert a predicate in ``obi/fastpath.py``, freeze the epoch
mint in ``controller/lease.py``, drop the ones-complement in
``net/checksum.py``, ...). For each, the full suite runs in a subprocess
against a shadow ``src/`` tree carrying the mutation (``PYTHONPATH``
shadowing — the working tree is never touched), and at least one test
file must fail: a mutant that survives is a behaviour no test checks.

Because each mutant costs a full suite run, the kill check is gated by
``OPENBOX_MUTATION``:

* unset (tier-1 default): the kill check skips; the cheap structural
  checks below still pin every spec (unique anchor).
* ``OPENBOX_MUTATION=smoke``: three representative mutants — the CI
  chaos job.
* ``OPENBOX_MUTATION=full``: all mutants — the nightly workflow and the
  local audit (each run rewrites ``benchmarks/results/mutation_audit.txt``).
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

if os.environ.get("OPENBOX_MUTATION_INNER"):
    pytest.skip(
        "inner mutation run: the harness must not recurse",
        allow_module_level=True,
    )

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "mutation_audit.txt"


@dataclasses.dataclass(frozen=True)
class Mutation:
    """One seeded single-module breakage."""

    key: str
    target: str        # repo-relative path of the mutated module
    old: str           # unique anchor in the current source
    new: str           # the breakage
    breaks: str        # what observable behaviour it corrupts


MUTATIONS = (
    Mutation(
        "fastpath-lookup-miss", "src/repro/obi/fastpath.py",
        "        return self._entries.get(key)",
        "        return None",
        "flow-decision cache lookups always miss (inverted hit path)",
    ),
    Mutation(
        "lease-epoch-frozen", "src/repro/controller/lease.py",
        "self._epoch += 1",
        "self._epoch += 0",
        "lease store mints non-monotonic epochs; fencing collapses",
    ),
    Mutation(
        "checksum-complement-dropped", "src/repro/net/checksum.py",
        "return (~total) & 0xFFFF",
        "return total & 0xFFFF",
        "internet checksum loses its ones-complement",
    ),
    Mutation(
        "firewall-alert-deny-swapped", "src/repro/apps/firewall.py",
        "port = self.PORT_ALERT if self.alert_only else self.PORT_DENY",
        "port = self.PORT_DENY if self.alert_only else self.PORT_ALERT",
        "alert-only firewalls drop; enforcing firewalls only alert",
    ),
    Mutation(
        "rehome-adopts-nobody", "src/repro/obi/instance.py",
        "if not (isinstance(response, HelloResponse) and response.ok):",
        "if (isinstance(response, HelloResponse) and response.ok):",
        "OBI re-homing skips every live controller (inverted predicate)",
    ),
    Mutation(
        "retry-single-attempt", "src/repro/transport/retry.py",
        "for attempt in range(self.policy.max_attempts):",
        "for attempt in range(1):",
        "resilient channel never retries",
    ),
    Mutation(
        "counter-never-increments", "src/repro/observability/metrics.py",
        "self.value += amount",
        "self.value += 0",
        "metric counters stay at zero",
    ),
    Mutation(
        "codec-wrong-major-version", "src/repro/protocol/codec.py",
        'envelope = {"version": PROTOCOL_VERSION, "message": message.to_dict()}',
        'envelope = {"version": "9.0.0", "message": message.to_dict()}',
        "every encoded message claims a major version peers must reject",
    ),
    Mutation(
        "flowstate-pressure-inverted", "src/repro/obi/flowstate.py",
        "return self.occupancy >= self.policy.pressure_watermark",
        "return self.occupancy < self.policy.pressure_watermark",
        "exhaustion defense engages only when the table is empty",
    ),
    Mutation(
        "telemetry-ring-capacity-doubled", "src/repro/telemetry/ring.py",
        "if len(self._entries) >= self.capacity:",
        "if len(self._entries) >= self.capacity * 2:",
        "telemetry/headless ring ignores its configured capacity",
    ),
    Mutation(
        "journal-autoflush-disabled", "src/repro/controller/journal.py",
        "if self._unsynced >= self.fsync_every:",
        "if self._unsynced >= self.fsync_every + 10**9:",
        "WAL never reaches stable storage on its own",
    ),
    Mutation(
        "classifier-port-zeroed", "src/repro/obi/elements/classifiers.py",
        "port = self._matcher.match(packet)",
        "port = self._matcher.match(packet) * 0",
        "header classification always takes port 0",
    ),
    Mutation(
        "takeover-fence-inverted", "src/repro/controller/replication.py",
        "if lease.epoch < self.highest_epoch:",
        "if lease.epoch > self.highest_epoch:",
        "standby refuses fresh leases and accepts stale ones",
    ),
    Mutation(
        "http-delimiter-corrupted", "src/repro/net/http.py",
        'head, sep, body = payload.partition(b"\\r\\n\\r\\n")',
        'head, sep, body = payload.partition(b"\\n\\r\\r\\n")',
        "HTTP head/body split never matches real requests",
    ),
    Mutation(
        "traffic-http-port-shifted", "src/repro/sim/traffic.py",
        'kind, dst_port = "http", 80',
        'kind, dst_port = "http", 81',
        "generated traces lose their HTTP-dominant port mix",
    ),
    Mutation(
        "merge-dedup-disabled", "src/repro/core/merge.py",
        "merged = deduplicate(tree) if policy.deduplicate else tree",
        "merged = tree",
        "merged graphs keep duplicate subtrees",
    ),
)

#: Representative subset for the per-PR CI run: a data-path cache
#: (fastpath), a control-plane fence (lease) and the shared merge (core/).
SMOKE_KEYS = frozenset({
    "fastpath-lookup-miss", "lease-epoch-frozen", "merge-dedup-disabled",
})

_FAIL_LINE = re.compile(r"^(?:FAILED|ERROR)\s+(tests/[^:\s]+)")


# ----------------------------------------------------------------------
# Structural checks — always on, cheap, no subprocess.
# ----------------------------------------------------------------------
class TestMutationSpecs:
    @pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.key)
    def test_anchor_is_unique_in_target(self, mutation):
        source = (REPO_ROOT / mutation.target).read_text(encoding="utf-8")
        assert source.count(mutation.old) == 1, (
            f"{mutation.key}: anchor must match exactly once in "
            f"{mutation.target} so the seeded breakage stays single-module"
        )
        assert mutation.new != mutation.old

    def test_mutations_cover_many_packages(self):
        packages = {m.target.split("/")[2] for m in MUTATIONS}
        assert len(packages) >= 8, packages

    def test_smoke_subset_exists(self):
        assert SMOKE_KEYS <= {m.key for m in MUTATIONS}


# ----------------------------------------------------------------------
# Kill check — full-suite subprocess per mutation, gated.
# ----------------------------------------------------------------------
def _mutated_src_tree(mutation: Mutation, tmp_path: pathlib.Path) -> pathlib.Path:
    shadow = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", shadow)
    target = shadow / pathlib.PurePosixPath(mutation.target).relative_to("src")
    source = target.read_text(encoding="utf-8")
    assert source.count(mutation.old) == 1
    target.write_text(source.replace(mutation.old, mutation.new),
                      encoding="utf-8")
    return shadow


def _full_run_failing_files(shadow_src: pathlib.Path) -> set[str]:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(shadow_src)          # shadow the real src/
    env["OPENBOX_MUTATION_INNER"] = "1"          # no recursion
    env.pop("OPENBOX_MUTATION", None)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
            "-p", "no:cacheprovider", "--continue-on-collection-errors",
            "tests",
        ],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=1800, env=env,
    )
    # 0 = all passed, 1 = test failures, 2 = collection errors; anything
    # else means the run itself broke (usage error, interrupted, ...).
    assert proc.returncode in (0, 1, 2), proc.stdout[-4000:] + proc.stderr[-4000:]
    failing = set()
    for line in proc.stdout.splitlines():
        match = _FAIL_LINE.match(line.strip())
        if match:
            failing.add(match.group(1).split("::")[0])
    return failing


AUDIT_HEADER = ("mutation audit: the full suite kills every seeded "
                "single-module breakage")
_audit_started = False


def _audit(line: str) -> None:
    """Record one mutant's verdict. The first call of a session starts
    the file afresh, so the audit holds exactly one run."""
    global _audit_started
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    with RESULTS_PATH.open("a" if _audit_started else "w",
                           encoding="utf-8") as fh:
        if not _audit_started:
            fh.write(AUDIT_HEADER + "\n")
        fh.write(line + "\n")
    _audit_started = True


def test_audit_holds_one_session(tmp_path, monkeypatch):
    module = sys.modules[__name__]
    path = tmp_path / "mutation_audit.txt"
    path.write_text(AUDIT_HEADER + "\nstale: from an earlier run\n")
    monkeypatch.setattr(module, "RESULTS_PATH", path)
    monkeypatch.setattr(module, "_audit_started", False)
    _audit("a: 1 failing file(s): x")
    _audit("b: 1 failing file(s): y")
    assert path.read_text().splitlines() == [
        AUDIT_HEADER, "a: 1 failing file(s): x", "b: 1 failing file(s): y",
    ]


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.key)
def test_seeded_mutant_is_killed(mutation, tmp_path):
    mode = os.environ.get("OPENBOX_MUTATION")
    if not mode:
        pytest.skip(
            "full-suite-per-mutation kill check; set "
            "OPENBOX_MUTATION=smoke|full to run (CI chaos job / nightly)"
        )
    if mode != "full" and mutation.key not in SMOKE_KEYS:
        pytest.skip(f"{mutation.key} runs only under OPENBOX_MUTATION=full")

    shadow = _mutated_src_tree(mutation, tmp_path)
    failing = sorted(_full_run_failing_files(shadow))
    _audit(
        f"{mutation.key}: {len(failing)} failing file(s): "
        f"{', '.join(failing) or 'none'}"
    )
    assert failing, (
        f"{mutation.key}: seeded breakage ({mutation.breaks}) killed no "
        f"tests — no test checks this behaviour"
    )
