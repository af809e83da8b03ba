"""simlint fixture tests: every rule must fire on a minimal bad snippet
and stay quiet on the corresponding good one, suppression comments must
silence exactly the named rule, and the host-side allowlist must exempt
orchestration code from the determinism rules.

The whole-program rules (SIM012/SIM013) additionally get cross-module
fixtures spanning two files, the asyncio rules (SIM014–SIM016) get
known-race/known-clean shapes lifted from ``repro.live``, and the
runner machinery — structured SIM000 analysis errors, file discovery,
SARIF output and its fingerprints — is tested directly.  A fixture tree
spanning every scope pins the exact text and SARIF reports.

The final test is the repo gate: ``src`` and ``tests`` must lint clean,
which is what keeps ``python -m repro lint src tests`` exiting 0 in CI.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    classify,
    lint_paths,
    lint_source,
    suppressed_rules,
)
from repro.lint.runner import main as lint_main
from repro.lint.rules import parse_rule_list

SIM_PATH = "src/repro/sim/fixture.py"
NET_PATH = "src/repro/net/fixture.py"
LIVE_PATH = "src/repro/live/fixture.py"
GENERAL_PATH = "tests/fixture.py"
HOST_PATH = "src/repro/runner/fixture.py"

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_in(source: str, path: str = SIM_PATH):
    return [f.rule for f in lint_source(source, path)]


# ----------------------------------------------------------------------
# One bad + one good fixture per rule
# ----------------------------------------------------------------------
BAD_FIXTURES = {
    "SIM000": "def f(:\n",
    "SIM001": "import time\n\ndef now():\n    return time.time()\n",
    "SIM002": "import random\n\ndef draw():\n    return random.random()\n",
    "SIM003": (
        "def stale(tag, head_tag):\n"
        "    return tag == head_tag\n"
    ),
    "SIM004": (
        "def kick(sim, hosts):\n"
        "    for h in set(hosts):\n"
        "        sim.schedule(1, h.start)\n"
    ),
    "SIM005": "def collect(acc=[]):\n    return acc\n",
    "SIM006": "import random\n\n_RNG = random.Random(0)\n",
    "SIM007": (
        "def finish(sim, cleanup):\n"
        "    sim.stop()\n"
        "    sim.post(0, cleanup)\n"
    ),
    "SIM008": "def run_point(point):\n    return {}\n",
    "SIM009": (
        "def on_deliver(pkt):\n"
        "    print('delivered', pkt.serial)\n"
    ),
    "SIM010": (
        "class Port:\n"
        "    def on_deliver(self, pkt):\n"
        "        self.delivered.append(pkt)\n"
    ),
    "SIM011": (
        "class Port:\n"
        "    def lookup(self, size):\n"
        "        self._tx_cache[size] = self.compute(size)\n"
    ),
    # The helper (not the caller) reads the wall clock; per-module
    # visitors cannot connect the two — the whole-program pass can.
    "SIM012": (
        "import time\n\n"
        "def stamp():\n"
        "    return time.time()\n\n"
        "class Kernel:\n"
        "    def start(self):\n"
        "        self.t0 = stamp()\n"
    ),
    "SIM013": (
        "import random\n\n"
        "def draw():\n"
        "    rng = random.Random()\n"
        "    return rng.random()\n"
    ),
    "SIM014": (
        "import time\n\n"
        "async def pump():\n"
        "    time.sleep(0.1)\n"
    ),
    "SIM015": (
        "class Counter:\n"
        "    async def bump(self):\n"
        "        current = self._total\n"
        "        await self._flush()\n"
        "        self._total = current + 1\n"
    ),
    "SIM016": (
        "async def work():\n"
        "    return 1\n\n"
        "async def main():\n"
        "    work()\n"
    ),
}

GOOD_FIXTURES = {
    "SIM000": "def f():\n    return 1\n",
    "SIM001": (
        "def now(sim):\n"
        "    return sim.now\n"
    ),
    "SIM002": (
        "from repro.sim.rng import make_rng\n\n"
        "def draw(seed):\n"
        "    return make_rng(seed).random()\n"
    ),
    "SIM003": (
        "def stale(tag_queue, serial):\n"
        "    return tag_queue[0][1] != serial\n"
    ),
    "SIM004": (
        "def kick(sim, hosts):\n"
        "    for h in sorted(set(hosts)):\n"
        "        sim.schedule(1, h.start)\n"
    ),
    "SIM005": (
        "def collect(acc=None):\n"
        "    return [] if acc is None else acc\n"
    ),
    "SIM006": (
        "import random\n\n"
        "def fresh(seed):\n"
        "    return random.Random(seed)\n"
    ),
    "SIM007": (
        "def finish(sim, cleanup):\n"
        "    sim.post(0, cleanup)\n"
        "    sim.stop()\n"
    ),
    "SIM008": "def run_point(point, seed):\n    return {}\n",
    "SIM009": (
        "def on_deliver(pkt, tracer):\n"
        "    tracer.on_enqueue('nic0', pkt, 0)\n"
    ),
    # enqueue/dequeue are exempt: appending to the managed queue is the job.
    "SIM010": (
        "class Port:\n"
        "    def enqueue(self, pkt):\n"
        "        self._queue.append(pkt)\n"
    ),
    # A len() bound plus clear-on-full is the canonical bounded memo.
    "SIM011": (
        "class Port:\n"
        "    def lookup(self, size):\n"
        "        if len(self._tx_cache) >= 256:\n"
        "            self._tx_cache.clear()\n"
        "        self._tx_cache[size] = self.compute(size)\n"
    ),
    # Injected-clock calls are unresolvable by design: the injection
    # site, not the protocol call, is where taint is policed.
    "SIM012": (
        "class Kernel:\n"
        "    def __init__(self, clock):\n"
        "        self._clock = clock\n"
        "    def tick(self):\n"
        "        return self._clock.now_ns()\n"
    ),
    "SIM013": (
        "import random\n\n"
        "def draw(seed):\n"
        "    rng = random.Random(seed)\n"
        "    return rng.random()\n"
    ),
    "SIM014": (
        "import asyncio\n\n"
        "async def pump():\n"
        "    await asyncio.sleep(0.1)\n"
    ),
    # Holding a lock across the await clears the race.
    "SIM015": (
        "class Counter:\n"
        "    async def bump(self):\n"
        "        async with self._lock:\n"
        "            current = self._total\n"
        "            await self._flush()\n"
        "            self._total = current + 1\n"
    ),
    "SIM016": (
        "async def work():\n"
        "    return 1\n\n"
        "async def main():\n"
        "    await work()\n"
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_bad_fixture_fires(rule):
    assert rule in rules_in(BAD_FIXTURES[rule]), f"{rule} must fire"


@pytest.mark.parametrize("rule", sorted(RULES))
def test_good_fixture_clean(rule):
    assert rule not in rules_in(GOOD_FIXTURES[rule]), f"{rule} false positive"


# ----------------------------------------------------------------------
# Rule-specific behavior beyond the minimal fixtures
# ----------------------------------------------------------------------
def test_sim001_resolves_from_imports_and_datetime():
    assert rules_in(
        "from time import perf_counter\n\ndef f():\n    return perf_counter()\n"
    ) == ["SIM001"]
    assert rules_in(
        "from datetime import datetime\n\ndef f():\n    return datetime.now()\n"
    ) == ["SIM001"]


def test_sim002_allows_seeded_instances():
    source = (
        "import random\n\n"
        "def f(seed):\n"
        "    rng = random.Random(seed)\n"
        "    return rng.random()\n"
    )
    assert rules_in(source) == []


def test_sim003_matches_attribute_and_subscript_tags():
    source = (
        "class W:\n"
        "    def f(self, qos, t):\n"
        "        return self._last_finish[qos] == t\n"
    )
    assert rules_in(source, NET_PATH) == ["SIM003"]
    # Ordering comparisons on tags are the intended idiom — never flagged.
    assert rules_in("def f(tag, vt):\n    return tag > vt\n") == []


def test_sim004_requires_scheduling_in_body():
    benign = "def f(hosts):\n    for h in set(hosts):\n        h.reset()\n"
    assert rules_in(benign) == []
    keys = (
        "def f(sim, d):\n"
        "    for k in d.keys():\n"
        "        sim.post(0, k)\n"
    )
    assert rules_in(keys) == ["SIM004"]


def test_post_run_counts_as_scheduling():
    # A pre-sorted run queues events like any other scheduling call.
    unordered = (
        "def f(sim, hosts):\n"
        "    for h in set(hosts):\n"
        "        sim.post_run(h.start, [(0, ()), (5, ())])\n"
    )
    assert rules_in(unordered) == ["SIM004"]
    assert rules_in(unordered.replace("set(hosts)", "sorted(set(hosts))")) == []
    after_stop = (
        "def finish(sim, cleanup):\n"
        "    sim.stop()\n"
        "    sim.post_run(cleanup, [(0, ())])\n"
    )
    assert rules_in(after_stop) == ["SIM007"]


def test_sim006_flags_substream_at_module_scope():
    source = "from repro.sim.rng import substream\n\nR = substream(0, 'x')\n"
    assert rules_in(source) == ["SIM006"]


def test_sim008_accepts_keyword_only_seed():
    source = "def run_point(point, *, seed):\n    return {}\n"
    assert rules_in(source) == []


def test_sim009_only_flags_the_builtin_in_sim_domain():
    # A method named print on some object is not console I/O.
    assert rules_in("def f(doc):\n    doc.print()\n") == []
    # Sim-domain only: general and host code may print freely.
    assert rules_in(BAD_FIXTURES["SIM009"], GENERAL_PATH) == []
    assert "SIM009" in rules_in(BAD_FIXTURES["SIM009"], NET_PATH)


def test_sim010_scoping_and_shapes():
    bad = BAD_FIXTURES["SIM010"]
    # Sim-domain only: the observability layer and tests retain on purpose.
    assert rules_in(bad, GENERAL_PATH) == []
    assert rules_in(bad, HOST_PATH) == []
    assert "SIM010" in rules_in(bad, NET_PATH)
    # extend() is accumulation too, and record_* counts as per-event.
    ext = (
        "class S:\n"
        "    def record_sample(self, xs):\n"
        "        self._samples.extend(xs)\n"
    )
    assert rules_in(ext) == ["SIM010"]
    # Local lists and non-handler methods are fine.
    local = (
        "class S:\n"
        "    def on_ack(self, x):\n"
        "        out = []\n"
        "        out.append(x)\n"
        "        return out\n"
    )
    assert rules_in(local) == []
    rebuild = (
        "class S:\n"
        "    def rebuild(self, x):\n"
        "        self._items.append(x)\n"
    )
    assert rules_in(rebuild) == []


def test_sim011_scoping_aliases_and_bounds():
    bad = BAD_FIXTURES["SIM011"]
    # Sim-domain only: host tools and tests may memoize freely.
    assert rules_in(bad, GENERAL_PATH) == []
    assert rules_in(bad, HOST_PATH) == []
    assert "SIM011" in rules_in(bad, NET_PATH)
    # A local alias of the cache attribute is followed, both for the
    # store and for the eviction evidence.
    aliased_bad = (
        "class Port:\n"
        "    def lookup(self, size):\n"
        "        cache = self._ser_cache\n"
        "        tx = cache.get(size)\n"
        "        if tx is None:\n"
        "            tx = cache[size] = self.compute(size)\n"
        "        return tx\n"
    )
    assert rules_in(aliased_bad, NET_PATH) == ["SIM011"]
    aliased_good = (
        "class Port:\n"
        "    def lookup(self, size):\n"
        "        cache = self._ser_cache\n"
        "        tx = cache.get(size)\n"
        "        if tx is None:\n"
        "            tx = self.compute(size)\n"
        "            if len(cache) >= 256:\n"
        "                cache.clear()\n"
        "            cache[size] = tx\n"
        "        return tx\n"
    )
    assert rules_in(aliased_good, NET_PATH) == []
    # del-based eviction and whole-table rebuilds both count as bounds.
    del_good = (
        "class Port:\n"
        "    def lookup(self, k):\n"
        "        self._memo[k] = self.compute(k)\n"
        "        del self._memo[next(iter(self._memo))]\n"
    )
    assert rules_in(del_good, NET_PATH) == []
    rebuild_good = (
        "class Port:\n"
        "    def lookup(self, k):\n"
        "        self._memo = {}\n"
        "        self._memo[k] = self.compute(k)\n"
    )
    assert rules_in(rebuild_good, NET_PATH) == []
    # Non-cache-named dicts are out of scope for this heuristic.
    other = (
        "class Port:\n"
        "    def lookup(self, k):\n"
        "        self._routes[k] = self.compute(k)\n"
    )
    assert rules_in(other, NET_PATH) == []
    # Eviction in a *different* method does not excuse the store.
    split = (
        "class Port:\n"
        "    def lookup(self, k):\n"
        "        self._memo[k] = self.compute(k)\n"
        "    def reset(self):\n"
        "        self._memo.clear()\n"
    )
    assert rules_in(split, NET_PATH) == ["SIM011"]


# ----------------------------------------------------------------------
# SIM012/SIM013: whole-program taint
# ----------------------------------------------------------------------
def _make_sim_package(tmp_path):
    """A ``repro/sim`` package rooted at a tmp dir (classified "sim")."""
    package = tmp_path / "repro" / "sim"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    return package


def test_sim012_cross_module_taint(tmp_path):
    (tmp_path / "helpers.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    package = _make_sim_package(tmp_path)
    (package / "kernel.py").write_text(
        "from helpers import stamp\n\n\n"
        "class Kernel:\n"
        "    def start(self):\n"
        "        self.t0 = stamp()\n"
    )
    findings = lint_paths([str(tmp_path)])
    assert "SIM000" not in {f.rule for f in findings}
    sim012 = [f for f in findings if f.rule == "SIM012"]
    assert sim012, "cross-module wall-clock taint must fire"
    assert all(f.path.endswith("kernel.py") for f in sim012)
    # The provenance names the tainted helper in the message.
    assert any("helpers.stamp" in f.message for f in sim012)


def test_sim012_tainted_argument_crossing_into_sim(tmp_path):
    package = _make_sim_package(tmp_path)
    (package / "engine.py").write_text(
        "class Engine:\n"
        "    def __init__(self, t0):\n"
        "        self.t0 = t0\n\n\n"
        "def make(t0):\n"
        "    return Engine(t0)\n"
    )
    (tmp_path / "driver.py").write_text(
        "import time\n\n"
        "from repro.sim.engine import make\n\n\n"
        "def main():\n"
        "    t = time.time()\n"
        "    return make(t)\n"
    )
    findings = lint_paths([str(tmp_path)])
    assert "SIM000" not in {f.rule for f in findings}
    sim012 = [f for f in findings if f.rule == "SIM012"]
    # The finding lands at the boundary crossing in the *driver*, even
    # though the driver itself is host-side code free to read clocks.
    assert sim012 and all(f.path.endswith("driver.py") for f in sim012)


def test_sim012_wall_clock_backed_class_handle():
    source = (
        "import time\n\n"
        "class WallClock:\n"
        "    def now_ns(self):\n"
        "        return time.time_ns()\n\n"
        "class Kernel:\n"
        "    def start(self):\n"
        "        self._clock = WallClock()\n"
    )
    assert "SIM012" in rules_in(source)


def test_sim012_does_not_target_live(tmp_path):
    # repro/live is wall-clock by design: helpers returning OS time are
    # its job (SIM001 polices the raw reads via clock.py suppressions).
    source = (
        "import time\n\n"
        "def stamp():\n"
        "    return time.time()  # simlint: ignore[SIM001]\n\n"
        "def log_now():\n"
        "    return stamp()\n"
    )
    assert "SIM012" not in rules_in(source, LIVE_PATH)


def test_sim013_through_helper_and_threaded_seed():
    bad = (
        "import random\n\n"
        "def fresh():\n"
        "    return random.Random(1234)\n\n"
        "def draw():\n"
        "    rng = fresh()\n"
        "    return rng.random()\n"
    )
    # Fires at the constant-seed construction and at the helper call.
    assert rules_in(bad).count("SIM013") >= 2
    good = (
        "import random\n\n"
        "def fresh(seed):\n"
        "    return random.Random(seed)\n\n"
        "def draw(seed):\n"
        "    rng = fresh(seed)\n"
        "    return rng.random()\n"
    )
    assert "SIM013" not in rules_in(good)


def test_sim013_system_random_and_scope():
    bad = (
        "import random\n\n"
        "def draw():\n"
        "    return random.SystemRandom().random()\n"
    )
    assert "SIM013" in rules_in(bad)
    # General code (tests, experiments) may build fixed-seed RNGs.
    assert "SIM013" not in rules_in(BAD_FIXTURES["SIM013"], GENERAL_PATH)


# ----------------------------------------------------------------------
# SIM014–SIM016: asyncio rules
# ----------------------------------------------------------------------
def test_sim014_blocking_shapes():
    file_io = (
        "import pathlib\n\n"
        "async def load(p):\n"
        "    return pathlib.Path(p).read_text()\n"
    )
    assert "SIM014" in rules_in(file_io)
    subprocess_run = (
        "import subprocess\n\n"
        "async def shell(cmd):\n"
        "    return subprocess.run(cmd)\n"
    )
    assert "SIM014" in rules_in(subprocess_run)
    # Blocking calls in *sync* functions are not this rule's business.
    sync = "import time\n\ndef pause():\n    time.sleep(1)\n"
    assert "SIM014" not in rules_in(sync)


def test_sim015_known_race_and_known_clean_shapes():
    # The exact shape of the AdmissionClient.aclose race this rule
    # caught in repro/live: read the task handle, await its cancel,
    # write the handle back — all without a lock.
    race = (
        "class Client:\n"
        "    async def aclose(self):\n"
        "        if self._task is not None:\n"
        "            self._task.cancel()\n"
        "            await self._task\n"
        "            self._task = None\n"
    )
    assert "SIM015" in rules_in(race, LIVE_PATH)
    # The fix idiom: swap the handle out atomically, then await.
    swap = (
        "class Client:\n"
        "    async def aclose(self):\n"
        "        task, self._task = self._task, None\n"
        "        if task is not None:\n"
        "            task.cancel()\n"
        "            await task\n"
    )
    assert "SIM015" not in rules_in(swap, LIVE_PATH)
    # Read-modify-write in one statement never straddles an await.
    atomic = (
        "class Counter:\n"
        "    async def bump(self):\n"
        "        await self._flush()\n"
        "        self._total += 1\n"
    )
    assert "SIM015" not in rules_in(atomic, LIVE_PATH)
    # Method calls on shared state are uses, not stale reads.
    queue_use = (
        "class Server:\n"
        "    async def drain(self):\n"
        "        self._queue.popleft()\n"
        "        await self._work_ready.wait()\n"
        "        self._queue = None\n"
    )
    assert "SIM015" not in rules_in(queue_use, LIVE_PATH)


def test_sim016_discarded_task_handle():
    discarded = (
        "import asyncio\n\n"
        "async def go(coro):\n"
        "    asyncio.create_task(coro)\n"
    )
    assert "SIM016" in rules_in(discarded)
    stored = (
        "import asyncio\n\n"
        "async def go(coro):\n"
        "    task = asyncio.create_task(coro)\n"
        "    return task\n"
    )
    assert "SIM016" not in rules_in(stored)
    # Un-awaited self-method coroutines fire too.
    method = (
        "class S:\n"
        "    async def pump(self):\n"
        "        return 1\n"
        "    async def run(self):\n"
        "        self.pump()\n"
    )
    assert "SIM016" in rules_in(method)


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
def test_per_line_suppression_silences_named_rule():
    source = (
        "import time\n\n"
        "def now():\n"
        "    return time.time()  # simlint: ignore[SIM001]\n"
    )
    assert rules_in(source) == []


def test_suppression_of_other_rule_keeps_finding():
    source = (
        "import time\n\n"
        "def now():\n"
        "    return time.time()  # simlint: ignore[SIM005]\n"
    )
    assert rules_in(source) == ["SIM001"]


def test_bare_suppression_silences_every_rule_on_line():
    source = "def collect(acc=[]):  # simlint: ignore\n    return acc\n"
    assert rules_in(source, GENERAL_PATH) == []


def test_suppression_accepts_multiple_rules():
    source = (
        "import time\n\n"
        "def now(acc=[]):  # simlint: ignore[SIM005]\n"
        "    return time.time()  # simlint: ignore[SIM001, SIM002]\n"
    )
    assert rules_in(source) == []


def test_suppressed_rules_parse():
    # No comment -> empty set; bare ignore -> None (everything).
    assert suppressed_rules("x = 1") == set()
    assert suppressed_rules("x = 1  # simlint: ignore") is None
    # One or more comma-separated ids, whitespace-tolerant,
    # case-normalized.
    assert suppressed_rules("x  # simlint: ignore[SIM010,SIM011]") == {
        "SIM010",
        "SIM011",
    }
    assert suppressed_rules("x  # simlint: ignore[SIM001, SIM005]") == {
        "SIM001",
        "SIM005",
    }
    assert suppressed_rules("# simlint: ignore[sim003]") == {"SIM003"}


# ----------------------------------------------------------------------
# Scoping: sim-domain vs host-side allowlist vs general code
# ----------------------------------------------------------------------
def test_classify_paths():
    assert classify("src/repro/net/queues.py") == "sim"
    assert classify("src/repro/runner/pool.py") == "host"
    assert classify("src/repro/cli.py") == "host"
    assert classify("src/repro/lint/runner.py") == "host"
    assert classify("tests/test_lint.py") == "general"
    assert classify("src/repro/experiments/fig08.py") == "general"


def test_host_allowlist_exempts_wall_clock_and_global_random():
    assert rules_in(BAD_FIXTURES["SIM001"], HOST_PATH) == []
    assert rules_in(BAD_FIXTURES["SIM002"], HOST_PATH) == []
    assert rules_in(BAD_FIXTURES["SIM006"], HOST_PATH) == []
    assert rules_in(BAD_FIXTURES["SIM009"], HOST_PATH) == []
    # ...but generic bug rules still apply to host code.
    assert rules_in(BAD_FIXTURES["SIM005"], HOST_PATH) == ["SIM005"]


def test_wall_clock_not_flagged_outside_sim_domain():
    # SIM001 is sim-domain-only: experiments and tests may time things.
    assert rules_in(BAD_FIXTURES["SIM001"], GENERAL_PATH) == []
    # SIM002 still applies outside the sim domain (unseeded randomness
    # in an experiment breaks sweep reproducibility all the same).
    assert rules_in(BAD_FIXTURES["SIM002"], GENERAL_PATH) == ["SIM002"]


# ----------------------------------------------------------------------
# SIM000: analysis errors are findings, not crashes
# ----------------------------------------------------------------------
def test_syntax_error_is_structured_finding(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    (tmp_path / "ok.py").write_text(
        "import random\n\n\ndef f():\n    return random.random()\n"
    )
    findings = lint_paths([str(tmp_path)])
    assert [f.rule for f in findings] == ["SIM000", "SIM002"]
    finding = findings[0]
    assert finding.path.endswith("broken.py")
    assert finding.line == 1
    assert "syntax error" in finding.message
    # The broken file did not abort the run: ok.py was analyzed too.
    assert findings[1].path.endswith("ok.py")


def test_lint_source_returns_sim000_for_syntax_errors():
    findings = lint_source("def f(:\n", GENERAL_PATH)
    assert [f.rule for f in findings] == ["SIM000"]


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------
def test_file_named_by_two_paths_is_reported_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = tmp_path / "code"
    code.mkdir()
    (code / "x.py").write_text(
        "import random\n\n\ndef f():\n    return random.random()\n"
    )
    findings = lint_paths(["code", str(code / "x.py"), str(code / ".." / "code")])
    # One finding, under the first spelling that reached the file.
    assert [(f.path, f.rule) for f in findings] == [("code/x.py", "SIM002")]


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
def test_sarif_document_shape(tmp_path):
    code = tmp_path / "code"
    code.mkdir()
    (code / "x.py").write_text(
        "import random\n\n\ndef f():\n    return random.random()\n"
    )
    out = tmp_path / "lint.sarif"
    exit_code = lint_main(
        [str(code), "--format", "sarif", "--output", str(out)]
    )
    assert exit_code == 1  # findings still gate via the exit code

    document = json.loads(out.read_text())
    assert document["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in document["$schema"]
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "simlint"
    assert driver["version"]
    assert set(RULES) <= {rule["id"] for rule in driver["rules"]}
    result = run["results"][0]
    assert result["ruleId"] == "SIM002"
    assert result["level"] == "warning"
    assert result["message"]["text"]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("x.py")
    assert location["region"]["startLine"] == 5
    assert location["region"]["startColumn"] >= 1
    assert result["partialFingerprints"]["simlintFingerprint/v1"]


def test_sarif_includes_analysis_errors_as_errors(tmp_path):
    code = tmp_path / "code"
    code.mkdir()
    (code / "broken.py").write_text("def f(:\n")
    out = tmp_path / "lint.sarif"
    exit_code = lint_main(
        [str(code), "--format", "sarif", "--output", str(out)]
    )
    assert exit_code == 2
    results = json.loads(out.read_text())["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["SIM000"]
    assert results[0]["level"] == "error"


def test_sarif_fingerprint_survives_line_drift(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "legacy.py"
    body = "import random\n\n\ndef f():\n    return random.random()\n"

    def sarif_result():
        assert lint_main(["legacy.py", "--format", "sarif", "--output", "x"]) == 1
        (result,) = json.loads((tmp_path / "x").read_text())["runs"][0]["results"]
        region = result["locations"][0]["physicalLocation"]["region"]
        return region["startLine"], result["partialFingerprints"]

    target.write_text(body)
    line, fingerprint = sarif_result()
    # Lines inserted above the finding move it, not its fingerprint.
    target.write_text("# a comment\n# another\n" + body)
    assert sarif_result() == (line + 2, fingerprint)


# ----------------------------------------------------------------------
# Golden report: a fixture tree spanning every scope, pinned literally
# ----------------------------------------------------------------------
GOLDEN_TREE = {
    "broken.py": "def f(:\n",
    "clocks.py": "import time\n\n\ndef wall():\n    return time.time()\n",
    "exp/study.py": "import random\n\n\ndef draw():\n    return random.random()\n",
    "repro/runner/pool.py": (
        "import random\n\n\ndef pick(xs=[]):\n    return random.choice(xs)\n"
    ),
    "repro/sim/kernel.py": (
        "import time\n\n\n"
        "def now(acc=[]):\n"
        "    return time.time()\n\n\n"
        "def stamp():\n"
        "    return time.monotonic()  # simlint: ignore[SIM001]\n\n\n"
        "async def nap():\n"
        "    time.sleep(1)\n\n\n"
        "from clocks import wall\n\n\n"
        "class Kernel:\n"
        "    def start(self):\n"
        "        self.t0 = wall()\n"
        "        self.t1 = wall()  # simlint: ignore[SIM012]\n"
    ),
}

GOLDEN_STDOUT = """\
tree/exp/study.py:5:12: SIM002 module-level `random.random()` draws from the process-global RNG — use a seeded stream from `repro.sim.rng` (make_rng/substream) instead
tree/repro/runner/pool.py:4:13: SIM005 mutable default argument is shared across calls — default to None and allocate inside the function
tree/repro/sim/kernel.py:4:13: SIM005 mutable default argument is shared across calls — default to None and allocate inside the function
tree/repro/sim/kernel.py:5:12: SIM001 wall-clock call `time.time` — simulator code must take time from `Simulator.now` (integer virtual nanoseconds)
tree/repro/sim/kernel.py:13:5: SIM014 blocking call `time.sleep` inside `async def nap` stalls the whole event loop — use `await asyncio.sleep(...)`
tree/repro/sim/kernel.py:21:19: SIM012 call to `clocks.wall` brings wall-clock time into simulator-domain code: it reads `time.time` (tree/clocks.py:5) — thread the value through `Simulator.now` or inject a ClockSource at the boundary instead
"""

GOLDEN_STDERR = "tree/broken.py:1:7: SIM000 syntax error: invalid syntax\n"

#: (ruleId, uri, line, column, partialFingerprints value) per SARIF result.
GOLDEN_SARIF_RESULTS = [
    ("SIM000", "tree/broken.py", 1, 7, "dc190a5b8fb67609"),
    ("SIM002", "tree/exp/study.py", 5, 12, "020b60a7dcc2c365"),
    ("SIM005", "tree/repro/runner/pool.py", 4, 13, "d1f25da7e605b4d6"),
    ("SIM005", "tree/repro/sim/kernel.py", 4, 13, "fdf3ff22e238f127"),
    ("SIM001", "tree/repro/sim/kernel.py", 5, 12, "ffd85218d56e0719"),
    ("SIM014", "tree/repro/sim/kernel.py", 13, 5, "9312353b2baa857d"),
    ("SIM012", "tree/repro/sim/kernel.py", 21, 19, "c19366b4609f7ed8"),
]

GOLDEN_SARIF_SHA256 = "ab7951879a39bf9d14e5279ef7ee22269992f9132fa45b45562531cc5065078a"


@pytest.fixture
def golden_tree(tmp_path, monkeypatch):
    for name, source in GOLDEN_TREE.items():
        path = tmp_path / "tree" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_golden_text_report(golden_tree, capsys):
    assert lint_main(["tree"]) == 2
    captured = capsys.readouterr()
    assert captured.out == GOLDEN_STDOUT
    assert captured.err == GOLDEN_STDERR


def test_golden_sarif_report(golden_tree, capsys):
    assert lint_main(["tree", "--format", "sarif", "--output", "lint.sarif"]) == 2
    captured = capsys.readouterr()
    assert captured.out == GOLDEN_STDOUT
    assert captured.err == GOLDEN_STDERR
    data = (golden_tree / "lint.sarif").read_bytes()
    results = []
    for result in json.loads(data)["runs"][0]["results"]:
        location = result["locations"][0]["physicalLocation"]
        results.append(
            (
                result["ruleId"],
                location["artifactLocation"]["uri"],
                location["region"]["startLine"],
                location["region"]["startColumn"],
                result["partialFingerprints"]["simlintFingerprint/v1"],
            )
        )
    assert results == GOLDEN_SARIF_RESULTS
    # Every other byte (schema, driver, rule catalogue, messages, layout).
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SARIF_SHA256


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_parse_rule_list_rejects_unknown():
    assert parse_rule_list("SIM001, SIM005") == ("SIM001", "SIM005")
    with pytest.raises(ValueError):
        parse_rule_list("SIM999")


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    assert lint_main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out and "bad.py" in out

    bad.write_text("def f(sim):\n    return sim.now\n")
    assert lint_main([str(tmp_path)]) == 0

    bad.write_text("def f(:\n")
    assert lint_main([str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "SIM000" in err and "bad.py" in err


def test_cli_explain_lists_all_rules(capsys):
    assert lint_main(["--explain"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


# ----------------------------------------------------------------------
# The repo gate
# ----------------------------------------------------------------------
def test_repo_lints_clean():
    findings = lint_paths([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    assert findings == [], "\n".join(f.render() for f in findings)
