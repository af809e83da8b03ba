"""simlint rule definitions: AST checks for simulator determinism.

SIM001–SIM011 are heuristics over one module's AST.  The common shape:
:class:`RuleVisitor` walks a file once, resolving imported names to
dotted paths (so ``from time import time`` and ``time.time`` are the
same call), and emits :class:`Finding` records.  Scoping — which rules
apply to simulator-domain code versus host-side orchestration code —
is decided by the caller (:mod:`repro.lint.runner`), not here.

Three rule families live elsewhere but register their ids here so the
CLI, SARIF reporter, and suppression machinery see one catalogue:

* SIM000 — structured analysis errors (:mod:`repro.lint.runner`);
* SIM012/SIM013 — whole-program taint rules (:mod:`repro.lint.project`);
* SIM014–SIM016 — asyncio rules (:mod:`repro.lint.asyncrules`).

The rules (see ``docs/correctness.md`` for the full contract):

========  ============================================================
SIM000    analysis error: the file could not be read or parsed —
          reported as a structured finding, never a mid-run crash
SIM001    wall-clock reads (``time.time``/``datetime.now``/...) inside
          simulator-domain code — sim code must use ``Simulator.now``
SIM002    module-level ``random.*`` calls — draws must come from a
          seeded ``random.Random`` (``repro.sim.rng``)
SIM003    float ``==``/``!=`` on virtual-time / finish-tag values —
          compare serials or integer nanoseconds instead
SIM004    iteration over an unordered ``set`` / ``dict.keys()`` that
          schedules events — iteration order feeds the event heap
SIM005    mutable default argument (list/dict/set)
SIM006    RNG object created at module scope — shared across
          worker-parallel entry points, breaking per-point seeding
SIM007    scheduling new events after ``stop()`` in the same function —
          the post-stop events mutate state the run no longer observes
SIM008    ``run_point`` signature without a ``seed`` parameter — every
          sweep entry point must thread the per-point seed through
SIM009    ``print()`` inside simulator-domain code — hot-path I/O skews
          profiles and bypasses the observability layer; emit through
          ``repro.obs`` instruments (or return data) instead
SIM010    per-event ``self.<list>.append/extend`` inside a sim-domain
          event handler (``on_*``/``record_*``/``receive``/...) —
          unbounded per-event retention belongs in registry
          instruments; deliberate retention sites carry an explicit
          suppression
SIM011    ``self.<cache>[key] = value`` store into a cache/memo dict in
          sim-domain code with no eviction in the same function (no
          ``clear``/``pop``/``del``/``len`` bound) — memo tables keyed
          by per-packet or per-event values grow with traffic, not
          configuration
SIM012    wall-clock taint reaching simulator-domain code across call
          boundaries — a helper that (transitively) reads the OS clock
          is called from sim code, a clock-tainted value is stored into
          sim-domain state, or passed into a sim-domain function
SIM013    RNG in sim-domain code not derived from a threaded seed —
          created with no seed, a hard-coded constant seed, or via a
          helper that (transitively) does so
SIM014    blocking call (``time.sleep``, sync subprocess/socket/file
          I/O) inside ``async def`` — starves every coroutine sharing
          the event loop
SIM015    read of shared instance/module state before an ``await`` and
          write after it, with no lock held — the static race detector
          for the live runtime
SIM016    coroutine or task created but never awaited or stored — the
          coroutine silently never runs, or the un-referenced task can
          be garbage-collected mid-flight
========  ============================================================
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Version of the rule set (the SARIF driver version).  Bump whenever a
#: rule is added, removed, or its detection logic changes.
RULESET_VERSION = "2.0.0"

#: rule id -> one-line description (the CLI's ``--explain`` output).
RULES: Dict[str, str] = {
    "SIM000": "analysis error: file could not be read or parsed",
    "SIM001": "wall-clock call in simulator-domain code (use Simulator.now)",
    "SIM002": "module-level random.* call (use a seeded repro.sim.rng stream)",
    "SIM003": "float ==/!= on a virtual-time/finish-tag value",
    "SIM004": "event scheduling driven by unordered set/dict.keys() iteration",
    "SIM005": "mutable default argument",
    "SIM006": "RNG object created at module scope (shared across workers)",
    "SIM007": "event scheduled after stop() in the same function",
    "SIM008": "run_point signature does not thread a seed",
    "SIM009": "print() in simulator-domain code (use repro.obs instruments)",
    "SIM010": (
        "unbounded per-event list accumulation in a sim-domain event "
        "handler (use registry instruments)"
    ),
    "SIM011": (
        "unbounded cache/memo dict store in sim-domain code (no "
        "clear/pop/del/len bound in the same function)"
    ),
    "SIM012": (
        "wall-clock taint reaches simulator-domain code across a call "
        "boundary (whole-program dataflow)"
    ),
    "SIM013": (
        "RNG in sim-domain code not derived from a threaded seed "
        "(unseeded or hard-coded constant, whole-program dataflow)"
    ),
    "SIM014": "blocking call inside `async def` (starves the event loop)",
    "SIM015": (
        "shared state read before an `await` and written after it "
        "without a lock (static asyncio race)"
    ),
    "SIM016": "coroutine or task created but never awaited or stored",
}

#: Rules reported by the whole-program pass (:mod:`repro.lint.project`)
#: rather than the single-module visitors.
WHOLE_PROGRAM_RULES: Set[str] = {"SIM012", "SIM013"}

#: Rules reported by the asyncio visitor (:mod:`repro.lint.asyncrules`).
ASYNC_RULES: Set[str] = {"SIM014", "SIM015", "SIM016"}

#: Rules that only apply to simulator-domain files (suppressed for
#: host-side orchestration code via the runner's allowlist).
SIM_DOMAIN_ONLY: Set[str] = {"SIM001", "SIM009", "SIM010", "SIM011"}

#: Rules that the host-side allowlist exempts entirely (wall-clock,
#: process-global randomness, and stdout are legitimate in the CLI /
#: worker pool).
HOST_EXEMPT: Set[str] = {"SIM001", "SIM002", "SIM006", "SIM009", "SIM010", "SIM011"}

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Functions of the global ``random`` module whose call sites SIM002
#: flags.  ``random.Random`` (constructing an instance) is the fix, so
#: it is deliberately absent.
_GLOBAL_RANDOM_CALLS = frozenset(
    {
        "random.betavariate",
        "random.choice",
        "random.choices",
        "random.expovariate",
        "random.gauss",
        "random.getrandbits",
        "random.lognormvariate",
        "random.normalvariate",
        "random.paretovariate",
        "random.randbytes",
        "random.randint",
        "random.random",
        "random.randrange",
        "random.sample",
        "random.seed",
        "random.shuffle",
        "random.triangular",
        "random.uniform",
        "random.vonmisesvariate",
        "random.weibullvariate",
    }
)

#: Identifiers that mark a value as a WFQ virtual-time / finish-tag
#: quantity for SIM003.  Matching is on the terminal identifier of a
#: name/attribute (subscripts unwrap to their base), exact or via the
#: ``*_tag`` / ``finish_*`` / ``*_finish`` conventions.
_TAG_IDENTIFIERS = frozenset(
    {
        "finish",
        "finish_tag",
        "last_finish",
        "start_tag",
        "tag",
        "virtual_time",
        "vt",
        "vtime",
    }
)

#: Constructors whose module-scope use SIM006 flags.
_RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "repro.sim.rng.make_rng",
        "repro.sim.rng.substream",
        "make_rng",
        "substream",
    }
)

_SCHEDULING_METHODS = frozenset({"schedule", "schedule_at", "post", "post_run"})

#: Method-name shapes that mark a per-event hot path for SIM010.  The
#: leading-underscore-stripped name either starts with one of the
#: prefixes or equals one of the exact names.
#: ``enqueue``/``dequeue`` are deliberately absent: appending to the
#: queue being managed is those methods' job, and queues drain.
_PER_EVENT_PREFIXES: Tuple[str, ...] = ("on_", "record_", "handle_")
_PER_EVENT_NAMES = frozenset({"receive"})

_ACCUMULATOR_METHODS = frozenset({"append", "extend"})

#: Method calls on a cache attribute that count as eviction evidence
#: for SIM011 (plus ``del self.<cache>[...]`` and a ``len(self.<cache>)``
#: bound check, handled structurally).
_EVICTION_METHODS = frozenset({"clear", "pop", "popitem"})

_MUTABLE_DEFAULT_CALLS = frozenset(
    {"list", "dict", "set", "collections.defaultdict", "defaultdict", "deque"}
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``fingerprint`` is a location-drift-tolerant identity (rule + path +
    offending source text, see :func:`finding_fingerprint`) assigned by
    the runner; SARIF emits it as ``partialFingerprints``.  Two findings
    differing only in line number keep the same fingerprint across edits
    elsewhere in the file.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    fingerprint: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def finding_fingerprint(rule: str, path: str, salt: str) -> str:
    """Stable identity of one finding (rule + posix path + salt).

    The salt identifies the finding without its line number: the
    stripped offending source line for the single-module rules, the
    semantic anchor (``call:<target>``, ``store:<self.attr>``, ...) for
    the whole-program rules.
    """
    posix = Path(path).as_posix()
    digest = hashlib.sha256(f"{rule}|{posix}|{salt}".encode("utf-8"))
    return digest.hexdigest()[:16]


def _terminal_identifier(node: ast.expr) -> Optional[str]:
    """The rightmost identifier of a name/attribute/subscript chain.

    ``self._last_finish[qos]`` -> ``_last_finish``; ``tag`` -> ``tag``;
    anything without a terminal name (literals, calls) -> ``None``.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_cache_identifier(name: str) -> bool:
    """Whether an attribute name marks a cache/memo table (SIM011)."""
    bare = name.lstrip("_")
    return "cache" in bare or "memo" in bare


def _self_attr(node: ast.expr) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_tag_identifier(name: Optional[str]) -> bool:
    if name is None:
        return False
    bare = name.lstrip("_")
    return (
        bare in _TAG_IDENTIFIERS
        or bare.endswith("_tag")
        or bare.endswith("_finish")
        or bare.startswith("finish_")
        or bare.startswith("vtime_")
        or bare.startswith("virtual_time")
    )


class RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor that applies every simlint rule to one module."""

    def __init__(self, path: str, enabled: Iterable[str]):
        self.path = path
        self.enabled = set(enabled)
        self.findings: List[Finding] = []
        #: local name -> dotted module/attribute path it was imported as.
        self._imports: Dict[str, str] = {}
        #: nesting depth of function bodies (0 == module/class scope).
        self._function_depth = 0
        #: per-function line of the first ``.stop()`` call seen (SIM007).
        self._stop_lines: List[Optional[int]] = []
        #: enclosing function-name stack (SIM010 hot-path detection).
        self._function_names: List[str] = []
        #: per-function cache-store sites: attr -> first store node
        #: (SIM011); paired with the eviction-evidence sets below.
        self._cache_stores: List[Dict[str, ast.AST]] = []
        #: per-function attrs with eviction/bound evidence (SIM011).
        self._cache_evictions: List[Set[str]] = []
        #: per-function local-name -> self-attribute aliases, so
        #: ``cache = self._tx_cache; cache[k] = v`` resolves (SIM011).
        self._cache_aliases: List[Dict[str, str]] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.enabled:
            self.findings.append(
                Finding(
                    path=self.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0) + 1,
                    rule=rule,
                    message=message,
                )
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._imports[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self._imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def _resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted path of a call target, following import aliases."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._imports.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))

    # ------------------------------------------------------------------
    # SIM001 / SIM002 / SIM007 (call sites)
    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        qualified = self._resolve(node.func)
        if qualified == "print":
            # Only a bare builtin call counts: an imported or locally
            # defined `print` resolves to a dotted path above and a
            # method `.print(...)` never reaches _resolve as a Name.
            self._emit(
                "SIM009",
                node,
                "`print()` in simulator-domain code does per-event I/O "
                "(skewing profiles) and hides data from the trace/metrics "
                "layer — record through `repro.obs` or return the value",
            )
        if qualified in _WALL_CLOCK_CALLS:
            self._emit(
                "SIM001",
                node,
                f"wall-clock call `{qualified}` — simulator code must take "
                "time from `Simulator.now` (integer virtual nanoseconds)",
            )
        if qualified in _GLOBAL_RANDOM_CALLS:
            self._emit(
                "SIM002",
                node,
                f"module-level `{qualified}()` draws from the process-global "
                "RNG — use a seeded stream from `repro.sim.rng` "
                "(make_rng/substream) instead",
            )
        self._check_per_event_accumulation(node)
        if self._cache_evictions:
            # SIM011 eviction evidence: `<cache>.clear()/pop()/popitem()`
            # and a `len(<cache>)` bound check, where `<cache>` is
            # `self.X` or a local alias of it.
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr in _EVICTION_METHODS
            ):
                owner = self._cache_owner(node.func.value)
                if owner is not None:
                    self._cache_evictions[-1].add(owner)
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id == "len"
                and len(node.args) == 1
            ):
                owner = self._cache_owner(node.args[0])
                if owner is not None:
                    self._cache_evictions[-1].add(owner)
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "stop" and self._stop_lines and self._stop_lines[-1] is None:
                self._stop_lines[-1] = node.lineno
            elif (
                attr in _SCHEDULING_METHODS
                and self._stop_lines
                and self._stop_lines[-1] is not None
                and node.lineno > self._stop_lines[-1]
            ):
                self._emit(
                    "SIM007",
                    node,
                    f"`.{attr}()` after `.stop()` (line "
                    f"{self._stop_lines[-1]}) schedules work the stopped "
                    "run will never observe deterministically",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # SIM010 (per-event list accumulation in event handlers)
    # ------------------------------------------------------------------
    @staticmethod
    def _is_per_event_handler(name: str) -> bool:
        bare = name.lstrip("_")
        return bare.startswith(_PER_EVENT_PREFIXES) or bare in _PER_EVENT_NAMES

    def _check_per_event_accumulation(self, node: ast.Call) -> None:
        """``self.<attr>.append/extend(...)`` inside an event handler.

        Per-event Python lists grow with the event count, not the
        configuration, so a long simulation's memory and GC cost scale
        with simulated traffic.  Bounded retention belongs in registry
        instruments; a deliberate store of per-event records carries a
        ``# simlint: ignore[SIM010]``.
        """
        if not (self._function_names
                and self._is_per_event_handler(self._function_names[-1])):
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _ACCUMULATOR_METHODS):
            return
        target = func.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._emit(
                "SIM010",
                node,
                f"`self.{target.attr}.{func.attr}()` in per-event handler "
                f"`{self._function_names[-1]}` accumulates one entry per "
                "event — use a registry counter/histogram, or suppress a "
                "deliberate store",
            )

    # ------------------------------------------------------------------
    # SIM011 (unbounded cache/memo dict stores)
    # ------------------------------------------------------------------
    def _cache_owner(self, node: ast.expr) -> Optional[str]:
        """Self-attribute name behind ``self.X`` or a local alias of it."""
        attr = _self_attr(node)
        if attr is not None:
            return attr
        if isinstance(node, ast.Name) and self._cache_aliases:
            return self._cache_aliases[-1].get(node.id)
        return None

    def _check_cache_store(self, node: ast.Assign) -> None:
        """Track ``<cache>[key] = value`` stores and alias bindings.

        A store into a ``*cache*``/``*memo*`` attribute is held until
        the enclosing function finishes; it is emitted as SIM011 only
        when no eviction evidence for the same attribute appeared
        anywhere in that function (``clear``/``pop``/``popitem``,
        ``del``, a ``len()`` bound check, or reassigning the attribute).
        """
        if not self._cache_stores:
            return
        value_attr = _self_attr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name) and value_attr is not None:
                # `cache = self._tx_cache` binds a local alias.
                self._cache_aliases[-1][target.id] = value_attr
                continue
            owner_attr = _self_attr(target)
            if owner_attr is not None:
                # `self.X = ...` rebuilds the table: a bound by itself.
                self._cache_evictions[-1].add(owner_attr)
                continue
            if isinstance(target, ast.Subscript):
                owner = self._cache_owner(target.value)
                if owner is not None and _is_cache_identifier(owner):
                    self._cache_stores[-1].setdefault(owner, target)

    def _flush_cache_stores(self) -> None:
        """Emit SIM011 for stores whose function showed no bound."""
        stores = self._cache_stores.pop()
        evictions = self._cache_evictions.pop()
        self._cache_aliases.pop()
        for attr, node in stores.items():
            if attr in evictions:
                continue
            self._emit(
                "SIM011",
                node,
                f"store into cache `self.{attr}` with no eviction in "
                f"`{self._function_names[-1]}` — a memo keyed by "
                "per-event values grows with traffic; bound it "
                "(clear/pop/del or a len() check) or suppress a "
                "deliberately unbounded table",
            )

    # ------------------------------------------------------------------
    # SIM003 (float equality on tag values)
    # ------------------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            for operand in operands:
                name = _terminal_identifier(operand)
                if _is_tag_identifier(name):
                    self._emit(
                        "SIM003",
                        node,
                        f"float equality on virtual-time value `{name}` — "
                        "compare packet serials or integer nanoseconds; float "
                        "tags collide and drift",
                    )
                    break
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # SIM004 (unordered iteration feeding the event heap)
    # ------------------------------------------------------------------
    @staticmethod
    def _is_unordered_iterable(node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return f"`{node.func.id}()`"
            if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
                return "`.keys()`"
        return None

    def visit_For(self, node: ast.For) -> None:
        kind = self._is_unordered_iterable(node.iter)
        if kind is not None:
            schedules = any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _SCHEDULING_METHODS
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if schedules:
                self._emit(
                    "SIM004",
                    node,
                    f"iterating {kind} to schedule events — wrap the "
                    "iterable in `sorted(...)` so the event order is "
                    "independent of hash seeding and insertion history",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # SIM005 / SIM006 / SIM008 (definitions and module scope)
    # ------------------------------------------------------------------
    def _check_defaults(self, node: ast.AST, args: ast.arguments) -> None:
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                           ast.DictComp, ast.SetComp))
            if not mutable and isinstance(default, ast.Call):
                qualified = self._resolve(default.func)
                mutable = qualified in _MUTABLE_DEFAULT_CALLS
            if mutable:
                self._emit(
                    "SIM005",
                    default,
                    "mutable default argument is shared across calls — "
                    "default to None and allocate inside the function",
                )

    def _check_run_point(self, node: ast.FunctionDef) -> None:
        if node.name != "run_point":
            return
        args = node.args
        names = [
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        if "seed" not in names:
            self._emit(
                "SIM008",
                node,
                "`run_point` must accept a `seed` parameter — per-point "
                "seeds are what keep `--workers 1` == `--workers N` "
                "bit-identical",
            )

    def _visit_function(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node, node.args)
        self._check_run_point(node)
        self._function_depth += 1
        self._stop_lines.append(None)
        self._function_names.append(node.name)
        self._cache_stores.append({})
        self._cache_evictions.append(set())
        self._cache_aliases.append({})
        self.generic_visit(node)
        self._flush_cache_stores()
        self._function_names.pop()
        self._stop_lines.pop()
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, node.args)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def _check_module_rng(self, value: ast.expr, node: ast.AST) -> None:
        if self._function_depth > 0 or not isinstance(value, ast.Call):
            return
        qualified = self._resolve(value.func)
        if qualified in _RNG_CONSTRUCTORS or (
            qualified is not None and qualified.endswith(".Random")
        ):
            self._emit(
                "SIM006",
                node,
                f"RNG `{qualified}` created at module scope is shared by "
                "every worker that imports this module — create it inside "
                "the per-point entry and derive streams with "
                "`repro.sim.rng.substream`",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_module_rng(node.value, node)
        self._check_cache_store(node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        # `del self.X[...]` / `del cache[...]` is eviction evidence.
        if self._cache_evictions:
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    owner = self._cache_owner(target.value)
                    if owner is not None:
                        self._cache_evictions[-1].add(owner)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_module_rng(node.value, node)
        self.generic_visit(node)


def run_rules(
    tree: ast.Module, path: str, enabled: Iterable[str]
) -> List[Finding]:
    """Apply the enabled rules to one parsed module."""
    visitor = RuleVisitor(path, enabled)
    visitor.visit(tree)
    return visitor.findings


def parse_rule_list(spec: str) -> Tuple[str, ...]:
    """Parse a ``SIM001,SIM005``-style list, validating rule ids."""
    rules = tuple(part.strip() for part in spec.split(",") if part.strip())
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        raise ValueError(
            f"unknown simlint rule(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return rules
