"""SIM012/SIM013: whole-program taint analysis over the linted tree.

The single-module rules (SIM001/SIM002/SIM006) see a wall-clock read or
an unseeded RNG only at the line that performs it.  They are blind to
the same bug split across a call boundary::

    # helpers.py                      # repro/sim/engine.py
    def stamp():                      from helpers import stamp
        return time.time()            class Kernel:
                                          def start(self):
                                              self.t0 = stamp()  # SIM012

This module closes that hole with a deliberately conservative
whole-program pass:

1. **Extraction** — each parsed module is lowered to a small,
   JSON-serializable IR (:func:`extract_module_ir`): its dotted module
   name (derived by walking ``__init__.py`` packages up from the file),
   import aliases (absolute and relative), top-level functions and
   methods with the *taint atoms* that flow to their return value, and
   every resolvable call site / attribute store / RNG construction.
2. **Call resolution** — call targets resolve through import aliases,
   module-local definitions, ``self.method`` within a class, class
   constructors, and locals whose type is known because they were
   assigned from a constructor call (``clk = WallClock()`` makes
   ``clk.now_ns()`` resolve).  Package ``__init__`` re-exports are
   followed.  Anything else — notably calls through injected
   dependencies like ``self._clock.now_ns()`` — is *unresolvable* and
   contributes no taint: the clock-parameterized core stays clean by
   construction, which is the repo's sanctioned seam for wall-clock
   injection (the injection *site* is where SIM012 fires).
3. **Fixpoint** — function summaries (``returns wall-clock`` /
   ``returns unseeded RNG``) propagate over the call graph until
   stable; a class is wall-clock-backed when any of its methods
   returns wall-clock taint, so a constructed instance (a ``WallClock``
   handle) is itself a tainted value.
4. **Emission** — SIM012 fires in strict simulator-domain modules
   (the sim-domain prefixes *minus* ``repro/live``, which is wall-clock
   by design and SIM001-audited instead) on: a call to a
   wall-clock-returning function or wall-clock-backed constructor, and
   a clock-tainted value stored into instance/module state.  It also
   fires in *any* module that passes a clock-tainted argument into a
   strict-sim function.  SIM013 fires in sim-classified modules
   (including live) on an RNG created unseeded, seeded by a hard-coded
   constant, or obtained from a helper that transitively does either —
   the per-point threaded seed is the only sanctioned source.

The dataflow is a forward, single-pass, flow-insensitive-across-loops
approximation: assignments are processed in statement order, taint
unions through expressions, and parameters are untainted (arguments
are checked at the call site instead).  False negatives are possible
by design; false positives are what the conservatism avoids.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import Finding, _WALL_CLOCK_CALLS, finding_fingerprint

#: Taint atoms.  JSON-shaped (lists in the IR, tuples in working sets):
#:   ["wc", qualified, line]    direct wall-clock read
#:   ["rng", qualified, line, why]   unseeded RNG creation
#:                                   (why: "unseeded"|"constant"|"system")
#:   ["call", target, line]     value returned by a resolvable call
Atom = Tuple[str, ...]

#: Terminal callable names treated as RNG constructors for SIM013.
_RNG_CTOR_NAMES = frozenset(
    {"Random", "SystemRandom", "default_rng", "make_rng", "substream"}
)


def module_name(path: Path) -> str:
    """Dotted module name, walking ``__init__.py`` packages upward.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``; a file outside
    any package (a test, a fixture at a tmp root) is its own top-level
    module named after its stem, which is exactly how ``import``
    resolves it with that root on ``sys.path``.
    """
    path = path.resolve()
    parts = [] if path.name == "__init__.py" else [path.stem]
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        current = current.parent
    return ".".join(parts) if parts else path.stem


def _is_constant(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_constant(node.operand)
    if isinstance(node, (ast.Tuple, ast.List)):
        return all(_is_constant(element) for element in node.elts)
    return False


def _rng_why(call: ast.Call, qualified: str) -> Optional[str]:
    """Why an RNG construction is unseeded, or ``None`` when threaded."""
    if qualified.rsplit(".", 1)[-1] == "SystemRandom":
        return "system"
    arguments = [*call.args, *(kw.value for kw in call.keywords)]
    if not arguments:
        return "unseeded"
    if all(_is_constant(argument) for argument in arguments):
        return "constant"
    return None


class _Scope:
    """Mutable per-block analysis state (locals, known instance types)."""

    __slots__ = ("env", "var_types", "cls", "returns")

    def __init__(
        self,
        cls: Optional[str] = None,
        returns: Optional[List[Atom]] = None,
    ) -> None:
        #: local / ``self.X`` name -> set of taint atoms.
        self.env: Dict[str, Set[Atom]] = {}
        #: local name -> class dotted path (assigned from a constructor).
        self.var_types: Dict[str, str] = {}
        self.cls = cls
        #: sink for atoms flowing to ``return`` (None outside functions).
        self.returns = returns


class _ModuleExtractor:
    """Lower one parsed module to the serializable project IR."""

    def __init__(self, tree: ast.Module, path: str, scope: str) -> None:
        self.tree = tree
        self.path = path
        self.posix = Path(path).as_posix()
        self.scope = scope
        source_path = Path(path)
        self.module = module_name(source_path)
        self.is_package = source_path.name == "__init__.py"
        self.imports: Dict[str, str] = {}
        self.module_funcs: Set[str] = set()
        self.module_classes: Set[str] = set()
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.classes: Dict[str, List[str]] = {}
        self.calls: List[Dict[str, Any]] = []
        self.stores: List[Dict[str, Any]] = []
        self.rng_ctors: List[Dict[str, Any]] = []

    def extract(self) -> Dict[str, Any]:
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_funcs.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self.module_classes.add(stmt.name)
        self._collect_imports()
        reexports = (
            {f"{self.module}.{name}": dotted for name, dotted in self.imports.items()}
            if self.is_package
            else {}
        )
        self._process_block(self.tree.body, _Scope(), in_function=False)
        return {
            "module": self.module,
            "path": self.path,
            "scope": self.scope,
            "live": "repro/live/" in self.posix,
            "functions": self.functions,
            "classes": self.classes,
            "calls": self.calls,
            "stores": self.stores,
            "rng_ctors": self.rng_ctors,
            "reexports": reexports,
        }

    # ------------------------------------------------------------------
    # imports
    # ------------------------------------------------------------------
    def _collect_imports(self) -> None:
        package_parts = self.module.split(".")
        if not self.is_package:
            package_parts = package_parts[:-1]
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    keep = len(package_parts) - (node.level - 1)
                    base = ".".join(package_parts[:keep])
                    if not base:
                        continue
                    target = f"{base}.{node.module}" if node.module else base
                else:
                    target = node.module or ""
                if target:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        self.imports[local] = f"{target}.{alias.name}"

    # ------------------------------------------------------------------
    # call-target resolution
    # ------------------------------------------------------------------
    def _resolve_call(self, func: ast.expr, scope: _Scope) -> Optional[str]:
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.module_funcs or name in self.module_classes:
                return f"{self.module}.{name}"
            return self.imports.get(name, name)
        if not isinstance(func, ast.Attribute):
            return None
        parts: List[str] = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        base = node.id
        if base == "self":
            if scope.cls is not None and len(parts) == 1:
                return f"{self.module}.{scope.cls}.{parts[0]}"
            return None
        if base in scope.var_types and len(parts) == 1:
            return f"{scope.var_types[base]}.{parts[0]}"
        root = self.imports.get(base)
        if root is None:
            if base in self.module_classes:
                root = f"{self.module}.{base}"
            else:
                return None
        return ".".join([root, *parts])

    # ------------------------------------------------------------------
    # expression taint
    # ------------------------------------------------------------------
    def _atoms(self, node: ast.expr, scope: _Scope) -> Set[Atom]:
        if isinstance(node, ast.Name):
            return set(scope.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            key = self._self_attr_key(node)
            if key is not None:
                return set(scope.env.get(key, ()))
            return self._atoms(node.value, scope)
        if isinstance(node, ast.Call):
            atoms: Set[Atom] = set()
            target = self._resolve_call(node.func, scope)
            if target is not None:
                if target in _WALL_CLOCK_CALLS:
                    atoms.add(("wc", target, node.lineno))
                elif target.rsplit(".", 1)[-1] in _RNG_CTOR_NAMES:
                    why = _rng_why(node, target)
                    if why is not None:
                        atoms.add(("rng", target, node.lineno, why))
                elif "." in target:
                    atoms.add(("call", target, node.lineno))
            for argument in node.args:
                atoms |= self._atoms(argument, scope)
            for keyword in node.keywords:
                atoms |= self._atoms(keyword.value, scope)
            return atoms
        if isinstance(node, ast.BinOp):
            return self._atoms(node.left, scope) | self._atoms(node.right, scope)
        if isinstance(node, ast.BoolOp):
            result: Set[Atom] = set()
            for value in node.values:
                result |= self._atoms(value, scope)
            return result
        if isinstance(node, ast.UnaryOp):
            return self._atoms(node.operand, scope)
        if isinstance(node, ast.IfExp):
            return self._atoms(node.body, scope) | self._atoms(node.orelse, scope)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            result = set()
            for element in node.elts:
                result |= self._atoms(element, scope)
            return result
        if isinstance(node, ast.Dict):
            result = set()
            for value in node.values:
                if value is not None:
                    result |= self._atoms(value, scope)
            return result
        if isinstance(node, (ast.Subscript, ast.Starred, ast.Await)):
            return self._atoms(node.value, scope)
        if isinstance(node, ast.NamedExpr):
            return self._atoms(node.value, scope)
        return set()

    @staticmethod
    def _self_attr_key(node: ast.expr) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"self.{node.attr}"
        return None

    # ------------------------------------------------------------------
    # statement walk (source order; compound bodies recursed in place)
    # ------------------------------------------------------------------
    def _process_block(
        self, stmts: Sequence[ast.stmt], scope: _Scope, in_function: bool
    ) -> None:
        for stmt in stmts:
            self._process_stmt(stmt, scope, in_function)

    def _process_stmt(self, stmt: ast.stmt, scope: _Scope, in_function: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._process_def(stmt, scope, in_function)
        elif isinstance(stmt, ast.ClassDef):
            if not in_function and scope.cls is None:
                class_fq = f"{self.module}.{stmt.name}"
                self.classes.setdefault(class_fq, [])
                self._process_block(
                    stmt.body, _Scope(cls=stmt.name), in_function=False
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_calls(stmt.value, scope, in_function)
                if scope.returns is not None:
                    scope.returns.extend(self._atoms(stmt.value, scope))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._process_assignment(stmt, scope, in_function)
        elif isinstance(stmt, ast.Expr):
            self._scan_calls(stmt.value, scope, in_function)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._scan_calls(stmt.test, scope, in_function)
            self._process_block(stmt.body, scope, in_function)
            self._process_block(stmt.orelse, scope, in_function)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_calls(stmt.iter, scope, in_function)
            self._process_block(stmt.body, scope, in_function)
            self._process_block(stmt.orelse, scope, in_function)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_calls(item.context_expr, scope, in_function)
            self._process_block(stmt.body, scope, in_function)
        elif isinstance(stmt, ast.Try):
            self._process_block(stmt.body, scope, in_function)
            for handler in stmt.handlers:
                self._process_block(handler.body, scope, in_function)
            self._process_block(stmt.orelse, scope, in_function)
            self._process_block(stmt.finalbody, scope, in_function)
        elif isinstance(stmt, ast.Match):
            self._scan_calls(stmt.subject, scope, in_function)
            for case in stmt.cases:
                self._process_block(case.body, scope, in_function)
        else:
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.expr):
                    self._scan_calls(sub, scope, in_function)

    def _process_def(
        self,
        node: ast.stmt,
        scope: _Scope,
        in_function: bool,
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if in_function:
            # Nested defs/closures: scan their bodies for call sites
            # and sources, but their returns summarize nothing.
            inner = _Scope(cls=scope.cls, returns=None)
            self._process_block(node.body, inner, in_function=True)
            return
        qualname = f"{scope.cls}.{node.name}" if scope.cls else node.name
        fq = f"{self.module}.{qualname}"
        record: Dict[str, Any] = {"lineno": node.lineno, "returns": []}
        self.functions[fq] = record
        if scope.cls is not None:
            self.classes.setdefault(f"{self.module}.{scope.cls}", []).append(fq)
        returns: List[Atom] = []
        inner = _Scope(cls=scope.cls, returns=returns)
        self._process_block(node.body, inner, in_function=True)
        record["returns"] = [list(atom) for atom in returns]

    def _process_assignment(
        self, stmt: ast.stmt, scope: _Scope, in_function: bool
    ) -> None:
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            value, targets = stmt.value, [stmt.target]
        else:
            assert isinstance(stmt, ast.AugAssign)
            value, targets = stmt.value, [stmt.target]
        if value is None:
            return
        self._scan_calls(value, scope, in_function)
        atoms = self._atoms(value, scope)
        constructed = self._constructed_class(value, scope)
        for target in targets:
            if isinstance(target, ast.Name):
                scope.env[target.id] = set(atoms)
                if constructed is not None:
                    scope.var_types[target.id] = constructed
                elif target.id in scope.var_types:
                    del scope.var_types[target.id]
                if not in_function:
                    self._record_store(target.id, stmt, atoms)
                continue
            key = self._self_attr_key(target)
            if key is not None:
                scope.env[key] = set(atoms)
                self._record_store(key, stmt, atoms)

    def _constructed_class(self, value: ast.expr, scope: _Scope) -> Optional[str]:
        """Dotted class path when ``value`` looks like ``SomeClass(...)``."""
        if not isinstance(value, ast.Call):
            return None
        target = self._resolve_call(value.func, scope)
        if target is None or "." not in target:
            return None
        if target.rsplit(".", 1)[-1][:1].isupper():
            return target
        return None

    def _record_store(self, key: str, stmt: ast.stmt, atoms: Set[Atom]) -> None:
        relevant = [list(a) for a in atoms if a[0] in ("wc", "call")]
        if relevant:
            self.stores.append(
                {
                    "target": key,
                    "line": stmt.lineno,
                    "col": stmt.col_offset + 1,
                    "atoms": relevant,
                }
            )

    def _scan_calls(self, expr: ast.expr, scope: _Scope, in_function: bool) -> None:
        """Record every resolvable call site inside one expression."""
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Call):
                continue
            target = self._resolve_call(sub.func, scope)
            if target is None:
                continue
            if target.rsplit(".", 1)[-1] in _RNG_CTOR_NAMES:
                why = _rng_why(sub, target)
                self.rng_ctors.append(
                    {
                        "qual": target,
                        "line": sub.lineno,
                        "col": sub.col_offset + 1,
                        "why": why,
                        "in_function": in_function,
                    }
                )
            if "." not in target or target in _WALL_CLOCK_CALLS:
                # Direct sources are SIM001/SIM006 territory; bare
                # builtins carry no cross-module information.
                continue
            argument_atoms: List[List[List[Any]]] = []
            for argument in [*sub.args, *(kw.value for kw in sub.keywords)]:
                relevant = [
                    list(a)
                    for a in self._atoms(argument, scope)
                    if a[0] in ("wc", "call")
                ]
                if relevant:
                    argument_atoms.append(relevant)
            self.calls.append(
                {
                    "target": target,
                    "line": sub.lineno,
                    "col": sub.col_offset + 1,
                    "args": argument_atoms,
                }
            )


def extract_module_ir(tree: ast.Module, path: str, scope: str) -> Dict[str, Any]:
    """Lower one parsed module to its whole-program IR."""
    return _ModuleExtractor(tree, path, scope).extract()


class _TaintIndex:
    """Global summaries computed by the fixpoint over all module IRs."""

    def __init__(self, irs: Iterable[Dict[str, Any]]) -> None:
        self.table: Dict[str, Dict[str, Any]] = {}
        self.classes: Dict[str, List[str]] = {}
        self.class_scope: Dict[str, Tuple[bool, bool]] = {}
        self.alias: Dict[str, str] = {}
        #: fq -> provenance string (present == tainted).
        self.returns_wc: Dict[str, str] = {}
        self.returns_rng: Dict[str, str] = {}
        self.class_wc: Dict[str, str] = {}
        for ir in irs:
            strict = ir["scope"] == "sim" and not ir["live"]
            for fq, record in ir["functions"].items():
                self.table[fq] = {
                    "returns": [tuple(a) for a in record["returns"]],
                    "path": ir["path"],
                    "strict_sim": strict,
                }
            for class_fq, methods in ir["classes"].items():
                self.classes[class_fq] = list(methods)
                self.class_scope[class_fq] = (strict, ir["scope"] == "sim")
            self.alias.update(ir["reexports"])
        self._fixpoint()

    def canon(self, target: str) -> str:
        """Follow package-``__init__`` re-export aliases to the source."""
        for _ in range(8):
            if target in self.alias:
                target = self.alias[target]
                continue
            head, _sep, tail = target.rpartition(".")
            if head in self.alias:
                target = f"{self.alias[head]}.{tail}"
                continue
            break
        return target

    def _fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for fq, record in self.table.items():
                for atom in record["returns"]:
                    if fq not in self.returns_wc:
                        provenance = self._wc_provenance(atom, record["path"])
                        if provenance is not None:
                            self.returns_wc[fq] = provenance
                            changed = True
                    if fq not in self.returns_rng:
                        provenance = self._rng_provenance(atom, record["path"])
                        if provenance is not None:
                            self.returns_rng[fq] = provenance
                            changed = True
            for class_fq, methods in self.classes.items():
                if class_fq in self.class_wc:
                    continue
                for method in methods:
                    if method in self.returns_wc:
                        self.class_wc[class_fq] = (
                            f"its method `{method.rsplit('.', 1)[-1]}` "
                            f"{self.returns_wc[method]}"
                        )
                        changed = True
                        break

    @staticmethod
    def _clip(text: str) -> str:
        return text if len(text) <= 200 else text[:200] + "..."

    def _wc_provenance(self, atom: Atom, path: str) -> Optional[str]:
        if atom[0] == "wc":
            return f"reads `{atom[1]}` ({path}:{atom[2]})"
        if atom[0] == "call":
            target = self.canon(str(atom[1]))
            if target in self.returns_wc:
                return self._clip(
                    f"returns `{target}(...)`, which "
                    f"{self.returns_wc[target]}"
                )
            if target in self.class_wc:
                return self._clip(
                    f"returns a `{target}` instance — {self.class_wc[target]}"
                )
        return None

    def _rng_provenance(self, atom: Atom, path: str) -> Optional[str]:
        if atom[0] == "rng":
            why = _RNG_WHY_TEXT[str(atom[3])]
            return f"creates `{atom[1]}` ({why}) ({path}:{atom[2]})"
        if atom[0] == "call":
            target = self.canon(str(atom[1]))
            if target in self.returns_rng:
                return self._clip(
                    f"returns `{target}(...)`, which "
                    f"{self.returns_rng[target]}"
                )
        return None

    def wc_reason(self, atom: Sequence[Any]) -> Optional[str]:
        """Why a taint atom carries wall-clock taint, or ``None``."""
        if atom[0] == "wc":
            return f"reads `{atom[1]}` directly"
        if atom[0] == "call":
            target = self.canon(str(atom[1]))
            if target in self.returns_wc:
                return f"comes from `{target}`, which {self.returns_wc[target]}"
            if target in self.class_wc:
                return f"is a `{target}` instance — {self.class_wc[target]}"
        return None


_RNG_WHY_TEXT = {
    "unseeded": "no seed",
    "constant": "hard-coded constant seed",
    "system": "OS-entropy SystemRandom",
}


def analyze_project(irs: Sequence[Dict[str, Any]]) -> List[Finding]:
    """Run the taint fixpoint over module IRs and emit SIM012/SIM013.

    Findings carry a semantic fingerprint (rule + path + the offending
    target/store key), so SARIF consumers track them across line drift.
    """
    index = _TaintIndex(irs)
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()

    def emit(
        path: str, line: int, col: int, rule: str, message: str, anchor: str
    ) -> None:
        key = (path, line, rule)
        if key in seen:
            return
        seen.add(key)
        findings.append(
            Finding(
                path=path,
                line=line,
                col=col,
                rule=rule,
                message=message,
                fingerprint=finding_fingerprint(rule, path, anchor),
            )
        )

    for ir in irs:
        path = ir["path"]
        strict_sim = ir["scope"] == "sim" and not ir["live"]
        sim_like = ir["scope"] == "sim"
        for call in ir["calls"]:
            target = index.canon(call["target"])
            if strict_sim:
                if target in index.returns_wc:
                    emit(
                        path,
                        call["line"],
                        call["col"],
                        "SIM012",
                        f"call to `{target}` brings wall-clock time into "
                        f"simulator-domain code: it "
                        f"{index.returns_wc[target]} — thread the value "
                        "through `Simulator.now` or inject a ClockSource "
                        "at the boundary instead",
                        f"call:{target}",
                    )
                elif target in index.class_wc:
                    emit(
                        path,
                        call["line"],
                        call["col"],
                        "SIM012",
                        f"constructing `{target}` inside simulator-domain "
                        f"code creates a wall-clock handle: "
                        f"{index.class_wc[target]} — construct it host-side "
                        "and inject a ClockSource",
                        f"ctor:{target}",
                    )
            if sim_like and target in index.returns_rng:
                emit(
                    path,
                    call["line"],
                    call["col"],
                    "SIM013",
                    f"`{target}` hands simulator-domain code an RNG that is "
                    f"not derived from a threaded seed: it "
                    f"{index.returns_rng[target]} — derive it from the "
                    "per-point seed (`repro.sim.rng.make_rng`/`substream`)",
                    f"rngcall:{target}",
                )
            callee = index.table.get(target)
            callee_strict = (
                callee["strict_sim"]
                if callee is not None
                else index.class_scope.get(target, (False, False))[0]
            )
            if callee_strict:
                for argument in call["args"]:
                    for atom in argument:
                        reason = index.wc_reason(atom)
                        if reason is not None:
                            emit(
                                path,
                                call["line"],
                                call["col"],
                                "SIM012",
                                f"wall-clock-tainted argument passed into "
                                f"simulator-domain `{target}`: the value "
                                f"{reason} — convert to virtual time at "
                                "the boundary first",
                                f"arg:{target}",
                            )
                            break
        if strict_sim:
            for store in ir["stores"]:
                for atom in store["atoms"]:
                    reason = index.wc_reason(atom)
                    if reason is not None:
                        emit(
                            path,
                            store["line"],
                            store["col"],
                            "SIM012",
                            f"wall-clock-tainted value stored into "
                            f"sim-domain state `{store['target']}`: it "
                            f"{reason} — sim state must be derived from "
                            "`Simulator.now`",
                            f"store:{store['target']}",
                        )
                        break
        if sim_like:
            for ctor in ir["rng_ctors"]:
                if ctor["why"] is None or not ctor["in_function"]:
                    continue
                emit(
                    path,
                    ctor["line"],
                    ctor["col"],
                    "SIM013",
                    f"RNG `{ctor['qual']}` created with "
                    f"{_RNG_WHY_TEXT[str(ctor['why'])]} in simulator-domain "
                    "code — every stream must chain from the per-point "
                    "seed (`repro.sim.rng.make_rng`/`substream`)",
                    f"rng:{ctor['qual']}:{ctor['why']}",
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
