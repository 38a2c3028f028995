"""Interprocedural determinism taint (the engine behind IPD001).

The intra-file DET rules catch a ``time.time()`` in the function that
calls it; they are blind to a helper that *returns* wall-clock and a
caller three modules away that feeds it into a provenance record.  This
module closes that gap with a classic context-insensitive taint
fixpoint over the call graph:

* **sources** — direct reads of nondeterminism: wall clock
  (``time.time``/``monotonic``/``perf_counter``, ``datetime.now``),
  unseeded RNG (``random.random``, ``random.Random()`` with no seed,
  ``numpy.random.*`` module-level, ``default_rng()`` with no seed),
  entropy (``os.urandom``, ``uuid.uuid4``, ``secrets.*``).
  ``repro/obs/clock.py`` is exempt — it is the *sanctioned* wrapper
  (tests inject a ``TickClock``), and benchmarks are exempt wholesale;
* **propagation** — flow-insensitive within a function (any name
  assigned from a tainted expression is tainted), and across calls in
  both directions: a function whose return value may be tainted taints
  its call sites, and passing a tainted argument taints the callee's
  parameter.  Iterated to a fixpoint (the lattice is tiny and
  monotone, convergence is fast);
* **sinks** — where determinism is load-bearing: the span tracer
  (``repro.obs.trace``), provenance records (``repro.provenance.*``),
  and verdict aggregation (``repro.verify.verdict``).  A tainted value
  reaching a sink argument is a finding.

Over-approximation is deliberate (may-taint, not must-taint); pragmas
and explicit seeding are the escape hatches.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.callgraph import CallGraph, CallSite, dotted
from repro.analysis.project import FunctionInfo, ModuleInfo, Project

#: dotted call names that read nondeterminism directly (after alias
#: expansion through the module's import map)
_SOURCE_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice",
}

#: module-level ``random.*`` / ``numpy.random.*`` functions share one
#: unseeded global state — any of them is a source
_RANDOM_MODULE_CALLS = {
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.sample", "random.shuffle", "random.uniform",
    "random.gauss", "random.betavariate", "random.getrandbits",
}

#: sink modules: nondeterministic values must not reach these
_SINK_MODULES = (
    "repro.obs.trace",
    "repro.provenance.store",
    "repro.provenance.generation",
    "repro.verify.verdict",
)

#: files whose *direct* clock/RNG reads are sanctioned (the injectable
#: clock seam) — they are the boundary, not a leak through it
_EXEMPT_SOURCE_FILES = ("obs/clock.py",)

#: builtin calls that neutralize value-nondeterminism for our purposes
#: (structure/size queries, type predicates)
_NEUTRAL_BUILTINS = {"len", "bool", "isinstance", "type", "id", "repr"}


@dataclass
class TaintedCall:
    """A tainted value reaching a sink argument."""

    caller: str              #: qualname of the function containing the sink call
    sink: str                #: resolved sink callee qualname
    node: ast.Call
    module: str
    source_hint: str         #: which source family started the taint


@dataclass
class _FunctionTaint:
    tainted_names: Set[str] = field(default_factory=set)
    tainted_params: Set[str] = field(default_factory=set)
    returns_tainted: bool = False
    source_hint: str = ""


class TaintAnalysis:
    """Context-insensitive determinism-taint fixpoint over a project."""

    def __init__(self, project: Project, graph: CallGraph) -> None:
        self.project = project
        self.graph = graph
        self._state: Dict[str, _FunctionTaint] = {
            name: _FunctionTaint() for name in sorted(project.functions)
        }
        self._run_fixpoint()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def returns_tainted(self, qualname: str) -> bool:
        state = self._state.get(qualname)
        return state is not None and state.returns_tainted

    def sink_violations(self) -> List[TaintedCall]:
        """Every tainted-value-reaches-sink call site, sorted."""
        violations: List[TaintedCall] = []
        for qualname in sorted(self._state):
            fn = self.project.functions[qualname]
            mod = self.project.modules[fn.module]
            if self._exempt(mod):
                continue
            state = self._state[qualname]
            for site in self.graph.callees(qualname):
                sink = self._sink_of(site)
                if sink is None:
                    continue
                for arg in self._call_args(site.node):
                    if self._expr_tainted(arg, fn, mod, state):
                        violations.append(
                            TaintedCall(
                                caller=qualname,
                                sink=sink,
                                node=site.node,
                                module=fn.module,
                                source_hint=state.source_hint or "clock/rng",
                            )
                        )
                        break
        violations.sort(
            key=lambda v: (v.module, v.node.lineno, v.node.col_offset, v.sink)
        )
        return violations

    # ------------------------------------------------------------------
    # fixpoint
    # ------------------------------------------------------------------
    def _run_fixpoint(self) -> None:
        # a tiny monotone lattice: tainted_names / params / returns only
        # grow, so iterating until no change terminates
        for _ in range(len(self._state) + 2):
            changed = False
            for qualname in sorted(self._state):
                if self._update_function(qualname):
                    changed = True
            if not changed:
                return

    def _update_function(self, qualname: str) -> bool:
        fn = self.project.functions[qualname]
        mod = self.project.modules[fn.module]
        state = self._state[qualname]
        changed = False
        if self._exempt(mod):
            return False
        # (re)propagate through assignments until locally stable
        for _ in range(8):
            local_change = False
            for node in fn.body_nodes():
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    value = node.value
                    if value is None:
                        continue
                    if self._expr_tainted(value, fn, mod, state):
                        targets = (
                            node.targets if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for target in targets:
                            for name in _target_names(target):
                                if name not in state.tainted_names:
                                    state.tainted_names.add(name)
                                    local_change = True
            if not local_change:
                break
            changed = True
        # return taint
        if not state.returns_tainted:
            for node in fn.body_nodes():
                if isinstance(node, ast.Return) and node.value is not None:
                    if self._expr_tainted(node.value, fn, mod, state):
                        state.returns_tainted = True
                        changed = True
                        break
            if isinstance(fn.node, ast.Lambda) and not state.returns_tainted:
                if self._expr_tainted(fn.node.body, fn, mod, state):
                    state.returns_tainted = True
                    changed = True
        # argument taint crosses into callees' parameters
        for site in self.graph.callees(qualname):
            if site.callee not in self._state:
                continue
            callee_fn = self.project.functions[site.callee]
            callee_state = self._state[site.callee]
            params = callee_fn.param_names()
            offset = 1 if callee_fn.is_method and params[:1] == ["self"] else 0
            for position, arg in enumerate(site.node.args):
                if not self._expr_tainted(arg, fn, mod, state):
                    continue
                index = position + offset
                if index < len(params):
                    name = params[index]
                    if name not in callee_state.tainted_params:
                        callee_state.tainted_params.add(name)
                        callee_state.tainted_names.add(name)
                        if not callee_state.source_hint:
                            callee_state.source_hint = (
                                state.source_hint or "argument"
                            )
                        changed = True
            for keyword in site.node.keywords:
                if keyword.arg is None:
                    continue
                if self._expr_tainted(keyword.value, fn, mod, state):
                    if keyword.arg in params and (
                        keyword.arg not in callee_state.tainted_params
                    ):
                        callee_state.tainted_params.add(keyword.arg)
                        callee_state.tainted_names.add(keyword.arg)
                        if not callee_state.source_hint:
                            callee_state.source_hint = (
                                state.source_hint or "argument"
                            )
                        changed = True
        return changed

    # ------------------------------------------------------------------
    # expression taint
    # ------------------------------------------------------------------
    def _expr_tainted(
        self,
        node: ast.AST,
        fn: FunctionInfo,
        mod: ModuleInfo,
        state: _FunctionTaint,
    ) -> bool:
        if isinstance(node, ast.Name):
            return node.id in state.tainted_names
        if isinstance(node, ast.Call):
            hint = self._source_call(node, mod)
            if hint is not None:
                if not state.source_hint:
                    state.source_hint = hint
                return True
            func = node.func
            if isinstance(func, ast.Name) and func.id in _NEUTRAL_BUILTINS:
                return False
            resolved = self._resolve_site(fn, node)
            if resolved is not None and self.returns_tainted(resolved):
                if not state.source_hint:
                    callee_hint = self._state[resolved].source_hint
                    state.source_hint = callee_hint or "call"
                return True
            # a call *on* a tainted receiver stays tainted
            if isinstance(func, ast.Attribute):
                return self._expr_tainted(func.value, fn, mod, state)
            return False
        if isinstance(node, ast.Attribute):
            return self._expr_tainted(node.value, fn, mod, state)
        if isinstance(node, ast.Subscript):
            return self._expr_tainted(node.value, fn, mod, state)
        if isinstance(node, (ast.BinOp,)):
            return self._expr_tainted(
                node.left, fn, mod, state
            ) or self._expr_tainted(node.right, fn, mod, state)
        if isinstance(node, ast.UnaryOp):
            return self._expr_tainted(node.operand, fn, mod, state)
        if isinstance(node, ast.IfExp):
            return self._expr_tainted(
                node.body, fn, mod, state
            ) or self._expr_tainted(node.orelse, fn, mod, state)
        if isinstance(node, ast.JoinedStr):
            return any(
                self._expr_tainted(v.value, fn, mod, state)
                for v in node.values
                if isinstance(v, ast.FormattedValue)
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(
                self._expr_tainted(e, fn, mod, state) for e in node.elts
            )
        if isinstance(node, ast.Dict):
            return any(
                v is not None and self._expr_tainted(v, fn, mod, state)
                for v in list(node.keys) + list(node.values)
            )
        if isinstance(node, ast.FormattedValue):
            return self._expr_tainted(node.value, fn, mod, state)
        return False

    def _resolve_site(
        self, fn: FunctionInfo, node: ast.Call
    ) -> Optional[str]:
        for site in self.graph.callees(fn.qualname):
            if site.node is node and site.callee in self._state:
                return site.callee
        return None

    def _source_call(self, node: ast.Call, mod: ModuleInfo) -> Optional[str]:
        """Is this call a direct nondeterminism source?  Returns a
        human-readable hint, or None."""
        chain = dotted(node.func)
        if not chain:
            return None
        head = chain.split(".")[0]
        expanded = chain
        if head in mod.imports:
            expanded = ".".join([mod.imports[head]] + chain.split(".")[1:])
        if expanded in _SOURCE_CALLS:
            return expanded
        if expanded in _RANDOM_MODULE_CALLS:
            return expanded
        if expanded.startswith("numpy.random.") and not node.args:
            return expanded
        if expanded.startswith("numpy.random.") and expanded.endswith(
            ("shuffle", "permutation", "random", "rand", "randn", "randint")
        ):
            return expanded
        # random.Random() / default_rng() with no seed argument
        leaf = expanded.split(".")[-1]
        if leaf in ("Random", "default_rng") and not node.args and not (
            node.keywords
        ):
            if expanded.startswith(("random.", "numpy.random.")):
                return expanded
        return None

    def _sink_of(self, site: CallSite) -> Optional[str]:
        if site.callee.startswith(("external:", "param:")):
            return None
        callee_fn = self.project.functions.get(site.callee)
        if callee_fn is None:
            return None
        if callee_fn.module in _SINK_MODULES:
            return site.callee
        return None

    @staticmethod
    def _call_args(node: ast.Call) -> List[ast.AST]:
        args: List[ast.AST] = list(node.args)
        args.extend(k.value for k in node.keywords)
        return args

    @staticmethod
    def _exempt(mod: ModuleInfo) -> bool:
        if mod.ctx.is_benchmark:
            return True
        rel = mod.rel_path.replace("\\", "/")
        return any(rel.endswith(suffix) for suffix in _EXEMPT_SOURCE_FILES)


def _target_names(target: ast.AST) -> List[str]:
    names: List[str] = []
    if isinstance(target, ast.Name):
        names.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            names.extend(_target_names(element))
    elif isinstance(target, ast.Starred):
        names.extend(_target_names(target.value))
    return names
