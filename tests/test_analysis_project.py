"""Unit tests for the whole-program project model and call graph.

These pin down the resolution semantics the interprocedural rules rely
on: import-alias expansion, method resolution through base classes,
dynamic-dispatch fallback, nested/lambda symbols, and the thread-entry
classification (including the deliberate exclusion of process pools).
"""

from repro.analysis.callgraph import CallGraph
from repro.analysis.project import Project, module_name_for


def graph_for(sources):
    project = Project.from_sources(sources)
    return project, CallGraph(project)


def callee_names(graph, qualname):
    return [site.callee for site in graph.callees(qualname)]


# ----------------------------------------------------------------------
# module naming and symbol tables
# ----------------------------------------------------------------------
def test_module_name_strips_src_and_py():
    assert module_name_for("src/repro/core/batch.py") == "repro.core.batch"
    assert module_name_for("src/repro/index/__init__.py") == "repro.index"
    assert module_name_for("tools/script.py") == "tools.script"


def test_symbol_table_covers_nested_functions_and_lambdas():
    project = Project.from_sources({
        "src/repro/a.py": (
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    f = lambda: inner()\n"
            "    return f\n"
        ),
    })
    assert "repro.a.outer" in project.functions
    assert "repro.a.outer.inner" in project.functions
    lambdas = [q for q in project.functions if "<lambda:" in q]
    assert lambdas == ["repro.a.outer.<lambda:4>"]


def test_import_map_handles_aliases_and_relative_imports():
    project = Project.from_sources({
        "src/repro/pkg/mod.py": (
            "import threading as th\n"
            "from repro.index import executor\n"
            "from . import sibling\n"
            "from .other import helper\n"
        ),
        "src/repro/pkg/sibling.py": "X = 1\n",
        "src/repro/pkg/other.py": "def helper():\n    return 2\n",
    })
    imports = project.modules["repro.pkg.mod"].imports
    assert imports["th"] == "threading"
    assert imports["executor"] == "repro.index.executor"
    assert imports["sibling"] == "repro.pkg.sibling"
    assert imports["helper"] == "repro.pkg.other.helper"


def test_resolve_method_walks_project_visible_bases():
    project = Project.from_sources({
        "src/repro/base.py": (
            "class Base:\n"
            "    def shared(self):\n"
            "        return 1\n"
        ),
        "src/repro/child.py": (
            "from repro.base import Base\n"
            "class Child(Base):\n"
            "    def own(self):\n"
            "        return self.shared()\n"
        ),
    })
    child = project.classes["repro.child.Child"]
    resolved = project.resolve_method(child, "shared")
    assert resolved is not None
    assert resolved.qualname == "repro.base.Base.shared"


# ----------------------------------------------------------------------
# call resolution
# ----------------------------------------------------------------------
def test_cross_module_name_call_resolves_through_imports():
    _, graph = graph_for({
        "src/repro/a.py": (
            "from repro.b import helper\n"
            "def run():\n"
            "    return helper()\n"
        ),
        "src/repro/b.py": "def helper():\n    return 1\n",
    })
    assert callee_names(graph, "repro.a.run") == ["repro.b.helper"]


def test_self_method_call_resolves_through_mro():
    _, graph = graph_for({
        "src/repro/m.py": (
            "class Base:\n"
            "    def step(self):\n"
            "        return 0\n"
            "class Impl(Base):\n"
            "    def run(self):\n"
            "        return self.step()\n"
        ),
    })
    assert callee_names(graph, "repro.m.Impl.run") == ["repro.m.Base.step"]


def test_class_constructor_resolves_to_init():
    _, graph = graph_for({
        "src/repro/m.py": (
            "class Widget:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "def build():\n"
            "    return Widget()\n"
        ),
    })
    assert callee_names(graph, "repro.m.build") == [
        "repro.m.Widget.__init__"
    ]


def test_injected_callable_becomes_param_edge():
    _, graph = graph_for({
        "src/repro/m.py": (
            "def run(callback):\n"
            "    return callback()\n"
        ),
    })
    sites = graph.callees("repro.m.run")
    assert [s.callee for s in sites] == ["param:callback"]
    assert sites[0].is_param


def test_unknown_receiver_falls_back_to_all_project_methods():
    _, graph = graph_for({
        "src/repro/a.py": (
            "class IndexA:\n"
            "    def search(self, q):\n"
            "        return []\n"
        ),
        "src/repro/b.py": (
            "class IndexB:\n"
            "    def search(self, q):\n"
            "        return []\n"
        ),
        "src/repro/c.py": (
            "def query(index, q):\n"
            "    return index.search(q)\n"
        ),
    })
    sites = graph.callees("repro.c.query")
    assert sorted(s.callee for s in sites) == [
        "repro.a.IndexA.search",
        "repro.b.IndexB.search",
    ]


def test_unresolved_calls_keep_external_identity():
    _, graph = graph_for({
        "src/repro/m.py": (
            "import json\n"
            "def run(payload):\n"
            "    return json.dumps(payload)\n"
        ),
    })
    assert callee_names(graph, "repro.m.run") == ["external:json.dumps"]


def test_reachable_and_path_follow_transitive_calls():
    _, graph = graph_for({
        "src/repro/m.py": (
            "def a():\n    return b()\n"
            "def b():\n    return c()\n"
            "def c():\n    return 1\n"
            "def unrelated():\n    return 2\n"
        ),
    })
    reachable = graph.reachable(["repro.m.a"])
    assert "repro.m.c" in reachable
    assert "repro.m.unrelated" not in reachable
    assert graph.path(["repro.m.a"], "repro.m.c") == [
        "repro.m.a", "repro.m.b", "repro.m.c"
    ]
    assert graph.path(["repro.m.unrelated"], "repro.m.c") == []


# ----------------------------------------------------------------------
# thread entry classification
# ----------------------------------------------------------------------
def test_thread_target_and_pool_submit_are_thread_entries():
    _, graph = graph_for({
        "src/repro/m.py": (
            "import threading\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def worker():\n    return 1\n"
            "def mapped(x):\n    return x\n"
            "def run():\n"
            "    t = threading.Thread(target=worker)\n"
            "    t.start()\n"
            "    with ThreadPoolExecutor() as pool:\n"
            "        pool.submit(worker)\n"
            "        list(pool.map(mapped, [1, 2]))\n"
        ),
    })
    assert graph.thread_entries == ["repro.m.mapped", "repro.m.worker"]


def test_process_pool_workers_are_not_thread_entries():
    _, graph = graph_for({
        "src/repro/m.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def worker(x):\n    return x\n"
            "def run():\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        pool.submit(worker, 1)\n"
        ),
    })
    assert graph.thread_entries == []


def test_project_process_pool_factory_is_excluded():
    _, graph = graph_for({
        "src/repro/pool.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def shared_process_pool():\n"
            "    return ProcessPoolExecutor()\n"
        ),
        "src/repro/m.py": (
            "from repro.pool import shared_process_pool\n"
            "def worker(x):\n    return x\n"
            "def run():\n"
            "    pool = shared_process_pool()\n"
            "    pool.submit(worker, 1)\n"
        ),
    })
    assert graph.thread_entries == []


def test_lambda_handed_to_pool_is_a_thread_entry():
    _, graph = graph_for({
        "src/repro/m.py": (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def run(items):\n"
            "    with ThreadPoolExecutor() as pool:\n"
            "        return list(pool.map(lambda x: x + 1, items))\n"
        ),
    })
    assert graph.thread_entries == ["repro.m.run.<lambda:4>"]
