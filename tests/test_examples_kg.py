"""The knowledge-graph examples run.

``examples/kg_verification.py`` and ``examples/crossmodal_discovery.py``
are the library's only readers of the opt-in KG: they get their lake
from ``get_context``, which asks for it.  Each ``main()`` runs here and
must find the graph filled.
"""

import importlib.util
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_kg_verification_grounds_claims_in_triples(capsys):
    out = run_example("kg_verification", capsys)
    first = out.splitlines()[0]
    assert first.startswith("knowledge graph: ") and not first.startswith(
        "knowledge graph: 0 "
    )
    assert "[kg] Verified" in out
    assert "[kg] Refuted" in out
    assert "indexer retrieval of the entity: kg:" in out


def test_crossmodal_discovery_embeds_the_kg(capsys):
    out = run_example("crossmodal_discovery", capsys)
    assert out.startswith("cross-modal space: ")
    assert "[kg_entity]" in out
    assert "\npage: page-" in out
