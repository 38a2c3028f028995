"""Cross-modal verification with a knowledge graph (Section 5 prototype).

The lake's KG modality holds triples derived from the corpus; the local
KG verifier grounds lookup claims in triples, and the Agent routes
(text, KG entity) pairs to it — the paper's proposed direction for
"local models ... such as (text, knowledge graph entity)".

Run:  python examples/kg_verification.py
"""

from repro.core.indexer import IndexerModule
from repro.datalake.types import Modality
from repro.experiments import get_context
from repro.verify.agent import VerifierAgent
from repro.verify.kg_verifier import KGVerifier
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.objects import ClaimObject


def main() -> None:
    context = get_context("small")
    lake = context.bundle.lake
    print(f"knowledge graph: {lake.kg.num_entities} entities, "
          f"{lake.kg.num_triples} triples")

    # pick a politician entity and fabricate one true and one false claim
    entity = next(
        e for e in lake.kg.entities()
        if "party" in {t.predicate for t in e.triples}
    )
    party = next(t.obj for t in entity.triples if t.predicate == "party")
    wrong_party = "democratic" if party == "republican" else "republican"

    agent = VerifierAgent(
        local_verifiers=[KGVerifier()],
        fallback=LLMVerifier(context.verifier_llm),
        prefer_local=True,
    )

    for claim_text in (
        f"the party of {entity.name} is {party}",
        f"the party of {entity.name} is {wrong_party}",
        f"the birthplace of {entity.name} is springfield",
    ):
        claim = ClaimObject("kg-demo", claim_text)
        outcome = agent.verify(claim, entity)
        print(f"\nclaim: {claim_text}")
        print(f"  [{outcome.verifier}] {outcome.verdict}: {outcome.explanation}")

    # KG entities are also retrievable through the ordinary Indexer path;
    # no default route reads them, so the first KG search builds their
    # index, and only theirs
    indexer = IndexerModule(lake)
    hits = indexer.search(entity.name, Modality.KG_ENTITY, 1)
    assert indexer.built_modalities == {Modality.KG_ENTITY}
    print(f"\nindexer retrieval of the entity: {hits[0].instance_id} "
          f"(index built by this search)")


if __name__ == "__main__":
    main()
