"""Knowledge-graph modality prototype."""

import copy
import pickle
import tracemalloc

from repro.datalake.kg import KGEntity, KGTriple, KnowledgeGraph
from repro.datalake.lake import DataLake
from repro.datalake.persistence import load_lake, save_lake
from repro.workloads.builder import _populate_kg
from repro.workloads.tables import WebTableGenerator


class TestKnowledgeGraph:
    def make(self):
        kg = KnowledgeGraph()
        kg.add("tom jenkins", "party", "republican")
        kg.add("tom jenkins", "district", "ohio 1")
        kg.add("bill hess", "party", "republican")
        return kg

    def test_counts(self):
        kg = self.make()
        assert kg.num_entities == 2
        assert kg.num_triples == 3

    def test_idempotent_add(self):
        kg = self.make()
        kg.add("Tom Jenkins", "Party", "Republican")  # case-insensitive dup
        assert kg.num_triples == 3

    def test_has(self):
        kg = self.make()
        assert kg.has("TOM JENKINS", "party", "republican")
        assert not kg.has("tom jenkins", "party", "democratic")

    def test_objects(self):
        kg = self.make()
        assert kg.objects("tom jenkins", "district") == ["ohio 1"]
        assert kg.objects("nobody", "party") == []

    def test_entity_view(self):
        entity = self.make().entity("tom jenkins")
        assert entity is not None
        assert len(entity.triples) == 2

    def test_entity_missing(self):
        assert self.make().entity("nobody") is None

    def test_entities_iteration(self):
        names = {e.name for e in self.make().entities()}
        assert names == {"tom jenkins", "bill hess"}

    def test_a_duplicate_returns_the_stored_triple(self):
        kg = KnowledgeGraph()
        stored = kg.add("tom jenkins", "party", "republican")
        duplicate = kg.add("Tom Jenkins", "PARTY", "Republican")
        assert duplicate is stored
        assert duplicate.subject == "tom jenkins"
        assert kg.num_triples == 1
        assert kg.entity("tom jenkins").triples == [stored]

    def test_has_is_case_insensitive_after_load(self, tmp_path):
        lake = DataLake(name="kg")
        lake.kg.add("Tom Jenkins", "Party", "Republican")
        save_lake(lake, tmp_path / "lake.json")
        loaded = load_lake(tmp_path / "lake.json").kg
        assert loaded.has("TOM JENKINS", "party", "REPUBLICAN")
        assert loaded.has("tom jenkins", "Party", "republican")
        assert not loaded.has("tom jenkins", "party", "democratic")
        assert not loaded.has("bill hess", "party", "republican")
        assert loaded.num_triples == 1

    def test_the_first_subject_spelling_wins_the_slug(self):
        kg = KnowledgeGraph()
        kg.add("Tom Jenkins", "party", "republican")
        kg.add("tom jenkins", "district", "ohio 1")
        entity = kg.entity_by_id("kg:tom_jenkins")
        assert entity.name == "Tom Jenkins"
        assert len(entity.triples) == 2
        assert [e.name for e in kg.entities()] == ["Tom Jenkins"]
        assert kg.entity_by_id("kg:bill_hess") is None
        assert kg.entity_by_id("tom_jenkins") is None

    def test_entities_keep_insertion_order(self):
        kg = KnowledgeGraph()
        for subject in ["bill hess", "anne clark", "tom jenkins"]:
            kg.add(subject, "instance of", "politician")
        kg.add("Anne Clark", "party", "democratic")
        kg.add("bill hess", "instance of", "politician")
        entities = list(kg.entities())
        assert [e.name for e in entities] == ["bill hess", "anne clark", "tom jenkins"]
        assert [len(e.triples) for e in entities] == [1, 2, 1]
        assert kg.num_entities == 3
        assert kg.num_triples == 4

    def test_a_lake_kg_holds_each_triple_once(self, kg_bundle):
        # a second list of triples and a set of lowered string copies
        # took 437 B a triple on this lake; one list takes about 104
        generator = WebTableGenerator(seed=kg_bundle.config.seed)
        generator.generate(kg_bundle.config.num_tables)
        lake = DataLake(name="kg")
        tracemalloc.start()
        try:
            _populate_kg(lake, generator.entities)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lake.kg.num_triples == kg_bundle.lake.kg.num_triples
        assert allocated / lake.kg.num_triples < 160


class TestKGEntity:
    def test_serialize(self):
        entity = KGEntity(
            "tom jenkins",
            [KGTriple("tom jenkins", "party", "republican")],
        )
        rendered = entity.serialize()
        assert rendered.splitlines()[0] == "tom jenkins"
        assert "party: republican" in rendered

    def test_triple_has_slots_and_survives_copy_and_pickle(self):
        triple = KGTriple("tom jenkins", "party", "republican")
        assert not hasattr(triple, "__dict__")
        assert copy.copy(triple) == triple
        assert pickle.loads(pickle.dumps(triple)) == triple
        assert hash(KGTriple("tom jenkins", "party", "republican")) == hash(triple)

    def test_instance_id(self):
        assert KGEntity("Tom Jenkins").instance_id == "kg:tom_jenkins"

    def test_kg_entities_indexable(self, tiny_lake):
        """KG entities flow through the same content-index path."""
        from repro.index.inverted import InvertedIndex

        tiny_lake.kg.add("valoria", "instance of", "nation")
        tiny_lake.kg.add("valoria", "gold", "10")
        index = InvertedIndex()
        for entity in tiny_lake.kg.entities():
            index.add(entity.instance_id, entity.serialize())
        hits = index.search("valoria gold", k=1)
        assert hits and hits[0].instance_id == "kg:valoria"
