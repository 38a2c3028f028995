"""Synthetic corpus generation: tables, pages, bundles, workloads."""

import gc
import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datalake.persistence import save_lake
from repro.workloads.builder import LakeConfig, build_lake
from repro.workloads.claimwl import build_claim_workload
from repro.workloads.tables import DOMAINS, Entity, WebTableGenerator
from repro.workloads.textgen import EntityPageGenerator
from repro.workloads.tuplecomp import build_tuple_workload
from repro.workloads.vocab import (
    ADJECTIVES,
    NOUNS,
    TEAM_CITIES,
    TEAM_MASCOTS,
    EntityNamer,
    Vocabulary,
    _bijective_base26,
    _skip_draws,
)


class TestEntityNamer:
    def test_unique(self):
        namer = EntityNamer(seed=0)
        names = namer.take(500)
        assert len(set(names)) == 500

    def test_deterministic(self):
        assert EntityNamer(seed=3).take(20) == EntityNamer(seed=3).take(20)

    def test_overflow_adds_initials(self):
        namer = EntityNamer(seed=0)
        base_size = len(namer._base)
        names = namer.take(base_size + 5)
        assert len(set(names)) == base_size + 5
        assert any(". " in name for name in names[-5:])

    def test_no_name_repeats_past_26_initials(self):
        namer = EntityNamer(seed=0)
        names = namer.take(172_810)
        assert len(set(names)) == 172_810
        base = namer._base

        def single_initial(i):
            """The one-letter formula every name before 172,800 used."""
            if i < len(base):
                return base[i]
            index = i - len(base)
            first, _, last = base[index % len(base)].partition(" ")
            initial = chr(ord("a") + (index // len(base)) % 26)
            return f"{first} {initial}. {last}"

        assert names[:172_800] == [single_initial(i) for i in range(172_800)]
        first, _, last = base[0].partition(" ")
        assert names[172_800] == f"{first} aa. {last}"

    @pytest.mark.parametrize("number, letters", [
        (1, "a"), (2, "b"), (26, "z"), (27, "aa"), (52, "az"), (53, "ba"),
        (702, "zz"), (703, "aaa"), (18_278, "zzz"), (18_279, "aaaa"),
    ])
    def test_initials_count_in_bijective_base_26(self, number, letters):
        assert _bijective_base26(number) == letters

    def test_initials_never_repeat_and_run_in_length_then_letter_order(self):
        initials = [_bijective_base26(n) for n in range(1, 20_000)]
        assert len(set(initials)) == len(initials)
        assert initials == sorted(initials, key=lambda s: (len(s), s))
        assert set("".join(initials)) == set("abcdefghijklmnopqrstuvwxyz")


class TestVocabulary:
    def test_film_titles_unique(self):
        vocab = Vocabulary(seed=1)
        titles = [vocab.film_title() for _ in range(200)]
        assert len(set(titles)) == 200

    def test_deterministic(self):
        a = Vocabulary(seed=2)
        b = Vocabulary(seed=2)
        assert [a.team_name() for _ in range(10)] == [
            b.team_name() for _ in range(10)
        ]

    @staticmethod
    def choice_unique(vocab, kind, candidates_factory):
        """The rejection loop as it was written over ``random.choice``
        lambdas: the oracle for the stream ``getrandbits`` now draws."""
        used = vocab._used.setdefault(kind, set())
        for _ in range(1000):
            candidate = candidates_factory()
            if candidate not in used:
                used.add(candidate)
                return candidate
        candidate = f"{candidates_factory()} {len(used)}"
        used.add(candidate)
        return candidate

    @pytest.mark.parametrize("kind,method,calls", [
        ("film", "film_title", 950), ("album", "album_title", 1000),
        ("team", "team_name", 450), ("city", "city_name", 1400),
    ])
    def test_draws_match_random_choice_past_the_pool(self, kind, method, calls):
        # pools of 900, 900, 400 and 1,280 names: the last calls find
        # them used up and fall back to numbered names
        prefixes = ["north", "south", "east", "west", "new", "old", "upper", "lower"]
        suffixes = ["heights", "falls", "grove", "junction", "park", "valley",
                    "ridge", "springs"]
        vocab, oracle = Vocabulary(seed=5), Vocabulary(seed=5)
        rng = oracle._rng
        factory = {
            "film": lambda: f"the {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}",
            "album": lambda: f"{rng.choice(ADJECTIVES)} {rng.choice(NOUNS)}",
            "team": lambda: f"{rng.choice(TEAM_CITIES)} {rng.choice(TEAM_MASCOTS)}",
            "city": lambda: (
                f"{rng.choice(prefixes)} {rng.choice(TEAM_CITIES)} "
                f"{rng.choice(suffixes)}"
            ),
        }[kind]
        numbered = 0
        for call in range(calls):
            name = getattr(vocab, method)()
            assert name == self.choice_unique(oracle, kind, factory), call
            assert vocab._rng.getstate() == rng.getstate(), call
            numbered += name.rsplit(" ", 1)[-1].isdigit()
        assert numbered > 0
        assert len(vocab._used[kind]) == calls


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``getrandbits`` calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@st.composite
def small_pools(draw):
    """1-3 pools of 1-40 words whose product stays small enough to use
    up: powers of two beside other sizes, so the pools' acceptance
    limits mix, as the city pools' (8, 20, 8) do."""
    sizes, room = [], 120
    for _ in range(draw(st.integers(1, 3))):
        top = min(40, room)
        size = draw(st.one_of(
            st.sampled_from([n for n in (1, 2, 4, 8, 16, 32) if n <= top]),
            st.integers(1, top),
        ))
        sizes.append(size)
        room = max(1, room // size)
    return [[f"p{i}w{j}" for j in range(size)] for i, size in enumerate(sizes)]


class TestUsedUpPools:
    """A used-up pool skips its certain-to-fail draws in bulk: the names
    and the generator state stay those of the 1,000 literal draws."""

    @settings(max_examples=40, deadline=None)
    @given(pools=small_pools(), seed=st.integers(0, 2**32 - 1),
           share=st.floats(0.0, 2.0))
    @example(pools=[["a"]], seed=0, share=2.0)
    @example(pools=[[f"w{j}" for j in range(n)] for n in (8, 5, 2)],
             seed=3, share=2.0)
    def test_each_call_matches_choice_unique(self, pools, seed, share):
        capacity = math.prod(len(pool) for pool in pools)
        vocab, oracle = Vocabulary(seed), Vocabulary(seed)
        rng = oracle._rng

        def factory():
            return " ".join(rng.choice(pool) for pool in pools)

        for call in range(max(1, round(share * capacity))):
            name = vocab._unique("k", "", pools)
            assert name == TestVocabulary.choice_unique(
                oracle, "k", factory
            ), call
            assert vocab._rng.getstate() == rng.getstate(), call

    @settings(max_examples=40, deadline=None)
    @given(pools=small_pools(), seed=st.integers(0, 2**32 - 1),
           draws=st.integers(1, 300), block=st.integers(1, 3000))
    def test_skip_consumes_the_words_of_the_draws(
        self, pools, seed, draws, block
    ):
        # any first block, too short or long, ends where the draws do
        skipped, drawn = random.Random(seed), random.Random(seed)
        limits = [
            len(pool) << (32 - len(pool).bit_length()) for pool in pools
        ]
        _skip_draws(skipped, limits, draws, block)
        for _ in range(draws):
            for pool in pools:
                drawn.choice(pool)
        assert skipped.getstate() == drawn.getstate()

    @pytest.mark.parametrize("kind,method,capacity", [
        ("city", "city_name", 1280), ("album", "album_title", 900),
        ("team", "team_name", 400),
    ])
    def test_a_used_up_pool_makes_a_handful_of_calls(
        self, kind, method, capacity
    ):
        vocab = Vocabulary(seed=5)
        vocab._rng = counting = CountingRandom(5)
        draw = getattr(vocab, method)
        while vocab._plain[kind] < capacity:
            draw()
        for _ in range(5):
            counting.calls = 0
            assert draw().rsplit(" ", 1)[-1].isdigit()
            # read ahead, consume, and the numbered name's own draw:
            # 1,000 literal draws made thousands (about 5,600 on city)
            assert counting.calls < 40
        assert vocab._plain[kind] == capacity


class TestWebTableGenerator:
    @pytest.fixture(scope="class")
    def tables(self):
        return WebTableGenerator(seed=5).generate(120)

    def test_count(self, tables):
        assert len(tables) == 120

    def test_unique_ids(self, tables):
        ids = [t.table_id for t in tables]
        assert len(set(ids)) == len(ids)

    def test_unique_captions(self, tables):
        captions = [t.caption for t in tables]
        assert len(set(captions)) == len(captions)

    def test_all_domains_present(self, tables):
        domains = {t.metadata["domain"] for t in tables}
        assert domains == set(DOMAINS)

    def test_schema_consistency(self, tables):
        for table in tables:
            assert table.key_column in table.columns
            for column in table.entity_columns:
                assert column in table.columns
            for row in table.rows:
                assert len(row) == table.num_columns

    def test_key_values_unique_within_table(self, tables):
        for table in tables:
            keys = table.column_values(table.key_column)
            assert len(set(keys)) == len(keys), table.table_id

    def test_olympics_totals_consistent(self, tables):
        for table in tables:
            if table.metadata["domain"] != "olympics":
                continue
            for row in table.iter_rows():
                total = row.numeric("gold") + row.numeric("silver") + row.numeric("bronze")
                assert total == row.numeric("total")

    def test_deterministic(self):
        a = WebTableGenerator(seed=8).generate(10)
        b = WebTableGenerator(seed=8).generate(10)
        assert [t.caption for t in a] == [t.caption for t in b]
        assert [t.rows for t in a] == [t.rows for t in b]

    def test_domain_mix_respected(self):
        generator = WebTableGenerator(seed=9)
        tables = generator.generate(30, domain_mix={"films": 1.0})
        assert all(t.metadata["domain"] == "films" for t in tables)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            WebTableGenerator(seed=1).generate(5, domain_mix={"nope": 1.0})

    def test_entities_recorded_with_peers(self, tables):
        generator = WebTableGenerator(seed=5)
        generator.generate(30)
        with_peers = [e for e in generator.entities.values() if e.peers]
        assert with_peers


class TestEntityPageGenerator:
    def test_pages_cover_entities(self):
        generator = WebTableGenerator(seed=6)
        generator.generate(20)
        pages = EntityPageGenerator(seed=1).generate(generator.entities)
        assert len(pages) == len(generator.entities)
        assert all(p.entity for p in pages)

    def test_page_mentions_entity_facts(self):
        generator = WebTableGenerator(seed=7)
        tables = generator.generate(10, domain_mix={"elections": 1.0})
        pages = EntityPageGenerator(seed=1).generate(generator.entities)
        by_entity = {p.entity.lower(): p for p in pages}
        table = tables[0]
        row = table.row(0)
        page = by_entity[row.get("incumbent").lower()]
        assert row.get("votes") in page.text
        assert row.get("party") in page.text.lower()

    def test_boilerplate_level(self):
        generator = WebTableGenerator(seed=7)
        generator.generate(5, domain_mix={"elections": 1.0})
        bare = EntityPageGenerator(seed=1, boilerplate_level=0,
                                   cross_mention_rate=0.0)
        padded = EntityPageGenerator(seed=1, boilerplate_level=4,
                                     cross_mention_rate=0.0)
        bare_pages = bare.generate(generator.entities)
        padded_pages = padded.generate(generator.entities)
        assert sum(len(p.text) for p in padded_pages) > sum(
            len(p.text) for p in bare_pages
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_cross_mention_draw_matches_the_filtered_list(self, seed):
        # the entity's own name stands twice in the pool, in two cases;
        # the draw must skip both, as choice() over the filtered list does
        pool = ["Anne Clark", "Tom Jenkins", "bill hess", "carl may",
                "tom jenkins", "dora lee", "ed stone"]
        entity = Entity("tom jenkins", "politician", True)
        generator = EntityPageGenerator(seed=seed, cross_mention_rate=0.9)
        oracle = random.Random(seed)
        page = generator.page_for(entity, doc_id="p0", mention_pool=pool)
        if oracle.random() < 0.9:
            others = [m for m in pool if m.lower() != entity.name.lower()]
            mention = oracle.choice(others)
            assert page.text.endswith(f"See also {mention.title()}.")
        else:
            assert "See also" not in page.text
        assert generator._rng.getstate() == oracle.getstate()

    def test_a_pool_of_only_the_entity_mentions_nobody(self):
        entity = Entity("tom jenkins", "politician", True)
        generator = EntityPageGenerator(seed=0, cross_mention_rate=1.0)
        oracle = random.Random(0)
        page = generator.page_for(
            entity, doc_id="p0", mention_pool=["Tom Jenkins", "tom jenkins"]
        )
        oracle.random()
        assert "See also" not in page.text
        assert generator._rng.getstate() == oracle.getstate()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EntityPageGenerator(boilerplate_level=-1)
        with pytest.raises(ValueError):
            EntityPageGenerator(cross_mention_rate=2.0)


class TestBuildLake:
    def test_bundle_structure(self, small_bundle):
        stats = small_bundle.lake.stats()
        assert stats.num_tables == 60
        assert stats.num_text_files == len(
            {doc.entity.lower() for doc in small_bundle.lake.documents()}
        )

    def test_entity_pages_resolvable(self, small_bundle):
        # the generator writes one page per entity, so pages_of (which
        # takes an entity's first page) answers as the map build_lake
        # used to keep beside the lake (entity, lowered -> doc_id)
        kept = {}
        for doc in small_bundle.lake.documents():
            assert doc.entity.lower() not in kept, doc.entity
            kept[doc.entity.lower()] = doc.doc_id
        for doc in small_bundle.lake.documents():
            assert small_bundle.pages_of(doc.entity) == kept[doc.entity.lower()]
            assert small_bundle.pages_of(doc.entity.upper()) == doc.doc_id
        assert small_bundle.pages_of("no such entity") is None

    def test_relevant_pages_for_row(self, small_bundle):
        for table in small_bundle.tables[:10]:
            for row in table.iter_rows():
                pages = small_bundle.relevant_pages_for_row(row)
                assert pages, f"no relevant page for {row.instance_id}"
                for doc_id in pages:
                    assert doc_id in small_bundle.lake

    def test_deterministic(self):
        a = build_lake(LakeConfig(num_tables=10, seed=3))
        b = build_lake(LakeConfig(num_tables=10, seed=3))
        assert [t.caption for t in a.tables] == [t.caption for t in b.tables]
        assert [(d.doc_id, d.entity) for d in a.lake.documents()] == [
            (d.doc_id, d.entity) for d in b.lake.documents()
        ]

    @pytest.mark.parametrize("seed,num_tables,digest", [
        (11, 60,
         "60581b62a28297aaa2ae8920e3c15e7740471e742be47fb9a8a8b0c0624d18d1"),
        # large enough that album and city pools run out
        (3, 1200,
         "e66d0a823e3339dee0d658a4bc31ce5753a8bdde8ade411a8a06f826c7b5a0bc"),
        # past half the names drawn from a used-up pool
        pytest.param(
            3, 2400,
            "153dd335a3f76393b94af50f3a4eefdcdaf3ae2aed084f60345efeb7bd3ad42e",
            marks=pytest.mark.slow,
        ),
    ], ids=["seed11-60", "seed3-1200", "seed3-2400"])
    def test_saved_lake_bytes_are_pinned(
        self, tmp_path, seed, num_tables, digest
    ):
        bundle = build_lake(LakeConfig(seed=seed, num_tables=num_tables))
        save_lake(bundle.lake, tmp_path / "lake.json")
        saved = (tmp_path / "lake.json").read_bytes()
        assert hashlib.sha256(saved).hexdigest() == digest

    def test_a_default_lake_keeps_no_entity_record(self):
        def alive():
            return sum(type(o) is Entity for o in gc.get_objects())

        gc.collect()
        before = alive()
        bundle = build_lake(LakeConfig(num_tables=30, seed=3))
        # released when the build returns, without a collection
        assert alive() == before
        assert bundle.lake.stats().num_tables == 30


class TestTupleWorkload:
    def test_tasks_have_counterparts(self, small_bundle):
        workload = build_tuple_workload(small_bundle, num_tasks=30, seed=1)
        assert len(workload) == 30
        for task in workload:
            lake_row = small_bundle.lake.instance(task.row.instance_id)
            assert lake_row.get(task.column) == task.true_value

    def test_key_and_entity_columns_never_blanked(self, small_bundle):
        workload = build_tuple_workload(small_bundle, num_tasks=40, seed=2)
        for task in workload:
            table = small_bundle.lake.table(task.row.table_id)
            assert task.column != table.key_column
            assert task.column not in table.entity_columns

    def test_masked_row(self, small_bundle):
        task = build_tuple_workload(small_bundle, num_tasks=1, seed=3).tasks[0]
        assert task.masked_row().get(task.column) == "NaN"
        assert task.completed_row("X").get(task.column) == "X"

    def test_deterministic(self, small_bundle):
        a = build_tuple_workload(small_bundle, num_tasks=10, seed=4)
        b = build_tuple_workload(small_bundle, num_tasks=10, seed=4)
        assert [t.task_id for t in a] == [t.task_id for t in b]
        assert [t.true_value for t in a] == [t.true_value for t in b]

    def test_invalid_count(self, small_bundle):
        with pytest.raises(ValueError):
            build_tuple_workload(small_bundle, num_tasks=-1)


class TestClaimWorkload:
    def test_size_and_balance(self, small_bundle):
        workload = build_claim_workload(small_bundle, num_claims=40, seed=5)
        assert len(workload) == 40
        assert 0.4 <= workload.positive_fraction <= 0.6

    def test_source_tables_exist(self, small_bundle):
        workload = build_claim_workload(small_bundle, num_claims=20, seed=6)
        for task in workload:
            assert task.table_id in small_bundle.lake

    def test_deterministic(self, small_bundle):
        a = build_claim_workload(small_bundle, num_claims=15, seed=7)
        b = build_claim_workload(small_bundle, num_claims=15, seed=7)
        assert [t.claim.text for t in a] == [t.claim.text for t in b]

    def test_invalid_count(self, small_bundle):
        with pytest.raises(ValueError):
            build_claim_workload(small_bundle, num_claims=-1)
