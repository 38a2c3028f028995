"""Tokenization, normalization, analysis and sentence splitting."""

import gc
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.analysis import sanitizer
from repro.obs.metrics import get_registry
from repro.text import analyze, normalize, sentences, tokenize
from repro.text.stem import stem
from repro.text.stopwords import is_stopword
from repro.text.tokenize import _TOKEN_RE

# ``repro.text.tokenize`` the attribute is the function; this is the module
tokenize_module = sys.modules["repro.text.tokenize"]

OPTION_PAIRS = [(False, False), (False, True), (True, False), (True, True)]


def per_occurrence_analyze(text, remove_stopwords=True, stemming=True):
    """``analyze`` as it was before the word table: every occurrence is
    stop-checked and stemmed.  The oracle the table walk must equal."""
    out = []
    for match in _TOKEN_RE.finditer(normalize(text)):
        token = match.group(0)
        if remove_stopwords and is_stopword(token):
            continue
        if stemming and token[0].isalpha():
            token = stem(token)
        out.append(token)
    return out


def forget_everything():
    """Empty the word tables (a cold process)."""
    for table in tokenize_module._WORD_TABLES.values():
        table.clear()


#: the shapes the analysis treats specially: stop words, inflections the
#: stemmer strips, possessives and inner apostrophes, signed / separated
#: / decimal numbers, digits glued to letters, accents, non-ASCII digits
FRAGMENTS = [
    "the", "The", "of", "was", "their", "elections", "running", "cities",
    "voted", "classes", "quickly", "bus", "this", "o'brien", "o'brien's",
    "district's", "dogs'", "'quoted'", "it's", "1,234", "-3.5", "+7",
    "1,234,567.89", "12.", ".5", "3rd", "a1", "a1's", "1-2", "1,,2", "--4",
    "Café", "Renée", "naïve", "e\u0301lan", "\u0663", "x\u00a0y", "ǅ", "ß",
]
SEPARATORS = [" ", " ", "  ", "\t", "\n", ", ", "; ", " : ", "'", "-", ".", ""]
analysed_text = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=6)),
        st.sampled_from(SEPARATORS),
    ),
    max_size=14,
).map(lambda parts: "".join(piece + gap for piece, gap in parts))


class TestNormalize:
    def test_lowercases(self):
        assert normalize("Tom JENKINS") == "tom jenkins"

    def test_strips_accents(self):
        assert normalize("Café Renée") == "cafe renee"

    def test_collapses_whitespace(self):
        assert normalize("  a \t b\n c ") == "a b c"

    def test_empty(self):
        assert normalize("") == ""

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once


class TestTokenize:
    def test_words_and_numbers(self):
        assert tokenize("Meagan Good, 1,234 votes (51.2%)") == [
            "meagan", "good", "1,234", "votes", "51.2",
        ]

    def test_negative_number(self):
        assert "-3.5" in tokenize("temperature -3.5 degrees")

    def test_apostrophe_names(self):
        # one inner apostrophe is kept; a trailing possessive splits off
        assert tokenize("o'brien wrote") == ["o'brien", "wrote"]
        assert tokenize("o'brien's book") == ["o'brien", "s", "book"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_only(self):
        assert tokenize("... --- !!!") == []

    @given(st.text(max_size=80))
    def test_tokens_never_empty(self, text):
        assert all(token for token in tokenize(text))

    @given(st.text(max_size=80))
    def test_tokens_present_in_normalized_text(self, text):
        normalized = normalize(text)
        for token in tokenize(text):
            assert token in normalized


class TestAnalyze:
    def test_removes_stopwords(self):
        assert "the" not in analyze("the quick fox")

    def test_stems_plurals(self):
        assert "election" in analyze("elections")

    def test_keeps_numbers_verbatim(self):
        assert "1,234" in analyze("1,234 votes")

    def test_options_disable(self):
        tokens = analyze("the elections", remove_stopwords=False, stemming=False)
        assert tokens == ["the", "elections"]


class TestAnalyzeEqualsPerOccurrence:
    """The table walk returns, list for list, what stop-checking and
    stemming every occurrence returns — whatever the table already
    holds."""

    @pytest.mark.parametrize("remove_stopwords, stemming", OPTION_PAIRS)
    @given(text=analysed_text)
    def test_cold_then_warm(self, remove_stopwords, stemming, text):
        expected = per_occurrence_analyze(text, remove_stopwords, stemming)
        forget_everything()
        cold = analyze(text, remove_stopwords, stemming)
        # every word of the second call is a table hit
        table_hit = analyze(text, remove_stopwords, stemming)
        assert cold == table_hit == expected

    @pytest.mark.parametrize("remove_stopwords, stemming", OPTION_PAIRS)
    @given(texts=st.lists(analysed_text, min_size=2, max_size=5))
    def test_whatever_earlier_payloads_left_in_the_table(
        self, remove_stopwords, stemming, texts
    ):
        forget_everything()
        for text in texts:
            assert analyze(
                text, remove_stopwords, stemming
            ) == per_occurrence_analyze(text, remove_stopwords, stemming)

    @pytest.mark.parametrize("remove_stopwords, stemming", OPTION_PAIRS)
    @given(texts=st.lists(analysed_text, min_size=1, max_size=5))
    def test_a_full_table_still_answers_and_never_outgrows_its_bound(
        self, remove_stopwords, stemming, texts
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tokenize_module, "WORD_TABLE_SIZE", 4)
            forget_everything()
            for text in texts + texts:
                assert analyze(
                    text, remove_stopwords, stemming
                ) == per_occurrence_analyze(text, remove_stopwords, stemming)
                assert all(
                    len(table) <= 4
                    for table in tokenize_module._WORD_TABLES.values()
                )

    def test_the_option_pairs_do_not_share_forms(self):
        forget_everything()
        text = "The elections of the cities"
        assert analyze(text, True, True) == ["election", "city"]
        assert analyze(text, True, False) == ["elections", "cities"]
        assert analyze(text, False, True) == [
            "the", "election", "of", "the", "city",
        ]
        assert analyze(text, False, False) == [
            "the", "elections", "of", "the", "cities",
        ]

    def test_mutating_the_answer_does_not_change_the_next_one(self):
        text = "running elections in 1,234 cities"
        first = analyze(text)
        expected = list(first)
        first.append("intruder")
        first[0] = "vandal"
        assert analyze(text) == expected

    def test_every_holder_of_a_word_holds_one_object(self):
        forget_everything()
        first = analyze("the elections were running")
        second = analyze("an election; he runs")
        assert first == second == ["election", "run"]
        assert first[0] is second[0] is sys.intern("election")
        assert first[1] is second[1] is sys.intern("run")


def retained_bytes(work):
    """Bytes still allocated after ``work()`` returns, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        work()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return sum(
        max(stat.size_diff, 0)
        for stat in after.compare_to(before, "filename")
    )


class TestNoPayloadOutlivesItsCall:
    """Nothing is memoised per payload: analysing a stream of fresh
    payloads over a fixed vocabulary retains what the word table learns
    and nothing else.  A payload cache would hold each payload's text
    and analysis (~0.5 KB here), ~1 MB for the 2,000 below."""

    VOCABULARY = [
        "elections", "district", "running", "party", "votes", "the", "of",
        "candidate", "incumbent", "cities", "o'brien", "1,234", "-3.5",
        "Café", "won", "lost", "seat", "county", "turnout", "51.2",
    ]

    def fresh_payloads(self, seed):
        rng = random.Random(seed)
        payloads = [
            " ".join(rng.choices(self.VOCABULARY, k=27)) for _ in range(2000)
        ]
        assert len(set(payloads)) == 2000
        return payloads

    def analyse_all(self, payloads):
        def work():
            for text in payloads:
                analyze(text)
        return work

    def test_a_warm_table_retains_nothing_per_payload(self):
        analyze(" ".join(self.VOCABULARY))  # every word in the table
        words = sum(map(len, tokenize_module._WORD_TABLES.values()))
        grown = retained_bytes(self.analyse_all(self.fresh_payloads(7)))
        assert sum(map(len, tokenize_module._WORD_TABLES.values())) == words
        assert grown < 16 * 1024, grown

    def test_retained_growth_is_bounded_by_the_word_table(self):
        forget_everything()
        grown = retained_bytes(self.analyse_all(self.fresh_payloads(11)))
        words = sum(map(len, tokenize_module._WORD_TABLES.values()))
        assert words == len(self.VOCABULARY)
        # a table entry is a dict slot, an interned key and its form
        assert grown < 16 * 1024 + words * 512, (grown, words)

    def test_every_call_returns_a_fresh_list(self):
        text = "running elections in 1,234 cities"
        first, second = analyze(text), analyze(text)
        assert first == second == ["run", "election", "1,234", "city"]
        assert first is not second
        assert type(first) is list

    def test_no_payload_cache_counter_is_emitted(self):
        analyze("a payload only this test analyses")
        analyze("a payload only this test analyses")
        names = get_registry().instruments()
        assert not [name for name in names if "analyze_cache" in name]


class TestWordTableInstruments:
    def test_one_miss_per_new_word_not_per_token(self):
        forget_everything()
        registry = get_registry()
        misses = registry.counter("text.word_table.misses")
        entries = registry.gauge("text.word_table.entries")
        before = misses.value
        analyze("zebra zebra zebra quagga the the")
        assert misses.value == before + 3  # zebra, quagga, the
        assert entries.value == 3
        analyze("zebra zebra zebra quagga the the")
        analyze("the quagga")
        assert misses.value == before + 3
        analyze("zebra", remove_stopwords=False)  # another pair's table
        assert misses.value == before + 4
        assert entries.value == 4

    def test_a_saturated_table_shows_as_misses_without_entries(
        self, monkeypatch
    ):
        monkeypatch.setattr(tokenize_module, "WORD_TABLE_SIZE", 2)
        forget_everything()
        registry = get_registry()
        misses = registry.counter("text.word_table.misses")
        entries = registry.gauge("text.word_table.entries")
        analyze("alpha beta")
        before = misses.value
        assert entries.value == 2
        for number in range(5):
            analyze(f"gamma gamma {number}")
        # gamma is computed at both occurrences, every time
        assert misses.value == before + 15
        assert entries.value == 2


class TestThreadHammer:
    """Eight threads analyse overlapping texts while the table fills and
    after it is full; ``make sanitize`` runs this file under the lockset
    sanitizer, and the test enables it itself for tier-1."""

    def test_concurrent_analysis_equals_the_oracle(self, monkeypatch):
        rng = random.Random(5)
        words = [f"{stem_}{end}" for stem_ in (
            "elect", "vot", "runn", "cit", "district", "party", "o'brien",
        ) for end in ("", "s", "ing", "ed", "ies", "'s")]
        words += ["the", "of", "was", "1,234", "-3.5", "Café"]
        words += [str(number) for number in range(40)]
        texts = [
            " ".join(rng.choices(words, k=rng.randint(1, 12)))
            for _ in range(120)
        ]
        expected = {
            (text, pair): per_occurrence_analyze(text, *pair)
            for text in texts
            for pair in OPTION_PAIRS
        }
        # 88 distinct words: each table fills part-way through the run
        # and is full for the rest of it
        monkeypatch.setattr(tokenize_module, "WORD_TABLE_SIZE", 64)
        forget_everything()
        wrong = []
        errors = []
        together = threading.Barrier(8)

        def worker(worker_id):
            order = list(expected)
            random.Random(worker_id).shuffle(order)
            try:
                together.wait(timeout=60)
                for text, pair in order:
                    if analyze(text, *pair) != expected[text, pair]:
                        wrong.append((text, pair))
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with sanitizer.sanitized() as found:
                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert not wrong
        assert found == []
        sizes = [len(t) for t in tokenize_module._WORD_TABLES.values()]
        assert sizes == [64, 64, 64, 64]


class TestSentences:
    def test_splits_on_period(self):
        parts = sentences("First sentence. Second one. Third here.")
        assert len(parts) == 3

    def test_keeps_abbrev_numbers_together(self):
        parts = sentences("He won 51.2 percent. She lost.")
        assert len(parts) == 2

    def test_empty(self):
        assert sentences("") == []

    def test_single_sentence_no_terminal(self):
        assert sentences("no terminal punctuation") == [
            "no terminal punctuation"
        ]
