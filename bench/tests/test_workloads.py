"""Seeded generators: one seed, one set of inputs."""

import itertools

from repro.serve.loadgen import mix_digest

from bench import workloads


def digests(seed):
    bundle = workloads.build_bundle(seed, workloads.SMOKE_TABLES)
    claims = workloads.take(workloads.claim_stream(bundle, seed), 40)
    tuples = workloads.take(workloads.tuple_stream(bundle, seed), 40)
    mix = workloads.request_mix(bundle.lake, seed, count=60)
    cycles = workloads.take(workloads.churn_schedule(bundle.lake, seed), 3)
    return {
        "lake": workloads.lake_digest(bundle.lake),
        "claims": workloads.objects_digest(i.obj for i in claims),
        "tuples": workloads.objects_digest(i.obj for i in tuples),
        "mix": mix_digest(mix),
        "churn": workloads.objects_digest(
            r.obj for c in cycles for r in c.reads
        ),
    }


def test_same_seed_same_inputs_other_seed_other_inputs():
    first, again, other = digests(5), digests(5), digests(6)
    assert first == again
    for name in first:
        assert first[name] != other[name], name


def test_streams_are_unique_by_content_so_samples_are_disjoint():
    bundle = workloads.build_bundle(5, workloads.SMOKE_TABLES)
    for stream_of in (workloads.claim_stream, workloads.tuple_stream):
        stream = stream_of(bundle, 5)
        warm = workloads.take(stream, 10)
        traced = workloads.take(stream, 30)
        measured = workloads.take(stream, 100)
        keys = [
            workloads.object_key(i.obj)
            for i in itertools.chain(warm, traced, measured)
        ]
        assert len(keys) == 140
        assert len(set(keys)) == len(keys)


def test_tuple_stream_alternates_true_and_corrupted_cells():
    bundle = workloads.build_bundle(5, workloads.SMOKE_TABLES)
    golds = [
        i.gold.name
        for i in workloads.take(workloads.tuple_stream(bundle, 5), 6)
    ]
    assert golds == ["VERIFIED", "REFUTED"] * 3


def test_request_mix_never_repeats_an_object():
    bundle = workloads.build_bundle(5, workloads.SMOKE_TABLES)
    mix = workloads.request_mix(bundle.lake, 5, count=400)
    bodies = [
        repr(sorted(body.items()))
        for request in mix for body in workloads.request_objects(request)
    ]
    assert len(set(bodies)) == len(bodies)
    assert {r.path for r in mix} == {"/verify", "/verify-batch"}


def test_body_gold_reads_the_label_a_tuple_body_shows():
    assert workloads.body_gold({"kind": "claim", "text": "x"}) is None
    assert workloads.body_gold({"kind": "tuple"}).name == "VERIFIED"
    assert workloads.body_gold(
        {"kind": "tuple", "value": "9"}
    ).name == "REFUTED"


def test_churn_cycles_probe_table_writes_and_read_25_times():
    bundle = workloads.build_bundle(5, workloads.SMOKE_TABLES)
    kinds = set()
    for cycle in workloads.take(
        workloads.churn_schedule(bundle.lake, 5), 30
    ):
        kinds.add(cycle.kind)
        probes = 0 if cycle.probe_old is None else 3
        assert len(cycle.reads) + probes == workloads.READS_PER_CYCLE
        if cycle.kind == "text":
            assert cycle.probe_old is None and cycle.probe_new is None
        else:
            assert cycle.probe_old.text != cycle.probe_new.text
            assert cycle.probe_old.context == cycle.probe_new.context
    assert kinds == {"cell", "replace", "text"}


def test_corrupt_digits_always_changes_the_value():
    import random

    rng = random.Random(0)
    for value in ("123,456", "7", "no digits", ""):
        assert workloads.corrupt_digits(value, rng) != value
