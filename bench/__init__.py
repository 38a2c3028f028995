"""The end-to-end benchmark for the VerifAI reproduction.

One seeded command measures five workloads over the Indexer ->
Reranker -> Verifier pipeline and its HTTP front end: end to end with
tracing off, and layer by layer in a separate traced pass that times
calls into each layer's public functions from outside.  See
``bench/README.md`` for the workloads, the metrics, and how to read the
numbers; ``BENCHMARK.json`` at the repository root declares them.
"""
