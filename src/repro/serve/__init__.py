"""The verification service: VerifAI behind a long-lived HTTP front end.

The paper's promise is verification *in the serving path* of generative
AI; this package turns the library + one-shot CLI into that shape.  A
stdlib-``asyncio`` HTTP server exposes the pipeline
(``POST /verify``, ``POST /verify-batch``), its lineage
(``GET /explain/<record_id>``, ``GET /trace/<trace_id>``), and its
operational surface (``GET /metrics`` in Prometheus text exposition,
``GET /healthz``).  Requests flow through an admission controller — a
bounded FIFO queue in front of the one thread that verifies — so
overload sheds deterministically with ``429`` + ``Retry-After`` instead
of collapsing, and every request's verification is traced end to end
(span tree ↔ provenance record, both ways).

``repro.serve.loadgen`` holds the seeded request mix the service is
load-tested with (byte-stable, pinned by :func:`mix_digest`); the
benchmark (``bench/``) replays it against a server process.

See docs/serving.md for the endpoint and knob reference.
"""

from repro.serve.admission import AdmissionController, ServiceOverloaded
from repro.serve.app import VerificationService
from repro.serve.config import ServeConfig
from repro.serve.loadgen import build_request_mix, mix_digest
from repro.serve.prometheus import render_prometheus
from repro.serve.runner import ServerThread

__all__ = [
    "AdmissionController",
    "ServeConfig",
    "ServerThread",
    "ServiceOverloaded",
    "VerificationService",
    "build_request_mix",
    "mix_digest",
    "render_prometheus",
]
