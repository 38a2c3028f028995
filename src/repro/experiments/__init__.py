"""Experiment runners for every table and figure in the paper.

Each module reproduces one piece of Section 4:

* :mod:`repro.experiments.headline` — the 0.52 / 0.54 no-evidence
  accuracies that motivate verification;
* :mod:`repro.experiments.table1` — retrieval recall (Table 1);
* :mod:`repro.experiments.table2` — verifier accuracy (Table 2);
* :mod:`repro.experiments.figures` — the Figure 1 and Figure 4 case
  studies;
* :mod:`repro.experiments.ablations` — design-choice ablations
  (retrieval depth, combiner, ANN index, trust weighting), sensitivity
  sweeps, and the local-verifier and (text, text) extensions;
* :mod:`repro.experiments.routes` — the rerank routes, arm by arm;
* :mod:`repro.experiments.endtoend` — final-verdict accuracy of the
  whole pipeline.

:func:`repro.experiments.setup.get_context` builds (and caches) the
shared corpus + workloads + models for a scale profile, with the
labelled objects every experiment verifies.  The experiments run the
system itself: an end-to-end or trust row is a ``VerifAI.verify_batch``
campaign, a per-pair row asks the system's Verifier
(``VerifierModule.verify_one``), and every accuracy is
:func:`repro.metrics.evaluation.accuracy`.
"""

from repro.experiments.setup import ExperimentContext, get_context

__all__ = ["ExperimentContext", "get_context"]
