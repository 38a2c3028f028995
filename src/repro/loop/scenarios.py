"""Seeded convergence scenarios for the orchestrate-until-pass loop.

A :class:`Scenario` is one point on the hallucination-rate x
lake-coverage grid: the generator's parametric memory quality comes
from :class:`~repro.llm.knowledge.WorldKnowledge` knobs (low coverage
=> more hallucinated first drafts), and the lake's evidence coverage
from seeded table removal before the serving system is built (a
removed table takes the tuple counterpart — the strongest repair
signal — with it; entity pages survive, so text evidence may still
verify or refute).

Everything is derived from the scenario's seed and runs under a frozen
:class:`~repro.obs.clock.TickClock`, so a scenario's numbers — and its
audit trail bytes — are a pure function of its definition.  The
default mix is the acceptance campaign: a generator drafting at <= 0.6
first-pass accuracy must converge to >= 0.9 end-state accuracy within
``max_iters=4`` (asserted in ``tests/paper/test_paper_loop.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.llm.knowledge import WorldKnowledge, rng_for
from repro.llm.model import SimulatedLLM
from repro.loop.orchestrator import (
    DraftSpec,
    LoopConfig,
    LoopOrchestrator,
    LoopResult,
)
from repro.obs.clock import Clock, TickClock
from repro.workloads.builder import LakeConfig, build_lake
from repro.workloads.tuplecomp import build_tuple_workload


@dataclass(frozen=True)
class Scenario:
    """One convergence experiment on the grid."""

    name: str
    knowledge_coverage: float = 0.35   # P(cell remembered correctly)
    wrong_rate: float = 0.3            # P(cell remembered plausibly wrong)
    lake_coverage: float = 1.0         # fraction of tables kept serving
    num_tables: int = 48
    num_tasks: int = 24
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.lake_coverage <= 1.0:
            raise ValueError(
                f"lake_coverage must be in (0, 1], got {self.lake_coverage}"
            )


#: the acceptance campaign: mostly full-lake scenarios at two
#: hallucination rates, plus one partial-coverage corner
DEFAULT_MIX: List[Scenario] = [
    Scenario(name="amnesic-full-lake", knowledge_coverage=0.25,
             wrong_rate=0.35, lake_coverage=1.0, seed=7),
    Scenario(name="hazy-full-lake", knowledge_coverage=0.45,
             wrong_rate=0.3, lake_coverage=1.0, seed=11),
    Scenario(name="hazy-sparse-lake", knowledge_coverage=0.45,
             wrong_rate=0.3, lake_coverage=0.9, seed=13),
]


@dataclass
class ScenarioResult:
    """A scenario plus the loop run it produced."""

    scenario: Scenario
    result: LoopResult

    def to_dict(self) -> Dict[str, object]:
        """JSON-shaped convergence stats (what the benchmark records)."""
        return {
            "name": self.scenario.name,
            "tasks": len(self.result),
            "passed": self.result.passed,
            "exhausted": self.result.exhausted,
            "first_pass_accuracy": round(
                self.result.first_pass_accuracy, 4
            ),
            "end_accuracy": round(self.result.end_accuracy, 4),
            "mean_iterations_to_pass": round(
                self.result.mean_iterations_to_pass, 4
            ),
            "rounds": [
                {
                    "round": r.round,
                    "active": r.active,
                    "verified": r.verified,
                    "refuted": r.refuted,
                    "unresolved": r.unresolved,
                }
                for r in self.result.rounds
            ],
        }


@dataclass
class MixReport:
    """Aggregate view of a scenario-mix campaign."""

    results: List[ScenarioResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def tasks(self) -> int:
        return sum(len(r.result) for r in self.results)

    def _weighted(self, attribute: str) -> float:
        total = self.tasks
        if not total:
            return 0.0
        return (
            sum(
                getattr(r.result, attribute) * len(r.result)
                for r in self.results
            )
            / total
        )

    @property
    def first_pass_accuracy(self) -> float:
        return self._weighted("first_pass_accuracy")

    @property
    def end_accuracy(self) -> float:
        return self._weighted("end_accuracy")

    @property
    def convergence_rate(self) -> float:
        return self._weighted("convergence_rate")

    @property
    def mean_iterations_to_pass(self) -> float:
        """Mean over all passed tasks across the mix."""
        rounds = [
            outcome.iterations
            for r in self.results
            for outcome in r.result.outcomes
            if outcome.state.value == "passed"
        ]
        return sum(rounds) / len(rounds) if rounds else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "tasks": self.tasks,
            "first_pass_accuracy": round(self.first_pass_accuracy, 4),
            "end_accuracy": round(self.end_accuracy, 4),
            "convergence_rate": round(self.convergence_rate, 4),
            "mean_iterations_to_pass": round(
                self.mean_iterations_to_pass, 4
            ),
            "scenarios": [r.to_dict() for r in self.results],
        }

    def summary(self) -> str:
        return (
            f"{len(self.results)} scenarios / {self.tasks} tasks: "
            f"accuracy {self.first_pass_accuracy:.2f} -> "
            f"{self.end_accuracy:.2f}, "
            f"{self.convergence_rate:.0%} converged "
            f"(mean {self.mean_iterations_to_pass:.2f} rounds)"
        )


def build_scenario_system(
    scenario: Scenario, clock: Optional[Clock] = None
) -> tuple:
    """(system, generator, specs) for one scenario, fully seeded.

    The task specs are sampled from the *full* bundle before any table
    is dropped, so partial lake coverage changes what evidence the
    verifier can retrieve — not which cells the generator is asked to
    impute.
    """
    clock = clock or TickClock()
    bundle = build_lake(
        LakeConfig(num_tables=scenario.num_tables, seed=scenario.seed)
    )
    workload = build_tuple_workload(
        bundle, num_tasks=scenario.num_tasks, seed=scenario.seed + 1
    )
    specs = [DraftSpec.from_task(task, bundle) for task in workload]
    knowledge = WorldKnowledge(
        bundle.tables,
        coverage=scenario.knowledge_coverage,
        wrong_rate=scenario.wrong_rate,
        seed=scenario.seed + 3,
    )
    generator = SimulatedLLM(knowledge=knowledge, seed=scenario.seed + 4)
    if scenario.lake_coverage < 1.0:
        rng = rng_for(scenario.seed, "lake-coverage", scenario.name)
        table_ids = sorted(table.table_id for table in bundle.tables)
        num_drop = int(round(len(table_ids) * (1.0 - scenario.lake_coverage)))
        for table_id in rng.sample(table_ids, num_drop):
            bundle.lake.remove_instance(table_id)
    system = VerifAI(
        bundle.lake,
        llm=SimulatedLLM(knowledge=None, seed=scenario.seed + 5),
        config=VerifAIConfig(),
        clock=clock,
        cpu_clock=TickClock(),
    ).build_indexes()
    return system, generator, specs


def run_scenario(
    scenario: Scenario,
    max_iters: int = 4,
    clock: Optional[Clock] = None,
) -> ScenarioResult:
    """Build the scenario's world and orchestrate it to convergence."""
    system, generator, specs = build_scenario_system(scenario, clock=clock)
    orchestrator = LoopOrchestrator(
        system,
        generator,
        LoopConfig(max_iters=max_iters, seed=scenario.seed),
    )
    return ScenarioResult(scenario=scenario, result=orchestrator.run(specs))


def run_mix(
    scenarios: Optional[List[Scenario]] = None,
    max_iters: int = 4,
) -> MixReport:
    """Run a scenario mix (the default acceptance campaign when None)."""
    report = MixReport()
    for scenario in scenarios if scenarios is not None else DEFAULT_MIX:
        report.results.append(
            run_scenario(scenario, max_iters=max_iters)
        )
    return report
