"""Genetic-algorithm stressmark search — the black-box baseline.

The paper positions its white-box methodology against GA-based
automatic stressmark generation (the AUDIT line of work: "it would be
possible to implement optimization algorithms — such as the genetic
algorithms employed in previous works — on top of the presented
solution").  This module implements that baseline so the two approaches
can be compared on equal footing (ablation bench A3): a GA over
length-6 instruction sequences with measured power as fitness.

The comparison the bench makes: the white-box pipeline reaches the
winner with a bounded, explainable budget (model-filtered enumeration +
1000 measurements), while the GA needs measured fitness for every
individual of every generation and provides no insight into *why* the
winner wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.cache import ResultCache, global_cache
from ..engine.executor import make_executor
from ..engine.fingerprint import content_key
from ..engine.resilience import RetryPolicy
from ..errors import ExecutionError, GenerationError
from ..isa.instruction import InstructionDef
from ..mbench.loops import build_sequence_loop
from ..mbench.target import Target
from ..measure.powermeter import PowerMeter
from ..rng import stream
from ..obs import get_telemetry
from .sequences import DEFAULT_SEQUENCE_LENGTH

__all__ = ["GeneticSearchResult", "genetic_max_power_search"]


@dataclass
class GeneticSearchResult:
    """Outcome of the GA baseline."""

    sequence: tuple[InstructionDef, ...]
    power_w: float
    generations: int
    evaluations: int
    history: list[float]  # best fitness per generation

    @property
    def mnemonics(self) -> list[str]:
        return [inst.mnemonic for inst in self.sequence]


@dataclass
class _FitnessTask:
    """Picklable fitness evaluation of one GA individual.

    The measurement-noise tag is derived from the sequence itself (not
    from an evaluation counter), so a reading is a deterministic
    function of the individual — independent of evaluation order and of
    how warm the shared result cache is.
    """

    target: Target
    meter: PowerMeter

    def __call__(self, sequence: tuple[InstructionDef, ...]) -> float:
        mnemonics = tuple(inst.mnemonic for inst in sequence)
        program = build_sequence_loop(
            self.target.isa, sequence, unroll=21, name="ga-eval"
        )
        return self.meter.measure(program, reading_tag=("ga", mnemonics))


def genetic_max_power_search(
    target: Target,
    candidates: list[InstructionDef],
    meter: PowerMeter | None = None,
    population: int = 40,
    generations: int = 25,
    elite: int = 4,
    mutation_rate: float = 0.15,
    tournament: int = 3,
    length: int = DEFAULT_SEQUENCE_LENGTH,
    seed: int = 0,
    cache: ResultCache | None = None,
    retry: RetryPolicy | None = None,
) -> GeneticSearchResult:
    """GA over length-*length* sequences of *candidates*, maximizing
    measured loop power.

    Classic generational GA: tournament selection, single-point
    crossover, per-gene mutation, elitism.  Fitness evaluations are
    power-meter measurements (with their noise), and each one costs the
    meter's dwell time — which is the budget the comparison bench
    reports.  Readings are memoized in the engine's content-addressed
    cache (keyed by meter identity, the target's content digest and
    sequence), and each generation's unevaluated individuals are
    measured as one batch through the engine executor under *retry*
    (env default) — a flaky evaluation is retried, a permanently
    failing individual aborts the search rather than breeding on
    fabricated fitness.
    """
    if not candidates:
        raise GenerationError("empty candidate pool")
    if population < 4 or elite >= population:
        raise GenerationError("population/elite sizes are inconsistent")
    meter = meter or PowerMeter(target)
    if cache is None:
        cache = global_cache()
    executor = make_executor()
    retry = retry or RetryPolicy.from_env()
    telemetry = get_telemetry()
    rng = stream(seed, "ga", "search")
    evaluations = 0
    evaluate = _FitnessTask(target, meter)
    meter_identity = (
        "ga-fitness",
        target.digest,
        meter.seed,
        meter.noise_sigma,
        meter.temperature_drift,
    )

    def fitness_key(sequence: tuple[InstructionDef, ...]) -> str:
        return content_key(
            *meter_identity, tuple(inst.mnemonic for inst in sequence)
        )

    def evaluate_batch(
        individuals: list[tuple[InstructionDef, ...]]
    ) -> dict[str, float]:
        """Measure every not-yet-cached distinct individual, as one
        executor batch; returns key → fitness for *all* inputs."""
        nonlocal evaluations
        scores: dict[str, float] = {}
        misses: dict[str, tuple[InstructionDef, ...]] = {}
        for individual in individuals:
            key = fitness_key(individual)
            if key in scores or key in misses:
                continue
            cached = cache.get(key)
            if cached is not None:
                scores[key] = cached
            else:
                misses[key] = individual
        if misses:
            keys = list(misses)
            outcomes = executor.map_guarded(
                evaluate,
                [misses[k] for k in keys],
                retry,
                labels=[
                    tuple(inst.mnemonic for inst in misses[k]) for k in keys
                ],
            )
            ga_retries = sum(o.attempts - 1 for o in outcomes)
            if ga_retries:
                telemetry.increment("engine.retries", ga_retries)
            failures = [o.failure for o in outcomes if not o.ok]
            if failures:
                telemetry.increment("engine.failures", len(failures))
                raise ExecutionError(
                    f"{len(failures)} of {len(keys)} GA fitness "
                    f"evaluations failed permanently; first: "
                    f"{failures[0].describe()}",
                    failures,
                ) from failures[0].exception
            for key, outcome in zip(keys, outcomes):
                cache.put(key, float(outcome.value))
                scores[key] = float(outcome.value)
            evaluations += len(keys)
            telemetry.increment("ga.evaluations", len(keys))
            if executor.jobs > 1:
                # Worker-side meters accumulate dwell in their own
                # copies; account the budget on the caller's meter.
                meter.simulated_seconds += len(keys) * meter.dwell_s
        return scores

    def random_individual() -> tuple[InstructionDef, ...]:
        picks = rng.integers(0, len(candidates), size=length)
        return tuple(candidates[int(i)] for i in picks)

    def tournament_pick(scored) -> tuple[InstructionDef, ...]:
        picks = rng.integers(0, len(scored), size=tournament)
        best = max((scored[int(i)] for i in picks), key=lambda pair: pair[1])
        return best[0]

    current = [random_individual() for _ in range(population)]
    history: list[float] = []
    for _ in range(generations):
        generation_scores = evaluate_batch(current)
        scored = [
            (individual, generation_scores[fitness_key(individual)])
            for individual in current
        ]
        scored.sort(key=lambda pair: -pair[1])
        history.append(scored[0][1])
        next_generation = [individual for individual, _ in scored[:elite]]
        while len(next_generation) < population:
            mother = tournament_pick(scored)
            father = tournament_pick(scored)
            cut = int(rng.integers(1, length))
            child = list(mother[:cut] + father[cut:])
            for gene in range(length):
                if rng.random() < mutation_rate:
                    child[gene] = candidates[int(rng.integers(0, len(candidates)))]
            next_generation.append(tuple(child))
        current = next_generation

    final_scores = evaluate_batch(current)
    final = max(
        ((ind, final_scores[fitness_key(ind)]) for ind in current),
        key=lambda p: p[1],
    )
    return GeneticSearchResult(
        sequence=final[0],
        power_w=final[1],
        generations=generations,
        evaluations=evaluations,
        history=history,
    )
