"""The benchmark's workloads: spec lists derived from a seed, one round each, checked.

A *round* is one pass over a workload's fixed spec list: ``paper-market``
simulates twenty ``paper-reference`` seeds under the market mechanism,
``stress-10k`` runs the ``10k-bidder-stress`` preset for its two epochs, and
``sweep-mechanisms`` runs every default-sweep preset under every registered
mechanism through the serial backend into a fresh result store, then reads the
store back with ``compare_mechanisms``.  Scenario builds (and opening the
store) happen before the round's clock starts and are timed as set-up.

Every job of every round is checked: it must not raise, every auction must
converge, every settlement must meet the six SYSTEM constraints of Section
III-B (checked here, line by line against the bid it settles), its canonical
report must pass structural checks, and it must be byte-identical to the same
job in the run's first round.  At :data:`DEFAULT_SEED` each report must also
match its sha256 in ``reference.json``.

The program's own ``ExchangeResult.constraints`` report is counted but not
trusted: ``verify_system_constraints`` looks bids up by bidder name, so a team
with two bids in one auction has a line checked against its other bid.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import settlement as settlement_module
from repro.mechanisms import get_mechanism, mechanism_names
from repro.mechanisms.baseline import BaselineEconomySimulation
from repro.results import stats
from repro.results.store import ResultStore
from repro.simulation.catalog import ScenarioSpec, default_sweep_names, get_scenario
from repro.simulation.economy import MarketEconomySimulation
from repro.simulation.runner import ParallelRunner, expand_mechanisms

import spans

#: The workload seed whose canonical reports are pinned in ``reference.json``.
DEFAULT_SEED = 0
#: Scenario seeds derive from the catalog presets' own seed.
BASE_SEED = 2009
#: Seeds per ``paper-market`` round (6 epochs each); 20 keeps the spread of
#: per-seed fleet sizes small against the round.
PAPER_SEEDS = 20
#: Code version the sweep's store rows are recorded under (skips ``git describe``).
CODE_VERSION = "perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: Tolerance of the SYSTEM-constraint check, the program's own default.
TOLERANCE = 1e-6

clock = time.perf_counter


def paper_market_specs(seed: int) -> list[ScenarioSpec]:
    base = get_scenario("paper-reference")
    first = BASE_SEED + PAPER_SEEDS * seed
    return [base.with_overrides(seed=first + i) for i in range(PAPER_SEEDS)]


def stress_specs(seed: int) -> list[ScenarioSpec]:
    return [get_scenario("10k-bidder-stress").with_overrides(seed=BASE_SEED + seed)]


def sweep_specs(seed: int) -> list[ScenarioSpec]:
    presets = [get_scenario(name) for name in default_sweep_names()]
    return expand_mechanisms(
        [spec.with_overrides(seed=spec.config.seed + seed) for spec in presets],
        mechanism_names(),
    )


@dataclass(frozen=True)
class Workload:
    specs: Callable[[int], list[ScenarioSpec]]
    #: ``market``: build every scenario, then ``MarketMechanism.simulate``;
    #: ``sweep``: ``ParallelRunner(backend="serial")`` into a fresh store.
    kind: str


WORKLOADS = {
    "paper-market": Workload(paper_market_specs, "market"),
    "stress-10k": Workload(stress_specs, "market"),
    "sweep-mechanisms": Workload(sweep_specs, "sweep"),
}


def job_key(spec: ScenarioSpec) -> str:
    return f"{spec.name}+{spec.mechanism}@{spec.config.seed}"


def digest(payload: dict) -> str:
    """sha256 of a canonical report, serialised as the result store persists it."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class EpochClock:
    """One pair of clock reads around every market and baseline epoch.

    Also inspects each market epoch's exchange result: an auction that did
    not converge, or whose settlement was not captured, marks the epoch bad.
    Every settlement the exchange verifies is kept in :attr:`settled` with
    the bids it settled, for :func:`system_problems` to check once the timed
    work is done;
    :attr:`program_flagged` counts the epochs whose own constraint report
    says unsatisfied.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.bad: list[str] = []
        self.settled: list[tuple[object, list]] = []
        self.program_flagged = 0
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        seconds, bad, settled = self.seconds, self.bad, self.settled

        market = MarketEconomySimulation.run_one_auction
        baseline = BaselineEconomySimulation.run_one_epoch
        verify = settlement_module.verify_system_constraints

        def run_one_auction(sim):
            start = clock()
            period = market(sim)
            seconds.append(clock() - start)
            result = period.record.result
            if not result.outcome.converged:
                bad.append(f"auction {period.auction_number} did not converge")
            if not any(captured is result.settlement for captured, _ in settled):
                bad.append(f"auction {period.auction_number}: settlement not captured for checking")
            if not result.constraints.satisfied:
                self.program_flagged += 1
            return period

        def run_one_epoch(sim):
            start = clock()
            period = baseline(sim)
            seconds.append(clock() - start)
            return period

        def verify_system_constraints(settlement, bids, **kwargs):
            settled.append((settlement, bids))
            return verify(settlement, bids, **kwargs)

        # Every module that imported the function by name, so that the
        # tracer, installed later, finds and wraps this capture everywhere.
        verify_sites = spans.lookup_sites(verify)
        self._originals = [
            (MarketEconomySimulation, "run_one_auction", market),
            (BaselineEconomySimulation, "run_one_epoch", baseline),
        ] + [(site, attr, verify) for site, attr in verify_sites]
        MarketEconomySimulation.run_one_auction = run_one_auction
        BaselineEconomySimulation.run_one_epoch = run_one_epoch
        for site, attr in verify_sites:
            setattr(site, attr, verify_system_constraints)

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        self._originals = []


def system_problems(settlement, bids) -> list[str]:
    """The six SYSTEM constraints, each settlement line against the bid it settles.

    ``settle`` returns one line per accepted bid, in bid order, so line ``i``
    belongs to ``bids[i]``.  The constraints and tolerances are those of the
    program's ``verify_system_constraints``.
    """
    if len(settlement.lines) != len(bids):
        return [f"{len(settlement.lines)} settlement lines for {len(bids)} bids"]
    problems = []
    prices = settlement.prices
    scale = max(float(np.abs(prices).max(initial=1.0)), 1.0)
    if np.any(prices < -TOLERANCE):
        problems.append("constraint 6: negative prices")
    capacities = np.maximum(settlement.index.capacities(), 1.0)
    over = settlement.total_allocated() - settlement.supply
    for pool in np.flatnonzero(over > TOLERANCE * capacities + TOLERANCE):
        problems.append(f"constraint 2: pool {pool} over-allocated by {over[pool]:.6g}")
    for position, (line, bid) in enumerate(zip(settlement.lines, bids)):
        who = f"line {position} ({line.bidder})"
        if line.bidder != bid.bidder:
            problems.append(f"{who} settles a bid of {bid.bidder}")
            continue
        matrix = bid.bundles.matrix
        costs = matrix @ prices
        cheapest = int(np.argmin(costs))
        if line.won:
            if not np.any(np.all(np.isclose(matrix, line.allocation, atol=TOLERANCE), axis=1)):
                problems.append(f"constraint 1: {who} was allocated a bundle outside its bid")
            if line.payment > bid.limit + TOLERANCE * scale:
                problems.append(f"constraint 3: {who} pays {line.payment:.6g} above its limit")
            if line.payment > costs[cheapest] + TOLERANCE * scale:
                problems.append(f"constraint 4: {who} pays more than its cheapest bundle")
        elif (
            np.any(np.abs(matrix[cheapest]) > TOLERANCE)
            and bid.limit >= costs[cheapest] - TOLERANCE * scale
        ):
            problems.append(f"constraint 5: {who} lost though its limit covers a bundle")
    return problems


def settled_problems(settled) -> list[str]:
    """:func:`system_problems` over captured ``(settlement, bids)`` pairs."""
    problems = []
    for number, (settlement, bids) in enumerate(settled):
        problems += [f"settlement {number}: {problem}"
                     for problem in system_problems(settlement, bids)]
    return problems


def report_problems(spec: ScenarioSpec, result) -> list[str]:
    """Structural checks every canonical report must pass, at any seed."""
    problems = []
    expected = (spec.name, spec.mechanism, spec.config.seed, spec.auctions)
    actual = (result.scenario, result.mechanism, result.seed, result.auctions)
    if actual != expected:
        problems.append(f"report identifies as {actual}, expected {expected}")
    series = (
        "median_premium", "mean_premium", "settled_fraction", "clearing_rounds",
        "mean_clearing_price", "revenue", "mean_utilization", "utilization_spread",
        "shortage_cost", "surplus_cost", "satisfied_fraction",
    )
    for name in series:
        values = getattr(result, name)
        if len(values) != spec.auctions:
            problems.append(f"{name} has {len(values)} entries, expected {spec.auctions}")
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{name} holds a non-finite value")
    for name in ("settled_fraction", "satisfied_fraction"):
        if not all(0.0 <= v <= 1.0 for v in getattr(result, name)):
            problems.append(f"{name} leaves [0, 1]")
    if spec.mechanism == "market":
        if not all(rounds >= 1 for rounds in result.clearing_rounds):
            problems.append("a market auction reports no clock rounds")
    elif any(result.clearing_rounds):
        problems.append("a baseline epoch reports clock rounds")
    return problems


@dataclass
class Round:
    """What one round did: its timings, its jobs' digests and its failures."""

    seconds: float = 0.0
    setup_seconds: float = 0.0
    epochs: list[float] = field(default_factory=list)
    #: job key -> canonical-report sha256, for every job that produced a report.
    digests: dict[str, str] = field(default_factory=dict)
    #: job key -> why the job failed.
    failures: dict[str, str] = field(default_factory=dict)
    attempted: int = 0


def _judge(round_: Round, spec: ScenarioSpec, result, bad_epochs: list[str]) -> None:
    key = job_key(spec)
    round_.attempted += 1
    if isinstance(result, BaseException):
        round_.failures[key] = f"raised {type(result).__name__}: {result}"
        return
    round_.digests[key] = digest(result.to_dict())
    problems = bad_epochs + report_problems(spec, result)
    if problems:
        round_.failures[key] = "; ".join(problems)


def build_all(specs: list[ScenarioSpec]) -> tuple[list, float]:
    start = clock()
    scenarios = [spec.build() for spec in specs]
    return scenarios, clock() - start


def market_round(specs: list[ScenarioSpec], epoch_clock: EpochClock, *, tracer=None) -> Round:
    """Build every scenario, then simulate every spec.

    ``tracer`` (a :class:`spans.Tracer`) is installed around the build and
    the simulations only.  Each simulation's settlements are checked as soon
    as it returns, outside the timed calls and outside every span, so that
    they need not be held for the whole round.
    """
    round_ = Round()
    market = get_mechanism("market")
    outcomes = []
    gc.collect()  # the previous round's garbage must not land in this one
    with tracer if tracer is not None else contextlib.nullcontext():
        scenarios, round_.setup_seconds = build_all(specs)
        first_epoch = len(epoch_clock.seconds)
        for spec, scenario in zip(specs, scenarios):
            bad_before = len(epoch_clock.bad)
            start = clock()
            try:
                result = market.simulate(scenario, spec)
            except Exception as error:  # a failed run is counted, never skipped
                result = error
            round_.seconds += clock() - start
            bad = epoch_clock.bad[bad_before:] + settled_problems(epoch_clock.settled)
            epoch_clock.settled.clear()
            outcomes.append((spec, result, bad))
    round_.epochs = epoch_clock.seconds[first_epoch:]
    for spec, result, bad in outcomes:
        _judge(round_, spec, result, bad)
    return round_


def sweep_round(
    specs: list[ScenarioSpec], epoch_clock: EpochClock, store_path: Path, *, tracer=None
) -> Round:
    """Run the sweep serially into a fresh store, then compare mechanisms per scenario."""
    round_ = Round()
    gc.collect()  # the previous round's garbage must not land in this one
    start = clock()
    for stale in store_path.parent.glob(store_path.name + "*"):
        stale.unlink()
    store = ResultStore(store_path)
    round_.setup_seconds = clock() - start
    try:
        scenarios = list(dict.fromkeys(spec.name for spec in specs))
        by_key = {job_key(spec): spec for spec in specs}
        finished: list[tuple[object, list[str], list]] = []
        bad_mark = len(epoch_clock.bad)
        epoch_clock.settled.clear()

        def on_result(result) -> None:
            # Serial jobs finish in order: the bad epochs and settlements
            # since the last result belong to this one.  The settlements are
            # checked after the timed sweep.
            nonlocal bad_mark
            finished.append((result, epoch_clock.bad[bad_mark:], list(epoch_clock.settled)))
            bad_mark = len(epoch_clock.bad)
            epoch_clock.settled.clear()

        first_epoch = len(epoch_clock.seconds)
        error: Exception | None = None
        comparisons = {}
        with tracer if tracer is not None else contextlib.nullcontext():
            start = clock()
            try:
                ParallelRunner(backend="serial").run_specs(
                    specs, store=store, code_version=CODE_VERSION, on_result=on_result
                )
                comparisons = {
                    name: stats.compare_mechanisms(store, name, code_version=CODE_VERSION)
                    for name in scenarios
                }
            except Exception as raised:  # a failed sweep is counted, never skipped
                error = raised
            round_.seconds = clock() - start
        round_.epochs = epoch_clock.seconds[first_epoch:]

        epoch_clock.settled.clear()  # those of a job that raised
        done = set()
        for result, bad, settled in finished:
            spec = by_key[f"{result.scenario}+{result.mechanism}@{result.seed}"]
            done.add(job_key(spec))
            _judge(round_, spec, result, bad + settled_problems(settled))
        for key, spec in by_key.items():
            if key not in done:
                _judge(round_, spec, error or RuntimeError("no result"), [])
        if error is None:
            _check_store(round_, specs, store, comparisons)
    finally:
        store.close()
    return round_


def _check_store(round_: Round, specs, store: ResultStore, comparisons) -> None:
    """The store must hold every report verbatim; every comparison every mechanism."""
    stored = {
        f"{run.scenario}+{run.mechanism}@{run.seed}": run.result
        for run in store.runs(code_version=CODE_VERSION)
    }
    for spec in specs:
        key = job_key(spec)
        payload = stored.get(key)
        if payload is None:
            round_.failures.setdefault(key, "missing from the result store")
        elif key in round_.digests and digest(payload) != round_.digests[key]:
            round_.failures.setdefault(key, "stored report differs from the run's report")
    mechanisms = tuple(mechanism_names())
    for spec in specs:
        report = comparisons.get(spec.name)
        if report is None or report.mechanisms != mechanisms or not report.metric_stats:
            round_.failures.setdefault(job_key(spec), "compare_mechanisms lacks a mechanism")


def reference_failures(workload: str, seed: int, digests: dict[str, str]) -> dict[str, str]:
    """At the default seed, every report must match its pinned digest."""
    if seed != DEFAULT_SEED:
        return {}
    pinned = json.loads(REFERENCE.read_text())["workloads"].get(workload)
    if pinned is None:
        return {key: "no reference digest recorded" for key in digests}
    failures = {}
    for key in set(pinned) | set(digests):
        if pinned.get(key) != digests.get(key):
            failures[key] = "canonical report does not match its reference digest"
    return failures
