"""Span-wiring self-check at smoke scale: ``python3 perfbench/run.py --self-check``.

Checks, in a few seconds:

* every declared module-level function is patched at each place it is looked
  up (``repro.simulation.economy.organic_drift``, ``repro.core.exchange.settle``
  and every other module that imported it), and restored afterwards;
* every span a workload is meant to exercise fires on a smoke-scale version of
  that workload;
* clock spans never fire inside a baseline-mechanism job;
* traced and untraced smoke rounds produce byte-identical canonical reports;
* the same workload seed yields the same spec list, and another seed another;
* the line-by-line SYSTEM-constraint check passes real settlements and flags
  corrupted ones.
"""

from __future__ import annotations

import dataclasses
import importlib
from pathlib import Path

from repro.mechanisms import get_mechanism, mechanism_names
from repro.simulation.catalog import get_scenario
from repro.simulation.runner import expand_mechanisms

import spans
import workloads

#: Sites the wiring must reach; both are imported by name into their callers.
NAMED_SITES = (
    ("repro.simulation.economy", "organic_drift"),
    ("repro.core.exchange", "settle"),
)


def smoke_specs() -> dict[str, list]:
    """A smoke-scale stand-in for each workload, on the same code paths.

    The full-size presets run with enough bids that the ``auto`` engine picks
    ``batch``; the smoke preset is below that threshold, so the stand-ins name
    the engine the full-size workload resolves to.
    """
    smoke = get_scenario("smoke").with_overrides(auctions=2, engine="batch")
    stress_engine = get_scenario("10k-bidder-stress").config.auction_engine
    return {
        "paper-market": [smoke.with_overrides(seed=workloads.BASE_SEED + i) for i in range(2)],
        "stress-10k": [smoke.with_overrides(engine=stress_engine)],
        "sweep-mechanisms": expand_mechanisms([smoke], mechanism_names()),
    }


def _function_sites() -> dict[str, list]:
    """Target -> (original function, its lookup sites) for every function target."""
    sites = {}
    for targets, *_ in spans.SPANS.values():
        for target in targets:
            _, _, current, is_function = spans.resolve(target)
            if is_function:
                sites[target] = (current, spans.lookup_sites(current))
    return sites


def check_patch_sites() -> list[str]:
    problems = []
    before = _function_sites()
    tracer = spans.Tracer()
    tracer.install(strict=True)
    try:
        for module_name, attr in NAMED_SITES:
            if not hasattr(getattr(importlib.import_module(module_name), attr), "__wrapped__"):
                problems.append(f"{module_name}.{attr} is not wrapped")
        for target, (original, sites) in before.items():
            for module, attr in sites:
                if getattr(getattr(module, attr), "__wrapped__", None) is not original:
                    problems.append(f"{module.__name__}.{attr} does not wrap {target}")
            if spans.lookup_sites(original):
                problems.append(f"{target} is still reachable unwrapped")
    finally:
        tracer.uninstall()
    for target, (original, sites) in before.items():
        for module, attr in sites:
            if getattr(module, attr) is not original:
                problems.append(f"{module.__name__}.{attr} was not restored")
    return problems


def check_spans(out_dir: Path) -> list[str]:
    problems = []
    for name, specs in smoke_specs().items():
        workload = workloads.WORKLOADS[name]
        epoch_clock = workloads.EpochClock()
        epoch_clock.install()
        tracer = spans.Tracer()
        try:
            if workload.kind == "market":
                plain = workloads.market_round(specs, epoch_clock)
                traced = workloads.market_round(specs, epoch_clock, tracer=tracer)
            else:
                store = out_dir / "selfcheck.sqlite"
                plain = workloads.sweep_round(specs, epoch_clock, store)
                traced = workloads.sweep_round(specs, epoch_clock, store, tracer=tracer)
                for stale in out_dir.glob("selfcheck.sqlite*"):
                    stale.unlink()
        finally:
            epoch_clock.uninstall()
        if tracer.missing:
            problems.append(f"{name}: unresolved targets {tracer.missing}")
        if plain.digests != traced.digests or not plain.digests:
            problems.append(f"{name}: traced reports differ from untraced reports")
        unfired = sorted(spans.EXPECTED_SPANS[name] - tracer.fired())
        if unfired:
            problems.append(f"{name}: spans never fired: {unfired}")
        if workload.kind == "sweep":
            baseline_jobs = [
                span for span in tracer.spans
                if span[spans.NAME] == "exec.job" and span[spans.TAG] != "market"
            ]
            if not baseline_jobs:
                problems.append(f"{name}: no baseline-mechanism job was traced")
            leaked = tracer.clock_spans_in_baseline_jobs()
            if leaked:
                problems.append(f"{name}: {leaked} clock spans fired inside baseline jobs")
    return problems


def check_specs() -> list[str]:
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        if workload.specs(3) != workload.specs(3):
            problems.append(f"{name}: seed 3 yields two different spec lists")
        if workload.specs(3) == workload.specs(4):
            problems.append(f"{name}: seeds 3 and 4 yield the same spec list")
    return problems


def corruptions(settlement):
    """Copies of ``settlement`` that each break one SYSTEM constraint."""
    lines = settlement.lines
    winner = next(i for i, line in enumerate(lines) if line.won)
    line = lines[winner]
    changes = {
        "allocation outside the bid": {"allocation": line.allocation * 1.5},
        "payment above the limit": {"payment": abs(line.limit) + abs(line.payment) + 1.0},
        "winner recorded as loser": {"won": False, "allocation": line.allocation * 0.0},
    }
    for what, fields in changes.items():
        changed = list(lines)
        changed[winner] = dataclasses.replace(line, **fields)
        yield what, dataclasses.replace(settlement, lines=changed)
    yield "lines out of bid order", dataclasses.replace(settlement, lines=lines[::-1])


def check_constraint_check() -> list[str]:
    problems = []
    spec = smoke_specs()["paper-market"][0]
    epoch_clock = workloads.EpochClock()
    epoch_clock.install()
    try:
        get_mechanism("market").simulate(spec.build(), spec)
    finally:
        epoch_clock.uninstall()
    if not epoch_clock.settled:
        return ["constraint check: no settlement was captured"]
    for number, (settlement, bids) in enumerate(epoch_clock.settled):
        found = workloads.system_problems(settlement, bids)
        if found:
            problems.append(f"constraint check: settlement {number} fails: {found[0]}")
        if not any(line.won for line in settlement.lines):
            continue
        for what, corrupted in corruptions(settlement):
            if not workloads.system_problems(corrupted, bids):
                problems.append(f"constraint check: missed {what} in settlement {number}")
    return problems


def run(out_dir: Path) -> list[str]:
    """Every self-check problem found (empty when the wiring is sound)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return (
        check_specs() + check_patch_sites() + check_spans(out_dir) + check_constraint_check()
    )
