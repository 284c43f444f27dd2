"""Outside-in layer spans: wrap the public entry points of each ``repro`` layer.

The benchmark records spans from its own files, around the calls into each
layer (Dapper-style parent/child spans, Sigelman et al., 2010); the program
itself is not edited.  A :class:`Tracer` patches every declared entry point
*where it is looked up*: a class attribute for methods, and for module-level
functions every loaded ``repro`` module whose namespace holds the function
(``repro.core.exchange.settle`` as well as ``repro.core.settlement.settle``).

Spans live in memory as ``[name, start, end, parent, epoch, count, ok, tag]``
lists and are written out once, when the run ends.  A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# Span fields, by position.
NAME, START, END, PARENT, EPOCH, COUNT, OK, TAG = range(8)


def _bids(result, args) -> int:
    return len(result)


def _rounds(result, args) -> int:
    return result.round_count


def _mechanism(args) -> str:
    return args[0].mechanism


#: Declared spans: name -> (targets, counter, tagger, is_epoch).  A target is
#: ``"module:Class.method"`` or ``"module:function"``; a counter turns the
#: call's result into the span's count; a tagger labels the span from its
#: arguments.
SPANS: dict[str, tuple[tuple[str, ...], Callable | None, Callable | None, bool]] = {
    "scenario.build": (("repro.simulation.catalog:ScenarioSpec.build",), None, None, False),
    "agents.prepare_bids": (("repro.agents.base:TeamAgent.prepare_bids",), _bids, None, False),
    "agents.observe_settlement": (
        ("repro.agents.base:TeamAgent.observe_settlement",), None, None, False),
    "platform.submit_bid": (
        ("repro.market.platform:TradingPlatform.submit_bid",), None, None, False),
    "platform.finalize": (
        ("repro.market.platform:TradingPlatform.finalize_auction",), None, None, False),
    "exchange.run": (("repro.core.exchange:CombinatorialExchange.run",), None, None, False),
    "reserve.prices": (("repro.core.reserve:ReservePricer.reserve_prices",), None, None, False),
    "clock.init": (("repro.core.clock_auction:AscendingClockAuction.__init__",), None, None, False),
    "clock.run": (("repro.core.clock_auction:AscendingClockAuction.run",), _rounds, None, False),
    "batch.engine_build": (("repro.core.batch:BatchDemandEngine.__init__",), None, None, False),
    "settlement.settle": (("repro.core.settlement:settle",), None, None, False),
    "settlement.verify": (("repro.core.settlement:verify_system_constraints",), None, None, False),
    "workload.demands": (("repro.simulation.workload:demands_from_agents",), None, None, False),
    "workload.drift": (("repro.simulation.workload:organic_drift",), None, None, False),
    "workload.apply": (
        ("repro.simulation.workload:apply_settlement_to_utilization",), None, None, False),
    "metrics.comparison": (
        (
            "repro.baselines.comparison:allocation_metrics",
            "repro.baselines.comparison:market_outcome_from_quota_delta",
            "repro.baselines.comparison:requests_from_demands",
            "repro.baselines.comparison:utilization_imbalance",
        ),
        None, None, False,
    ),
    "metrics.analysis": (
        (
            "repro.analysis.premium:premium_stats",
            "repro.analysis.price_ratio:price_ratio_table",
            "repro.analysis.utilization_stats:settled_trades",
            "repro.analysis.utilization_stats:migration_summary",
        ),
        None, None, False,
    ),
    "runner.from_history": (
        ("repro.simulation.runner:ScenarioRunResult.from_history",), None, None, False),
    "market.epoch": (
        ("repro.simulation.economy:MarketEconomySimulation.run_one_auction",), None, None, True),
    "baseline.epoch": (
        ("repro.mechanisms.baseline:BaselineEconomySimulation.run_one_epoch",), None, None, True),
    "baseline.allocate": (
        (
            "repro.baselines.fixed_price:FixedPriceAllocator.allocate",
            "repro.baselines.lottery:LotteryAllocator.allocate",
            "repro.baselines.priority:PriorityAllocator.allocate",
            "repro.baselines.proportional:ProportionalShareAllocator.allocate",
        ),
        None, None, False,
    ),
    "store.record": (("repro.results.store:ResultStore.record",), None, None, False),
    "store.read": (
        tuple(
            f"repro.results.store:ResultStore.{method}"
            for method in (
                "runs", "mechanisms", "mean_wall_times", "worker_speeds",
                "code_versions", "latest_code_version", "replicate_metrics",
            )
        ),
        None, None, False,
    ),
    "results.compare": (("repro.results.stats:compare_mechanisms",), None, None, False),
    "exec.execute": (("repro.exec.serial:SerialBackend.execute",), None, None, False),
    "exec.job": (("repro.exec.serial:run_one",), None, _mechanism, False),
}

#: Spans each workload must fire; ``clock.*`` must never fire inside a
#: baseline-mechanism job.
MARKET_SPANS = frozenset(
    name for name in SPANS
    if name not in {
        "baseline.epoch", "baseline.allocate", "store.record", "store.read",
        "results.compare", "exec.execute", "exec.job",
    }
)
EXPECTED_SPANS: dict[str, frozenset[str]] = {
    "paper-market": MARKET_SPANS,
    "stress-10k": MARKET_SPANS,
    "sweep-mechanisms": frozenset(SPANS),
}
CLOCK_SPANS = frozenset({"clock.init", "clock.run", "batch.engine_build"})


def resolve(target: str):
    """``(owner, attribute, current value, is_function)`` for one target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr], False
    return owner, attr, getattr(owner, attr), True


def lookup_sites(function) -> list[tuple[object, str]]:
    """Every loaded ``repro`` module attribute that refers to ``function``."""
    sites = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                sites.append((module, attr))
    return sites


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.epochs = 0
        self.missing: list[str] = []
        # The workloads run one thread, so one stack of open spans suffices.
        self._stack: list[int] = []
        self._epoch: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------
    def _wrap(self, name: str, fn, counter, tagger, is_epoch: bool):
        spans = self.spans
        stack = self._stack
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # A same-layer call nested in its own layer (an override calling
            # its base) belongs to the outer span.
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            previous_epoch = tracer._epoch
            if is_epoch:
                tracer.epochs += 1
                tracer._epoch = tracer.epochs
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._epoch, 1, True,
                    tagger(args) if tagger else None]
            spans.append(span)
            stack.append(index)
            ok = False
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span[END] = clock()
                stack.pop()
                tracer._epoch = previous_epoch
                span[OK] = ok
            if counter is not None:
                span[COUNT] = counter(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------------
    def install(self, *, strict: bool = False) -> None:
        """Patch every declared target; unresolvable ones are listed in :attr:`missing`."""
        self.missing = []
        for name, (targets, counter, tagger, is_epoch) in SPANS.items():
            for target in targets:
                try:
                    owner, attr, current, is_function = resolve(target)
                except (ImportError, AttributeError, KeyError):
                    if strict:
                        raise
                    self.missing.append(target)
                    continue
                if is_function:
                    wrapped = self._wrap(name, current, counter, tagger, is_epoch)
                    for site, site_attr in lookup_sites(current):
                        self._patch(site, site_attr, wrapped)
                elif isinstance(current, classmethod):
                    wrapped = self._wrap(name, current.__func__, counter, tagger, is_epoch)
                    self._patch(owner, attr, classmethod(wrapped))
                else:
                    self._patch(owner, attr, self._wrap(name, current, counter, tagger, is_epoch))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def fired(self) -> set[str]:
        return {span[NAME] for span in self.spans}

    def clock_spans_in_baseline_jobs(self) -> int:
        """Clock spans whose enclosing job ran a non-market mechanism."""
        spans = self.spans
        bad = 0
        for span in spans:
            if span[NAME] not in CLOCK_SPANS:
                continue
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != "exec.job":
                parent = spans[parent][PARENT]
            if parent >= 0 and spans[parent][TAG] != "market":
                bad += 1
        return bad

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, ``name -> (value, unit)``."""
        own = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        for span, self_time in zip(self.spans, own):
            name = span[NAME]
            self_s[name] += self_time
            total_s[name] += span[END] - span[START]
            calls[name] += 1
            counts[name] += span[COUNT]
            failed[name] += not span[OK]
        epoch_total = total_s["market.epoch"] + total_s["baseline.epoch"]
        epoch_self = self_s["market.epoch"] + self_s["baseline.epoch"]
        submitted = calls["platform.submit_bid"]
        rejected = failed["platform.submit_bid"]
        rounds = counts["clock.run"]
        rounds_s = self_s["clock.run"]
        seconds = {
            "scenario.build_s": self_s["scenario.build"],
            "agents.prepare_bids_s": self_s["agents.prepare_bids"],
            "agents.observe_settlement_s": self_s["agents.observe_settlement"],
            "platform.submit_bid_s": self_s["platform.submit_bid"],
            "platform.finalize_self_s": self_s["platform.finalize"],
            "clock.build_s": self_s["clock.init"] + self_s["batch.engine_build"],
            "batch.engine_build_s": self_s["batch.engine_build"],
            "clock.rounds_s": rounds_s,
            "clock.round_s": rounds_s / rounds if rounds else 0.0,
            "exchange.self_s": self_s["exchange.run"],
            "reserve.prices_s": self_s["reserve.prices"],
            "settlement.settle_s": self_s["settlement.settle"],
            "settlement.verify_s": self_s["settlement.verify"],
            "workload.demands_s": self_s["workload.demands"],
            "workload.drift_s": self_s["workload.drift"],
            "workload.apply_s": self_s["workload.apply"],
            "metrics.comparison_s": self_s["metrics.comparison"],
            "metrics.analysis_s": self_s["metrics.analysis"],
            "runner.from_history_s": self_s["runner.from_history"],
            "baseline.epoch_s": total_s["baseline.epoch"],
            "baseline.allocate_s": self_s["baseline.allocate"],
            "store.record_s": self_s["store.record"],
            "store.read_s": self_s["store.read"],
            "exec.overhead_s": self_s["exec.execute"],
        }
        metrics = {name: (value, "s") for name, value in seconds.items()}
        metrics.update({
            "agents.bids_prepared": (counts["agents.prepare_bids"], "count"),
            "platform.bids_accepted": (submitted - rejected, "count"),
            "platform.bids_rejected": (rejected, "count"),
            "platform.accept_ratio": (
                (submitted - rejected) / submitted if submitted else 0.0, "ratio"),
            "clock.rounds": (rounds, "count"),
            "baseline.epochs": (calls["baseline.epoch"], "count"),
            "store.records": (calls["store.record"], "count"),
            "trace.coverage": (
                1.0 - epoch_self / epoch_total if epoch_total else 0.0, "ratio"),
            "trace.spans": (len(self.spans), "count"),
        })
        return metrics

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans (and run facts) out as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "epoch", "count", "ok", "tag"]
        with path.open("w") as handle:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, handle)
