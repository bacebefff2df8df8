"""Closed-loop case runner: per-case wall budget, correctness check, medians.

A workload is a list of cases.  One pass runs every case once, in order, one
at a time (a closed loop with a single caller).  Passes repeat until the run's
time is used up, and each case's time is the median over the passes.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable


class CaseTimeout(Exception):
    """Raised inside a case when its wall budget runs out."""


@dataclass
class Case:
    """One unit of work: ``run`` calls the program, ``check`` judges the result.

    ``check`` returns None when the result matches the reference and a short
    reason otherwise.  ``computed`` derives work counters (table radius, Gram
    size, ...) from the result; they depend on the inputs only, not on timing.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    computed: Callable[[Any], dict] = field(default=lambda result: {})


@dataclass
class Outcome:
    name: str
    seconds: float
    status: str  # ok | wrong | error | timeout
    detail: str = ""
    computed: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def _on_alarm(signum, frame):
    raise CaseTimeout()


def run_case(case: Case, budget: float) -> Outcome:
    """Run one case under a wall budget and check its result.

    The budget is enforced with SIGALRM, so it interrupts Python code and
    waits on child processes (``subprocess.run`` kills its child when
    interrupted).  Any exception from the program is a failed case, never a
    crash of the benchmark.
    """
    if budget <= 0:
        return Outcome(case.name, 0.0, "timeout", "no time left in the run")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            result = case.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
    except CaseTimeout:
        return Outcome(case.name, time.perf_counter() - start, "timeout",
                       f"exceeded {budget:.1f} s budget")
    except Exception as exc:  # the program under test failed this case
        return Outcome(case.name, seconds, "error", f"{type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)

    try:
        reason = case.check(result)
        computed = case.computed(result)
    except Exception as exc:  # a malformed result is a wrong answer
        reason, computed = f"check raised {type(exc).__name__}: {exc}", {}
    if reason is not None:
        return Outcome(case.name, seconds, "wrong", reason, computed)
    return Outcome(case.name, seconds, "ok", "", computed)


def run_passes(cases: list[Case], seconds: float, min_passes: int,
               deadline: float, case_budget: float,
               pass_context: Callable[[int], Any] = lambda i: contextlib.nullcontext(),
               case_context: Callable[[str], Any] = lambda name: contextlib.nullcontext(),
               ) -> list[list[Outcome]]:
    """Repeat passes over ``cases`` until ``seconds`` have elapsed.

    At least ``min_passes`` run unless the next pass would end after
    ``deadline`` (a ``time.perf_counter`` value), and no case runs past it.
    ``pass_context(i)`` wraps pass i and ``case_context(name)`` each case,
    which is how the traced mode switches its wrappers on and off.
    """
    start = time.perf_counter()
    passes: list[list[Outcome]] = []
    while True:
        pass_start = time.perf_counter()
        outcomes = []
        with pass_context(len(passes)):
            for case in cases:
                budget = min(case_budget, deadline - time.perf_counter())
                with case_context(case.name):
                    outcomes.append(run_case(case, budget))
        passes.append(outcomes)
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start >= seconds:
            break
        if now + (now - pass_start) > deadline:
            break
    return passes


def case_medians(passes: list[list[Outcome]]) -> dict[str, float]:
    """Median seconds per case name over the given passes."""
    times: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            times.setdefault(o.name, []).append(o.seconds)
    return {name: statistics.median(ts) for name, ts in times.items()}


def end_to_end(passes: list[list[Outcome]]) -> dict[str, float]:
    """Timing and failure figures of a run from its passes.

    wall_s is the sum of per-case medians: the time one caller waits for a
    complete, checked pass over the workload.
    """
    med = case_medians(passes)
    values = list(med.values())
    attempted = sum(len(p) for p in passes)
    failed = sum(o.failed for p in passes for o in p)
    return {
        "wall_s": sum(values),
        "slowest_case_s": max(values),
        "case_p50_s": statistics.median(values),
        "ok_frac": (attempted - failed) / attempted,
        "attempted": attempted,
        "failed": failed,
    }
