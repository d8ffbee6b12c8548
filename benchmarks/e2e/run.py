#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md beside this file).

One run = one workload in one process::

    python3 benchmarks/e2e/run.py --workload index_probe --seed 1 --seconds 20 --trace 0

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}`` —
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``. ``--all``, ``--smoke`` and ``--check-repeat`` run
that same single-workload command once per workload (in a child process each,
so that peak RSS belongs to one workload) and print the combined table.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = ROOT / ".bench_e2e"
#: Hard wall-clock limit of one workload run (the contract allows 180 s).
DEADLINE_S = 170.0
SETUP_REPEATS = 3
#: Calibration kernel runs before and after each set-up (measure.calibrate).
SETUP_CALIBRATIONS = 15
WARMUP_S = 2.0
SMOKE_SECONDS = 0.4
#: --check-repeat: runs per workload per set, seeds ``seed .. seed + 9`` — what
#: the driver does twice before it accepts the benchmark.
CHECK_REPEAT_RUNS = 10


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_bounds() -> dict:
    with open(HERE / "bounds.json") as f:
        return json.load(f)


# -- one workload, one process ---------------------------------------------------------


class Watchdog:
    """The hard deadline: if the run is still going after ``seconds``, remove
    the scratch directory and leave without waiting for anything."""

    def __init__(self, seconds: float, scratch: Path) -> None:
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=self._watch, args=(seconds, scratch), name="e2e-watchdog", daemon=True
        )
        self._thread.start()

    def _watch(self, seconds: float, scratch: Path) -> None:
        if not self._done.wait(seconds):
            sys.stderr.write(f"e2e: hard deadline of {seconds:.0f}s passed; aborting\n")
            shutil.rmtree(scratch, ignore_errors=True)
            os._exit(4)

    def cancel(self) -> None:
        self._done.set()
        self._thread.join()


def pin_to_one_cpu() -> "set[int] | None":
    """Keep every thread of this run on one CPU; returns the previous set.

    A serve query hands work from the client thread to a server worker and
    back. With the GIL the two never run Python at once, but on two cores each
    hand-off may pay an idle-core wake-up: the same build measured 58 us or
    160 us per point read from run to run. On one CPU it repeats within 2 %.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaks(shm_before: set[str], scratch: Path) -> list[str]:
    """What this run left behind (must be nothing)."""
    problems = []
    if multiprocessing.active_children():
        problems.append(f"child processes: {multiprocessing.active_children()}")
    others = [t for t in threading.enumerate() if t is not threading.main_thread()]
    if others:
        problems.append(f"threads still alive: {[t.name for t in others]}")
    new_shm = shm_segments() - shm_before
    if new_shm:
        problems.append(f"new /dev/shm segments: {sorted(new_shm)}")
    if scratch.exists():
        problems.append(f"scratch directory still exists: {scratch}")
    return problems


def git_sha() -> str:
    """HEAD's commit, read from .git without starting a process; the driver's
    checkout is not a repository, so "unknown" is a normal answer."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def resident_bytes_and_rows(workload) -> tuple[int, int]:
    """storage + index bytes, and rows, of the workload's indexed tables, as
    the partitions themselves account them."""
    total = rows = 0
    for idf in workload.tables():
        for part in idf.materialize_partitions():
            total += part.storage_bytes() + part.index_bytes()
            rows += part.row_count
    return total, rows


def memory_counters(registry) -> dict[str, float]:
    return {
        "engine.mem_spills": registry.counter_total("memory_spills_total"),
        "engine.mem_evictions": registry.counter_total("memory_evictions_total"),
        "engine.mem_faulted_back_bytes": registry.counter_total("memory_faulted_back_bytes_total"),
        "engine.mem_blocks_recomputed": registry.counter_value(
            "recovery_events_total", kind="block_recomputed"
        ),
        "engine.mem_pressure_errors": registry.counter_total("memory_pressure_errors_total"),
    }


def advisor_counters(registry, sql_queries: int) -> dict[str, float]:
    actions = registry.counter_by_label("cache_advisor_decisions_total", "action")
    hits = registry.counter_total("cache_advisor_hits_total")
    return {
        "advisor.auto_cache_total": actions.get("auto_cache", 0.0),
        "advisor.auto_evict_total": actions.get("auto_evict", 0.0),
        "advisor.readmit_blocked_total": actions.get("readmit_blocked", 0.0),
        "advisor.served_from_cache_share": hits / sql_queries if sql_queries else 0.0,
    }


def invariant_violations(name: str, registry) -> list[str]:
    """Properties of a healthy run that are not any single op's answer."""
    counters = memory_counters(registry)
    spills, evictions = counters["engine.mem_spills"], counters["engine.mem_evictions"]
    problems = []
    if name == "bounded_memory":
        if spills <= 0 or evictions <= 0:
            problems.append(f"bounded_memory must spill and evict, saw {spills}/{evictions}")
    elif spills or evictions:
        problems.append(f"{name} must not spill or evict, saw {spills}/{evictions}")
    if counters["engine.mem_pressure_errors"]:
        problems.append("unhandled memory pressure errors")
    if registry.counter_total("corruption_detected_total"):
        problems.append("corruption detected")
    if registry.counter_total("serve_shard_failovers_total"):
        problems.append("router failovers with no chaos configured")
    return problems


def print_metrics(group: str, values: dict[str, float], units: dict[str, str]) -> None:
    for name, value in sorted(values.items()):
        print(f"{group:>10}  {name:<36} {value:>16.4f}  {units.get(name, '')}")


def run_single(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"e2e: program source not found under {ROOT / 'src'}\n")
        return 2
    contract = load_contract()
    # The mode is pinned: the Config default is read from this variable.
    os.environ.pop("REPRO_SCHEDULER_MODE", None)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    args.allowed_cpus = pin_to_one_cpu()
    shm_before = shm_segments()
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    watchdog = Watchdog(DEADLINE_S, scratch)
    try:
        result = measure_workload(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        watchdog.cancel()
    problems = leaks(shm_before, scratch)
    if problems:
        sys.stderr.write("e2e: run left something behind:\n  " + "\n  ".join(problems) + "\n")
        return 3

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    source = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        sys.stderr.write(f"e2e: metrics in BENCHMARK.json but not measured: {missing}\n")
        return 5
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for group in ("end_to_end", "specific", "per_layer"):
        print_metrics(group, result.get(group, {}), result["units"])
    for line in result["errors"] + result["invariants"]:
        print(f"FAILED: {line}")
    print(f"# attempted={result['attempted']} failed={result['failed']} details={out_path}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def measure_workload(args: argparse.Namespace, scratch: Path) -> dict:
    import datagen
    from measure import at_reference_speed, calibrate, host_slowdown, median, now, peak_rss_mb
    from workloads import WORKLOADS

    phases: dict[str, float] = {}  # where this run's wall time went
    mark = now()

    def lap(name: str) -> None:
        nonlocal mark
        phases[name] = phases.get(name, 0.0) + now() - mark
        mark = now()

    sizes = datagen.SMOKE if args.smoke else datagen.FULL
    warm_seconds = 0.1 if args.smoke else WARMUP_S
    contract = load_contract()
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    workload = WORKLOADS[args.workload](args.seed, sizes, str(scratch))
    # The inputs and oracles are the benchmark's own heap (over a million
    # objects). Frozen, the collector never traverses them, so their size does
    # not tax the program's garbage collections.
    gc.collect()
    gc.freeze()
    lap("generate_inputs_and_oracles")

    # Set-up, several times; the last one stays up for the timed window. Each
    # is reported at reference host speed, from calibrations either side of it.
    setups, builds, slowdowns = [], [], []
    try:
        for rep in range(1 if args.trace else SETUP_REPEATS):
            if rep:
                workload.teardown()
            calibrations = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
            t0 = now()
            workload.build()
            workload.warm()
            seconds = now() - t0
            calibrations += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
            slowdowns.append(host_slowdown(calibrations))
            setups.append(seconds / slowdowns[-1])
            builds.append(workload.build_seconds / slowdowns[-1])
        lap("setups")
        resident_bytes, indexed_rows = resident_bytes_and_rows(workload)
        registry = workload.session.context.registry
        workload.run_window(warm_seconds)  # untimed: let caches and lazy state settle
        lap("warmup")

        tasks_before = registry.counter_total("tasks_completed_total")
        window_seconds = args.seconds / 3.0 if args.trace else float(args.seconds)
        window = workload.run_window(window_seconds)
        tasks = registry.counter_total("tasks_completed_total") - tasks_before
        lap("timed_window")

        end_to_end = {
            "setup_s": median(setups),
            "peak_rss_mb": 0.0,  # filled in last: the high-water mark of the whole run
            "resident_bytes_per_row": resident_bytes / indexed_rows,
            **at_reference_speed(workload.end_to_end(window), units, window.slowdown),
        }
        result = {
            "workload": args.workload,
            "end_to_end": end_to_end,
            "specific": at_reference_speed(workload.specific_metrics(window), units, window.slowdown),
            "units": units,
            "host_slowdown": {"setups": slowdowns, "timed": window.slowdown},
            "sample_counts": {"cycles": len(window.cycles), **window.samples.counts()},
            "windows_s": {"warmup": warm_seconds, "timed": window.seconds},
            "setup_samples_s": setups,
            "phases_s": phases,
        }
        windows = [window]
        if args.trace:
            # 0 only where the metric belongs to another workload; any other
            # name left unmeasured fails the run (run_single's `missing`).
            per_layer = dict.fromkeys(
                (n for cls in WORKLOADS.values() if cls.name != args.workload for n in cls.only_here),
                0.0,
            )
            per_layer.update(result["specific"])
            per_layer["obs.host_slowdown"] = window.slowdown
            per_layer["engine.tasks_per_query"] = tasks / window.attempted
            per_layer["indexed.build_rows_per_s"] = indexed_rows / median(builds)
            plan_cache = workload.session.plan_cache.stats()
            lookups = plan_cache["hits"] + plan_cache["misses"]
            per_layer["sql.plan_cache_hit_ratio"] = plan_cache["hits"] / lookups if lookups else 0.0
            if args.workload == "serve_mixed":
                per_layer.update(
                    at_reference_speed(workload.serve_layer_metrics(window), units, window.slowdown)
                )
            traced = traced_window(args, workload, window, window_seconds, per_layer, result)
            windows.append(traced)
            lap("traced_window")
            per_layer.update(direct_probes(args, workload, sizes, units, end_to_end["cycle_p50_ms"]))
            lap("layer_probes")
            per_layer.update(memory_counters(registry))
            sql_queries = 0 if args.workload == "serve_mixed" else sum(w.attempted for w in windows)
            per_layer.update(advisor_counters(registry, sql_queries))
            unknown = sorted(set(per_layer) - {m["name"] for m in contract["per_layer"]})
            if unknown:
                raise AssertionError(f"measured but not in BENCHMARK.json: {unknown}")
            result["per_layer"] = per_layer
        invariants = invariant_violations(args.workload, registry)
    finally:
        workload.teardown()
    lap("teardown")
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    failed = sum(w.failed for w in windows)
    result.update(
        attempted=sum(w.attempted for w in windows),
        failed=failed,
        errors=[e for w in windows for e in w.errors],
        invariants=invariants,
        correct=failed == 0 and not invariants,
        meta={
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "nproc": os.cpu_count(),
            "pinned_to_one_cpu": args.allowed_cpus is not None,
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "scheduler_mode": "sequential",
            "sizes": sizes.__dict__,
        },
    )
    return result


def traced_window(args, workload, untraced, seconds: float, per_layer: dict, result: dict):
    """The same window again with the benchmark's spans around every layer
    call; fills the ``obs.*`` metrics and writes the Chrome trace."""
    from measure import Spans, layer_table, write_chrome_trace

    spans = Spans()
    traced = workload.run_window(seconds, spans)
    tracers = [spans] + traced.extra.get("writer_spans", [])
    table = layer_table(tracers)
    per_layer["obs.span_coverage_pct"] = table["coverage_pct"]
    plain, with_spans = (w.ops_per_s * w.slowdown for w in (untraced, traced))
    per_layer["obs.bench_trace_overhead_pct"] = 100.0 * (plain - with_spans) / plain
    for layer in ("sql", "engine", "indexed", "serve"):
        per_layer[f"obs.self_share_pct.{layer}"] = (
            100.0 * table["self_seconds"].get(layer, 0.0) / table["root_wall_seconds"]
        )
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
    write_chrome_trace(str(trace_path), tracers, table)
    result["trace"] = {"file": str(trace_path), "layers": table}
    result["windows_s"]["traced"] = traced.seconds
    result["host_slowdown"]["traced"] = traced.slowdown
    return traced


def direct_probes(args, workload, sizes, units: dict, cycle_ms: float) -> dict[str, float]:
    """Layer probes on what the workload built, plus the comparators that
    belong to one workload only."""
    import layers
    from measure import median

    out = layers.probe_all(workload.probe_target(), args.seed, sizes, units)
    if args.workload == "bounded_memory":
        out["engine.bounded_slowdown"] = cycle_ms / workload.unbounded_cycle_ms(6)
    if args.workload == "analytic_scan":
        columnar = workload.columnar_cycle_ms(2)
        out["sql.columnar_cycle_ms"] = columnar
        out["sql.indexed_vs_columnar_ratio"] = cycle_ms / columnar
        # The program's own tracer, on vs off, interleaved.
        tracer = workload.session.context.tracer
        on, off = [], []
        for _ in range(3):
            off.append(workload.checked_cycle_ms(1))
            tracer.enable()
            try:
                on.append(workload.checked_cycle_ms(1))
            finally:
                tracer.disable()
                tracer.reset()
        out["obs.tracer_on_overhead_pct"] = 100.0 * (median(on) - median(off)) / median(off)
        # "threads" can only differ from "sequential" with more than one CPU:
        # both sides of this ratio run with the pin lifted.
        if args.allowed_cpus is not None:
            os.sched_setaffinity(0, args.allowed_cpus)
        try:
            sequential = workload.checked_cycle_ms(2)
            out["engine.threads_vs_sequential"] = sequential / workload.threads_cycle_ms(2)
        finally:
            if args.allowed_cpus is not None:
                pin_to_one_cpu()
    return out


# -- orchestration: every workload, each in its own process ---------------------------------


def child_run(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload in a child process; return its detailed result."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S + 20)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"e2e: {workload} (trace={trace}) exited with {done.returncode}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    path = OUT_DIR / f"result_{workload}_seed{seed}_trace{trace}.json"
    detail = json.loads(path.read_text())
    if not summary["correct"]:
        sys.stderr.write(done.stdout)
        raise SystemExit(f"e2e: {workload} (trace={trace}) reported incorrect results")
    return detail


def run_all(args: argparse.Namespace) -> int:
    contract = load_contract()
    combined = {}
    for spec in contract["workloads"]:
        name = spec["name"]
        untraced = child_run(name, args.seed, args.seconds, 0, args.smoke)
        traced = child_run(name, args.seed, args.seconds, 1, args.smoke)
        combined[name] = {"untraced": untraced, "traced": traced}
        print(f"\n== {name}: {spec['why']}")
        print(
            f"   attempted={untraced['attempted']} failed={untraced['failed']} "
            f"samples={untraced['sample_counts']}"
        )
        print_metrics("end_to_end", untraced["end_to_end"], untraced["units"])
        print_metrics("specific", untraced["specific"], untraced["units"])
        print_metrics("per_layer", traced["per_layer"], untraced["units"])
        coverage = traced["per_layer"]["obs.span_coverage_pct"]
        if coverage < 90.0:
            raise SystemExit(f"e2e: {name}: layer spans cover only {coverage:.1f}% of op wall time")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "result_all.json").write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    print(f"\nall workloads correct; details in {OUT_DIR / 'result_all.json'}")
    return 0


def run_check_repeat(args: argparse.Namespace) -> int:
    """What the driver does before it accepts the benchmark: two sets of
    ``CHECK_REPEAT_RUNS`` runs per workload (seeds ``seed ..``), on the same
    code. Prints each gated metric's two medians, their difference, the two
    spreads (interquartile range / median) and the bound; fails if the medians
    disagree, or the runs of one set spread, beyond the bound. ``setup_s`` is
    exempt from the spread rule, as it is in the driver's."""
    import statistics

    contract = load_contract()
    general = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    own = {name: spec["bound"] for name, spec in load_bounds()["metrics"].items()}
    sets: list[dict[tuple[str, str], list[float]]] = []
    for _ in range(2):
        values: dict[tuple[str, str], list[float]] = {}
        for spec in contract["workloads"]:
            for rep in range(CHECK_REPEAT_RUNS):
                detail = child_run(spec["name"], args.seed + rep, args.seconds, 0, args.smoke)
                for metric, value in detail["end_to_end"].items():
                    values.setdefault((spec["name"], metric), []).append(value)
                for metric, value in detail["specific"].items():
                    if metric in own:
                        values.setdefault((spec["name"], metric), []).append(value)
        sets.append(values)

    def spread(runs: list[float]) -> float:
        q1, _, q3 = statistics.quantiles(runs, n=4)
        return (q3 - q1) / statistics.median(runs)

    bad = 0
    print(
        f"{'workload':<16}{'metric':<24}{'median 1':>13}{'median 2':>13}{'diff':>8}"
        f"{'spread 1':>10}{'spread 2':>10}{'bound':>7}"
    )
    for (workload, metric), first_runs in sorted(sets[0].items()):
        second_runs = sets[1][(workload, metric)]
        first, second = statistics.median(first_runs), statistics.median(second_runs)
        bound = general[metric] if metric in general else own[metric]
        diff = (second - first) / first
        spreads = (spread(first_runs), spread(second_runs))
        flag = ""
        if abs(diff) > bound:
            flag = "  DISAGREE"
        elif metric != "setup_s" and max(spreads) > bound:
            flag = "  SPREAD"
        bad += bool(flag)
        print(
            f"{workload:<16}{metric:<24}{first:>13.4f}{second:>13.4f}{diff:>+8.1%}"
            f"{spreads[0]:>10.1%}{spreads[1]:>10.1%}{bound:>7.0%}{flag}"
        )
    if bad:
        print(f"{bad} metric(s) beyond their bound between or within two sets of the same code")
        return 1
    print("both sets agree and repeat within every bound")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="timed window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths and checks")
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--check-repeat", action="store_true", help="two sets must agree within bounds")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(load_contract()["run_seconds"])
    if args.workload:
        names = [w["name"] for w in load_contract()["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        code = run_single(args)
        # Everything is torn down, checked and printed. Leave without the
        # interpreter's own finalization, which spends seconds freeing the
        # run's heap (3.5 s after serve_mixed) inside the driver's time budget.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    if args.check_repeat:
        return run_check_repeat(args)
    if args.all or args.smoke:
        return run_all(args)
    parser.error("give --workload NAME, --all, --smoke or --check-repeat")
    return 2


if __name__ == "__main__":
    sys.exit(main())
