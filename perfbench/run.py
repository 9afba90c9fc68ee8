"""mfpsim benchmark: run time, welfare and per-layer cost of fixed workloads.

One workload per call, from the root of a source checkout:

    python3 perfbench/run.py --workload siscc-default --seed 1 --seconds 42 --trace 0

Every workload in one go, end-to-end and per-layer, as a table:

    python3 perfbench/run.py --workload all

`--seed` picks the simulation seeds of the run; the same seed gives the same
inputs.  `--trace 0` measures the end-to-end metrics with tracing off;
`--trace 1` measures the per-layer metrics from a traced run (see
perfbench/README.md).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when the measurement completed, whatever the checks found; it is 2 when the
checkout has no mfpsim sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# the engine is single-threaded; keep numeric libraries from starting pools
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# fresh probe processes per end-to-end run: the first RUN_PROBES also run
# their simulation (peak memory, cross-process hash check), the rest only
# set up
PROBES = 8
RUN_PROBES = 1

# metric names and units, in the order they are printed
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def workload_config(spec: dict, sim_seed: int, tiny: bool) -> dict:
    """The workload's config override with the simulation seed set."""
    return {**spec["tiny_config" if tiny else "config"], "seed": sim_seed}


def sim_seeds(seed: int, spec: dict, seconds: float, tiny: bool) -> list[int]:
    """Simulation seeds of one run.

    Their number is fixed by --seconds and the workload's nominal cost per
    simulation at the commit that defined the benchmark, never by how fast
    the code under test runs, so every commit measures the same inputs.  Each
    simulation runs twice, and both runs are timed.
    """
    count = 1 if tiny else max(1, round(seconds / (2 * spec["sim_s"])))
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def text_hashes(texts: dict[str, str]) -> dict[str, str]:
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in sorted(texts.items())}


def check_run(record, texts: dict[str, str], cfg) -> list[str]:
    """Output checks every timed run must pass; returns what failed."""
    from mfpsim.runner import load_summary_csv, validate_summary_rows

    problems = [f"audit: {v}" for v in record.audit_violations]
    rows = load_summary_csv(texts["summary.csv"])
    problems += [f"summary.csv: {v}" for v in validate_summary_rows(rows)]
    if rows != record.summary_rows:
        problems.append("summary.csv does not round-trip to the run's summary rows")
    rounds = cfg.rounds
    expected = 0 if rounds == 0 else (2 * rounds if cfg.mode == "serial" else rounds + 1)
    if record.cr_count != expected:
        problems.append(f"cr_count {record.cr_count}, expected {expected}")
    return problems


class Runs:
    """Timed run() + output_texts() calls, each checked, with the tally."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timed(self, cfg_dict: dict, call=None):
        """Returns (wall s, cpu s, record, texts, hashes) or None on failure."""
        import mfpsim

        self.attempted += 1
        try:
            cfg = mfpsim.load_config(cfg_dict)
            w0, c0 = time.perf_counter(), time.process_time()
            if call is None:
                record = mfpsim.run(cfg)
                texts = record.output_texts()
            else:
                record, texts = call(cfg)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            problems = check_run(record, texts, cfg)
        except Exception as err:  # a raising run is a failed run, not a crash
            problems = [f"raised {type(err).__name__}: {err}"]
        if problems:
            self.fail(cfg_dict["seed"], problems)
            return None
        return wall, cpu, record, texts, text_hashes(texts)

    def fail(self, sim_seed: int, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"seed {sim_seed}: {p}" for p in problems]

    def twins(self, sim_seed: int, first: dict | None, second: dict | None) -> bool:
        """Compare the output hashes of two runs of one config and seed (None:
        that run already failed).  A run fails when they differ or when its
        twin failed, since its outputs are then unchecked; True when both
        runs passed."""
        if first is None and second is None:
            return False
        if first is None or second is None:
            self.fail(sim_seed, ["twin run failed, so these outputs are unchecked"])
            return False
        if first != second:
            for _ in range(2):
                self.fail(sim_seed, ["output hashes differ between two runs of the same config"])
            return False
        return True


def probe(cfg_dict: dict, run: bool) -> dict:
    args = [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(cfg_dict)] + ([] if run else ["--setup-only"])
    proc = subprocess.run(args, capture_output=True, text=True, timeout=120, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def measure_end_to_end(spec: dict, seeds: list[int], tiny: bool, runs: Runs) -> dict:
    """Every simulation runs twice in this process, in two passes over the
    run's seeds, so one slow stretch of the machine seldom covers both runs of
    a seed; both runs are timed, and each is the other's twin for the
    output-hash check.  The run's time is the mean over all these runs: it
    is scaled by the mean of a calibration timed after every simulation
    (calibrate.py), and only means on both sides weigh the machine's fast
    and slow spells alike.  Fresh probe processes, spread over the
    passes, measure set-up time and peak memory; one that also runs its
    simulation is checked against this process's outputs, which covers
    hash-seed dependence."""
    from calibrate import speed_factor, timed_calibration

    jobs = [s for _ in range(2) for s in seeds]
    probes_after = Counter(i * len(jobs) // PROBES for i in range(PROBES))
    done: dict[int, list] = {s: [] for s in seeds}
    calibration = [timed_calibration()]
    setups, rss, fresh_hashes = [], [], []
    probed = 0
    for k, s in enumerate(jobs):
        got = runs.timed(workload_config(spec, s, tiny))
        done[s].append(got and (got[0], got[1], got[2].total_welfare, got[4]))
        del got
        calibration.append(timed_calibration())
        for _ in range(probes_after[k]):
            ps, run = seeds[probed % len(seeds)], probed < RUN_PROBES
            probed += 1
            runs.attempted += 1
            try:
                fresh = probe(workload_config(spec, ps, tiny), run)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
                runs.fail(ps, [f"probe failed: {err}"])
                continue
            setups.append(fresh["setup_s"])
            if run:
                rss.append(fresh["peak_rss_mb"])
                fresh_hashes.append((ps, fresh["hashes"]))

    walls, cpus, welfare, hashes = [], [], [], {}
    for s, (first, second) in done.items():
        if runs.twins(s, first and first[3], second and second[3]):
            walls += [first[0], second[0]]
            cpus += [first[1], second[1]]
            welfare.append(first[2])
            hashes[s] = first[3]
    for ps, got in fresh_hashes:
        if got != hashes.get(ps):
            runs.fail(ps, ["probe outputs differ from this process's runs of the same config"])
    factor = speed_factor(calibration)
    print(f"machine speed factor {factor:.4f} (calibration mean {statistics.fmean(calibration):.5f} s,"
          f" unscaled run_s {_mean(walls):.5f} s)")
    return {
        "run_s": _mean(walls) * factor,
        "run_cpu_s": _mean(cpus) * factor,
        "setup_s": _median(setups) * factor,
        "peak_rss_mb": _median(rss),
        "welfare": _mean(welfare),
    }


def measure_per_layer(name: str, spec: dict, seeds: list[int], tiny: bool, runs: Runs, baseline: dict) -> dict:
    import mfpsim

    from tracing import Instrumentation, Tracer

    # untraced run at the reference seed: warms the process and shows whether
    # the outputs still match the hashes recorded at the benchmark's commit
    ref = workload_config(spec, baseline["seed"], tiny)
    ref_run = runs.timed(ref)
    expected = baseline["tiny" if tiny else "full"]
    matches = ref_run is not None and ref_run[4] == expected

    tracer = Tracer()
    missing: set[str] = set()

    def traced(cfg):
        with Instrumentation(tracer) as inst:
            record = tracer.call("runner.run", mfpsim.run, cfg)
            texts = tracer.call("runner.output", record.output_texts)
        missing.update(inst.missing)
        return record, texts

    plain_walls, shortfalls, out_bytes = [], 0, 0
    for s in seeds:
        cfg_dict = workload_config(spec, s, tiny)
        plain = runs.timed(cfg_dict)
        tracer.call("config.load", mfpsim.load_config, cfg_dict)
        got = runs.timed(cfg_dict, traced)
        if runs.twins(s, plain and plain[4], got and got[4]):
            plain_walls.append(plain[0])
            shortfalls += sum(1 for row in got[2].summary_rows if row["shortfall"])
            out_bytes += sum(len(t.encode()) for t in got[3].values())

    if missing:
        print(f"warning: not traced, no longer in the engine: {', '.join(sorted(missing))}", file=sys.stderr)
    tracer.write(OUT / f"{name}.spans.tsv")
    inclusive, own, calls = tracer.totals()
    c = tracer.counts
    n = max(1, calls["runner.run"])
    lookups = c["market.curve_lookups"]
    raw = {
        "scenario.status_s": inclusive["scenario.status"],
        "scenario.status_calls": calls["scenario.status"],
        "scenario.label_dist_s": inclusive["scenario.label_dist"],
        "scenario.mobility_s": inclusive["scenario.mobility"],
        "solver.solves": calls["solver.solve"],
        "solver.solve_s": inclusive["solver.solve"],
        "solver.solves_closed_form": c["solver.solves_closed_form"],
        "solver.solves_active_set": c["solver.solves_active_set"],
        "solver.solves_infeasible": c["solver.solves_infeasible"],
        "solver.bounds_calls": calls["solver.bounds"],
        "solver.bounds_s": inclusive["solver.bounds"],
        "solver.realize_calls": calls["solver.realize"],
        "solver.realize_s": inclusive["solver.realize"],
        "baselines.policy_solves": calls["baselines.policy_solve"],
        "baselines.policy_solve_s": inclusive["baselines.policy_solve"],
        "baselines.capped_resolves": c["baselines.capped_resolves"],
        "baselines.capped_resolves_changed": c["baselines.capped_resolves_changed"],
        "baselines.select_s": inclusive["baselines.select"],
        "market.alloc_s": inclusive["market.alloc"],
        "market.alloc_self_s": own["market.alloc"],
        "market.curve_lookups": lookups,
        "market.curve_misses": c["market.curve_misses"],
        "market.report_s": inclusive["market.report"],
        "market.report_curve_misses": c["market.report_curve_misses"],
        "market.samples_granted": c["market.samples_granted"],
        "market.shortfall_rounds": shortfalls,
        "rounds.plan_calls": calls["rounds.plan"],
        "rounds.plan_s": inclusive["rounds.plan"],
        "rounds.placements": c["rounds.placements"],
        "rounds.dropped": c["rounds.dropped"],
        "rounds.tightened_resolves": c["rounds.tightened_resolves"],
        "resource_pool.reserves": calls["resource_pool.reserve"],
        "resource_pool.reserve_s": inclusive["resource_pool.reserve"],
        "runner.output_s": inclusive["runner.output"],
        "runner.output_bytes": out_bytes,
        "runner.self_s": own["runner.run"],
        "config.load_s": inclusive["config.load"],
        "trace.spans": len(tracer.start),
    }
    # per traced run() call
    metrics = {k: v / n for k, v in raw.items()}
    metrics["market.curve_hit_ratio"] = 1.0 - c["market.curve_misses"] / lookups if lookups else 1.0
    metrics["runner.outputs_match_baseline"] = 1.0 if matches else 0.0
    # means, like every time above, so the shares printed against it add up
    metrics["trace.run_s"] = (inclusive["runner.run"] + inclusive["runner.output"]) / n
    metrics["trace.untraced_run_s"] = statistics.fmean(plain_walls) if plain_walls else float("nan")
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    workloads = load_workloads()
    spec = workloads["workloads"][name]
    seeds = sim_seeds(seed, spec, seconds, tiny)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mfpsim

    # warm lazy imports and caches before timing; a failure here shows up
    # again, counted, in the timed runs
    with contextlib.suppress(Exception):
        mfpsim.run(mfpsim.load_config(workload_config(spec, 0, True) | {"rounds": 1}))

    runs = Runs()
    if trace:
        baseline = {"seed": workloads["reference_seed"], **spec["baseline_hashes"]}
        values = measure_per_layer(name, spec, seeds, tiny, runs, baseline)
        units = PER_LAYER
    else:
        values = measure_end_to_end(spec, seeds, tiny, runs)
        units = END_TO_END
    values["failed_share"] = runs.failed / max(1, runs.attempted)
    for problem in runs.problems:
        print(f"FAILED {problem}")
    print(f"workload {name}  seed {seed}  simulations {len(seeds)}  runs {runs.attempted}  failed {runs.failed}")
    run_s = values.get("trace.run_s") if trace else None
    for key, unit in units.items():
        share = ""
        if run_s and unit == "s" and not key.startswith(("trace.", "config.")):
            share = f"  ({100 * values[key] / run_s:.1f}% of traced run_s)"
        print(f"  {key:36s} {values[key]:>16.6g} {unit}{share}")
    if not trace:
        print(f"  {'failed_share':36s} {values['failed_share']:>16.6g} share")
    result = {
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        # null where nothing could be measured (every run failed)
        "metrics": {
            key: {"value": None if values[key] != values[key] else values[key], "unit": unit}
            for key, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, tiny: bool) -> int:
    """Each workload and trace mode in its own process, so nothing (memory,
    imports, caches) carries over between them."""
    ok = True
    for name in load_workloads()["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            ok = ok and json.loads(lines[-1])["correct"]
    print(json.dumps({"correct": ok}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken configs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "mfpsim" / "__init__.py").is_file():
        print(f"error: no mfpsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.tiny)
    if args.workload not in load_workloads()["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
