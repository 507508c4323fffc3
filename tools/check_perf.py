#!/usr/bin/env python3
"""Perf-smoke regression gate.

Compares a freshly generated BENCH_interp.json against the checked-in
baseline (bench/baselines/BENCH_interp.json):

  - Simulation metrics (simulated instructions, per-cell simulated
    seconds and overheads) are machine-independent and must match the
    baseline EXACTLY -- any drift is a semantics change, not a perf
    regression, and always fails.
  - Wall time is machine-dependent; the gate only fails when the fresh
    run is more than --max-regression (default 25%) slower than the
    baseline recorded wall time. Faster is always fine.
  - --min-mips FLOOR additionally enforces an absolute simulated-MIPS
    floor on overhead JSONs (simulated_instrs / wall_seconds / 1e6):
    the threaded-engine throughput gate. Unlike the relative wall gate
    it cannot be eroded by repeatedly re-baselining on slower runs --
    dropping below the floor fails no matter what the baseline says.

Every gated JSON is written by `xisa_exp --json` from a checked-in
conf, and its row (or scenario, or pool) set must equal the baseline's
exactly.

Serving-kind JSONs (rows keyed by "scenario", from serving confs) are
gated differently: the deterministic counts (requests, slo_violations,
migrations, failovers) must match the baseline EXACTLY, while the tail
percentiles are allowed to drift up to --max-p99-regression (default
10%) before the gate fails -- improving the tail never fails.

Fleet-kind JSONs (rows keyed by "pool", from rack/fleet confs run
through xisa_exp --json) carry the event-driven cluster scheduler's
throughput: sched_events (deterministic, must match the baseline
EXACTLY -- the event count is identical for both schedule drivers by
construction, so drift means the schedule itself changed) and
events_per_sec. --min-events-per-sec FLOOR enforces an absolute
scheduler-throughput floor, the cluster-sim analogue of --min-mips: the
old per-quantum stepping loop runs two orders of magnitude below it at
fleet scale, so the gate catches any reintroduction of per-step
machine scans no matter how the baseline wall time drifts.

Exit status: 0 ok, 1 regression/mismatch, 2 usage error.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def row_key(row):
    return (row["workload"], row["isa"], row["class"], row["threads"])


def wall_gate(fresh, base, args):
    """Wall time is machine-dependent; only a big slowdown fails."""
    fw = fresh.get("wall_seconds")
    bw = base.get("wall_seconds")
    if not fw or not bw:
        return ["wall_seconds missing from fresh or baseline"]
    slowdown = fw / bw - 1.0
    print(f"wall time: baseline {bw:.3f}s, fresh {fw:.3f}s "
          f"({slowdown * 100:+.1f}%)")
    # Sub-second runs (quick-mode serving) are dominated by scheduler
    # noise; only fail when the absolute slip is material too.
    if slowdown > args.max_regression and fw - bw > 0.25:
        return [f"wall-time regression {slowdown * 100:.1f}% exceeds "
                f"the {args.max_regression * 100:.0f}% budget"]
    return []


def is_serving(doc):
    rows = doc.get("rows", [])
    return bool(rows) and "scenario" in rows[0]


def is_fleet(doc):
    return "sched_events" in doc


def check_fleet(fresh, base, args, failures):
    """Gate a fleet-kind JSON: per-pool results and the event count
    exactly, wall time within budget, events/sec above the floor."""
    # The simulator is seeded and deterministic, and sched_events is
    # identical for the event core and the stepping oracle by
    # construction: any drift is a schedule change, never noise.
    if fresh.get("sched_events") != base.get("sched_events"):
        failures.append(
            f"sched_events drifted: baseline={base.get('sched_events')} "
            f"fresh={fresh.get('sched_events')} "
            "(schedule change, not a perf regression)")
    fresh_rows = {r["pool"]: r for r in fresh.get("rows", [])}
    base_rows = {r["pool"]: r for r in base.get("rows", [])}
    if set(fresh_rows) != set(base_rows):
        failures.append(
            f"pool sets differ: only-fresh="
            f"{sorted(set(fresh_rows) - set(base_rows))} only-baseline="
            f"{sorted(set(base_rows) - set(fresh_rows))}")
    else:
        for name, br in base_rows.items():
            fr = fresh_rows[name]
            for field in ("energy_kj", "makespan_seconds",
                          "migrations"):
                if fr.get(field) != br.get(field):
                    failures.append(
                        f"{name}: {field} drifted "
                        f"{br.get(field)} -> {fr.get(field)} "
                        "(semantics change, not a perf regression)")
    failures += wall_gate(fresh, base, args)
    if args.min_events_per_sec is not None:
        eps = fresh.get("events_per_sec")
        if not eps:
            failures.append("events_per_sec missing from fresh json "
                            "(--min-events-per-sec)")
        else:
            print(f"events/sec: fresh {eps:.0f}, floor "
                  f"{args.min_events_per_sec:.0f}")
            if eps < args.min_events_per_sec:
                failures.append(
                    f"scheduler throughput {eps:.0f} events/sec below "
                    f"the --min-events-per-sec floor "
                    f"{args.min_events_per_sec:.0f}")
    return base_rows


def check_serving(fresh, base, args, failures):
    """Gate a serving-kind JSON: deterministic counts exactly, tail
    percentiles within --max-p99-regression."""
    fresh_rows = {r["scenario"]: r for r in fresh.get("rows", [])}
    base_rows = {r["scenario"]: r for r in base.get("rows", [])}
    if set(fresh_rows) != set(base_rows):
        failures.append(
            f"scenario sets differ: only-fresh="
            f"{sorted(set(fresh_rows) - set(base_rows))} only-baseline="
            f"{sorted(set(base_rows) - set(fresh_rows))}")
        return base_rows
    for name, br in base_rows.items():
        fr = fresh_rows[name]
        # The serving simulator is seeded and deterministic: counts
        # drifting means the semantics changed, which always fails.
        # The degraded-mode counters (shed, slo_violations_degraded)
        # only appear on confs with a [failures] plan; skip them on
        # older baselines that predate the fields.
        for field in ("requests", "slo_violations", "migrations",
                      "failovers", "shed", "slo_violations_degraded"):
            if field not in br and field not in fr:
                continue
            if fr.get(field) != br.get(field):
                failures.append(
                    f"{name}: {field} drifted "
                    f"{br.get(field)} -> {fr.get(field)} "
                    "(semantics change, not a perf regression)")
        # Percentiles may legitimately move with service-cost
        # recalibration, so they get a budget instead of exactness.
        for field in ("p99_us", "p999_us"):
            fp, bp = fr.get(field), br.get(field)
            if fp is None or bp is None or not bp:
                failures.append(f"{name}: {field} missing or zero in "
                                "fresh or baseline")
                continue
            reg = fp / bp - 1.0
            print(f"{name} {field}: baseline {bp:.1f} us, "
                  f"fresh {fp:.1f} us ({reg * 100:+.1f}%)")
            if reg > args.max_p99_regression:
                failures.append(
                    f"{name}: {field} regression {reg * 100:.1f}% "
                    f"exceeds the "
                    f"{args.max_p99_regression * 100:.0f}% budget")
    return base_rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", help="BENCH_interp.json from this run")
    ap.add_argument("baseline", help="checked-in baseline json")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional wall-time slowdown "
                         "(default 0.25 = 25%%)")
    ap.add_argument("--max-p99-regression", type=float, default=0.10,
                    help="allowed fractional p99/p99.9 latency growth "
                         "for serving JSONs (default 0.10 = 10%%)")
    ap.add_argument("--min-mips", type=float, metavar="FLOOR",
                    help="absolute simulated-MIPS floor for overhead "
                         "JSONs; below it the gate fails regardless of "
                         "the baseline")
    ap.add_argument("--min-events-per-sec", type=float, metavar="FLOOR",
                    help="absolute scheduler-event throughput floor "
                         "for fleet JSONs; below it the gate fails "
                         "regardless of the baseline")
    args = ap.parse_args()

    fresh = load(args.fresh)
    base = load(args.baseline)
    failures = []

    if fresh.get("mode") != base.get("mode"):
        failures.append(
            f"mode mismatch: fresh={fresh.get('mode')} "
            f"baseline={base.get('mode')}")

    if is_fleet(fresh) or is_fleet(base):
        if is_fleet(fresh) != is_fleet(base):
            print("check_perf: fresh and baseline are different "
                  "experiment kinds", file=sys.stderr)
            return 2
        if args.min_mips is not None:
            print("check_perf: --min-mips only applies to overhead "
                  "JSONs (fleet rows have no mips)", file=sys.stderr)
            return 2
        base_rows = check_fleet(fresh, base, args, failures)
        if failures:
            for f in failures:
                print(f"check_perf: FAIL: {f}", file=sys.stderr)
            return 1
        print(f"check_perf: OK ({len(base_rows)} fleet pools, "
              f"events/sec fresh={fresh.get('events_per_sec')}, "
              f"baseline={base.get('events_per_sec')})")
        return 0

    if args.min_events_per_sec is not None:
        print("check_perf: --min-events-per-sec only applies to fleet "
              "JSONs", file=sys.stderr)
        return 2

    if is_serving(fresh) or is_serving(base):
        if is_serving(fresh) != is_serving(base):
            print("check_perf: fresh and baseline are different "
                  "experiment kinds", file=sys.stderr)
            return 2
        if args.min_mips is not None:
            print("check_perf: --min-mips only applies to overhead "
                  "JSONs (serving rows have no mips)", file=sys.stderr)
            return 2
        base_rows = check_serving(fresh, base, args, failures)
        failures += wall_gate(fresh, base, args)
        if failures:
            for f in failures:
                print(f"check_perf: FAIL: {f}", file=sys.stderr)
            return 1
        print(f"check_perf: OK ({len(base_rows)} serving scenarios)")
        return 0

    # --- exact simulation metrics -----------------------------------
    if fresh.get("simulated_instrs") != base.get("simulated_instrs"):
        failures.append(
            "simulated_instrs drifted: "
            f"fresh={fresh.get('simulated_instrs')} "
            f"baseline={base.get('simulated_instrs')} "
            "(semantics change, not a perf regression)")

    fresh_rows = {row_key(r): r for r in fresh.get("rows", [])}
    base_rows = {row_key(r): r for r in base.get("rows", [])}
    if set(fresh_rows) != set(base_rows):
        failures.append(
            f"row sets differ: only-fresh="
            f"{sorted(set(fresh_rows) - set(base_rows))} only-baseline="
            f"{sorted(set(base_rows) - set(fresh_rows))}")
    else:
        for key, br in base_rows.items():
            fr = fresh_rows[key]
            for field in ("base_seconds", "instrumented_seconds",
                          "instrs"):
                if fr[field] != br[field]:
                    failures.append(
                        f"{key}: {field} drifted "
                        f"{br[field]} -> {fr[field]}")

    failures += wall_gate(fresh, base, args)

    # --- absolute throughput floor ------------------------------------
    if args.min_mips is not None:
        mips = fresh.get("mips")
        if not mips:
            failures.append("mips missing from fresh json (--min-mips)")
        else:
            print(f"mips: fresh {mips:.2f}, floor {args.min_mips:.2f}")
            if mips < args.min_mips:
                failures.append(
                    f"simulated MIPS {mips:.2f} below the --min-mips "
                    f"floor {args.min_mips:.2f}")

    if failures:
        for f in failures:
            print(f"check_perf: FAIL: {f}", file=sys.stderr)
        return 1
    print(f"check_perf: OK ({len(base_rows)} cells, "
          f"mips fresh={fresh.get('mips')}, baseline={base.get('mips')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
