#!/usr/bin/env python3
"""Host-time benchmark for CrossBound (see README.md in this directory).

One run measures one workload for a fixed time and prints, as the last
line of stdout, one JSON object with `correct`, `attempted`, `failed`
and `metrics`:

    python3 hostbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics: wall time and peak memory of
the real runner process (`xisa_exp <generated conf>`), and set-up time
and simulate rate from the benchmark's in-process driver. --trace 1 reports the per-layer split from a separately traced
driver run. Every op checks the simulated outputs against the
references recorded in references.json; a failed check fails the op.

Other modes:
    --all         every workload, untraced then traced, one after another
    --self-test   all four workloads at minimal size: every metric is
                  printed with its unit, and a corrupted reference is
                  reported as a failed op
    --record      rewrite references.json from the current build (only
                  on a commit whose simulated outputs are known good)

Run from the repository root; the benchmark builds the runner and its
driver from source into $CARGO_TARGET_DIR (default .bench_build).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

THREADS = 2            # XISA_BENCH_THREADS pinned for every process
VARIANTS = 8           # seed n selects input variant n % VARIANTS
MIN_OPS = 3            # ops per run, even when --seconds is shorter
OP_TIMEOUT = 60        # seconds per spawned process
MOVE_QUANTUM = 250     # migrate: instructions per scheduling quantum

# Environment switches that select a different engine, scheduler or
# checking path than the one users run; the benchmark refuses them.
FORBIDDEN_ENV = ("XISA_QUICK", "XISA_AUDIT", "XISA_PERTURB",
                 "XISA_SLOW_PATH", "XISA_THREADED", "XISA_SLOW_SCHED")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_rate": "1/s",
}

PER_LAYER = {
    "exp.parse_s": "s",
    "exp.sweep_s": "s",
    "exp.sweep_eff": "ratio",
    "workload.build_s": "s",
    "compiler.compile_s": "s",
    "compiler.modules": "count",
    "machine.instrs": "count",
    "os.run_s": "s",
    "machine.mips": "MIPS",
    "sched.calibrate_s": "s",
    "sched.jobset_s": "s",
    "sched.run_s": "s",
    "sched.events": "count",
    "traffic.calibrate_s": "s",
    "traffic.generate_s": "s",
    "traffic.serve_s": "s",
    "traffic.requests": "count",
    "os.migrations": "count",
    "os.spurious_traps": "count",
    "os.migrate_yield": "ratio",
    "dsm.page_transfers": "count",
    "dsm.bytes_transferred": "bytes",
    "dsm.read_faults": "count",
    "dsm.write_faults": "count",
    "dsm.pages_per_migration": "ratio",
    "stacktransform.transforms": "count",
    "stacktransform.host_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}

# Layers of the self-time split: the driver's span layers, plus
# stacktransform, carved out of os.migrate by its own host-time sum.
LAYERS = ("exp.parse", "exp.sweep", "workload", "compiler", "os.run",
          "os.migrate", "stacktransform", "sched.calibrate",
          "sched.jobset", "sched.run", "traffic.calibrate",
          "traffic.generate", "traffic.serve")
for _layer in LAYERS:
    PER_LAYER[f"self.{_layer}_s"] = "s"

# The layer the workload was chosen to stress; the traced run prints
# it next to the layer that actually had the largest self time.
DOMINANT = {
    "sweep": ("engine", ("os.run",)),
    "fleet": ("calibration", ("sched.calibrate",)),
    "serving": ("traffic", ("traffic.calibrate", "traffic.generate",
                            "traffic.serve")),
    "migrate": ("migration path", ("os.migrate", "stacktransform")),
}

# What the simulate rate counts, by the name it has per workload.
RATE_NAMES = {
    "sweep": ("sim_mips", 1e-6, "MIPS"),
    "fleet": ("sched_events_per_s", 1.0, "events/s"),
    "serving": ("requests_per_s", 1.0, "requests/s"),
    "migrate": ("sim_mips", 1e-6, "MIPS"),
}


class Refused(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- generated inputs -------------------------------------------------

def sweep_conf(variant, mini):
    # The NPB kernels are fixed, so the variant is only recorded.
    return f"""\
# hostbench sweep (variant {variant}): fig06-shaped overhead sweep.
kind = overhead
figure = "hostbench sweep"
title = "migration-point wrapper-code overhead (%)"
bench_name = hostbench_sweep

workloads = {"cg" if mini else "cg, is"}
isas = aether, xeno
classes = {"A" if mini else "A, B"}
threads = {"1" if mini else "1, 4"}
"""


def fleet_conf(variant, mini):
    machines = 100 if mini else 1000
    arm = machines * 2 // 5
    return f"""\
# hostbench fleet (variant {variant}): fleet_rows-shaped rack run.
kind = rack
figure = "hostbench fleet"
title = "{machines}-machine rows, hierarchical topology, crashes enabled"
bench_name = hostbench_fleet

sets = {1 if mini else 12}
seed_base = {77000 + 100 * variant}
waves = 5
jobs_per_wave_per_machine = 7
pool_machines = {machines}

[machine.x86]
node = xeno

[machine.arm_finfet]
node = aether
power_scale = 0.1

[pool.base]
machines = x86*{machines}
policy = static-balanced
baseline = true
label = "{machines}x86 (baseline)"

[pool.mix]
machines = x86*{machines - arm}, arm_finfet*{arm}
policy = dynamic-balanced
label = "{machines - arm}x86+{arm}arm"

[sim]
rebalance_period = 2.0

[topology]
machines_per_rack = {10 if mini else 40}
racks_per_pod = 5
tor_oversub = 4.0
agg_oversub = 2.0
rack_hop_us = 5.0
agg_hop_us = 20.0
locality_bias = 0.5

[crashes]
down_seconds = 20
plan = {"17@40, 17@41, 55@75, 90@90" if mini
        else "17@40, 17@41, 203@60, 555@75, 903@90"}
"""


def serving_conf(variant, mini):
    return f"""\
# hostbench serving (variant {variant}): serving_slo-shaped open loop.
kind = serving
figure = "hostbench serving"
title = "open-loop REDIS: live shard migration vs static placement"
bench_name = hostbench_serving

machines = xeno, aether

[traffic]
seed = {42 + variant}
clients = 200000
request_hz = 0.26
duration = {2 if mini else 60}
zipf_skew = 0.99
key_space = 65536
get_fraction = 0.9
slo_us = 800
shards = 8
placement = 1, 1, 1, 1, 1, 1, 1, 1
migrate_plan = 6@0.3->0, 1@0.45->0, 5@0.55->0
"""


def migrate_conf(variant, mini):
    # xisa_exp runs this conf as the no-migration reference on one
    # node; the driver runs the same binary on both ISAs and moves it.
    return f"""\
# hostbench migrate (variant {variant}): REDIS pushed across ISAs.
kind = single
figure = "hostbench migrate"
title = "redis, no-migration reference"
bench_name = hostbench_migrate

workload = redis@run
machines = xeno
start_node = 0

[paramset.run]
class = {"A" if mini else "B"}

[os]
quantum = {MOVE_QUANTUM}
dsm_mode = migrate
"""


CONFS = {"sweep": sweep_conf, "fleet": fleet_conf,
         "serving": serving_conf, "migrate": migrate_conf}


# --- build and environment ------------------------------------------------

def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def cmake_cache(bdir):
    cache = {}
    path = bdir / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            key, sep, value = line.partition("=")
            if sep and ":" in key:
                cache[key.split(":")[0]] = value
    return cache


def build():
    """Build xisa_exp and the driver; returns their paths."""
    bdir = build_dir()
    cache = cmake_cache(bdir)
    if cache and Path(cache.get("CMAKE_HOME_DIRECTORY", "")) != HERE:
        shutil.rmtree(bdir)          # a tree configured elsewhere
        cache = {}
    OUT.mkdir(exist_ok=True)
    log = OUT / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache:
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                  "xisa_exp", "hostbench_driver"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                sys.stderr.write("\n".join(tail) + "\n")
                raise Refused(f"build failed, see {log}")
    build_type = cmake_cache(bdir).get("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise Refused(f"build type is {build_type!r}, not Release")
    return bdir / "crossbound/src/exp/xisa_exp", bdir / "hostbench_driver"


def child_env():
    """Check the caller's environment; return the one children get."""
    for var in FORBIDDEN_ENV:
        if var in os.environ:
            raise Refused(f"{var} is set; unset it to benchmark")
    threads = os.environ.get("XISA_BENCH_THREADS")
    if threads not in (None, str(THREADS)):
        raise Refused(f"XISA_BENCH_THREADS={threads}; the benchmark "
                      f"pins {THREADS}")
    if (os.cpu_count() or 1) < THREADS:
        raise Refused(f"needs {THREADS} CPUs, host has {os.cpu_count()}")
    env = dict(os.environ)
    env["XISA_BENCH_THREADS"] = str(THREADS)
    return env


def check_driver_env(reported):
    """The environment the driver saw must be the pinned one."""
    want = {"threads": THREADS, "build_type": "Release",
            "tracer_armed": False, "xisa_quick": None}
    for key, value in want.items():
        if reported.get(key) != value:
            raise Refused(f"driver reports {key}={reported.get(key)!r}, "
                          f"expected {value!r}")


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


# --- one op -----------------------------------------------------------

def spawn(cmd, env):
    """Run cmd; returns (host seconds, peak RSS MB, exit code, stdout)."""
    with open(OUT / "stdout.tmp", "w+") as out, \
            open(OUT / "stderr.tmp", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        done = threading.Event()
        killer = threading.Timer(
            OP_TIMEOUT, lambda: done.is_set() or proc.kill())
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        done.set()
        killer.cancel()
        killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        message = err.read()
        if message:
            sys.stderr.write(message)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, out.read()


class Workload:
    """One workload at one seed: its generated conf and the tools.

    `reference` is what a correct build prints for this input; the
    caller fills it in.
    """

    def __init__(self, name, seed, mini, tools, env):
        self.name = name
        self.seed = seed
        self.variant = seed % VARIANTS
        self.xisa_exp, self.driver = tools
        self.env = env
        self.reference = None
        OUT.mkdir(exist_ok=True)
        tag = f"{name}-v{self.variant}{'-mini' if mini else ''}"
        self.conf = OUT / f"{tag}.conf"
        self.conf.write_text(CONFS[name](self.variant, mini))
        self.spans = OUT / f"{tag}.spans.json"

    def run_exp(self):
        """The runner process users run: `xisa_exp <conf>`."""
        return spawn([str(self.xisa_exp), str(self.conf)], self.env)

    def run_driver(self, op, traced):
        cmd = [str(self.driver), "--workload", self.name, "--conf",
               str(self.conf), "--seed", str(self.variant), "--op", str(op)]
        if traced:
            cmd += ["--spans", str(self.spans)]
        wall, rss, code, out = spawn(cmd, self.env)
        lines = out.strip().splitlines()
        report = json.loads(lines[-1]) if code == 0 and lines else None
        return wall, rss, code, report


def check_exp(wl, code, stdout):
    """xisa_exp must exit 0 and print exactly the recorded stdout."""
    if code != 0:
        return f"xisa_exp exited {code}"
    if stdout != wl.reference["stdout"]:
        return "xisa_exp stdout differs from the reference"
    return None


def check_driver(wl, code, report, exp_stdout):
    """Drift check: the driver's simulated results are xisa_exp's."""
    if report is None:
        return f"driver exited {code}"
    check_driver_env(report["env"])
    if not report["finished"]:
        return "driver: the process did not finish"
    lines = exp_stdout.splitlines()
    if wl.name == "migrate":
        ref = wl.reference
        # Guest output of the migrating run == the no-migration run
        # xisa_exp printed (two-space indented, before "finished=").
        end = next((i for i, l in enumerate(lines)
                    if l.startswith("finished=")), 0)
        guest = [l[2:] for l in lines[end - len(report["output"]):end]]
        if not report["output"] or guest != report["output"]:
            return "migrate: guest output differs from the no-migration run"
        if report["rows"] != ref["rows"] or report["stats"] != ref["stats"]:
            return "migrate: simulated counters differ from the reference"
        return None
    rows = set(report["rows"])
    if [l for l in lines if l in rows] != report["rows"]:
        return "driver result rows differ from xisa_exp's"
    return None


def layer_split(doc, traced_wall):
    """Self time per layer from the driver's spans, in host seconds.

    A span's self time is its duration minus what its children cover.
    Children on another thread (sweep workers) run side by side, so
    each counts 1/threads of its duration: the split then adds up to
    the top-level spans, and the traced wall minus those is
    unattributed (process start, output, teardown).
    """
    spans = doc["spans"]
    workers = max(1, doc["threads"])
    scale = [1.0] * len(spans)
    for s in spans:                     # parents precede children
        p = s["parent"]
        if p >= 0:
            hop = spans[p]["thread"] != s["thread"]
            scale[s["id"]] = scale[p] / (workers if hop else 1)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for s in spans:
        covered = sum((c["end"] - c["start"]) * scale[c["id"]]
                      for c in spans if c["parent"] == s["id"])
        own = (s["end"] - s["start"]) * scale[s["id"]] - covered
        self_s[s["layer"]] += own
        calls[s["layer"]] += 1
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    return self_s, calls, traced_wall - top


def layer_metrics(report, doc, traced_wall, untraced_wall):
    spans = doc["spans"]

    def total(layer):
        return sum(s["end"] - s["start"] for s in spans
                   if s["layer"] == layer)

    self_s, calls, unattributed = layer_split(doc, traced_wall)
    stats = report["stats"]
    host_st = report["transform_host_s"]
    self_s["os.migrate"] -= host_st
    self_s["stacktransform"] += host_st
    calls["stacktransform"] = int(stats.get("stacktransform.transforms", 0))

    sweep_s = total("exp.sweep")
    cells = sum(1 for s in spans if s["layer"] == "os.run")
    workers = min(doc["threads"], cells) or 1
    instrs = report["work"] if report["work_unit"] == "instrs" else 0
    run_s = total("os.run") + total("os.migrate")
    migrations = stats.get("os.migrations", 0)
    spurious = stats.get("os.spurious_migrate_traps", 0)
    pages = stats.get("dsm.page_transfers", 0)
    m = {
        "exp.parse_s": total("exp.parse"),
        "exp.sweep_s": sweep_s,
        "exp.sweep_eff": (total("os.run") / (workers * sweep_s)
                          if sweep_s else 0.0),
        "workload.build_s": total("workload"),
        "compiler.compile_s": total("compiler"),
        "compiler.modules": calls["compiler"],
        "machine.instrs": instrs,
        "os.run_s": run_s,
        "machine.mips": instrs / run_s * 1e-6 if run_s else 0.0,
        "sched.calibrate_s": total("sched.calibrate"),
        "sched.jobset_s": total("sched.jobset"),
        "sched.run_s": total("sched.run"),
        "sched.events": (report["work"]
                         if report["work_unit"] == "events" else 0),
        "traffic.calibrate_s": total("traffic.calibrate"),
        "traffic.generate_s": total("traffic.generate"),
        "traffic.serve_s": total("traffic.serve"),
        "traffic.requests": (report["work"]
                             if report["work_unit"] == "requests" else 0),
        "os.migrations": migrations,
        "os.spurious_traps": spurious,
        "os.migrate_yield": (migrations / (migrations + spurious)
                             if migrations + spurious else 0.0),
        "dsm.page_transfers": pages,
        "dsm.bytes_transferred": stats.get("dsm.bytes_transferred", 0),
        "dsm.read_faults": stats.get("dsm.read_faults", 0),
        "dsm.write_faults": stats.get("dsm.write_faults", 0),
        "dsm.pages_per_migration": pages / migrations if migrations else 0.0,
        "stacktransform.transforms": stats.get("stacktransform.transforms",
                                               0),
        "stacktransform.host_s": host_st,
        "unattributed_s": unattributed,
        "trace_overhead_s": traced_wall - untraced_wall,
    }
    for layer in LAYERS:
        m[f"self.{layer}_s"] = self_s[layer]
    return m, calls


def run_op(wl, op, traced):
    """One op: the runner process, then the driver (and a traced driver).

    Returns a record; record["error"] is None unless a check failed.
    """
    rec = {"op": op, "error": None}
    wall, rss, code, stdout = wl.run_exp()
    rec["error"] = check_exp(wl, code, stdout)
    d_wall, d_rss, d_code, report = wl.run_driver(op, traced=False)
    rec["error"] = rec["error"] or check_driver(wl, d_code, report, stdout)
    if wl.name == "migrate":            # the driver is its runner
        wall, rss = d_wall, d_rss
    rec.update(wall_s=wall, peak_rss_mb=rss)
    if report:
        rec["setup_s"] = report["setup_s"]
        rec["sim_rate"] = report["work"] / report["sim_s"]
        rec["env"] = report["env"]
    if traced and rec["error"] is None:
        t_wall, _, t_code, t_report = wl.run_driver(op, traced=True)
        rec["error"] = check_driver(wl, t_code, t_report, stdout)
        if rec["error"] is None:
            doc = json.loads(wl.spans.read_text())
            rec["layers"], rec["calls"] = layer_metrics(
                t_report, doc, t_wall, d_wall)
    return rec


def measure(wl, seconds, traced):
    """Run ops for `seconds` (at least MIN_OPS); returns the records."""
    records = []
    start = time.perf_counter()
    while True:
        records.append(run_op(wl, len(records), traced))
        elapsed = time.perf_counter() - start
        per_op = elapsed / len(records)
        if len(records) >= MIN_OPS and elapsed + per_op > seconds:
            return records


def median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def summarize(wl, records, traced):
    """Print the human-readable report; return the result object."""
    good = [r for r in records if r["error"] is None]
    failed = len(records) - len(good)
    print(f"hostbench {wl.name}: seed {wl.seed} (input variant "
          f"{wl.variant}), {len(records)} ops, {failed} failed")
    env = next((r["env"] for r in records if "env" in r), {})
    print(f"env: threads={env.get('threads')} "
          f"build={env.get('build_type')} "
          f"XISA_TRACE={env.get('xisa_trace')} nproc={os.cpu_count()} "
          f"commit={git_commit()}")
    for r in records:
        if r["error"]:
            print(f"op {r['op']} failed: {r['error']}")
    print(f"  {'fail_rate':<28} {failed / len(records):.4f} "
          f"({failed}/{len(records)} ops)")
    if not traced:
        metrics = {k: median_of(good or records, k) for k in END_TO_END}
        units = END_TO_END
        alias, factor, unit = RATE_NAMES[wl.name]
        for k in END_TO_END:
            print(f"  {k:<28} {metrics[k]:.6g} {units[k]}")
        print(f"  {alias:<28} {metrics['sim_rate'] * factor:.6g} {unit}"
              f"  (= sim_rate)")
    else:
        layered = [r for r in good if "layers" in r]
        metrics = {k: statistics.median(r["layers"][k] for r in layered)
                   if layered else 0.0 for k in PER_LAYER}
        units = PER_LAYER
        for k in PER_LAYER:
            print(f"  {k:<28} {metrics[k]:.6g} {units[k]}")
        if layered:
            calls = layered[0]["calls"]
            print("  layer self time (median), calls per op:")
            for layer in LAYERS:
                print(f"    {layer:<22} {metrics[f'self.{layer}_s']:9.4f} s"
                      f"  {calls[layer]:>7} calls")
            largest = max(LAYERS, key=lambda l: metrics[f"self.{l}_s"])
            name, group = DOMINANT[wl.name]
            verdict = "ok" if largest in group else "DIFFERENT"
            print(f"  dominant layer: measured {largest}, expected "
                  f"{name} ({', '.join(group)}): {verdict}")
    (OUT / f"{wl.name}-seed{wl.seed}-trace{int(traced)}.json").write_text(
        json.dumps({"env": env, "nproc": os.cpu_count(),
                    "commit": git_commit(), "records": records}, indent=1))
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in metrics}}


# --- modes ------------------------------------------------------------

def check_sources():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Refused(f"no CrossBound sources next to {HERE.name}/")


def load_references():
    if not REFERENCES.exists():
        raise Refused(f"{REFERENCES.name} is missing; see --record")
    return json.loads(REFERENCES.read_text())


def reference_for(wl):
    """What xisa_exp (and for migrate the driver) prints right now."""
    _, _, code, stdout = wl.run_exp()
    if code != 0:
        raise Refused(f"xisa_exp exited {code} on {wl.conf}")
    ref = {"stdout": stdout}
    if wl.name == "migrate":
        _, _, code, report = wl.run_driver(0, traced=False)
        if report is None:
            raise Refused(f"driver exited {code} on {wl.conf}")
        ref.update(rows=report["rows"], stats=report["stats"])
    return ref


def record(tools, env):
    refs = {"commit": git_commit(), "variants": VARIANTS}
    for name in CONFS:
        refs[name] = {}
        for variant in range(VARIANTS):
            wl = Workload(name, variant, False, tools, env)
            refs[name][str(variant)] = reference_for(wl)
            print(f"recorded {name} variant {variant}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def self_test(tools, env):
    """Minimal-size pass over every workload; returns the failures."""
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, ours in (("end_to_end", END_TO_END),
                          ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        if declared != ours:
            problems.append(f"BENCHMARK.json {section} != run.py's list")
    for name in CONFS:
        wl = Workload(name, 0, True, tools, env)
        wl.reference = reference_for(wl)
        for traced, names in ((False, END_TO_END), (True, PER_LAYER)):
            result = summarize(wl, [run_op(wl, 0, traced)], traced)
            if result["failed"]:
                problems.append(f"{name}: op failed on its own reference")
            for k, unit in names.items():
                if result["metrics"].get(k, {}).get("unit") != unit:
                    problems.append(f"{name}: {k} not printed in {unit}")
        good = wl.reference
        corrupted = [dict(good, stdout=good["stdout"] + "!")]
        if name == "migrate":
            stats = dict(good["stats"])
            stats["os.migrations"] += 1
            corrupted.append(dict(good, stats=stats))
        for bad in corrupted:
            wl.reference = bad
            if summarize(wl, [run_op(wl, 0, False)], False)["failed"] != 1:
                problems.append(f"{name}: corrupted reference not reported")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(CONFS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.self_test or args.record):
        ap.error("give --workload, --all, --self-test or --record")
    try:
        check_sources()
        env = child_env()
        tools = build()
        if args.record:
            record(tools, env)
            return 0
        if args.self_test:
            problems = self_test(tools, env)
            for p in problems:
                print(f"self-test: {p}")
            print("self-test: " + ("FAILED" if problems else "ok"))
            return 1 if problems else 0
        refs = load_references()
        runs = ([(name, traced) for name in CONFS for traced in (False, True)]
                if args.all else [(args.workload, bool(args.trace))])
        results = []
        for name, traced in runs:
            wl = Workload(name, args.seed, False, tools, env)
            wl.reference = refs[name][str(wl.variant)]
            results.append(summarize(wl, measure(wl, args.seconds, traced),
                                     traced))
            if args.all:
                print(json.dumps(results[-1]), flush=True)
    except Refused as e:
        sys.stderr.write(f"hostbench: refused: {e}\n")
        return 2
    if args.all:
        return 0 if all(r["correct"] for r in results) else 1
    print(json.dumps(results[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
