#!/usr/bin/env python3
"""Seeded perturbation sweep with the invariant auditor armed.

For each seed, runs the audit probe, the live calibration runs and the
Fig. 12/13 scheduling studies with XISA_AUDIT=1 and XISA_PERTURB=<seed>: the perturber
reshapes interconnect delivery, migration timing, and crash instants,
and the auditor panics on the first violated invariant with a replay
line identifying the seed. This is how the latent-bug hunt is mechanized
(DESIGN.md §8): a clean sweep is the acceptance gate, a violation is a
fully replayable bug report.

On failure the offending command's stdout/stderr (and any Chrome-trace
dump the auditor wrote) are collected under --artifacts, and the sweep
keeps going so one triage pass sees every distinct violation.

Exit status: 0 clean sweep, 1 violations found, 2 usage error.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

VIOLATION_RE = re.compile(r"\[audit\] VIOLATION at ([^:]+): (.*)")
TRACE_DUMP_RE = re.compile(r"xisa_audit_violation_\d+\.trace\.json")


def require(path, why):
    """Exit 2 unless `path` exists: a missing binary or conf must fail
    the sweep loudly, never silently drop its leg."""
    if not os.path.exists(path):
        print(f"audit_sweep: {path} not found ({why})", file=sys.stderr)
        sys.exit(2)
    return path


def commands(build_dir, crash, confs_dir=None, fleet=False):
    """The per-seed command matrix: probe first (fast, focussed), then
    the live calibration runs (the probe's --calibrate leg: experiments
    read the checked-in profiles, so only this leg executes them), then
    the paper's scheduling studies in quick mode (Fig. 12 through
    xisa_exp and its checked-in conf, Fig. 13 through its bench). With
    --crash the matrix is the node-failure recovery scenario instead:
    the probe's crash legs (byte-identity against a crash-free run with
    the auditor armed) plus the crashy sustained bench. With --confs
    DIR, every .conf in DIR runs through xisa_exp under the same
    audit/perturb environment, so config-driven experiments join the
    hunt. With --fleet the matrix is the 1000-machine rack-outage conf
    alone, after the calibration leg: each seed reshapes the request
    stream (the runner folds XISA_PERTURB into the traffic seed)
    against the same outage plan, with the auditor armed throughout.
    Confs are found relative to the repo root, so run from there."""
    probe = os.path.join(build_dir, "src", "check", "audit_probe")
    runner = os.path.join(build_dir, "src", "exp", "xisa_exp")
    confs = os.path.join("examples", "confs")
    require(probe, "build the audit_probe target")
    calibrate = ("calibrate", [probe, "--calibrate"])
    if fleet:
        require(runner, "build the xisa_exp target")
        conf = require(os.path.join(confs, "fleet_rack_outage.conf"),
                       "run from the repo root")
        return [calibrate, ("fleet_rack_outage", [runner, conf])]
    if crash:
        bench = require(os.path.join(build_dir, "bench",
                                     "bench_fault_sustained"),
                        "build the bench_fault_sustained target")
        return [("audit_probe_crash", [probe, "--crash"]),
                ("fault_sustained_crash", [bench, "--fault-crash=1@40"])]
    require(runner, "build the xisa_exp target")
    fig12 = require(os.path.join(confs, "fig12_sustained.conf"),
                    "run from the repo root")
    fig13 = require(os.path.join(build_dir, "bench",
                                 "bench_fig13_periodic"),
                    "build the bench_fig13_periodic target")
    cmds = [("audit_probe", [probe]),
            calibrate,
            ("fig12", [runner, fig12]),
            ("fig13", [fig13])]
    if confs_dir:
        for entry in sorted(os.listdir(confs_dir)):
            if not entry.endswith(".conf"):
                continue
            name = "conf_" + os.path.splitext(entry)[0]
            cmds.append((name,
                         [runner, os.path.join(confs_dir, entry)]))
    return cmds


def run_one(name, cmd, seed, timeout):
    env = dict(os.environ)
    env["XISA_AUDIT"] = "1"
    env["XISA_PERTURB"] = str(seed)
    env["XISA_QUICK"] = "1"
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return ("timeout", f"{name} timed out after {timeout}s", "", "")
    except OSError as e:
        print(f"audit_sweep: cannot run {cmd[0]}: {e}", file=sys.stderr)
        sys.exit(2)
    if proc.returncode == 0:
        return None
    combined = proc.stdout + "\n" + proc.stderr
    m = VIOLATION_RE.search(combined)
    what = m.group(0) if m else f"exit status {proc.returncode}"
    return (name, what, proc.stdout, proc.stderr)


def save_artifacts(art_dir, seed, name, what, out, err):
    os.makedirs(art_dir, exist_ok=True)
    base = os.path.join(art_dir, f"seed{seed}_{name}")
    with open(base + ".log", "w") as f:
        f.write(f"# seed {seed}, command {name}\n# {what}\n")
        f.write("## stdout\n" + out + "\n## stderr\n" + err + "\n")
    # The auditor drops its Chrome trace in the CWD; sweep it up.
    for entry in os.listdir("."):
        if TRACE_DUMP_RE.fullmatch(entry):
            shutil.move(entry, os.path.join(art_dir, entry))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory (default: build)")
    ap.add_argument("--seeds", type=int, default=50,
                    help="number of perturbation seeds (default: 50)")
    ap.add_argument("--first-seed", type=int, default=1,
                    help="first seed value (default: 1; 0 disables "
                         "the perturber)")
    ap.add_argument("--timeout", type=float, default=600,
                    help="per-command timeout in seconds")
    ap.add_argument("--artifacts", default="audit-artifacts",
                    help="directory for violation logs/traces")
    ap.add_argument("--crash", action="store_true",
                    help="sweep the node-failure recovery scenarios "
                         "(audit_probe --crash + crashy sustained "
                         "bench) instead of the default matrix")
    ap.add_argument("--confs", metavar="DIR",
                    help="also sweep every experiment .conf in DIR "
                         "through xisa_exp (ignored with --crash)")
    ap.add_argument("--fleet", action="store_true",
                    help="sweep the live calibration and the "
                         "1000-machine rack-outage conf "
                         "(fleet_rack_outage.conf) instead of the "
                         "default matrix; takes precedence over "
                         "--crash/--confs")
    args = ap.parse_args()

    if args.seeds < 1:
        print("audit_sweep: --seeds must be >= 1", file=sys.stderr)
        sys.exit(2)
    cmds = commands(args.build_dir, args.crash, args.confs, args.fleet)

    failures = []
    for i in range(args.seeds):
        seed = args.first_seed + i
        for name, cmd in cmds:
            bad = run_one(name, cmd, seed, args.timeout)
            if bad is None:
                continue
            name, what, out, err = bad
            failures.append((seed, name, what))
            save_artifacts(args.artifacts, seed, name, what, out, err)
            print(f"[audit_sweep] seed {seed} {name}: {what}",
                  flush=True)
        if (i + 1) % 10 == 0 or i + 1 == args.seeds:
            print(f"[audit_sweep] {i + 1}/{args.seeds} seeds, "
                  f"{len(failures)} violation(s)", flush=True)

    if failures:
        print(f"[audit_sweep] FAILED: {len(failures)} violation(s); "
              f"replay with XISA_AUDIT=1 XISA_PERTURB=<seed>; "
              f"artifacts in {args.artifacts}/")
        # Triage: group by violation text so N seeds hitting one bug
        # read as one line.
        by_what = {}
        for seed, name, what in failures:
            by_what.setdefault(what, []).append((seed, name))
        for what, hits in sorted(by_what.items()):
            seeds = ", ".join(str(s) for s, _ in hits[:8])
            more = "" if len(hits) <= 8 else f" (+{len(hits) - 8} more)"
            print(f"  {what}\n    seeds: {seeds}{more}")
        sys.exit(1)
    print(f"[audit_sweep] clean: {args.seeds} seeds x "
          f"{len(cmds)} commands")


if __name__ == "__main__":
    main()
