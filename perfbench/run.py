#!/usr/bin/env python3
"""Host-cost benchmark for the NCC simulator.

Run from the repository root:

    python3 perfbench/run.py --workload f1-scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

It builds the dune project in perfbench/ocaml, together with a copy of
the repository's lib/, in .bench_build/ocaml; runs every measured
simulation in a fresh process; checks the outputs; prints a summary and,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (perfbench/README.md
lists both). One invocation spends about --seconds after the build.
--selftest runs the project's wrapper-completeness test instead. Exits
1 when the build, a run or a correctness check fails.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.join("perfbench", "ocaml")
WORKSPACE = os.path.join(".bench_build", "ocaml")
EXE = os.path.join(WORKSPACE, "_build", "default", "src", "bench.exe")
WORKLOADS = ("f1-scale", "tpcc-contended", "f1-roster", "f1-chaos")
MIN_RUNS = 3  # measured runs per --trace 0 invocation, at least
SETUP_SHARE = 0.15  # share of --seconds spent sampling set-up time
RUN_TIMEOUT_S = 150
# Calib.tick_ns on a 2-core x86-64 VM at its usual speed. Host times
# are reported scaled to a host on which a tick takes this long: the
# ticks run interleaved with the measured work, so the scaling cancels
# most of a shared host's drift in speed (see README.md).
NOMINAL_TICK_NS = 100_000
PROTOCOL_LAYERS = ("submit", "server_handle", "client_handle", "timer", "cancel")


class BenchError(Exception):
    pass


def declared_units():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = lambda group: {m["name"]: m["unit"] for m in spec[group]}
    return units("end_to_end"), units("per_layer")


def mirror(src, dst, others=()):
    """Make dst a copy of the tree src, rewriting only changed files, so
    that dune rebuilds only what changed. Entries of dst named in others
    are left alone."""
    os.makedirs(dst, exist_ok=True)
    keep = set()
    for name in os.listdir(src):
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if name == "_build":
            continue
        keep.add(name)
        if os.path.isdir(s):
            mirror(s, d)
        elif not (os.path.isfile(d) and filecmp.cmp(s, d, shallow=False)):
            shutil.copyfile(s, d)
    for name in set(os.listdir(dst)) - keep - {"_build", *others}:
        path = os.path.join(dst, name)
        shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)


def build(*targets):
    """Stage perfbench/ocaml and lib/ into one dune workspace and build
    there: the simulator's libraries are private to their project."""
    if not os.path.isfile(os.path.join("lib", "harness", "runner.ml")):
        raise BenchError("no simulator sources here; run from the repository root")
    mirror(HERE, WORKSPACE, others=("lib",))
    mirror("lib", os.path.join(WORKSPACE, "lib"))
    proc = subprocess.run(
        ["dune", "build", "--root", WORKSPACE, *targets],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),  # no writes outside the checkout
    )
    if proc.returncode != 0:
        raise BenchError("dune build failed")


def bench(env, *args):
    args = [str(a) for a in args]
    proc = subprocess.run(
        [EXE, *args], capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(
            f"bench.exe {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mismatches(a, b, ignore=()):
    """Result fields on which two measured runs of the same cases differ."""
    if len(a["fingerprints"]) != len(b["fingerprints"]):
        return ["number of cases"]
    bad = [
        f"case {i} {k}"
        for i, (fa, fb) in enumerate(zip(a["fingerprints"], b["fingerprints"]))
        for k in fa
        if k not in ignore and fa[k] != fb.get(k)
    ]
    if a["digests"] != b["digests"]:
        bad.append("trace digest")
    return bad


def host_speed(ticks_ns):
    """How much slower than nominal the host ran, from Calib.tick_ns samples."""
    if not ticks_ns:
        raise BenchError("no calibration ticks recorded")
    return statistics.median(ticks_ns) / NOMINAL_TICK_NS


def end_to_end(r):
    c = r["committed"]
    return {
        "host_us_per_commit": r["host_ns"] / 1e3 / c / host_speed(r["ticks_ns"]),
        "peak_heap_mb": r["top_heap_words"] * 8 / 1e6,
        "alloc_words_per_commit": r["minor_words"] / c,
        "commit_frac": c / r["arrivals"],
        "sim_commit_tps": c / r["sim_window_s"],
        "sim_p50_ms": r["lat_p50_s"] * 1e3,
        "sim_p99_ms": r["lat_p99_s"] * 1e3,
    }


def per_layer(plain, traced, twin):
    c = traced["committed"]
    layers = traced["layers"]
    us = lambda ns: ns / 1e3 / c
    m = {
        "host.raw_us_per_commit": plain["host_ns"] / 1e3 / plain["committed"],
        "host.tick_us": statistics.median(plain["ticks_ns"]) / 1e3,
    }
    for name in PROTOCOL_LAYERS:
        l = layers["protocol." + name]
        m[f"protocol.{name}.us_per_commit"] = us(l["self_ns"])
        m[f"protocol.{name}.calls_per_commit"] = l["calls"] / c
    for name in ("protocol.server_handle", "net.send"):
        l = layers[name]
        m[name + ".ns_per_call"] = l["self_ns"] / max(l["calls"], 1)
    m["protocol.attempts_per_commit"] = traced["attempts"] / traced["checker_commits"]
    for name in ("net.send", "net.timer"):
        m[name + ".us_per_commit"] = us(layers[name]["self_ns"])
        m[name + ".calls_per_commit"] = layers[name]["calls"] / c
    m["runner.report.us_per_commit"] = us(layers["runner.report"]["self_ns"])
    m["workload.gen.us_per_commit"] = us(layers["workload.gen"]["self_ns"])
    m["residual.us_per_commit"] = us(traced["idle_ns"])
    m["engine.events_per_commit"] = traced["events"] / c
    m["engine.pending_hw"] = traced["pending_hw"]
    m["store.versions_per_commit"] = traced["versions"] / c
    m["checker.us_per_commit"] = us(traced["total_ns"] - twin["total_ns"])
    m["checker.live_hw"] = traced["checker_live_hw"]
    m["checker.epochs"] = traced["checker_epochs"]
    m["gc.minor_us_per_commit"] = us(traced["gc_minor_ns"])
    m["gc.major_us_per_commit"] = us(traced["gc_major_ns"])
    m["gc.promoted_words_per_commit"] = traced["promoted_words"] / c
    m["gc.minor_collections"] = traced["minor_collections"]
    m["gc.major_collections"] = traced["major_collections"]
    m["trace.overhead_frac"] = traced["host_ns"] / plain["host_ns"] - 1
    return m


def traced_checks(traced):
    """Every call the runner counts passed through the wrappers."""
    layers = traced["layers"]
    errors = []
    if layers["net.send"]["calls"] != traced["messages"]:
        errors.append("net.send calls differ from result.messages")
    if layers["protocol.submit"]["calls"] != traced["attempts"]:
        errors.append("protocol.submit calls differ from result.attempts")
    residual = traced["total_ns"] - sum(l["self_ns"] for l in layers.values())
    if residual < 0 or residual != traced["idle_ns"]:
        errors.append("layer self times do not add up to the run's host time")
    return errors


def medians(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def measure(env, workload, seed, seconds, trace):
    """Set-up samples for a share of the budget (--trace 0 only), then
    measured runs while the next one still fits in the budget."""
    start = time.monotonic()
    setup = None if trace else bench(env, "setup", workload, seed, f"{seconds * SETUP_SHARE:.3f}")
    plains, rows, errors = [], [], []
    min_runs = 1 if trace else MIN_RUNS
    while True:
        t0 = time.monotonic()
        plain = bench(env, "measure", workload, seed, "plain")
        errors += plain["errors"]
        if plains:
            errors += [f"rerun differs: {k}" for k in mismatches(plains[0], plain)]
        plains.append(plain)
        if trace:
            traced = bench(env, "measure", workload, seed, "traced")
            twin = bench(env, "measure", workload, seed, "traced-nocheck")
            errors += traced["errors"] + twin["errors"] + traced_checks(traced)
            errors += [f"traced run differs: {k}" for k in mismatches(plain, traced)]
            errors += [
                f"unchecked twin differs: {k}"
                for k in mismatches(plain, twin, ignore=("check_result",))
            ]
            rows.append(per_layer(plain, traced, twin))
        else:
            rows.append(end_to_end(plain))
        now = time.monotonic()
        if len(rows) >= min_runs and now + (now - t0) > start + seconds:
            break
    metrics = medians(rows)
    if setup is not None:
        pairs = zip(setup["samples_ns"], setup["tick_pairs_ns"])
        metrics["setup_s"] = statistics.median(s / t for s, t in pairs) * 2 * NOMINAL_TICK_NS / 1e9
    return plains, metrics, errors


def selftest():
    build("@runtest")
    return 0


def main():
    ap = argparse.ArgumentParser(description="Host-cost benchmark for the NCC simulator.")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the wrapper-completeness test and exit")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        ap.error("--workload and --seed are required")
    try:
        if args.selftest:
            return selftest()
        e2e_units, layer_units = declared_units()
        build("./src/bench.exe")
        events_dir = os.path.abspath(os.path.join(".bench_build", "runtime-events"))
        os.makedirs(events_dir, exist_ok=True)
        env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events_dir)
        plains, metrics, errors = measure(env, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    units = layer_units if args.trace else e2e_units
    if set(metrics) != set(units):
        errors.append(f"metrics {sorted(set(metrics) ^ set(units))} not as declared")
    attempted = sum(p["arrivals"] for p in plains)
    failed = sum(
        p["arrivals"] if any(not v.startswith("ok") for v in p["verdicts"])
        else p["arrivals"] - p["committed"]
        for p in plains
    )
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(plains)} committed/run={plains[0]['committed']} "
          f"unscaled host_us_per_commit="
          f"{statistics.median(p['host_ns'] / 1e3 / p['committed'] for p in plains):.6g} "
          f"tick_us={statistics.median(t for p in plains for t in p['ticks_ns']) / 1e3:.6g}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:14.6g} {units.get(name, '?')}")
    for e in errors:
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
    out = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print(json.dumps(out))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
