#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload city|city-x4|served --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/ (the library sources
in src/ plus the benchmark's own program) into .bench_build/perfbench, then
measures the workload for about S seconds, one world per process (one
timed world at a time: ru_maxrss is per process and only grows, so each
process's peak is its own world's). The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics:

  --trace 0  every end-to-end metric (medians over the run's worlds);
  --trace 1  every per-layer metric, from pb_world_traced, which also
             keeps spans and counts allocations; untraced worlds run
             alongside so that trace.overhead_s can be reported.

Operations are world runs, set-up-only processes and scrape requests. A
world run fails if it errors or its summary fingerprint disagrees with
the reference's (city: its first world; city-x4: the one-engine city of
the same seed; served: the quiet twin without the serve plane). A city
run also runs the same city on 4 shards once (its city-x4 twin), so the
shard-count invariant is checked on every run. A scrape fails on a
non-2xx status, a transport error or a latency over the limit in
world.cpp.

BENCHMARK.json names city and served. city-x4 runs on its own too, but
its wall time is not steady enough on a shared VM to bound (see
BENCHMARK.md); its layers are reported through city's twin.

Each run also writes its full record (machine, specs, every world's
values, span files) under .bench_build/results/. See perfbench/BENCHMARK.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
WORKLOADS = ("city", "city-x4", "served")

# Hard wall-clock budget of one invocation, builds excluded: no new world
# is started past it (each run must end well within 180 s).
BUDGET_S = 150.0
# Extra set-up-only processes per run, so setup_s is a median over many
# cold builds even when few full worlds fit in the run.
SETUP_PROBES = 5
SCRAPE_BLOCK = 1000

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checkpoint_s", "s"),
]

PER_LAYER = [
    ("gen.build_s", "s"),
    ("gen.build_allocs", "count"),
    ("gen.build_rss_mb", "MB"),
    ("shard.build_s", "s"),
    ("sim.events", "count"),
    ("sim.allocs_per_event", "allocs/event"),
    ("sim.dispatch_s", "s"),
    ("sim.order0_s", "s"),
    ("sim.order1_s", "s"),
    ("sim.order2_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.steady_s_per_sim_s", "s/sim-s"),
    ("core.agents", "count"),
    ("core.agent_steps", "count"),
    ("svc.rss_per_camera_kb", "KiB"),
    ("shard.run_s", "s"),
    ("shard.barriers", "count"),
    ("shard.lag_s", "s"),
    ("shard.lag_share", "ratio"),
    ("shard.imbalance", "ratio"),
    ("serve.publishes", "count"),
    ("serve.publish_ms", "ms"),
    ("serve.publish_share", "ratio"),
    ("serve.status_kb", "KiB"),
    ("serve.metrics_kb", "KiB"),
    ("serve.server_p99_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.gen_late_ms", "ms"),
    ("serve.scrape_p50_ms", "ms"),
    ("serve.scrape_p99_ms", "ms"),
    ("ckpt.save_s", "s"),
    ("ckpt.parse_s", "s"),
    ("ckpt.verify_s", "s"),
    ("ckpt.image_mb", "MB"),
    ("trace.overhead_s", "s"),
]

# Layer values of the sharded world; city takes them from its city-x4 twin.
SHARD_LAYER = ["shard.build_s", "shard.barriers", "shard.lag_s",
               "shard.lag_share", "shard.imbalance"]
SERVE_LAYER = [name for name, _ in PER_LAYER if name.startswith("serve.")]

# Per-layer values a workload's worlds do not produce because the layer
# does not run there (no shards in the served world, no serve plane in
# the cities): reported as 0.
NOT_EXERCISED = {
    "city": SERVE_LAYER,
    "city-x4": SERVE_LAYER + ["gen.build_s"],
    "served": SHARD_LAYER + ["shard.run_s"],
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(f"error: {msg}")
    sys.exit(2)


def build():
    """Configures (once) and builds the two benchmark binaries."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
           "--target", "pb_world", "pb_world_traced"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def machine_record():
    """The machine and build every result was measured on."""
    compiler = "unknown"
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
            try:
                out = subprocess.run([cxx, "--version"], capture_output=True,
                                     text=True, timeout=30).stdout
                compiler = out.splitlines()[0] if out else cxx
            except (OSError, subprocess.SubprocessError):
                compiler = cxx
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=30).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    # A checkout without .git still identifies its code by content.
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": "Release",
        "git_rev": rev,
        "source_sha256": h.hexdigest(),
    }


def world(workload, seed, role, traced, deadline, trace_out=None):
    """Runs one pb_world process; returns its parsed result (or an error)."""
    exe = BUILD_DIR / ("pb_world_traced" if traced else "pb_world")
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--role", role]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"{role} world timed out after {timeout:.0f} s"}
    lines = p.stdout.strip().splitlines()
    try:
        r = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"{role} world exited {p.returncode} without a "
                         f"result: {p.stderr.strip()[-300:]}"}
    if p.returncode != 0 and not r.get("error"):
        r["error"] = f"exit code {p.returncode}"
    return r


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def block_percentile(samples, q):
    """Median over consecutive SCRAPE_BLOCK-sample blocks of each block's
    q-percentile. A block of 1000 leaves 10 samples beyond its p99; the
    median over blocks keeps one burst of machine jitter (a few ms, rare
    but not rare enough for a pooled p99 of sub-ms requests) from
    deciding the run's figure. With fewer samples than one block, all of
    them form one."""
    blocks = [samples[i:i + SCRAPE_BLOCK]
              for i in range(0, len(samples) - SCRAPE_BLOCK + 1,
                             SCRAPE_BLOCK)] or [samples]
    return statistics.median(percentile(b, q) for b in blocks)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    record = machine_record()
    start = time.monotonic()
    deadline = start + BUDGET_S
    traced = args.trace == 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    attempted = failed = 0
    errors = []
    worlds = []       # timed worlds of the measured kind
    untraced = []     # untraced timed worlds of a --trace 1 run
    setups = []

    def account(r, ref):
        nonlocal attempted, failed
        attempted += 1
        bad = r.get("error") or ""
        if not bad and ref is not None and \
                r.get("fingerprint") != ref.get("fingerprint"):
            bad = (f"fingerprint {r.get('fingerprint_hash')} != reference "
                   f"{ref.get('fingerprint_hash')}")
        if bad:
            failed += 1
            errors.append(f"{r.get('role', '?')}: {bad}")
        return not bad

    # The fingerprint every world must match. city's first world is its
    # own reference; city-x4 and served have a reference twin that takes a
    # different code path (one engine; no serve plane), run first,
    # untimed.
    reference = None
    if args.workload != "city":
        ref_kind = "served" if args.workload == "served" else "city"
        ref = world(ref_kind, args.seed, "reference", traced, deadline)
        reference = ref if account(ref, None) else {"fingerprint": None}

    def check(r):
        nonlocal reference
        if reference is None and not r.get("error"):
            reference = r
        return account(r, reference)

    # Worlds until the run's seconds are spent, each through every phase.
    # --trace 1 alternates untraced set-up-and-run worlds (the base of
    # trace.overhead_s) with traced full ones, and reaches at least one.
    # After its first world, city runs its sharded twin (city-x4) once,
    # untimed, so every run checks the shard-count invariant; traced, the
    # twin supplies the shard.* layer values.
    sharded = None
    n = 0
    min_worlds = 2 if traced else 1
    while n < min_worlds or (time.monotonic() - start < args.seconds
                             and time.monotonic() < deadline):
        use_trace = traced and n % 2 == 1
        full = use_trace or not traced
        out = RESULTS_DIR / f"{tag}-world{n}.spans.jsonl" if use_trace \
            else None
        r = world(args.workload, args.seed, "timed" if full else "run",
                  use_trace, deadline, out)
        if check(r):
            (worlds if use_trace or not traced else untraced).append(r)
        if args.workload == "city" and n == 0:
            twin = world("city-x4", args.seed, "run", traced, deadline)
            if check(twin):
                sharded = twin
        n += 1
    for _ in range(SETUP_PROBES):
        if time.monotonic() >= deadline:
            break
        r = world(args.workload, args.seed, "setup", False, deadline)
        if account(r, None):
            setups.append(r["values"]["setup_s"])

    scraped = [w["scrapes"] for w in worlds + untraced if "scrapes" in w]
    scrape_failed = sum(sc["failed"] for sc in scraped)
    scrape_attempted = sum(len(sc["latency_ms"]) for sc in scraped)
    attempted += scrape_attempted
    failed += scrape_failed
    for sc in scraped:
        errors.extend(f"scrape: {e}" for e in sc["errors"])
    correct = bool(worlds) and all(e.startswith("scrape:") for e in errors)

    metrics = {}
    if worlds:
        def med(key, rows=worlds):
            got = [w["values"][key] for w in rows if key in w["values"]]
            return statistics.median(got) if got else None

        if not traced:
            values = {
                "setup_s": statistics.median(
                    setups + [w["values"]["setup_s"] for w in worlds]),
                "run_s": med("run_s"),
                "peak_rss_mb": med("peak_rss_mb"),
                "checkpoint_s": med("checkpoint_s"),
            }
            units = END_TO_END
        else:
            values = {}
            for name, _ in PER_LAYER:
                if name in worlds[0]["values"]:
                    values[name] = med(name)
            if args.workload == "city-x4":
                values["shard.run_s"] = med("run_s")
                if "values" in reference:
                    for k in ("gen.build_s", "gen.build_allocs",
                              "gen.build_rss_mb"):
                        values[k] = reference["values"][k]
            if sharded is not None:
                for k in SHARD_LAYER:
                    values[k] = sharded["values"][k]
                values["shard.run_s"] = sharded["values"]["run_s"]
            lat = [x for sc in scraped for x in sc["latency_ms"]]
            if lat:
                if len(lat) < SCRAPE_BLOCK:
                    log(f"only {len(lat)} scrapes: p99 has fewer than 10 "
                        f"samples beyond it")
                values["serve.scrape_p50_ms"] = block_percentile(lat, 0.50)
                values["serve.scrape_p99_ms"] = block_percentile(lat, 0.99)
            for name in NOT_EXERCISED[args.workload]:
                values.setdefault(name, 0.0)
            values["trace.overhead_s"] = (
                med("run_s") - med("run_s", untraced) if untraced else 0.0)
            units = PER_LAYER
        # A metric no world measured (e.g. every full world failed) makes
        # the run incorrect; it is reported as 0.
        missing = [name for name, _ in units if values.get(name) is None]
        for name in missing:
            errors.append(f"metric {name}: no world measured it")
            values[name] = 0.0
        correct = correct and not missing
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units}

    full = {
        "record": record,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spec": (worlds or [{}])[0].get("spec"),
        "reference": {k: reference.get(k) for k in
                      ("workload", "role", "spec", "fingerprint_hash")}
        if reference else None,
        "worlds": [{k: w[k] for k in ("role", "traced", "fingerprint_hash",
                                      "values")}
                   for w in worlds + untraced],
        "sharded_twin": sharded and {k: sharded[k] for k in
                                     ("fingerprint_hash", "values")},
        "setup_probes_s": setups,
        "scrapes": {"attempted": scrape_attempted, "failed": scrape_failed},
        "errors": errors,
        "metrics": metrics,
    }
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps(full, indent=1))
    for e in errors[:10]:
        log(e)
    print(json.dumps({"record": record, "spec": full["spec"],
                      "worlds": len(worlds), "untraced": len(untraced),
                      "scrapes": scrape_attempted}))
    if not worlds:
        log("no world passed its checks; no result")
        sys.exit(1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
