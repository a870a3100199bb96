#!/usr/bin/env python3
"""COBRA benchmark: builds an optimised tree from this checkout, runs one
workload (detailed, trace_eval, search or serve) as a closed loop with
one client for --seconds, checks every operation's output, and prints
one JSON result object as the last line of stdout.

    python3 perfbench/run.py --workload detailed --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics from an untraced run.
--trace 1 is a separate traced run: it records spans for the named
workload's operations and for one operation of every other workload,
writes them to .bench_build/out/, and reports every per-layer metric.
See perfbench/README.md for the workloads, metrics and seeds."""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # write nothing into the source tree
sys.path.insert(0, str(HERE))
import bench_lib as bl  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
WORK = ROOT / ".bench_build" / "work"
TARGETS = ("cobra_search", "cobra_serve", "perfbench_harness")
WORKLOADS = ("detailed", "trace_eval", "search", "serve")
# Set-up repetitions per run; the median is reported. Set-up runs a few
# times before the first operation and again between operations
# (outside their timing), so that its median samples the same stretch
# of host time as the operations rather than one instant.
SETUP_REPS = {"detailed": (7, 7), "trace_eval": (3, 1), "search": (3, 3)}
SERVE_SETUP_EVERY_S = 3.0
# The harness's host-speed probe time on the host where the benchmark was
# defined (4-core x86-64 Xeon virtual machine, 2.1 GHz). `detailed` and
# `serve` report their times scaled to that host's speed; see README
# "Stability".
PROBE_REF_S = 0.024
WARMUP_NOTE = ("simulated statistics start after a warmup, so caches and "
               "predictors are warm, not empty: 120k instructions for "
               "detailed runs (search tier 3 and serve too), 15k records "
               "for trace-driven lanes")
VALIDATION_NOTE = ("the model has not been validated against hardware, "
                   "so no error figure is given")

# Serve workload: TAGE-L on mcf, 4 sampled warp intervals.
SERVE_INTERVALS = 4
SERVE_SAMPLE_INSTS = 20_000
SERVE_WARMUP_CYCLES = 10_000


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---- build -------------------------------------------------------------------

def cmake_cache():
    vals = {}
    path = BUILD / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith("//"):
                key, _, val = line.partition("=")
                vals[key.split(":", 1)[0]] = val
    return vals


def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} not found: run from a full "
                             "checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", *TARGETS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def binary(name):
    if name == "perfbench_harness":
        return BUILD / name
    return BUILD / "tools" / name


def source_digest():
    """SHA-256 over the library and tool sources (the checkout is not
    a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def environment():
    cache = cmake_cache()
    info = json.loads(harness("build-info"))
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))))
    env = {
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "compiler_version": info["compiler"],
        "build_type": build_type,
        "flags": flags,
        "optimized": info["optimized"],
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "loadavg_before": list(os.getloadavg()),
    }
    optimised = any(f in flags.split() for f in ("-O2", "-O3"))
    if not info["optimized"] or not optimised or \
            build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing to time an unoptimised build "
                         f"(build type '{build_type}', flags '{flags}')")
    return env


# ---- process helpers ------------------------------------------------------------

def harness(*args):
    r = subprocess.run([str(binary("perfbench_harness")), *map(str, args)],
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError(f"harness {args[0]} failed: {r.stderr.strip()}")
    return r.stdout.strip().splitlines()[-1]


def harness_json(*args):
    return json.loads(harness(*args))


def run_timed(cmd):
    """Run @cmd to completion; returns (wall_s, returncode, stderr lines
    with arrival times, peak RSS in MiB of the child)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    lines = []
    for line in proc.stderr:
        lines.append((time.perf_counter() - t0, line.rstrip("\n")))
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    return wall, proc.returncode, lines, usage.ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def throughput_metrics(op_s, per_op_kinsts, per_op_mbranches):
    """End-to-end metrics of a list of operation wall times."""
    tail, pct, beyond = bl.tail_percentile(op_s)
    kips = bl.median([per_op_kinsts / s for s in op_s])
    mbr = bl.median([per_op_mbranches / s for s in op_s])
    return {
        "op_s_p50": metric(bl.median(op_s), "s"),
        "op_s_tail": metric(tail, "s"),
        "sim_kips": metric(kips, "kinst/s"),
        "mbranch_evals_per_s": metric(mbr, "Mbranch/s"),
    }, {"op_s_tail_percentile": pct, "op_s_tail_samples_beyond": beyond,
        "ops": len(op_s)}


# ---- workloads -------------------------------------------------------------------
#
# Each workload function returns a dict with: attempted, failed, metrics
# (end-to-end, untraced) or layers (per-layer, traced), stats (simulated
# statistics), notes, and spans.

def wl_detailed(seed, seconds, traced):
    reps, between = SETUP_REPS["detailed"]
    args = ["detailed", "--seed", seed, "--seconds", seconds,
            "--setup-reps", reps, "--setup-between", between]
    d = harness_json(*args, *(["--traced"] if traced else []))
    res = {"attempted": len(d["op_s"]) + len(d.get("traced_op_s", [])),
           "failed": d["failed"], "stats": d["stats"], "spans": []}
    # Each tuple run is scaled by the mean of the probes that bracket
    # it, and an operation is the sum of its three; each set-up is
    # scaled by the probe it ran next to.
    probes = d["probe_s"]
    tuples = len(d["tuple_s"]) // len(d["op_s"])
    tuple_s = bl.host_normalised(
        d["tuple_s"], [(a + b) / 2 for a, b in zip(probes, probes[1:])],
        PROBE_REF_S)
    op_s = [sum(tuple_s[i:i + tuples])
            for i in range(0, len(tuple_s), tuples)]
    setup_s = bl.host_normalised(
        d["setup_s"], [probes[int(k)] for k in d["setup_probe"]],
        PROBE_REF_S)
    e2e, notes = throughput_metrics(op_s, d["op_insts"] / 1e3,
                                    d["op_branches"] / 1e6)
    e2e["setup_s"] = metric(bl.median(setup_s), "s")
    e2e["peak_rss_mb"] = metric(d["peak_rss_mb"], "MiB")
    notes.update({"wall_op_s_p50": bl.median(d["op_s"]),
                  "wall_setup_s": bl.median(d["setup_s"]),
                  "probe_s_p50": bl.median(probes)})
    res["metrics"], res["notes"] = e2e, notes
    if not traced:
        return res
    spans = d["spans"]
    agg = {}
    for s in spans:
        if s["name"] in ("core.frontend.tick", "core.backend.tick",
                         "bpu.tick"):
            agg[s["name"]] = agg.get(s["name"], 0.0) + s["end"] - s["start"]
    n = len(d["traced_op_s"])
    ticks = {k: v / n for k, v in agg.items()}
    loop = sum(d["sim.loop_s"]) / n
    traced_op = bl.median(d["traced_op_s"])
    untraced_op = bl.median(d["op_s"])
    layers = {
        "core.frontend.tick_s": (ticks["core.frontend.tick"], "s"),
        "core.backend.tick_s": (ticks["core.backend.tick"], "s"),
        "bpu.tick_s": (ticks["bpu.tick"], "s"),
        "sim.loop_overhead_s": (loop - sum(ticks.values()), "s"),
        "sim.construct_s": (bl.median(d["sim.construct_s"]), "s"),
        "exec.oracle_stream_s": (bl.median(d["exec.oracle_stream_s"]), "s"),
        "host.ns_per_sim_cycle": (untraced_op / d["op_cycles"] * 1e9, "ns"),
        "program.build_s": (bl.median(d["setup_s"]), "s"),
        "bench.tracing_overhead_ratio": (traced_op / untraced_op, "ratio"),
    }
    for k, v in d["counts"].items():
        layers[k] = (v, "ratio" if k.endswith("_ratio") else "count")
    res["layers"] = layers
    res["spans"] = spans
    res["notes"].update({
        "traced_op_s": traced_op,
        "traced_ticks_share_of_loop": sum(ticks.values()) / loop,
    })
    return res


def wl_trace_eval(seed, seconds, traced):
    reps, between = SETUP_REPS["trace_eval"]
    args = ["trace_eval", "--seed", seed, "--seconds", seconds,
            "--setup-reps", reps, "--setup-between", between]
    d = harness_json(*args, *(["--traced"] if traced else []))
    res = {"attempted": len(d["op_s"]), "failed": d["failed"],
           "stats": d["stats"], "spans": []}
    e2e, notes = throughput_metrics(d["op_s"], d["op_span_insts"] / 1e3,
                                    d["op_branch_evals"] / 1e6)
    e2e["setup_s"] = metric(bl.median(d["setup_s"]), "s")
    e2e["peak_rss_mb"] = metric(d["peak_rss_mb"], "MiB")
    notes["lanes"] = d["lanes"]
    res["metrics"], res["notes"] = e2e, notes
    if traced:
        batch = bl.median(d["trace.batch_evaluate_s"])
        res["layers"] = {
            "trace.record_s": (bl.median(d["trace.record_s"]), "s"),
            "trace.batch_evaluate_s": (batch, "s"),
            "bpu.build_lane_s": (bl.median(d["bpu.build_lane_s"]), "s"),
            "trace.lane_serial_s": (d["trace.lane_serial_s"], "s"),
            "trace.batch_overhead_ratio":
                (batch / d["trace.lane_serial_s"], "ratio"),
            "trace.specialized_lanes": (d["trace.specialized_lanes"],
                                        "count"),
            "trace.branch_evals": (d["trace.branch_evals"], "count"),
        }
        res["spans"] = d["spans"]
    return res


def search_cmd(seed, out, reference=False):
    cmd = [str(binary("cobra_search")), "--search-seed", str(seed),
           "--pool", "32", "--workload", "mcf", "--out", str(out)]
    if reference:
        return cmd + ["--no-batch-eval", "--jobs", "1"]
    return cmd + ["--jobs", "2", "--progress"]


def wl_search(seed, seconds, traced):
    work = WORK / f"search-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _search(seed, seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _search(seed, seconds, traced, work):
    reps, between = SETUP_REPS["search"]
    setup = harness_json("search-setup", "--setup-reps", reps)
    setup_s = list(setup["setup_s"])
    op_s, rss, artifacts, tiers, spans = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        out = work / f"op-{len(op_s)}.json"
        t0 = time.perf_counter() - t_start
        wall, rc, lines, peak = run_timed(search_cmd(seed, out))
        if rc != 0:
            raise BenchError(f"cobra_search exited {rc}: "
                             + " | ".join(l for _, l in lines[-3:]))
        op_s.append(wall)
        rss.append(peak)
        artifacts.append(out.read_bytes())
        tier = bl.parse_progress(lines, 0.0, wall)
        tiers.append(tier)
        op = len(op_s) - 1
        sid = len(spans)
        spans.append({"id": sid, "name": "search.run", "start": t0,
                      "end": t0 + wall, "parent": -1, "op": op,
                      "count": 1})
        at = t0
        for _, key in bl.PROGRESS_STEPS:
            name = "search." + key[len("search."):-2]
            spans.append({"id": len(spans), "name": name, "start": at,
                          "end": at + tier[key], "parent": sid, "op": op,
                          "count": 1})
            at += tier[key]
        if time.perf_counter() - t_start >= seconds:
            break
        setup_s += harness_json("search-setup", "--setup-reps",
                                between)["setup_s"]
    # Reference, outside the timed region: serial tier-0/1 walk, one job.
    ref = work / "reference.json"
    _, rc, lines, _ = run_timed(search_cmd(seed, ref, reference=True))
    if rc != 0:
        raise BenchError(f"reference cobra_search exited {rc}")
    ref_bytes = ref.read_bytes()
    checks = [a == ref_bytes and t["complete"]
              for a, t in zip(artifacts, tiers)]
    doc = json.loads(ref_bytes)
    evals = doc["evals"]
    span = setup["trace_span_insts"]
    measured_branches = doc["trace"]["branches"] - doc["trace"]["warmup"]
    # Instructions the tiers model: functional lanes over the recorded
    # trace span, warp runs, detailed runs (warmup included).
    kinsts = (evals["functional"] * span
              + evals["warp"] * doc["warp"]["insts"]
              + evals["detailed"] * (doc["detail"]["insts"]
                                     + doc["detail"]["warmup"])) / 1e3
    mbranches = evals["functional"] * measured_branches / 1e6
    e2e, notes = throughput_metrics(op_s, kinsts, mbranches)
    e2e["setup_s"] = metric(bl.median(setup_s), "s")
    e2e["peak_rss_mb"] = metric(max(rss), "MiB")
    frontier = [c["id"] for c in doc["frontier"]]
    stats = {
        "frontier_sha256": hashlib.sha256(ref_bytes).hexdigest(),
        "frontier": frontier,
        "evals": evals,
    }
    res = {"attempted": len(op_s), "failed": bl.count_failed(checks),
           "metrics": e2e, "notes": notes, "stats": stats, "spans": spans}
    if traced:
        layers = {}
        for _, key in bl.PROGRESS_STEPS + (("", "search.exit_s"),):
            layers[key] = (bl.median([t[key] for t in tiers]), "s")
        layers.update({
            "search.functional_evals": (evals["functional"], "count"),
            "search.warp_evals": (evals["warp"], "count"),
            "search.detailed_evals": (evals["detailed"], "count"),
            "search.evals_saved": (evals["saved_by_surrogate"], "count"),
            "search.surrogate_saved_ratio":
                (evals["saved_by_surrogate"] / evals["pool"], "ratio"),
            "search.frontier_size": (len(frontier), "count"),
        })
        t0 = time.perf_counter() - t_start
        w = harness_json("warp-probe", "--seed", seed)
        spans.append({"id": len(spans), "name": "warp.run", "start": t0,
                      "end": t0 + w["warp.run_s"], "parent": -1,
                      "op": len(op_s), "count": 1})
        for k in ("warp.run_s", "warp.ff_insts", "warp.detailed_insts"):
            layers[k] = (w[k], "s" if k.endswith("_s") else "count")
        res["layers"] = layers
    return res


class ServeDaemon:
    """One cobra_serve daemon on its own spool, fed by one client."""

    def __init__(self, spool):
        self.spool = spool
        spool.mkdir(parents=True, exist_ok=True)
        self.log = open(spool.parent / (spool.name + ".log"), "w")
        self.proc = subprocess.Popen(
            [str(binary("cobra_serve")), "--spool", str(spool),
             "--jobs", "2", "--poll-ms", "2"],
            stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.perf_counter() + 30
        while not (spool / "status.json").exists():
            if self.proc.poll() is not None or \
                    time.perf_counter() > deadline:
                self.stop()
                raise BenchError("cobra_serve did not start")
            time.sleep(0.002)

    def request(self, text, req_id, timeout=60.0):
        """Submit through the atomic-rename protocol and wait for the
        result document; returns (turnaround_s, parsed document)."""
        inc = self.spool / "incoming"
        result = self.spool / "results" / f"{req_id}.json"
        tmp = inc / f"{req_id}.json.tmp"
        t0 = time.perf_counter()
        tmp.write_text(text)
        os.rename(tmp, inc / f"{req_id}.json")
        while not result.exists():
            if self.proc.poll() is not None:
                raise BenchError("cobra_serve exited mid-request")
            if time.perf_counter() - t0 > timeout:
                raise BenchError(f"request {req_id} timed out")
            time.sleep(0.0005)
        wall = time.perf_counter() - t0
        return wall, json.loads(result.read_text())

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def serve_request(seed, req_id):
    return json.dumps({
        "id": req_id, "client": "perfbench",
        "designs": ["tagel"], "workloads": ["mcf"],
        "insts": 400_000 + 2_000 * (seed % 5), "warmup": 120_000,
        "warp": {"intervals": SERVE_INTERVALS,
                 "warmup_cycles": SERVE_WARMUP_CYCLES,
                 "sample_insts": SERVE_SAMPLE_INSTS},
    })


def wl_serve(seed, seconds, traced):
    work = WORK / f"serve-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    daemons = []
    try:
        return _serve(seed, seconds, traced, work, daemons)
    finally:
        for d in daemons:
            d.stop()
        shutil.rmtree(work, ignore_errors=True)


def serve_setup(seed, spool, rep):
    """Start a daemon on a fresh spool and prime its warm cache with one
    cold request; returns (seconds, daemon, parsed result)."""
    t0 = time.perf_counter()
    d = ServeDaemon(spool)
    try:
        _, doc = d.request(serve_request(seed, f"prime{rep}"),
                           f"prime{rep}")
    except BaseException:
        d.stop()
        raise
    s = bl.parse_serve_result(doc)
    if s.get("status") != "ok" or s.get("warm_hits") != 0:
        d.stop()
        raise BenchError(f"cold priming request failed: {doc}")
    return time.perf_counter() - t0, d, s


def host_probe():
    return harness_json("host-probe")["probe_s"]


def _serve(seed, seconds, traced, work, daemons):
    # Set-up: daemon start plus one cold request that primes the warm
    # cache. That daemon serves the run; further set-ups on fresh
    # spools run between operations and are stopped at once. A
    # host-speed probe runs before the first operation and after each
    # one; setup_probe names the probe each set-up sits next to.
    t, daemon, prime = serve_setup(seed, work / "spool0", 0)
    daemons.append(daemon)
    setup, setup_probe, probes = [t], [0], [host_probe()]

    def extra_setup():
        rep = len(setup)
        t, d, s = serve_setup(seed, work / f"spool{rep}", rep)
        d.stop()
        shutil.rmtree(work / f"spool{rep}", ignore_errors=True)
        if s["estimate"] != prime["estimate"]:
            raise BenchError("cold requests disagree across set-ups")
        setup.append(t)
        setup_probe.append(len(probes) - 1)

    op_s, checks, summaries, spans = [], [], [], []
    t_start = time.perf_counter()
    while True:
        req_id = f"op{len(op_s)}"
        t0 = time.perf_counter() - t_start
        wall, doc = daemon.request(serve_request(seed, req_id), req_id)
        s = bl.parse_serve_result(doc)
        op_s.append(wall)
        probes.append(host_probe())
        summaries.append(s)
        checks.append(bl.serve_op_ok(s, prime, SERVE_INTERVALS))
        if traced:
            sid = len(spans)
            spans.append({"id": sid, "name": "serve.request", "start": t0,
                          "end": t0 + wall, "parent": -1,
                          "op": len(op_s) - 1, "count": 1})
            pw = s.get("wall_seconds") or 0.0
            spans.append({"id": sid + 1, "name": "warp.served_point",
                          "start": t0 + wall - pw, "end": t0 + wall,
                          "parent": sid, "op": len(op_s) - 1, "count": 1})
        if time.perf_counter() - t_start >= seconds:
            break
        if time.perf_counter() - t_start >= len(setup) * SERVE_SETUP_EVERY_S:
            extra_setup()
    if len(setup) < 2:
        extra_setup()
    peak = daemon.peak_rss_mb()
    req = serve_request(seed, "probe")
    insts = json.loads(req)["insts"]
    est = prime["estimate"]
    detailed_kinsts = SERVE_INTERVALS * SERVE_SAMPLE_INSTS / 1e3
    # Conditional branches measured in detail: the estimate's count
    # scaled back from the whole run to the sampled instructions.
    mbranches = est["cond_branches"] * SERVE_INTERVALS * \
        SERVE_SAMPLE_INSTS / insts / 1e6
    norm_op_s = bl.host_normalised(
        op_s, [(a + b) / 2 for a, b in zip(probes, probes[1:])],
        PROBE_REF_S)
    norm_setup = bl.host_normalised(
        setup, [probes[k] for k in setup_probe], PROBE_REF_S)
    e2e, notes = throughput_metrics(norm_op_s, detailed_kinsts, mbranches)
    e2e["setup_s"] = metric(bl.median(norm_setup), "s")
    e2e["peak_rss_mb"] = metric(peak, "MiB")
    notes.update({"wall_op_s_p50": bl.median(op_s),
                  "wall_setup_s": bl.median(setup),
                  "probe_s_p50": bl.median(probes)})
    stats = {"request_insts": insts, "estimate": est}
    res = {"attempted": len(op_s), "failed": bl.count_failed(checks),
           "metrics": e2e, "notes": notes, "stats": stats, "spans": spans}
    if traced:
        (work / "request.json").write_text(req)
        last = daemon.spool / "results" / f"op{len(op_s) - 1}.json"
        p = harness_json("serve-probe", "--request", work / "request.json",
                         "--spool", daemon.spool, "--work", work,
                         "--result", last)
        ok = [s for s in summaries if s.get("wall_seconds") is not None]
        layers = {
            "serve.point_s": (bl.median([s["wall_seconds"] for s in ok]),
                              "s"),
            "serve.overhead_s": (bl.median([w - s["wall_seconds"] for w, s
                                            in zip(op_s, summaries)
                                            if s in ok]), "s"),
            "serve.warm_hit_ratio": (
                sum(s.get("warm_hits") or 0 for s in summaries)
                / (SERVE_INTERVALS * len(summaries)), "ratio"),
        }
        for k in ("serve.parse_s", "serve.warm_lookup_s",
                  "serve.journal_append_s", "serve.write_result_s",
                  "warp.warm_run_s"):
            layers[k] = (p[k], "s")
        # The in-process warm run is one more checked operation.
        res["attempted"] += 1
        if p["warm_hits"] != SERVE_INTERVALS:
            res["failed"] += 1
        res["layers"] = layers
    return res


RUNNERS = {"detailed": wl_detailed, "trace_eval": wl_trace_eval,
           "search": wl_search, "serve": wl_serve}


# ---- main ------------------------------------------------------------------------

def write_spans(path, sections):
    """All spans of a traced run, one JSON object a line, with unique
    ids across sections; returns the merged list."""
    merged = []
    for wl, spans in sections:
        for s in bl.renumber(spans, len(merged)):
            s["workload"] = wl
            merged.append(s)
    with open(path, "w") as f:
        for s in merged:
            f.write(json.dumps(s) + "\n")
    return merged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
        env = environment()
        OUT.mkdir(parents=True, exist_ok=True)
        tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
        if a.trace == 0:
            res = RUNNERS[a.workload](a.seed, a.seconds, False)
            metrics = res["metrics"]
            sections = [(a.workload, res)]
        else:
            # The named workload is traced for --seconds; one traced
            # operation of every other workload completes the layer set.
            sections = [(wl, RUNNERS[wl](a.seed,
                                          a.seconds if wl == a.workload
                                          else 0, True))
                        for wl in WORKLOADS]
            spans = write_spans(OUT / f"spans-{tag}.jsonl",
                                [(wl, r["spans"]) for wl, r in sections])
            metrics = {}
            for _, r in sections:
                for k, (v, unit) in r["layers"].items():
                    metrics[k] = metric(v, unit)
            for layer, v in sorted(bl.layer_self_times(spans).items()):
                if layer != "bench":
                    metrics[f"self_s.{layer}"] = metric(v, "s")
        env["loadavg_after"] = list(os.getloadavg())
    except (BenchError, subprocess.CalledProcessError, OSError,
            KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1

    attempted = sum(r["attempted"] for _, r in sections)
    failed = sum(r["failed"] for _, r in sections)
    record = {
        "environment": env,
        "note": f"{WARMUP_NOTE}; {VALIDATION_NOTE}",
        "simulated_stats": {wl: r["stats"] for wl, r in sections},
        "run_notes": {wl: r["notes"] for wl, r in sections},
    }
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps({"note": record["note"]}))
    print(json.dumps({"ops": attempted, "ops_failed": failed,
                      "run_notes": record["run_notes"]}))
    print(json.dumps({"simulated_stats_sha256": hashlib.sha256(
        json.dumps(record["simulated_stats"], sort_keys=True).encode())
        .hexdigest()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
