#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quickstart-serial --seed 1 \
        --seconds 30 --trace 0

--workload all runs the three workloads in turn.

The first call builds the qtx binary and the perfbench_probe helper with
CMake under .bench_build/. With --trace 0 the workload runs untraced and the
end-to-end metrics are reported; with --trace 1 the same workload and seed
run through the timing decorators and the per-layer metrics are reported.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "cmake")
QTX = os.path.join(BUILD_DIR, "qtx", "qtx")
PROBE = os.path.join(BUILD_DIR, "perfbench_probe")
QUICKSTART = os.path.join("scenarios", "quickstart.ini")
GOLDEN_DIR = os.path.join("tests", "golden")

# Fresh-process set-up samples per run (setup_s reports their median).
SETUP_REPS = 11
# A run workload starts another qtx run only while the run is expected to
# end inside the --seconds window.
PROC_TIMEOUT_S = 170.0

WORKLOADS = {
    "quickstart-serial": {
        "threads": 1, "ranks": 1, "sets": [],
    },
    "converge-2x2": {
        "threads": 2, "ranks": 2,
        "sets": ["mixer=anderson", "tolerance=1e-5", "max_iterations=60"],
    },
    "serve-explore": {"workers": 2, "clients": 2},
}

# serve-explore deck family: one nanoribbon layout and solver configuration
# (one pipeline-pool key), varied over a bias x gate grid.
SERVE_ENERGIES = 16
SERVE_ITERATIONS = 2
SERVE_BIASES = [round(0.02 * i, 2) for i in range(26)]       # V_DS, eV
SERVE_GATES = [round(0.05 * i, 2) for i in range(13)]        # barrier, eV
SERVE_REPEAT_SHARE = 0.25
SERVE_LIST_LEN = 160          # requests per client list (time mode)
SERVE_TRACED_PER_CLIENT = 14  # requests per client in the traced run
SERVE_COLD_CHECKS = 2

SERVE_DECK = """[device]
preset = nanoribbon
[solver]
grid = -6.0 6.0 {n}
eta = 0.02
mu_reference = conduction-min
mu_left = 0.25
mu_right = {mu_right:.2f}
cell_potential = 0 0 {gate:.2f} {gate:.2f} 0 0
gw_scale = 0.3
fock_scale = 0
mixing = 0.4
max_iterations = {iters}
tolerance = 1e-3
"""


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# Build and process helpers
# ---------------------------------------------------------------------------

def check_sources():
    needed = ["CMakeLists.txt", "src", "apps", QUICKSTART, GOLDEN_DIR]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a qtx source checkout (missing %s); run from "
                         "the repository root" % ", ".join(missing))


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    logfile = os.path.join(".bench_build", "build.log")
    src = os.path.relpath(HERE, ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(logfile, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", src, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "qtx", "perfbench_probe"])
        for argv in steps:
            if subprocess.call(argv, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(argv))


def run_proc(argv, timeout=PROC_TIMEOUT_S):
    """Run argv to completion. Returns (exit code, wall s, peak RSS MB,
    output text, stderr included). The peak RSS is that of the process or any of its
    reaped descendants (wait4), so ranked runs count their workers."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, start_new_session=True)
    timer = threading.Timer(timeout, lambda: os.killpg(p.pid, signal.SIGKILL))
    timer.start()
    try:
        text = p.stdout.read().decode()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    if p.returncode != 0:
        sys.stderr.write(text[-2000:])
    return p.returncode, wall, ru.ru_maxrss / 1024.0, text


def probe_json(args):
    code, _, _, text = run_proc([PROBE] + args)
    if code != 0:
        raise BenchError("perfbench_probe %s failed" % args[0])
    return json.loads(text.strip().splitlines()[-1])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(xs, q):
    """Nearest-rank percentile (q in (0, 1])."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    peak = probe_json(["peak", "--seconds", "0.5"])
    return {"nproc": os.cpu_count(), "cpu": model,
            "peak_gflops": peak["peak_gflops"], "probes": peak["probes"]}


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

# Observables must match the goldens to this share of the golden's largest
# magnitude: loose enough for a kernel backend that reorders sums
# (|dT| ~ 1e-15), tight enough that wrong physics fails.
GOLDEN_RTOL = 1e-9
# converge-2x2 is converged to tolerance 1e-5 on the Sigma update; I_L must
# land within this relative distance of the stored reference.
CONVERGE_RTOL = 1e-4


def read_golden(name):
    with open(os.path.join(ROOT, GOLDEN_DIR, name)) as f:
        return [float(l) for l in f if l.strip() and not l.startswith("#")]


def deviation(values, golden):
    if len(values) != len(golden):
        return float("inf")
    scale = max(abs(g) for g in golden) or 1.0
    return max(abs(v - g) for v, g in zip(values, golden)) / scale


def check_quickstart(res):
    obs = res["observables"]
    current = read_golden("quickstart_current.txt")
    worst = max(
        deviation(obs["transmission"], read_golden("quickstart_transmission.txt")),
        deviation(obs["density"], read_golden("quickstart_density.txt")),
        deviation([obs["terminal_current_left"], obs["terminal_current_right"]]
                  + obs["spectral_current_left"], current))
    return worst <= GOLDEN_RTOL and res["result"]["iterations"] == 4, \
        "max deviation from goldens %.3g (limit %g)" % (worst, GOLDEN_RTOL)


def check_converge(res):
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)["converge-2x2"]["terminal_current_left"]
    il = res["observables"]["terminal_current_left"]
    dev = abs(il - ref) / abs(ref)
    ok = res["result"]["converged"] and dev <= CONVERGE_RTOL
    return ok, "converged=%s after %d iterations, I_L rel. deviation %.3g " \
        "(limit %g)" % (res["result"]["converged"],
                        res["result"]["iterations"], dev, CONVERGE_RTOL)


CHECKS = {"quickstart-serial": check_quickstart, "converge-2x2": check_converge}


# ---------------------------------------------------------------------------
# Run workloads (quickstart-serial, converge-2x2): qtx run processes
# ---------------------------------------------------------------------------

def deck_args(w):
    args = []
    for s in WORKLOADS[w]["sets"]:
        args += ["--set", s]
    return args


def qtx_run(w, out_dir, extra=()):
    cfg = WORKLOADS[w]
    argv = [QTX, "run", QUICKSTART, "--out", out_dir, "--quiet",
            "--threads", str(cfg["threads"])] + deck_args(w)
    if cfg["ranks"] > 1:
        argv += ["--ranks", str(cfg["ranks"])]
    code, wall, rss, _ = run_proc(argv + list(extra))
    res = None
    if code == 0:
        with open(os.path.join(out_dir, "results.json")) as f:
            res = json.load(f)
    return {"ok": code == 0, "wall": wall, "rss": rss, "res": res}


def setup_samples(w):
    cfg = WORKLOADS[w]
    args = ["setup", "--deck", QUICKSTART,
            "--set", "num_threads=%d" % cfg["threads"]] + deck_args(w)
    return [probe_json(args)["setup_s"] for _ in range(SETUP_REPS)]


def measure_run_workload(w, seconds, tmp):
    setup = setup_samples(w)
    ops = []
    t0 = time.perf_counter()
    while True:
        op = qtx_run(w, os.path.join(tmp, "op%d" % len(ops)))
        ok, why = (CHECKS[w](op["res"]) if op["ok"] else (False, "qtx failed"))
        op["correct"] = ok
        op["why"] = why
        ops.append(op)
        elapsed = time.perf_counter() - t0
        if elapsed + median([o["wall"] for o in ops]) > seconds:
            break
    window = time.perf_counter() - t0
    n_e = int(ops[0]["res"]["provenance"]["solver"]["grid.n"]) \
        if ops[0]["res"] else 0
    good = [o for o in ops if o["correct"]]
    lat = [o["wall"] if o["correct"] else window for o in ops]
    throughput = [n_e * o["res"]["result"]["iterations"]
                  / o["res"]["result"]["total_seconds"] for o in good]
    return {
        "setup": setup, "latencies": lat, "window": window,
        "attempted": len(ops), "failed": len(ops) - len(good),
        "energy_iters_per_s": median(throughput),
        "run_s": median([o["wall"] for o in good]) if good else window,
        "peak_rss_mb": max(o["rss"] for o in ops),
        "completed": len(good),
        "notes": sorted(set(o["why"] for o in ops)),
    }


# ---------------------------------------------------------------------------
# serve-explore: a qtx serve daemon fed by a closed loop of clients
# ---------------------------------------------------------------------------

def serve_decks(seed, per_client, path):
    """Write the request lists: each client sweeps its own share of the
    bias x gate grid and, one request in four, re-submits one of its own
    earlier decks exactly. Returns the repeat share."""
    rng = random.Random(seed)
    grid = [(b, g) for b in SERVE_BIASES for g in SERVE_GATES]
    rng.shuffle(grid)
    clients = WORKLOADS["serve-explore"]["clients"]
    repeats = total = 0
    with open(path, "w") as f:
        for c in range(clients):
            fresh = iter(grid[c::clients])
            sent = []
            for _ in range(per_client):
                if sent and rng.random() < SERVE_REPEAT_SHARE:
                    deck_id = rng.choice(sent)
                    repeats += 1
                else:
                    deck_id = grid.index(next(fresh))
                    sent.append(deck_id)
                total += 1
                bias, gate = grid[deck_id]
                f.write("@request %d %d\n" % (c, deck_id))
                f.write(SERVE_DECK.format(n=SERVE_ENERGIES, iters=SERVE_ITERATIONS,
                                          mu_right=0.25 - bias, gate=gate))
    return repeats / total


def connect_ok(path):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.connect(path)
        return True
    except OSError:
        return False
    finally:
        s.close()


class Daemon:
    """A qtx serve process; stop() drains it and returns its peak RSS."""

    def __init__(self, sock):
        self.sock = sock
        if os.path.exists(sock):
            os.unlink(sock)
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [QTX, "serve", "--socket", sock, "--workers",
             str(WORKLOADS["serve-explore"]["workers"]), "--quiet"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        while not connect_ok(sock):
            if self.proc.poll() is not None:  # poll() reaped it
                raise BenchError("qtx serve exited during start-up")
            if time.perf_counter() - self.t0 > 30:
                self.stop()
                raise BenchError("qtx serve did not start")
            time.sleep(0.0002)
        self.ready_s = time.perf_counter() - self.t0

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return ru.ru_maxrss / 1024.0


def serve_clients(sock, decks, out_dir, extra):
    code, _, _, _ = run_proc([PROBE, "serve", "--socket", sock, "--decks", decks,
                              "--out", out_dir] + extra)
    if code != 0:
        raise BenchError("serve clients failed")
    with open(os.path.join(out_dir, "run1.json")) as f:
        return json.load(f)


def summarize_serve(doc, window):
    reqs = doc["requests"]
    failed = [r for r in reqs if not r["ok"] or not r["match"]]
    lat = [window if (not r["ok"] or not r["match"]) else r["latency_s"]
           for r in reqs]
    misses = [r for r in reqs if r["ok"] and not r["cache_hit"]]
    loop = sum(r["loop_s"] for r in misses)
    return {
        "latencies": lat,
        "attempted": len(reqs) + int(doc["cold_checked"]),
        "failed": len(failed) + int(doc["cold_mismatches"]),
        "completed": len(reqs) - len(failed),
        "run_s": median([r["latency_s"] for r in misses]),
        "energy_iters_per_s": (SERVE_ENERGIES * SERVE_ITERATIONS * len(misses)
                               / loop) if loop > 0 else 0.0,
        "repeats": sum(1 for r in reqs if r["repeat"]),
        "cache_hits": sum(1 for r in reqs if r["cache_hit"]),
    }


def measure_serve(seed, seconds, tmp):
    sock = os.path.join(os.path.relpath(tmp, ROOT), "d.sock")
    setup = []
    for _ in range(SETUP_REPS):
        d = Daemon(sock)
        setup.append(d.ready_s)
        d.stop()
    decks = os.path.join(tmp, "decks.txt")
    serve_decks(seed, SERVE_LIST_LEN, decks)
    d = Daemon(sock)
    try:
        doc = serve_clients(sock, decks, os.path.join(tmp, "clients"),
                            ["--seconds", str(seconds), "--check",
                             str(SERVE_COLD_CHECKS), "--seed", str(seed)])
    finally:
        rss = d.stop()
    window = doc["window_s"]
    out = summarize_serve(doc, window)
    if d.proc.returncode != 0:
        out["failed"] += 1
    out.update({"setup": setup, "window": window, "peak_rss_mb": rss,
                "notes": ["%d requests, %d repeats, %d cache hits, %d sampled "
                          "cold checks, %d mismatches" % (
                              len(doc["requests"]), out["repeats"],
                              out["cache_hits"], doc["cold_checked"],
                              doc["cold_mismatches"])]})
    return out


# ---------------------------------------------------------------------------
# End-to-end metrics (--trace 0)
# ---------------------------------------------------------------------------

def end_to_end(w, seed, seconds, tmp):
    m = measure_serve(seed, seconds, tmp) if w == "serve-explore" \
        else measure_run_workload(w, seconds, tmp)
    lat = m["latencies"]
    n = len(lat)
    beyond_p90 = n - math.ceil(0.9 * n)
    metrics = {
        "setup_s": (median(m["setup"]), "s"),
        "run_s": (m["run_s"], "s"),
        "energy_iters_per_s": (m["energy_iters_per_s"], "1/s"),
        "request_p50_s": (median(lat), "s"),
        "request_p90_s": (nearest_rank(lat, 0.9), "s"),
        "requests_per_s": (m["completed"] / m["window"], "1/s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }
    log("workload %s, seed %d, window %.2f s" % (w, seed, m["window"]))
    for note in m["notes"]:
        log("  check: " + note)
    log("  %-20s %14.6g %-4s (median of %d fresh set-ups)" % (
        "setup_s", metrics["setup_s"][0], "s", len(m["setup"])))
    for name in ("run_s", "energy_iters_per_s", "request_p50_s",
                 "request_p90_s", "requests_per_s", "peak_rss_mb"):
        value, unit = metrics[name]
        extra = "(n=%d operations)" % n
        if name == "request_p90_s" and beyond_p90 < 10:
            extra += " only %d samples beyond p90: indicative" % beyond_p90
        log("  %-20s %14.6g %-4s %s" % (name, value, unit, extra))
    log("  %-20s %14.6g %-4s (%d of %d operations failed)" % (
        "failed_fraction", m["failed"] / m["attempted"], "1", m["failed"],
        m["attempted"]))
    return m["attempted"], m["failed"], metrics


# ---------------------------------------------------------------------------
# Per-layer metrics (--trace 1)
# ---------------------------------------------------------------------------

LA_LU = ("la.lu_factor", "la.lu_solve", "la.lu_solve_right")
WAIT_SPANS = ("par.recv", "par.barrier", "par.send")
# Counted metrics that must repeat exactly across two traced runs.
EXACT = ("common.flops.total", "la.gemm.calls", "la.lu.calls",
         "obc.surface.calls", "obc.stein.calls", "accel.iterations",
         "par.comm.bytes", "serve.cache.hits")


def span(ranks, name, field="total_s"):
    return [r["spans"].get(name, {}).get(field, 0.0) for r in ranks]


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(ranks, results, peak, extra):
    """Per-layer metrics from the raw rank aggregates of one traced run.
    `results` is the list of results.json documents the run produced (one
    for a run workload, one per solved request for serve)."""
    tot = lambda name, field="total_s": sum(span(ranks, name, field))
    cnt = lambda key: sum(r["counters"][key] for r in ranks)
    history = [h["seconds"] for d in results for h in d["result"]["history"]]
    iterations = sum(d["result"]["iterations"] for d in results)
    loop = [r["loop_s"] for r in ranks]
    kernel = lambda row: sum(d["kernel_seconds"].get(row, 0.0) for d in results)
    kflops = lambda row: sum(d["performance"]["kernels"].get(row, {})
                             .get("flops", 0) for d in results)
    gemm_s, lu_s = tot("la.gemm"), sum(tot(n) for n in LA_LU)
    gemm_gf = ratio(cnt("gemm_flops"), gemm_s) / 1e9
    lu_gf = ratio(cnt("lu_flops"), lu_s) / 1e9
    par_s = span(ranks, "core.pipeline")
    conc = [r["counters"]["executor_concurrency"] for r in ranks]
    wait = [sum(x) for x in zip(*(span(ranks, n) for n in WAIT_SPANS))]
    multi = len(ranks) > 1
    compute = [l - w for l, w in zip(loop, wait)]
    rgf_s = tot("rgf.solve")
    m = {
        "la.gemm.calls": tot("la.gemm", "calls"),
        "la.lu.calls": sum(tot(n, "calls") for n in LA_LU),
        "la.gemm.s": gemm_s,
        "la.lu.s": lu_s,
        "la.gemm.gflops": gemm_gf,
        "la.lu.gflops": lu_gf,
        "la.gemm.pct_peak": 100.0 * gemm_gf / peak,
        "la.lu.pct_peak": 100.0 * lu_gf / peak,
        "la.gemm.flops_per_byte": ratio(cnt("gemm_flops"), cnt("gemm_bytes")),
        "la.gemm.calls.n_le16": cnt("gemm_le16"),
        "la.gemm.calls.n_le32": cnt("gemm_le32"),
        "la.gemm.calls.n_gt32": cnt("gemm_gt32"),
        "obc.surface.calls": tot("obc.surface", "calls"),
        "obc.surface.s": tot("obc.surface"),
        "obc.stein.calls": tot("obc.stein", "calls"),
        "obc.stein.s": tot("obc.stein"),
        "obc.self_s": tot("obc.surface", "self_s") + tot("obc.stein", "self_s"),
        "obc.memo_hit_ratio": ratio(cnt("obc_memoized"),
                                    cnt("obc_memoized") + cnt("obc_direct")),
        "rgf.solve.calls": tot("rgf.solve", "calls"),
        "rgf.solve.s": rgf_s,
        "rgf.self_s": tot("rgf.solve", "self_s"),
        "rgf.gflops": ratio(kflops("G: RGF") + kflops("W: RGF"),
                            span(ranks, "rgf.solve")[0] if multi else rgf_s)
        / 1e9,
        "fft.p.s": kernel("Other: P-FFT"),
        "fft.sigma.s": kernel("Other: Sigma-FFT"),
        "core.channel.accumulate_s": tot("core.channel.accumulate"),
        "core.iteration.s": median(history),
        "core.pipeline.parallel_s": max(par_s),
        "core.pipeline.busy_s": tot("core.batch"),
        "core.pipeline.utilization": ratio(
            tot("core.batch"), sum(p * c for p, c in zip(par_s, conc))),
        "core.serial_s": max(l - p for l, p in zip(loop, par_s)),
        "core.setup.s": max(r["core_setup_s"] for r in ranks),
        "core.allocs_per_iter": ratio(cnt("allocs"), iterations),
        "core.alloc_bytes_per_iter": ratio(cnt("alloc_bytes"), iterations),
        "accel.iterations": iterations,
        "accel.mix.s": tot("accel.mix"),
        "par.comm.messages": ratio(cnt("comm_messages"), iterations),
        "par.comm.bytes": ratio(cnt("comm_bytes"), iterations),
        "par.comm.wait_s": max(wait) if multi else 0.0,
        "par.rank_imbalance": (max(compute) / min(compute)) if multi else 0.0,
        "par.rank_peak_rss_mb": max(r["peak_rss_mb"] for r in ranks)
        if multi else 0.0,
        "common.flops.total": cnt("flops_total"),
        "common.flops.unattributed": cnt("flops_unattributed"),
        "device.build.s": max(r["build_s"] for r in ranks),
        "io.parse.s": max(r["parse_s"] for r in ranks),
        "io.write.s": ranks[0]["write_s"],
        "io.results_bytes": ranks[0]["results_bytes"],
        "serve.cache.hit_ratio": 0.0,
        "serve.pool.warm_ratio": 0.0,
        "serve.queue.p50_s": 0.0,
        "serve.solve.p50_s": 0.0,
        "serve.requests_error": 0.0,
        "serve.cache.hits": 0.0,
        "serve.repeat_share": 0.0,
        "obs.trace_overhead": 0.0,
        "bench.trace_overhead": 0.0,
        "host.peak_gflops": peak,
    }
    m.update(extra)
    return m


# Per-layer metrics: name, unit, which direction is better.
PER_LAYER = [
    ("la.gemm.calls", "count", "lower"),
    ("la.lu.calls", "count", "lower"),
    ("la.gemm.s", "s", "lower"),
    ("la.lu.s", "s", "lower"),
    ("la.gemm.gflops", "GFLOP/s", "higher"),
    ("la.lu.gflops", "GFLOP/s", "higher"),
    ("la.gemm.pct_peak", "%", "higher"),
    ("la.lu.pct_peak", "%", "higher"),
    ("la.gemm.flops_per_byte", "flop/B", "higher"),
    ("la.gemm.calls.n_le16", "count", "lower"),
    ("la.gemm.calls.n_le32", "count", "lower"),
    ("la.gemm.calls.n_gt32", "count", "higher"),
    ("obc.surface.calls", "count", "lower"),
    ("obc.surface.s", "s", "lower"),
    ("obc.stein.calls", "count", "lower"),
    ("obc.stein.s", "s", "lower"),
    ("obc.self_s", "s", "lower"),
    ("obc.memo_hit_ratio", "ratio", "higher"),
    ("rgf.solve.calls", "count", "lower"),
    ("rgf.solve.s", "s", "lower"),
    ("rgf.self_s", "s", "lower"),
    ("rgf.gflops", "GFLOP/s", "higher"),
    ("fft.p.s", "s", "lower"),
    ("fft.sigma.s", "s", "lower"),
    ("core.channel.accumulate_s", "s", "lower"),
    ("core.iteration.s", "s", "lower"),
    ("core.pipeline.parallel_s", "s", "lower"),
    ("core.pipeline.busy_s", "s", "lower"),
    ("core.pipeline.utilization", "ratio", "higher"),
    ("core.serial_s", "s", "lower"),
    ("core.setup.s", "s", "lower"),
    ("core.allocs_per_iter", "count", "lower"),
    ("core.alloc_bytes_per_iter", "B", "lower"),
    ("accel.iterations", "count", "lower"),
    ("accel.mix.s", "s", "lower"),
    ("par.comm.messages", "count", "lower"),
    ("par.comm.bytes", "B", "lower"),
    ("par.comm.wait_s", "s", "lower"),
    ("par.rank_imbalance", "ratio", "lower"),
    ("par.rank_peak_rss_mb", "MB", "lower"),
    ("common.flops.total", "flop", "lower"),
    ("common.flops.unattributed", "flop", "lower"),
    ("device.build.s", "s", "lower"),
    ("io.parse.s", "s", "lower"),
    ("io.write.s", "s", "lower"),
    ("io.results_bytes", "B", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.hits", "count", "higher"),
    ("serve.repeat_share", "ratio", "higher"),
    ("serve.pool.warm_ratio", "ratio", "higher"),
    ("serve.queue.p50_s", "s", "lower"),
    ("serve.solve.p50_s", "s", "lower"),
    ("serve.requests_error", "count", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("host.peak_gflops", "GFLOP/s", "higher"),
]


def load(path):
    with open(path) as f:
        return json.load(f)


def rank_docs(prefix):
    docs, r = [], 0
    while os.path.exists("%s.rank%d.json" % (prefix, r)):
        docs.append(load("%s.rank%d.json" % (prefix, r)))
        r += 1
    return docs


def merge_spans(parts, dest):
    """Wrap per-rank event lines into one Chrome trace-event file."""
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    with open(dest, "w") as out:
        out.write('{"displayTimeUnit":"ms","traceEvents":[\n')
        first = True
        for part in parts:
            with open(part) as f:
                for line in f:
                    out.write(("" if first else ",\n") + line.rstrip("\n"))
                    first = False
            os.unlink(part)
        out.write("\n]}\n")


def same_observables(a, b):
    return a["observables"] == b["observables"]


def traced_run_workload(w, tmp, peak):
    base = qtx_run(w, os.path.join(tmp, "untraced"))
    ok, why = CHECKS[w](base["res"]) if base["ok"] else (False, "qtx failed")
    checks = [("untraced run: " + why, ok)]
    cfg = WORKLOADS[w]
    out = os.path.join(tmp, "traced")
    spans_file = os.path.join(tmp, "spans")
    code, _, _, _ = run_proc(
        [PROBE, "run", "--deck", QUICKSTART, "--set",
         "num_threads=%d" % cfg["threads"]] + deck_args(w) +
        ["--ranks", str(cfg["ranks"]), "--runs", "2", "--out", out,
         "--spans", spans_file])
    if code != 0:
        raise BenchError("traced run failed")
    runs = []
    for k in (1, 2):
        prefix = os.path.join(out, "run%d" % k)
        res = load(os.path.join(prefix, "results.json"))
        checks.append(("traced run %d observables bit-identical to the "
                       "untraced run" % k,
                       base["ok"] and same_observables(res, base["res"])))
        runs.append((rank_docs(prefix), res, load(prefix + ".json")["wall_s"]))
    extra = {"bench.trace_overhead": runs[0][2] / base["wall"]}
    if w == "quickstart-serial":
        obs = qtx_run(w, os.path.join(tmp, "obs"),
                      ["--trace", os.path.join(tmp, "obs.trace.json")])
        checks.append(("qtx --trace run observables bit-identical",
                       obs["ok"] and base["ok"]
                       and same_observables(obs["res"], base["res"])))
        extra["obs.trace_overhead"] = obs["wall"] / base["wall"]
    metrics = [layer_metrics(r, [res], peak, extra) for r, res, _ in runs]
    parts = sorted(os.path.join(tmp, p) for p in os.listdir(tmp)
                   if p.startswith("spans.rank"))
    return metrics, checks, parts


def traced_serve(seed, tmp, peak):
    decks = os.path.join(tmp, "decks.txt")
    share = serve_decks(seed, SERVE_TRACED_PER_CLIENT, decks)
    fixed = ["--per-client", str(SERVE_TRACED_PER_CLIENT), "--check",
             str(SERVE_COLD_CHECKS), "--seed", str(seed)]
    sock = os.path.join(os.path.relpath(tmp, ROOT), "d.sock")
    d = Daemon(sock)
    try:
        base = serve_clients(sock, decks, os.path.join(tmp, "untraced"), fixed)
    finally:
        d.stop()
    out = os.path.join(tmp, "traced")
    code, _, _, _ = run_proc([PROBE, "serve", "--decks", decks, "--out", out,
                              "--workers", str(WORKLOADS["serve-explore"]["workers"]),
                              "--runs", "2", "--spans",
                              os.path.join(tmp, "spans")] + fixed)
    if code != 0:
        raise BenchError("traced serve run failed")
    base_sum = summarize_serve(base, base["window_s"])
    checks = [("untraced pass: %d of %d operations failed" % (
        base_sum["failed"], base_sum["attempted"]), base_sum["failed"] == 0)]
    metrics = []
    for k in (1, 2):
        doc = load(os.path.join(out, "run%d.json" % k))
        s = summarize_serve(doc, doc["window_s"])
        checks.append(("traced run %d: %d of %d operations failed" % (
            k, s["failed"], s["attempted"]), s["failed"] == 0))
        common = set(doc["digests"]) & set(base["digests"])
        checks.append(("traced run %d replies identical to the untraced "
                       "run's (%d decks)" % (k, len(common)),
                       bool(common) and all(doc["digests"][i] == base["digests"][i]
                                            for i in common)))
        replies = load(os.path.join(out, "run%d.replies.json" % k))
        reqs = doc["requests"]
        misses = [r for r in reqs if r["ok"] and not r["cache_hit"]]
        rank = {"spans": doc["spans"], "counters": doc["counters"],
                "loop_s": sum(r["loop_s"] for r in misses),
                "core_setup_s": median([r["solve_s"] - r["loop_s"]
                                        for r in misses]),
                "peak_rss_mb": 0.0, "build_s": doc["build_s"],
                "parse_s": doc["parse_s"], "write_s": doc["render_s"],
                "results_bytes": median([r["bytes"] for r in reqs if r["ok"]])}
        lookups = doc["cache_hits"] + doc["cache_misses"]
        checkouts = doc["pool_warm"] + doc["pool_cold"]
        extra = {
            "serve.cache.hit_ratio": ratio(doc["cache_hits"], lookups),
            "serve.pool.warm_ratio": ratio(doc["pool_warm"], checkouts),
            "serve.queue.p50_s": median([r["queue_s"] for r in reqs]),
            "serve.solve.p50_s": median([r["solve_s"] for r in misses]),
            "serve.requests_error": doc["requests_error"],
            "serve.cache.hits": doc["cache_hits"],
            "serve.repeat_share": share,
            "bench.trace_overhead": ratio(s["run_s"], base_sum["run_s"]),
        }
        metrics.append(layer_metrics([rank], replies, peak, extra))
    parts = sorted(os.path.join(tmp, p) for p in os.listdir(tmp)
                   if p.startswith("spans.rank"))
    return metrics, checks, parts


def per_layer(w, seed, tmp):
    host = host_fingerprint()
    log("host: nproc=%d, cpu=%s, FMA peak %.3f GFLOP/s (median of %d probes)"
        % (host["nproc"], host["cpu"], host["peak_gflops"], host["probes"]))
    if w == "serve-explore":
        metrics, checks, parts = traced_serve(seed, tmp, host["peak_gflops"])
    else:
        metrics, checks, parts = traced_run_workload(w, tmp,
                                                     host["peak_gflops"])
    for name in EXACT:
        checks.append(("%s repeats exactly across two traced runs (%r, %r)"
                       % (name, metrics[0][name], metrics[1][name]),
                       metrics[0][name] == metrics[1][name]))
    trace = os.path.join(".bench_build", "trace", w + ".json")
    merge_spans(parts, trace)
    log("workload %s, seed %d: span trace of traced run 1 in %s" % (
        w, seed, trace))
    for what, ok in checks:
        log("  check %s: %s" % ("ok  " if ok else "FAIL", what))
    failed = sum(1 for _, ok in checks if not ok)
    out = {}
    for name, unit, _ in PER_LAYER:
        value = metrics[0][name]
        out[name] = (value, unit)
        log("  %-28s %16.6g %s" % (name, value, unit))
    return len(checks), failed, out


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run_workload(workload, args):
    tmp = os.path.join(".bench_build", "runs",
                       "%s-%d-%d" % (workload, args.seed, os.getpid()))
    os.makedirs(tmp)
    try:
        if args.trace:
            attempted, failed, metrics = per_layer(workload, args.seed, tmp)
        else:
            attempted, failed, metrics = end_to_end(workload, args.seed,
                                                    args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return attempted, failed, {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        check_sources()
        build()
        if args.workload == "all":
            # Every workload in turn; metrics are grouped by workload.
            attempted = failed = 0
            metrics = {}
            for w in WORKLOADS:
                a, f, metrics[w] = run_workload(w, args)
                attempted += a
                failed += f
        else:
            attempted, failed, metrics = run_workload(args.workload, args)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
