#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the library,
pcss_serve and the programs under perfbench/src (Release, in .perfbench/),
trains the model zoo into .perfbench/artifacts, and makes the reference
documents; later runs reuse all three. Those one-time steps are never
timed.

Workloads (BENCHMARK.json says why each was chosen):

  color_tables  table3, table6, ext_universal, table8 and defense_grid at
                full scale into an empty store, threads = nproc
  coord_tables  table2 at full scale into an empty store
  serve_reads   a closed loop of 4 connections reading the six registered
                specs at fast scale from pcss_serve over a Unix socket;
                then those specs regenerated into an empty store

Every workload reads documents back through pcss_serve from the fast
reference store (warmed once per checkout) and then regenerates its
tables, so every end-to-end metric exists on every workload; the table
workloads spend a quarter of --seconds reading and regenerate for the
rest, serve_reads spends most of it reading. The read phase is cut into
READ_WINDOWS equal windows and the read metrics are medians over the
windows, so a burst of contention on the host spoils one window, not the
run.

The seed selects the inputs: for the table workloads it picks one of
SHIFT_CLASSES scene-seed shifts applied to every spec copy (so each shift
needs one reference, made once per checkout); for serve_reads it orders
each connection's requests.

Correctness: every regenerated document must equal, byte for byte, the
reference made with plan replay off and one thread per process; every
served payload must equal its store file. Each mismatch, thrown spec run,
error event or 429 is a failed operation.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 repeats the run with pcss::obs tracing on, runs perfbench_probe,
and prints the per-layer metrics (perfbench/LAYERS.md maps each to the
end-to-end metric and workload it should move).

The last line of stdout is the result object; the line before it holds
the seed, the provenance (cores, CPU, SIMD ISA, source revision, build
type, compiler) and the steal share. Progress goes to stderr, logs to
.perfbench/logs. perfbench/summarize.py gives medians and quartiles over
a set of saved runs.
"""
import argparse
import contextlib
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import framing  # noqa: E402
import stats  # noqa: E402

ROOT = HERE.parent
STATE = Path(".perfbench")  # relative to ROOT: keeps the socket path short
BUILD = STATE / "build"
ARTIFACTS = STATE / "artifacts"
REFS = STATE / "refs"
WORK = STATE / "work"
LOGS = STATE / "logs"

COLOR_SPECS = ["table3", "table6", "ext_universal", "table8", "defense_grid"]
COORD_SPECS = ["table2"]
ALL_SPECS = ["table2", "table3", "table6", "ext_universal", "table8", "defense_grid"]
SHIFT_CLASSES = 4
SHIFT_STEP = 17
SETUPS = 21            # set-up samples per run; setup_s is their median
TRACE_READS = 4000     # requests per traced read load (fits the trace rings)
READ_WINDOWS = 9       # the read phase's windows; read metrics are their medians
TARGETS = ["perfbench_regen", "perfbench_load", "perfbench_probe", "pcss_serve"]


class Workload:
    def __init__(self, specs, fast, read_share):
        self.specs = specs
        self.fast = fast
        self.read_share = read_share  # share of --seconds spent reading


WORKLOADS = {
    "color_tables": Workload(COLOR_SPECS, fast=False, read_share=0.25),
    "coord_tables": Workload(COORD_SPECS, fast=False, read_share=0.25),
    "serve_reads": Workload(ALL_SPECS, fast=True, read_share=0.7),
}


class BenchError(RuntimeError):
    pass


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def nproc():
    return os.cpu_count() or 1


def child_env():
    env = dict(os.environ)
    for name in ("PCSS_FAST", "PCSS_TRACE", "PCSS_CHAOS"):
        env.pop(name, None)
    env["PCSS_ARTIFACTS"] = str(ARTIFACTS)
    return env


def binary(name):
    path = BUILD / name if name.startswith("perfbench") else BUILD / "pcss" / "tools" / name
    if not path.is_file():
        raise BenchError(f"missing {path}; the build did not produce it")
    return str(path)


def run_logged(cmd, log_name, timeout):
    LOGS.mkdir(parents=True, exist_ok=True)
    with open(LOGS / log_name, "ab") as out:
        result = subprocess.run([str(c) for c in cmd], stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), timeout=timeout)
    if result.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} failed (exit {result.returncode}); "
                         f"see {LOGS / log_name}")


def wait_rusage(proc):
    """Reaps `proc` with wait4: (exit code, rusage of that process)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def rss_mb(usage):
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs: steal is time the hypervisor
    ran something else on this machine's virtual CPUs."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after):
    return (after[0] - before[0]) / max(1, after[1] - before[1])


# -- one-time state of a checkout -------------------------------------------

def build(targets=TARGETS):
    if not (Path("CMakeLists.txt").is_file() and Path("src").is_dir()):
        raise BenchError("no pcss source tree here; run from the root of a checkout")
    configured = BUILD / "perfbench.configured"  # newer than the build file it configured
    if not configured.is_file() or \
            configured.stat().st_mtime < (HERE / "CMakeLists.txt").stat().st_mtime:
        log("configuring the Release build")
        run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   "build.log", timeout=300)
        configured.touch()
    run_logged(["cmake", "--build", BUILD, "-j", str(nproc()), "--target", *targets],
               "build.log", timeout=900)


def ensure_zoo():
    """Trains missing zoo checkpoints once; returns the seconds it took."""
    stamp = STATE / "zoo_train.json"
    if stamp.is_file():
        return json.loads(stamp.read_text())["train_s"]
    log("training the model zoo (once per checkout)")
    start = time.monotonic()
    run_logged([binary("perfbench_regen"), "--specs", ",".join(ALL_SPECS),
                "--store", WORK / "zoo", "--setup-only"], "zoo.log", timeout=800)
    train_s = time.monotonic() - start
    stamp.write_text(json.dumps({"train_s": train_s}))
    return train_s


def ensure_reference(name, specs, shift, fast):
    """The reference store for (specs, shift, scale): every spec run in
    its own process with one thread and plan replay off."""
    final = REFS / f"{name}-{'fast' if fast else 'full'}-{shift}"
    if (final / "COMPLETE").is_file():
        return final
    log(f"making reference {final.name} (plan off, one thread per process)")
    staging = final.with_name(final.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)
    shutil.rmtree(final, ignore_errors=True)
    staging.mkdir(parents=True)
    pending = list(specs)
    running = []
    while pending or running:
        while pending and len(running) < nproc():
            spec = pending.pop(0)
            cmd = [binary("perfbench_regen"), "--specs", spec, "--store", str(staging),
                   "--shift", str(shift), "--threads", "1", "--no-plan",
                   "--report", str(staging / f"report-{spec}.json")]
            if fast:
                cmd.append("--fast")
            out = open(LOGS / f"reference-{final.name}.log", "ab")
            running.append((spec, subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                                   env=child_env()), out))
        spec, proc, out = running.pop(0)
        code = proc.wait()
        out.close()
        if code != 0:
            raise BenchError(f"reference run of {spec} failed (exit {code})")
        report = json.loads((staging / f"report-{spec}.json").read_text())
        if not all(run["ok"] for run in report["runs"]):
            raise BenchError(f"reference run of {spec} threw: {report['runs']}")
    (staging / "COMPLETE").write_text("")
    staging.rename(final)
    return final


# -- the process under test ---------------------------------------------------

class Regeneration:
    """One perfbench_regen process, timed from outside."""

    def __init__(self, workload, shift, store, report, trace=None, setup_only=False):
        cmd = [binary("perfbench_regen"), "--specs", ",".join(workload.specs),
               "--store", str(store), "--shift", str(shift), "--threads", str(nproc()),
               "--report", str(report)]
        if workload.fast:
            cmd.append("--fast")
        if trace is not None:
            cmd += ["--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        shutil.rmtree(store, ignore_errors=True)
        with open(LOGS / "regen.log", "ab") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env())
            ready = proc.stdout.readline().split()
            self.setup_s = time.monotonic() - start
            done = b"" if setup_only else proc.stdout.readline().strip()
            self.tables_s = time.monotonic() - start - self.setup_s
            proc.stdout.read()
            proc.stdout.close()
            code, usage = wait_rusage(proc)
        if code != 0 or len(ready) != 2 or ready[0] != b"READY" or \
                (not setup_only and done != b"DONE"):
            raise BenchError(f"perfbench_regen failed (exit {code}); see {LOGS / 'regen.log'}")
        self.cpu_s = usage.ru_utime + usage.ru_stime - float(ready[1])
        self.rss_mb = rss_mb(usage)
        self.report = None if setup_only else json.loads(Path(report).read_text())


def check_documents(report, reference):
    """(attempted, failed): each spec run must succeed and its document
    bytes must equal the reference's document of the same key."""
    failed = 0
    for run in report["runs"]:
        if not run["ok"]:
            log(f"FAILED {run['spec']}: {run.get('error')}")
            failed += 1
            continue
        ref = reference / (run["key"] + ".json")
        if not ref.is_file() or ref.read_bytes() != Path(run["path"]).read_bytes():
            log(f"FAILED {run['spec']}: document {run['key']} differs from the reference")
            failed += 1
    return len(report["runs"]), failed


class Daemon:
    """pcss_serve on a Unix socket; set-up time runs from spawn to hello."""

    SOCKET = str(WORK / "serve.sock")

    def __init__(self, store, trace=None):
        cmd = [binary("pcss_serve"), "--socket", self.SOCKET, "--store", str(store), "--fast"]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        if os.path.exists(self.SOCKET):
            os.unlink(self.SOCKET)
        self._log = open(LOGS / "serve.log", "ab")
        start = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=self._log, stderr=self._log, env=child_env())
        try:
            while True:
                if self.proc.poll() is not None:
                    raise BenchError(f"pcss_serve exited early; see {LOGS / 'serve.log'}")
                if time.monotonic() - start > 120:
                    raise BenchError("pcss_serve sent no hello within 120 s")
                try:
                    header, _ = self.request(None)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    time.sleep(0.0002)  # fine-grained: set-up is a few ms
            if header.get("event") != "hello":
                raise BenchError(f"expected hello, got {header}")
            self.setup_s = time.monotonic() - start
        except BaseException:
            self.kill()
            raise

    def request(self, kind):
        """Connects, awaits hello, sends `kind` (None = hello only) and
        returns the (header, payload) of the first reply."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(60)
            sock.connect(self.SOCKET)
            framer = framing.Framer()
            hello = framing.read_event(sock, framer)
            if kind is None:
                return hello
            sock.sendall(json.dumps({"kind": kind}).encode() + b"\n")
            return framing.read_event(sock, framer)

    def stop(self):
        """Drains the daemon through the protocol; returns its rusage."""
        header, _ = self.request("shutdown")
        if header.get("event") != "shutdown":
            raise BenchError(f"shutdown refused: {header}")
        code, usage = wait_rusage(self.proc)
        self._log.close()
        if code != 0:
            raise BenchError(f"pcss_serve exited {code}; see {LOGS / 'serve.log'}")
        return usage

    @contextlib.contextmanager
    def killed_on_error(self):
        try:
            yield
        except BaseException:
            self.kill()
            raise

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            wait_rusage(self.proc)
        self._log.close()


def read_load(store, specs, seed, out, seconds=None, requests=None):
    cmd = [binary("perfbench_load"), "--socket", Daemon.SOCKET, "--store", str(store),
           "--specs", ",".join(specs), "--seed", str(seed), "--out", str(out)]
    cmd += ["--seconds", f"{seconds:.3f}"] if seconds else ["--requests", str(requests)]
    run_logged(cmd, "load.log", timeout=170)
    result = json.loads(Path(out).read_text())
    if result["completed"] == 0:
        raise BenchError("the read load completed no request")
    return result


def load_failures(result):
    return result["rejected"] + result["errors"] + result["mismatched"]


# -- provenance ---------------------------------------------------------------

def provenance(report):
    cpu_model, mhz = "unknown", None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu_model == "unknown":
                cpu_model = value.strip()
            if key.strip() == "cpu MHz" and mhz is None:
                mhz = float(value)
    except OSError:
        pass
    sha = None
    if Path(".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()  # identifies the source when there is no git
    for top in ("CMakeLists.txt", "src", "tools"):
        for path in sorted(Path(top).rglob("*")) if Path(top).is_dir() else [Path(top)]:
            if path.is_file():
                digest.update(str(path).encode() + b"\0" + path.read_bytes())
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        cache[key.split(":")[0]] = value
    compiler = Path(cache.get("CMAKE_CXX_COMPILER", "c++")).name
    version = next((line.split('"')[1] for path in (BUILD / "CMakeFiles").glob(
        "*/CMakeCXXCompiler.cmake") for line in path.read_text().splitlines()
        if line.startswith("set(CMAKE_CXX_COMPILER_VERSION")), "unknown")
    return {"nproc": nproc(), "cpu_model": cpu_model, "cpu_mhz": mhz,
            "simd_isa": report["simd_isa"], "git_sha": sha,
            "source_sha256": digest.hexdigest()[:16],
            "build_type": cache.get("CMAKE_BUILD_TYPE"), "compiler": f"{compiler} {version}"}


# -- the two kinds of run -----------------------------------------------------

def prepare(name, seed):
    build()
    train_s = ensure_zoo()
    workload = WORKLOADS[name]
    shift = 0 if workload.fast else SHIFT_STEP * (seed % SHIFT_CLASSES)
    reference = ensure_reference(name, workload.specs, shift, workload.fast)
    fast_store = ensure_reference("serve_reads", ALL_SPECS, 0, True)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    return workload, shift, reference, fast_store, train_s


def measure(name, seed, seconds):
    """--trace 0: the end-to-end metrics, tracing off."""
    workload, shift, reference, fast_store, _ = prepare(name, seed)
    attempted = failed = 0
    start = time.monotonic()
    # Reads come first: after a regeneration has kept every core busy for
    # tens of seconds, this host's read figures sag for a while.
    daemon = Daemon(fast_store)
    with daemon.killed_on_error():
        windows = [read_load(fast_store, ALL_SPECS, seed, WORK / "load.json",
                             seconds=workload.read_share * seconds / READ_WINDOWS)
                   for _ in range(READ_WINDOWS)]
    usage = daemon.stop()
    for window in windows:
        attempted += window["attempted"]
        failed += load_failures(window)

    setups, tables, cpus, rss = [], [], [], []
    rep = 0
    while rep == 0 or time.monotonic() - start < seconds:
        regen = Regeneration(workload, shift, WORK / f"store-{rep}", WORK / f"report-{rep}.json")
        a, f = check_documents(regen.report, reference)
        attempted, failed = attempted + a, failed + f
        setups.append(regen.setup_s)
        tables.append(regen.tables_s)
        cpus.append(regen.cpu_s)
        rss.append(regen.rss_mb)
        rep += 1
    report = regen.report

    if workload.fast:
        # serve_reads: the daemon is the process under test; its start-up
        # is the set-up.
        setups, rss = [daemon.setup_s], [rss_mb(usage)]
        while len(setups) < SETUPS:
            probe = Daemon(fast_store)
            setups.append(probe.setup_s)
            probe.stop()
    else:
        while len(setups) < SETUPS:
            setups.append(Regeneration(workload, shift, WORK / "setup-store",
                                       WORK / "setup-report.json", setup_only=True).setup_s)

    latencies = [us for window in windows for us in window["latencies_us"]]
    metrics = {
        "setup_s": (stats.median(setups), "s"),
        "tables_s": (stats.median(tables), "s"),
        "cpu_s": (stats.median(cpus), "s"),
        "peak_rss_mb": (stats.median(rss), "MB"),
        "read_p50_ms": (stats.median([stats.percentile(w["latencies_us"], 50)
                                      for w in windows]) / 1000.0, "ms"),
        "reads_per_s": (stats.median([w["completed"] / w["duration_s"] for w in windows]),
                        "1/s"),
    }
    # The client p99 is printed but not gated: on a shared host a few ms of
    # vCPU preemption in 2 runs of 10 moves it several-fold (LAYERS.md).
    extra = {"regenerations": rep, "setups": len(setups), "reads": len(latencies),
             "coalesced": sum(w["coalesced"] for w in windows),
             "read_p99_ms": stats.percentile(latencies, 99) / 1000.0}
    return report, attempted, failed, metrics, extra


def span_events(path):
    return json.loads(Path(path).read_text())["traceEvents"]


def span_totals_ms(events):
    totals = {}
    for e in events:
        totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"] / 1000.0
    return totals


def unattributed_share(events):
    """Share of runner.run_spec wall time during which no span of a layer
    below the runner (any span not named runner.*) is open on any thread."""
    below = sorted((e["ts"], e["ts"] + e["dur"]) for e in events
                   if not e["name"].startswith("runner."))
    total = covered = 0.0
    for root in (e for e in events if e["name"] == "runner.run_spec"):
        lo, hi = root["ts"], root["ts"] + root["dur"]
        total += hi - lo
        end = lo
        for a, b in below:
            if a >= hi:
                break
            b = min(b, hi)
            if b > end:
                covered += b - max(a, end)
                end = b
    return 1.0 - covered / total


def trace_run(name, seed, seconds):
    """--trace 1: the per-layer metrics."""
    workload, shift, reference, fast_store, train_s = prepare(name, seed)
    attempted = failed = 0
    plain = Regeneration(workload, shift, WORK / "store-0", WORK / "report-0.json")
    traced = Regeneration(workload, shift, WORK / "store-1", WORK / "report-1.json",
                          trace=WORK / "regen-trace.json")
    for regen in (plain, traced):
        a, f = check_documents(regen.report, reference)
        attempted, failed = attempted + a, failed + f
    report = traced.report
    counters = report["counters"]
    steps = counters["attack.steps"]
    events = span_events(WORK / "regen-trace.json")
    totals = span_totals_ms(events)
    forward, backward = totals.get("attack.forward", 0.0), totals.get("attack.backward", 0.0)
    step_total = totals["attack.step"]
    shards = [e["dur"] / 1000.0 for e in events
              if e["name"] == "runner.shard" and e.get("args", {}).get("cache_hit") == 0]
    pool = report["pool"]
    m = {
        "tensor.gemm_gflops": counters["tensor.gemm.flops"] / ((forward + backward) / 1e3) / 1e9,
        "tensor.gemm_flops_per_step": counters["tensor.gemm.flops"] / steps,
        "tensor.pool_acquires_per_step": pool["acquires"] / steps,
        "tensor.pool_hit_rate": pool["hits"] / pool["acquires"],
        "tensor.pool_cached_mb": pool["cached_mb"],
        "tensor.plan_replay_share": counters["plan.replays"] /
                                    (steps + sum(1 for e in events
                                                 if e["name"] == "attack.shared.grad")),
        "tensor.plan_fallbacks": counters["plan.fallbacks"],
        "models.forward_ms_per_step": forward / steps,
        "core.backward_ms_per_step": backward / steps,
        "core.overhead_share": (step_total - forward - backward) / step_total,
        "runner.busy_cores": (totals.get("attack.cloud", 0.0) +
                              totals.get("attack.shared.grad", 0.0)) /
                             totals["runner.run_spec"],
        "runner.shard_ms_p50": stats.median(shards),
        "runner.shard_ms_max": max(shards),
        "runner.straggler_ratio": max(shards) / stats.median(shards),
        "train.zoo_train_s": train_s,
        "obs.unattributed_share": unattributed_share(events),
    }
    tables_overhead = traced.tables_s / plain.tables_s - 1.0
    dropped = report["trace"]["dropped"]

    # Read side: the same fixed load untraced, then traced.
    daemon = Daemon(fast_store)
    with daemon.killed_on_error():
        plain_load = read_load(fast_store, ALL_SPECS, seed, WORK / "load-0.json",
                               requests=TRACE_READS)
    daemon.stop()
    daemon = Daemon(fast_store, trace=WORK / "serve-trace.json")
    with daemon.killed_on_error():
        load = read_load(fast_store, ALL_SPECS, seed, WORK / "load-1.json",
                         requests=TRACE_READS)
        _, payload = daemon.request("stats")
    daemon.stop()
    for result in (plain_load, load):
        attempted += result["attempted"]
        failed += load_failures(result)
    snapshot = json.loads(payload)
    hist = snapshot["histograms"]["serve.request_ms"]
    served = snapshot["counters"]
    server_p50 = stats.histogram_percentile(hist["bounds"], hist["counts"], 50)
    m.update({
        "serve.request_ms_p50": server_p50,
        "serve.request_ms_p99": stats.histogram_percentile(hist["bounds"], hist["counts"], 99),
        "serve.wire_ms_p50": stats.percentile(load["latencies_us"], 50) / 1000.0 - server_p50,
        "serve.client_ms_p99": stats.percentile(plain_load["latencies_us"], 99) / 1000.0,
        "serve.coalesced_share": served.get("serve.requests.coalesced", 0) /
                                 served["serve.requests.accepted"],
        "serve.rejected": served.get("serve.requests.rejected", 0),
    })
    request_spans = sum(1 for e in span_events(WORK / "serve-trace.json")
                        if e["name"] == "serve.request")
    # Coalesced reads ride on another request's job, which has the span.
    dropped += max(0, load["completed"] - load["coalesced"] - request_spans)
    reads_overhead = load["duration_s"] / plain_load["duration_s"] - 1.0
    m["obs.trace_overhead"] = reads_overhead if workload.fast else tables_overhead
    m["obs.trace_dropped"] = dropped

    run_logged([binary("perfbench_probe"), "--specs", ",".join(workload.specs),
                "--shift", str(shift), "--warm-store", fast_store,
                "--out", WORK / "probe.json"], "probe.log", timeout=170)
    m.update(json.loads((WORK / "probe.json").read_text()))

    metrics = {}
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        if metric["name"] not in m:
            raise BenchError(f"per-layer metric {metric['name']} was not measured")
        metrics[metric["name"]] = (m[metric["name"]], metric["unit"])
    extra = {"trace_events": len(events), "request_spans": request_spans}
    return report, attempted, failed, metrics, extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.chdir(ROOT)
    LOGS.mkdir(parents=True, exist_ok=True)
    run = trace_run if args.trace else measure
    try:
        before = cpu_jiffies()
        report, attempted, failed, metrics, extra = run(args.workload, args.seed, args.seconds)
        extra["steal_share"] = steal_share(before, cpu_jiffies())
    except (BenchError, stats.InsufficientSamples, framing.FramingError, OSError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "provenance": provenance(report), **extra}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
