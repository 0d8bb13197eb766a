"""End-to-end benchmark of publishing a privacy-preserving release.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it builds nothing: the system under test
is ``src/repro``, started as separate Python processes). Workloads:

* ``cli_mondrian`` — ``python -m repro in.csv out.csv --config job.json``
  on a 100k-row Adult-schema CSV (Mondrian strict, k=10 plus distinct
  l=3). Import and CSV I/O dominate; the lattice engine is not used.
* ``service_tenants`` — ``repro serve`` driven in a closed loop by two
  clients, one per tenant: submit a job with inline 20k-row CSV, poll
  until done, fetch the release. Exercises the HTTP front, queue, data
  cache and warm tenant stores, and through Flash/OLA jobs the lattice
  engine, its cache, the privacy verdicts and (on the first job of each
  environment) the utility metrics.

With ``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric; with ``--trace 1`` half of the time runs untraced and
half with span wrappers installed in the process under test, and the result
holds the per-layer table. The lines above it are a human-readable table.
Outputs are checked independently (``check.py``) and across entry points;
any failed or wrong op is counted in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PYTHON = sys.executable
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

#: End-to-end metrics: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_per_op_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: Set-up samples per run; the median is reported.
SETUP_REPEATS = 3
#: Hard stop: every child is killed and the run fails well inside 180 s.
WATCHDOG_SECONDS = 170

L = 3
SENSITIVE = "occupation"


class Run:
    """State of one benchmark run: its work directory and child processes."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.started = time.perf_counter()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".perfbench-work", f"{workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.children: list[subprocess.Popen] = []
        self.setup: list[float] = []
        self.ops: list[dict] = []  # untraced ops
        self.traced_ops: list[dict] = []
        self.busy_s = 0.0  # wall seconds the untraced ops ran, for ops_per_s
        self.cpu_s = 0.0  # CPU of the process(es) under test over those ops
        self.peak_rss_mb = 0.0
        self.rejected = 0
        self.problems: list[str] = []
        self.layers: dict = {}
        self.crosschecks: list[str] = []
        self.notes: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def spawn(self, cmd, stdout=subprocess.DEVNULL, name="child",
              cpus=None) -> subprocess.Popen:
        """Start ``cmd``; with ``cpus``, confined to those CPUs from its start."""
        err = open(self.path(f"{name}-{len(self.children)}.stderr"), "wb")
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        try:
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=stdout,
                                    stderr=err, text=stdout == subprocess.PIPE,
                                    preexec_fn=pin)
        finally:
            err.close()
        proc.stderr_path = err.name
        self.children.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen):
        """Wait for ``proc``; (exit code, rusage of that process)."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(proc)
        return proc.returncode, usage

    def stderr_tail(self, proc) -> str:
        with open(proc.stderr_path, "rb") as handle:
            return handle.read()[-400:].decode(errors="replace").strip()

    def time_ready(self, cmd, marker: str, keep: bool = False, cpus=None):
        """Seconds from spawning ``cmd`` to its ``marker`` line on stdout."""
        start = time.perf_counter()
        proc = self.spawn(cmd, stdout=subprocess.PIPE, name="setup", cpus=cpus)
        line = ""
        while marker not in line:
            line = proc.stdout.readline()
            if not line:
                self.reap(proc)
                raise RuntimeError(f"{cmd[1:3]} exited before {marker!r}: "
                                   f"{self.stderr_tail(proc)}")
        elapsed = time.perf_counter() - start
        if not keep:
            proc.stdout.close()
            code, _ = self.reap(proc)
            if code != 0:
                raise RuntimeError(f"set-up process exited {code}: {self.stderr_tail(proc)}")
        return elapsed, proc, line.strip()

    def close(self) -> None:
        for proc in list(self.children):  # only left running after an error
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=10)
            except (subprocess.TimeoutExpired, ChildProcessError):
                pass
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


# -- statistics ---------------------------------------------------------------


def tail(latencies):
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, or None when there are fewer than 11 samples."""
    n = len(latencies)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(latencies)[rank - 1]


def end_to_end(run: Run) -> dict:
    ok = [op for op in run.ops if not op.get("error")]
    latencies = [op["end"] - op["start"] for op in ok]
    if not latencies:
        raise RuntimeError("no op completed: " + "; ".join(
            sorted({op["error"] for op in run.ops})[:3]))
    return {
        "setup_s": statistics.median(run.setup),
        "op_p50_s": statistics.median(latencies),
        "ops_per_s": len(ok) / run.busy_s,
        "cpu_per_op_s": run.cpu_s / len(run.ops),
        "peak_rss_mb": run.peak_rss_mb,
    }


# -- per-layer attribution -----------------------------------------------------

#: Span name -> layer metric (self time).
LAYER_OF = {
    "import.repro": "import.repro_s",
    "io.read_csv": "io.read_csv_s",
    "io.write_csv": "io.write_csv_s",
    "config.build_env": "config.build_env_s",
    "executor.run": "executor.self_s",
    "executor.run_batch": "executor.self_s",
    "executor.execute": "executor.self_s",
    "algorithms.anonymize": "algorithms.anonymize_self_s",
    "engine.stats": "engine.stats_s",
    "privacy.verdict": "privacy.verdict_s",
    "recode": "recode_s",
    "service.data_load": "service.data_load_s",
}
METRIC_NAMES = ("gcp", "discernibility", "non_uniform_entropy")
CACHE_KEYS = ("hits", "misses", "from_rows", "rollups", "evictions",
              "recomputed_after_evict")
PARTITION_KEYS = ("histogram_splits", "histogram_scans", "checks_fast",
                  "checks_legacy", "raw_rescans")
SERVICE_TIMES = ("http_submit_s", "queue_wait_s", "run_s", "release_fetch_s",
                 "poll_slack_s")
#: Per-layer metrics: (name, unit), every one reported on every workload.
PER_LAYER = (
    [(name, "s") for name in dict.fromkeys(LAYER_OF.values())]
    + [("engine.stats_calls", "count"), ("privacy.verdict_calls", "count"),
       ("metrics.compute_s", "s")]
    + [(f"metrics.{name}_s", "s") for name in METRIC_NAMES]
    + [(f"cache.{key}", "count") for key in CACHE_KEYS]
    + [("cache.lookups", "count"), ("cache.hit_ratio", "ratio")]
    + [(f"partition.{key}", "count") for key in PARTITION_KEYS]
    + [("partition.checks", "count"), ("partition.fast_ratio", "ratio")]
    + [(f"service.{name}", "s") for name in SERVICE_TIMES]
    + [("service.tenant_evictions", "count"), ("service.resident_environments", "count"),
       ("service.resident_cache_mb", "MB"), ("service.rejected_503", "count")]
    + [("other_s", "s"), ("trace.ops", "count"), ("trace.untraced_p50_s", "s"),
       ("trace.traced_p50_s", "s"), ("trace.overhead_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


def union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def attribute(dumps, ops) -> tuple[dict, dict]:
    """Per-op mean self time per layer, span counts, and per-op root spans.

    ``dumps`` are span lists from one or more traced processes; each op
    has a ``rid`` and a ``start``/``end``. Self time is a span's duration
    minus its direct children's (children on one thread never overlap).
    """
    rids = {op["rid"] for op in ops}
    sums = {name: 0.0 for name, unit in PER_LAYER if unit == "s"}
    calls = {"engine.stats": 0, "privacy.verdict": 0}
    roots: dict = {rid: [] for rid in rids}
    for spans in dumps:
        by_id = {span[0]: span for span in spans}
        child_time: dict = {}
        for sid, name, start, end, parent, rid in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for sid, name, start, end, parent, rid in spans:
            root = (sid, name, start, end, parent, rid)
            while root[4]:
                root = by_id[root[4]]
            if root[5] not in rids:
                continue
            if not parent:
                roots[rid].append((start, end))
            own = (end - start) - child_time.get(sid, 0.0)
            if name.startswith("metrics.compute."):
                sums["metrics.compute_s"] += own
                metric = f"metrics.{name.rsplit('.', 1)[1]}_s"
                if metric in sums:
                    sums[metric] += own
            elif name in LAYER_OF:
                sums[LAYER_OF[name]] += own
            if name in calls:
                calls[name] += 1
    n = len(ops)
    layers = {name: value / n for name, value in sums.items()}
    layers["engine.stats_calls"] = calls["engine.stats"] / n
    layers["privacy.verdict_calls"] = calls["privacy.verdict"] / n
    return layers, roots


def finish_layers(run: Run, layers: dict, roots: dict, counters: dict) -> None:
    """Fill ``run.layers``: other time, counters with their bases, overhead."""
    traced = [op for op in run.traced_ops if not op.get("error")]
    other = [
        (op["end"] - op["start"]) - union_length(
            [(max(lo, op["start"]), min(hi, op["end"]))
             for lo, hi in roots.get(op["rid"], []) if hi > op["start"] and lo < op["end"]])
        for op in traced
    ]
    layers["other_s"] = statistics.fmean(other) if other else 0.0
    n = max(len(traced), 1)
    for key in CACHE_KEYS:
        layers[f"cache.{key}"] = counters.get(f"cache.{key}", 0) / n
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    layers["cache.lookups"] = lookups / n
    layers["cache.hit_ratio"] = counters.get("cache.hits", 0) / lookups if lookups else 0.0
    for key in PARTITION_KEYS:
        layers[f"partition.{key}"] = counters.get(f"partition.{key}", 0) / n
    checks = counters.get("partition.checks_fast", 0) + counters.get("partition.checks_legacy", 0)
    layers["partition.checks"] = checks / n
    layers["partition.fast_ratio"] = (
        counters.get("partition.checks_fast", 0) / checks if checks else 0.0)
    for name in SERVICE_TIMES:
        layers.setdefault(f"service.{name}", 0.0)
    for name in ("tenant_evictions", "resident_environments", "resident_cache_mb"):
        layers.setdefault(f"service.{name}", 0)
    layers["service.rejected_503"] = run.rejected
    untraced = [op["end"] - op["start"] for op in run.ops if not op.get("error")]
    traced_lat = [op["end"] - op["start"] for op in traced]
    layers["trace.ops"] = len(traced)
    layers["trace.untraced_p50_s"] = statistics.median(untraced) if untraced else 0.0
    layers["trace.traced_p50_s"] = statistics.median(traced_lat) if traced_lat else 0.0
    layers["trace.overhead_s"] = layers["trace.traced_p50_s"] - layers["trace.untraced_p50_s"]
    layers["trace.overhead_ratio"] = (
        layers["trace.overhead_s"] / layers["trace.untraced_p50_s"]
        if layers["trace.untraced_p50_s"] else 0.0)
    run.layers = layers


def add_counters(totals: dict, prefix: str, values: dict | None, keys) -> None:
    for key in keys:
        totals[f"{prefix}.{key}"] = totals.get(f"{prefix}.{key}", 0) + (values or {}).get(key, 0)


def import_seconds(spans) -> float:
    """Import time of a long-lived process under test: set-up every op shares."""
    return sum(span[3] - span[2] for span in spans if span[1] == "import.repro")


def load_spans(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


# -- cli_mondrian ----------------------------------------------------------------

CLI_ROWS = 100_000
CLI_QIS = ["workclass", "education", "marital_status", "race", "sex", "native_country"]
CLI_NUMERIC = ["age", "hours_per_week"]
CLI_K = 10


def mondrian_job(specs: dict, qis, numeric, k: int) -> dict:
    return {
        "quasi_identifiers": list(qis),
        "numeric_quasi_identifiers": list(numeric),
        "sensitive": [SENSITIVE],
        "hierarchies": {c: specs[c] for c in list(qis) + list(numeric) if c in specs},
        "models": [
            {"model": "k-anonymity", "k": k},
            {"model": "distinct-l-diversity", "l": L, "sensitive": SENSITIVE},
        ],
        "algorithm": {"algorithm": "mondrian", "mode": "strict"},
    }


def reference_release(csv_path: str, job: dict) -> bytes:
    """``write_csv(run(config, read_csv(...)).release.table)`` in this process."""
    from repro.api import AnonymizationConfig, run
    from repro.core.io import read_csv, write_csv

    table = read_csv(csv_path, categorical=gen.CATEGORICAL, numeric=gen.NUMERIC)
    out = csv_path + ".reference.csv"
    write_csv(run(AnonymizationConfig.from_dict(job), table).release.table, out)
    with open(out, "rb") as handle:
        data = handle.read()
    os.unlink(out)
    return data


def cli_mondrian(run: Run) -> None:
    from repro.data import adult_hierarchy_specs

    with open(run.path("in.csv"), "w") as handle:
        handle.write(gen.adult_csv(CLI_ROWS, run.seed))
    job = mondrian_job(adult_hierarchy_specs(), CLI_QIS, CLI_NUMERIC, CLI_K)
    with open(run.path("job.json"), "w") as handle:
        json.dump(job, handle)
    launcher = os.path.join(HERE, "launch.py")
    for _ in range(SETUP_REPEATS if not run.trace else 1):
        run.setup.append(run.time_ready([PYTHON, launcher, "--ready"], "ready")[0])

    def phase(seconds: float, traced: bool) -> list[dict]:
        ops = []
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            index = len(run.ops) + len(run.traced_ops) + len(ops)
            args = ["in.csv", f"out-{index}.csv", "--config", "job.json"]
            if traced:
                cmd = [PYTHON, launcher, "--trace", f"spans-{index}.json",
                       "--rid", f"op-{index}", "--", *args]
            else:
                cmd = [PYTHON, "-m", "repro", *args]
            start = time.perf_counter()
            proc = run.spawn(cmd, name="cli")
            code, usage = run.reap(proc)
            end = time.perf_counter()
            ops.append({
                "rid": f"op-{index}", "start": start, "end": end,
                "out": f"out-{index}.csv", "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "error": None if code == 0 else f"exit {code}: {run.stderr_tail(proc)}",
            })
        return ops

    run.ops = phase(run.seconds / 2 if run.trace else run.seconds, traced=False)
    if run.trace:
        run.traced_ops = phase(run.seconds / 2, traced=True)
    run.busy_s = run.ops[-1]["end"] - run.ops[0]["start"]
    run.cpu_s = sum(op["cpu"] for op in run.ops)
    run.peak_rss_mb = max(op["rss_mb"] for op in run.ops)

    reference = reference_release(run.path("in.csv"), job)
    problems = check.check_release(reference, CLI_QIS + CLI_NUMERIC, SENSITIVE, CLI_K, L,
                                   max_rows=CLI_ROWS)
    run.problems.extend(f"reference release: {p}" for p in problems)
    for op in run.ops + run.traced_ops:
        if op["error"]:
            continue
        with open(run.path(op["out"]), "rb") as handle:
            published = handle.read()
        if published != reference:
            op["error"] = "CLI output differs from write_csv(run(...))"
        elif problems:
            op["error"] = "release fails the independent check"
        os.unlink(run.path(op["out"]))

    if run.trace:
        dumps, counters = [], {}
        results = []
        for op in run.traced_ops:
            if op["error"]:
                continue
            data = load_spans(run.path(f"spans-{op['rid'].split('-')[1]}.json"))
            dumps.append(data["spans"])
            for note in data["notes"]:
                add_counters(counters, "cache", note.get("engine_cache"), CACHE_KEYS)
                add_counters(counters, "partition", note.get("partition_cache"),
                             PARTITION_KEYS)
                results.append(note.get("partition_cache"))
        if len({json.dumps(r, sort_keys=True) for r in results}) > 1:
            run.crosschecks.append("partition counters differ between identical runs")
        layers, roots = attribute(dumps, [op for op in run.traced_ops if not op["error"]])
        finish_layers(run, layers, roots, counters)


# -- service_tenants --------------------------------------------------------------

SERVICE_ROWS = 20_000
#: Datasets in the pool; more than the service's parsed-table cache holds.
POOL = 10
TENANTS = ("tenant-a", "tenant-b")
POLL_SECONDS = 0.05
#: The server keeps every job's result, so its peak RSS grows with the jobs
#: served; it is read once this many jobs are done (or after the phase, if
#: fewer were), so it does not follow throughput.
RSS_AFTER_JOBS = 60
ENV_A = ["workclass", "education", "marital_status"]
ENV_B = ["education", "race", "sex", "native_country"]


def service_jobs(specs: dict) -> list[dict]:
    """One dataset visit: a client sends these jobs in order, then moves to
    the next dataset of the pool.

    The first job of each environment fills a cold store from rows (the
    first job of a visit may also parse the CSV); the Mondrian job
    recomputes every time. The other seven are Flash jobs on a warm store,
    a clear majority, so the median op is a warm one. The first job of each
    environment requests the utility metrics, so the ``metrics`` layer runs
    twice per visit.
    """

    def lattice(algorithm, qis, k, metrics=()):
        return {
            "quasi_identifiers": qis,
            "numeric_quasi_identifiers": ["age"],
            "sensitive": [SENSITIVE],
            "hierarchies": {c: specs[c] for c in qis + ["age"]},
            "models": [
                {"model": "k-anonymity", "k": k},
                {"model": "distinct-l-diversity", "l": L, "sensitive": SENSITIVE},
            ],
            "algorithm": {"algorithm": algorithm},
            "metrics": list(metrics),
        }

    return [
        lattice("flash", ENV_A, 10, METRIC_NAMES),
        lattice("flash", ENV_A, 25),
        lattice("flash", ENV_A, 5),
        lattice("flash", ENV_A, 50),
        mondrian_job(specs, ["education", "marital_status", "sex"], ["age"], 10),
        lattice("ola", ENV_B, 10, METRIC_NAMES),
        lattice("flash", ENV_B, 25),
        lattice("flash", ENV_B, 5),
        lattice("flash", ENV_B, 50),
        lattice("flash", ENV_A, 10),
    ]


def job_qis(job: dict) -> list[str]:
    return job["quasi_identifiers"] + job["numeric_quasi_identifiers"]


class Client:
    """Minimal HTTP client for the service API (one tenant)."""

    def __init__(self, base: str, tenant: str):
        self.base = base
        self.tenant = tenant

    def request(self, method: str, path: str, body: bytes | None = None) -> bytes:
        request = urllib.request.Request(
            self.base + path, data=body, method=method,
            headers={"Content-Type": "application/json", "X-Tenant": self.tenant})
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.read()

    def json(self, method: str, path: str, body: bytes | None = None):
        return json.loads(self.request(method, path, body))


def proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def drive(run: Run, base: str, seconds: float, jobs: list[dict], csv_json: list[str],
          prefix: str, rss_pid: int | None = None) -> list[dict]:
    """Two closed-loop clients for ``seconds``, on the client CPUs of
    :func:`split_cpus`; returns every attempted op.
    With ``rss_pid``, sets ``run.peak_rss_mb`` from that process once
    ``RSS_AFTER_JOBS`` ops are done."""
    ops: list[dict] = []
    lock = threading.Lock()
    client_cpus = split_cpus()[1]
    own_cpus = os.sched_getaffinity(0)
    if client_cpus is not None:
        os.sched_setaffinity(0, client_cpus)  # client threads inherit it
    begin = time.perf_counter()

    def client_loop(tenant: str) -> None:
        client = Client(base, tenant)
        index = 0
        while time.perf_counter() - begin < seconds:
            dataset = (index // len(jobs)) % POOL
            kind = index % len(jobs)
            index += 1
            body = ('{"config": ' + json.dumps(jobs[kind]) + ', "data": {"csv": '
                    + csv_json[dataset] + ', "categorical": ' + json.dumps(gen.CATEGORICAL)
                    + ', "numeric": ' + json.dumps(gen.NUMERIC) + '}}').encode()
            op = {"tenant": tenant, "dataset": dataset, "kind": kind, "error": None}
            op["start"] = time.perf_counter()
            try:
                job_id = client.json("POST", "/v1/jobs", body)["job_id"]
                op["rid"] = job_id
                op["submitted"] = time.perf_counter()
                while True:
                    record = client.json("GET", f"/v1/jobs/{job_id}")
                    if record["status"] in ("done", "failed"):
                        break
                    time.sleep(POLL_SECONDS)
                op["waited"] = time.perf_counter()
                op["waited_wall"] = time.time()
                op["record"] = record
                if record["status"] != "done":
                    op["error"] = f"job failed: {record.get('error')}"
                else:
                    op["release"] = client.request("GET", f"/v1/jobs/{job_id}/release")
            except urllib.error.HTTPError as exc:
                if exc.code == 503:
                    with lock:
                        run.rejected += 1
                op["error"] = f"HTTP {exc.code}"
            except Exception as exc:  # any other failure is a failed op, not a lost client
                op["error"] = f"{type(exc).__name__}: {exc}"
            op["end"] = time.perf_counter()
            op.setdefault("rid", f"{prefix}-{tenant}-{index}")
            with lock:
                ops.append(op)
                if rss_pid is not None and len(ops) == RSS_AFTER_JOBS:
                    run.peak_rss_mb = vm_hwm_mb(rss_pid)

    threads = [threading.Thread(target=client_loop, args=(t,), daemon=True) for t in TENANTS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    os.sched_setaffinity(0, own_cpus)
    ops.sort(key=lambda op: op["start"])
    return ops


def stop_server(run: Run, proc: subprocess.Popen):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
    if proc in run.children:
        run.children.remove(proc)
    proc.stdout.close()
    return proc.returncode


def split_cpus():
    """(server CPUs, client CPUs), or (None, None) with fewer than two CPUs.

    The server gets one CPU and the clients the rest. Its job threads share
    one interpreter lock, so it runs about one CPU's worth of Python either
    way; on one CPU, handing the lock between its threads needs no
    cross-CPU wake-up, which on a busy shared host was seen to stretch
    latency well beyond the CPU time spent. A change that runs jobs in worker processes
    inherits the pin and would need it revisited.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


def serve(run: Run, cmd, keep: bool):
    elapsed, proc, banner = run.time_ready(cmd, "listening on", keep=keep,
                                           cpus=split_cpus()[0])
    return elapsed, proc, banner.rsplit(" ", 1)[1]


def service_tenants(run: Run) -> None:
    from repro.data import adult_hierarchy_specs

    jobs = service_jobs(adult_hierarchy_specs())
    csv_text = [gen.adult_csv(SERVICE_ROWS, run.seed * 1000 + d) for d in range(POOL)]
    csv_json = [json.dumps(text) for text in csv_text]
    serve_args = ["serve", "--port", "0", "--queue-workers", "2"]
    untraced_cmd = [PYTHON, "-m", "repro", *serve_args]
    for _ in range((SETUP_REPEATS if not run.trace else 1) - 1):
        elapsed, proc, _ = serve(run, untraced_cmd, keep=True)
        run.setup.append(elapsed)
        stop_server(run, proc)
    elapsed, proc, base = serve(run, untraced_cmd, keep=True)
    run.setup.append(elapsed)

    seconds = run.seconds / 2 if run.trace else run.seconds
    cpu_start = proc_cpu_seconds(proc.pid)
    run.ops = drive(run, base, seconds, jobs, csv_json, "u", rss_pid=proc.pid)
    run.cpu_s = proc_cpu_seconds(proc.pid) - cpu_start
    run.busy_s = max(op["end"] for op in run.ops) - run.ops[0]["start"]
    if len(run.ops) < RSS_AFTER_JOBS:
        run.peak_rss_mb = vm_hwm_mb(proc.pid)
    if stop_server(run, proc) != 0:
        run.problems.append(f"service exited {proc.returncode}: {run.stderr_tail(proc)}")

    if run.trace:
        launcher = os.path.join(HERE, "launch.py")
        _, proc, base = serve(run, [PYTHON, launcher, "--trace", "spans.json", "--",
                                    *serve_args], keep=True)
        metrics_client = Client(base, TENANTS[0])
        before = metrics_client.json("GET", "/metrics")
        run.traced_ops = drive(run, base, run.seconds / 2, jobs, csv_json, "t")
        after = metrics_client.json("GET", "/metrics")
        stop_server(run, proc)

    checks_start = time.perf_counter()
    check_service_releases(run, jobs, csv_text)
    run.notes.append(f"release checks took {time.perf_counter() - checks_start:.1f} s")
    if run.trace:
        service_layers(run, load_spans(run.path("spans.json")), before, after)


def check_service_releases(run: Run, jobs, csv_text) -> None:
    """Independent check of every release, agreement across repeats, with
    ``run()`` and with the CLI on the first dataset."""
    done = [op for op in run.ops + run.traced_ops if op.get("release") is not None]
    by_pair: dict = {}
    for op in done:
        op["digest"] = hashlib.sha256(op["release"]).hexdigest()
        by_pair.setdefault((op["dataset"], op["kind"]), set()).add(op["digest"])
    verdicts: dict = {}  # (digest, kind) -> problems; kind fixes k and the QIs
    for op in done:
        if (op["digest"], op["kind"]) not in verdicts:
            job = jobs[op["kind"]]
            verdicts[op["digest"], op["kind"]] = check.check_release(
                op["release"], job_qis(job), SENSITIVE, job["models"][0]["k"], L,
                max_rows=SERVICE_ROWS)
    path = run.path("dataset-0.csv")
    with open(path, "w") as handle:
        handle.write(csv_text[0])
    references = {
        (0, kind): hashlib.sha256(reference_release(path, jobs[kind])).hexdigest()
        for kind in sorted({kind for dataset, kind in by_pair if dataset == 0})
    }
    mondrian = next(i for i, job in enumerate(jobs) if job["algorithm"]["algorithm"] == "mondrian")
    if (0, mondrian) in references:
        with open(run.path("mondrian.json"), "w") as handle:
            json.dump(jobs[mondrian], handle)
        proc = run.spawn([PYTHON, "-m", "repro", "dataset-0.csv", "cli-out.csv",
                          "--config", "mondrian.json"], name="cli")
        code, _ = run.reap(proc)
        if code != 0:
            run.problems.append(f"CLI exited {code} on dataset 0: {run.stderr_tail(proc)}")
        else:
            with open(run.path("cli-out.csv"), "rb") as handle:
                cli_digest = hashlib.sha256(handle.read()).hexdigest()
            if cli_digest != references[(0, mondrian)]:
                run.problems.append("CLI output differs from write_csv(run(...)) on dataset 0")
    for op in done:
        pair = (op["dataset"], op["kind"])
        problems = verdicts[op["digest"], op["kind"]]
        missing = set(jobs[op["kind"]].get("metrics", [])) - set(
            op["record"].get("result", {}).get("metrics", {}))
        if problems:
            op["error"] = "release fails the independent check: " + problems[0]
        elif missing:
            op["error"] = f"requested metrics missing from the job record: {sorted(missing)}"
        elif len(by_pair[pair]) > 1:
            op["error"] = "release differs between repeats of one job"
        elif pair in references and references[pair] != op["digest"]:
            op["error"] = "service release differs from write_csv(run(...))"
        del op["release"]


def service_layers(run: Run, data: dict, before: dict, after: dict) -> None:
    ops = [op for op in run.traced_ops if not op.get("error")]
    layers, roots = attribute([data["spans"]], ops)
    layers["import.repro_s"] = import_seconds(data["spans"])
    for op in ops:
        record = op["record"]
        op["queue_wait"] = record["started_at"] - record["enqueued_at"]
        op["run"] = record["finished_at"] - record["started_at"]
        op["poll_slack"] = op["waited_wall"] - record["finished_at"]
        # Queue wait has no span; place it on the monotonic clock through
        # the client's wall/monotonic pair. HTTP transport, JSON and polling
        # stay uncovered: that is what other_s reports for this workload.
        shift = op["waited"] - op["waited_wall"]
        roots[op["rid"]].append((record["enqueued_at"] + shift, record["started_at"] + shift))
    n = max(len(ops), 1)
    layers["service.http_submit_s"] = sum(op["submitted"] - op["start"] for op in ops) / n
    layers["service.queue_wait_s"] = sum(op["queue_wait"] for op in ops) / n
    layers["service.run_s"] = sum(op["run"] for op in ops) / n
    layers["service.poll_slack_s"] = sum(op["poll_slack"] for op in ops) / n
    layers["service.release_fetch_s"] = sum(op["end"] - op["waited"] for op in ops) / n
    counters: dict = {}
    rid_of_span = {}
    by_id = {span[0]: span for span in data["spans"]}
    for span in data["spans"]:
        root = span
        while root[4]:
            root = by_id[root[4]]
        rid_of_span[span[0]] = root[5]
    last_after: dict = {}
    records = {op["rid"]: op["record"] for op in ops}
    for note in data["notes"]:
        rid = rid_of_span.get(note["span"])
        last_after[note["store"]] = note["after"]
        if rid not in records:
            continue
        add_counters(counters, "cache", note["delta"], CACHE_KEYS)
        public = records[rid].get("result", {}).get("engine_cache")
        if public is not None and any(
                public[k] != note["after"][k] for k in ("hits", "misses", "from_rows", "rollups")):
            run.crosschecks.append(f"{rid}: job record engine_cache != warm store counters")
    for op in ops:
        add_counters(counters, "partition",
                     op["record"].get("result", {}).get("partition_cache"), PARTITION_KEYS)
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    if round(layers["engine.stats_calls"] * len(ops)) != lookups:
        run.crosschecks.append(
            f"LatticeEvaluator.stats calls {layers['engine.stats_calls'] * len(ops):.0f}"
            f" != warm-store hits+misses {lookups}")
    for name, tenant in after["caches"]["tenants"].items():
        for fp, env in tenant["environments"].items():
            seen = last_after.get(f"{name}/{fp}")
            if seen is not None and any(
                    env["counters"][k] != seen[k] for k in ("hits", "misses", "from_rows", "rollups")):
                run.crosschecks.append(f"/metrics environment {fp} counters != last job's")
    evictions = sum(after["caches"]["counters"].values()) - sum(before["caches"]["counters"].values())
    layers["service.tenant_evictions"] = evictions / n
    resident = [env for tenant in after["caches"]["tenants"].values()
                for env in tenant["environments"].values()]
    layers["service.resident_environments"] = len(resident)
    layers["service.resident_cache_mb"] = sum(env["bytes"] for env in resident) / 2**20
    completed = after["jobs"]["completed"] - before["jobs"]["completed"]
    if completed != len(ops):
        run.crosschecks.append(f"/metrics completed {completed} != {len(ops)} ops done")
    for key, mine in (("run_seconds", "run"), ("queue_seconds", "queue_wait")):
        count = after[key]["count"] - before[key]["count"]
        total = after[key]["sum"] - before[key]["sum"]
        own = sum(op[mine] for op in ops)
        if count != len(ops) or abs(total - own) > 1e-3 + 1e-3 * own:
            run.crosschecks.append(
                f"/metrics {key} count={count} sum={total:.4f} != records {len(ops)} {own:.4f}")
    finish_layers(run, layers, roots, counters)


WORKLOADS = {
    "cli_mondrian": cli_mondrian,
    "service_tenants": service_tenants,
}


# -- report ------------------------------------------------------------------------


def report(run: Run) -> dict:
    attempted = len(run.ops) + len(run.traced_ops)
    failed = sum(1 for op in run.ops + run.traced_ops if op.get("error"))
    errors = sorted({op["error"] for op in run.ops + run.traced_ops if op.get("error")})
    print(f"workload {run.workload} seed {run.seed} seconds {run.seconds:g} "
          f"trace {int(run.trace)} nproc {os.cpu_count()} "
          f"python {sys.version.split()[0]} numpy {gen.np.__version__}")
    if run.workload == "service_tenants":
        server_cpus, client_cpus = split_cpus()
        print(f"load: closed loop, {len(TENANTS)} clients (one per tenant), "
              f"poll {POLL_SECONDS}s, server CPUs {sorted(server_cpus or [])}, "
              f"client CPUs {sorted(client_cpus or [])}")
        for kind in sorted({op["kind"] for op in run.ops}):
            lat = [op["end"] - op["start"] for op in run.ops
                   if op["kind"] == kind and not op.get("error")]
            if lat:
                print(f"  job kind {kind}: {len(lat)} ops, p50 {statistics.median(lat):.4f} s")
    print(f"ops: attempted {attempted} failed {failed} rejected(503) {run.rejected} "
          f"failed_ratio {failed / attempted:.4f} (base {attempted})")
    for note in run.notes:
        print(f"  {note}")
    for error in errors[:5]:
        print(f"  error: {error}")
    for problem in run.problems[:5]:
        print(f"  check: {problem}")
    for problem in run.crosschecks[:5]:
        print(f"  counter mismatch: {problem}")
    if run.trace:
        metrics = {name: {"value": run.layers[name], "unit": unit} for name, unit in PER_LAYER}
        print(f"per-layer, mean per traced op ({run.layers['trace.ops']} ops):")
    else:
        values = end_to_end(run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        latencies = [op["end"] - op["start"] for op in run.ops if not op.get("error")]
        high = tail(latencies)
        print(f"end-to-end ({len(latencies)} ops, {len(run.setup)} set-ups):")
        if len(latencies) <= 12:
            print("  op latencies: " + " ".join(f"{x:.3f}" for x in latencies))
        print(f"  {'op_tail_s':24s} " + (
            f"{high[1]:12.6f} s  (p{high[0]:.1f})" if high
            else f"{'n/a':>12s}    (fewer than 11 ops)"))
    for name, metric in metrics.items():
        print(f"  {name:24s} {metric['value']:12.6f} {metric['unit']}")
    print(f"run took {time.perf_counter() - run.started:.1f} s "
          f"(set-up, {run.seconds:g} s of ops, checks)")
    correct = not run.problems and not run.crosschecks and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    def expire(signum, frame):
        raise TimeoutError(f"benchmark exceeded {WATCHDOG_SECONDS}s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_SECONDS)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        WORKLOADS[args.workload](run)
        result = report(run)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        run.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
