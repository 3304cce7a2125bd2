#!/usr/bin/env python3
"""End-to-end benchmark of the SCMO compiler library.

Builds the worker (perfbench/scmobench.cpp, linked against the library in
src/) from source, then runs one workload as a closed loop: a single client
that issues one operation at a time, each in a fresh worker process.

    python3 perfbench/run.py --workload cmo-offload --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --check          # every workload's checks, no timing

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from a separate traced run. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUPS = 3            # set-ups per run; setup_s is their median
CMO_MEM_MIB = "4"     # --machine-mem of cmo-offload
CHILD_TIMEOUT = 120   # seconds before a hung worker is killed

WORKLOADS = {
    # Whole-program +O4 under a 4 MiB machine memory: NAIM, bytecode and
    # HLO WPA/LTRANS carry the build; the analysis streams through the same
    # loader read-only.
    "cmo-offload": {"mem": CMO_MEM_MIB, "pbo": False, "incremental": False},
    # +O4 +P at 5% selectivity, default memory: profile correlation,
    # selectivity, LLO and link carry the build; NAIM idles.
    "pbo-select": {"mem": None, "pbo": True, "incremental": False},
    # A seeded one-module edit, then an incremental +O4 +P rebuild and an
    # incremental analysis: frontend and caches carry the work.
    "edit-loop": {"mem": None, "pbo": True, "incremental": True},
}

# Build-result field or stage -> per-layer metric.
BUILD_STAGE_METRICS = {
    "profile.correlate_s": "correlate", "hlo.selectivity_s": "selectivity",
    "hlo.wpa_s": "wpa", "hlo.ltrans_s": "ltrans", "llo.s": "llo",
    "link.s": "link", "driver.verify_s": "verify",
    "cache.plan_s": "cache-plan", "cache.store_s": "cache-store",
}
BUILD_FIELD_METRICS = {
    "frontend.s": "frontend_s", "hlo.wpa_peak_mib": "wpa_peak_mib",
    "hlo.inline_sites": "inline_sites",
    "hlo.routines_optimized": "routines_optimized",
    "naim.compactions": "compactions", "naim.offloads": "offloads",
    "naim.fetches": "fetches", "naim.expansions": "expansions",
    "naim.contentions": "contentions", "naim.stored_mib": "stored_mib",
    "naim.lock_wait_ms": "lock_wait_ms",
    "llo.routines_lowered": "routines_lowered", "llo.spills": "spills",
    "driver.unattributed_s": "unattributed_s",
    "cache.hits": "cache_hits", "cache.misses": "cache_misses",
    "cache.stores": "cache_stores",
}
PROBE_METRICS = {
    "naim.acquire_us": "acquire_us",
    "naim.repo_store_mib_per_s": "repo_store_mib_per_s",
    "naim.repo_fetch_mib_per_s": "repo_fetch_mib_per_s",
    "bytecode.compact_mib_per_s": "compact_mib_per_s",
    "bytecode.expand_mib_per_s": "expand_mib_per_s",
}

# Layer of each span name, for the self-time table of the traced run.
SPAN_LAYERS = {
    "stage.frontend": "frontend", "stage.instrument": "profile",
    "stage.correlate": "profile", "stage.edge-weights": "profile",
    "stage.selectivity": "hlo", "stage.wpa": "hlo", "stage.ltrans": "hlo",
    "stage.llo": "llo", "stage.link": "link", "stage.verify": "driver",
    "stage.cache-plan": "cache", "stage.cache-store": "cache",
    "build_op": "driver", "build": "driver", "analyze_op": "driver",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def jobs():
    return len(os.sched_getaffinity(0))


def build_worker():
    """Configures and builds the worker; returns its path or exits 1."""
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(jobs())])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            log(r.stdout.decode(errors="replace")[-4000:])
            log("run.py: building the benchmark failed")
            sys.exit(1)
    return os.path.join(out, "scmobench")


class Worker:
    """Starts one worker process per call; records its spans and failures."""

    def __init__(self, exe, wd, trace):
        self.exe, self.wd, self.trace = exe, wd, trace
        self.spans = []     # (op name, spans of that process)

    def call(self, cmd, *args, trace=None):
        """Runs `scmobench cmd --dir wd args...`; returns the parsed JSON
        result, or None when the process crashed, hung or reported !ok."""
        naim = os.path.join(self.wd, "naim")
        shutil.rmtree(naim, ignore_errors=True)
        os.makedirs(naim)
        argv = [self.exe, cmd, "--dir", self.wd, *args]
        if cmd in ("build", "analyze", "probe"):
            argv += ["--naim-dir", naim]
        traced = self.trace if trace is None else trace
        if traced:
            argv.append("--trace")
        try:
            r = subprocess.run(argv, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            log(f"run.py: {cmd} timed out")
            return None
        finally:
            shutil.rmtree(naim, ignore_errors=True)
        if r.returncode != 0:
            log(f"run.py: {cmd} exited with {r.returncode}: "
                f"{r.stderr.decode(errors='replace')[-500:]}")
            return None
        try:
            res = json.loads(r.stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            log(f"run.py: {cmd} printed no result")
            return None
        if not res.get("ok"):
            log(f"run.py: {cmd} failed: {res.get('error')}")
            return None
        if traced:
            self.spans.append((cmd, res.get("spans", [])))
        return res


def same_output(res, ref):
    return (res.get("run_ok", True) and res["exit"] == ref["exit"]
            and res["output_count"] == ref["output_count"]
            and res["output_checksum"] == ref["output_checksum"])


# --- Inputs -----------------------------------------------------------------

def read_module(wd, name):
    with open(os.path.join(wd, "src", name + ".mc")) as f:
        return f.read()


def write_module(wd, name, text):
    with open(os.path.join(wd, "src", name + ".mc"), "w") as f:
        f.write(text)


def cold_modules(wd):
    """Modules that define no hot or warm routine. A profile never puts them
    in the CMO set, so editing one costs the same kind of rebuild every
    round: that module alone, outside HLO."""
    with open(os.path.join(wd, "src", "modules.txt")) as f:
        mods = [m for m in f.read().split() if re.fullmatch(r"mod\d+", m)]
    return [m for m in mods
            if not re.search(r"^func (hot|warm)", read_module(wd, m), re.M)]


def edit_module(wd, mods, seed, k):
    """Round k's edit: in a seeded module of `mods`, a seeded cold routine
    adds k+1 to its module's accumulator on entry. Every cold routine runs
    exactly once and every accumulator is printed, so the edit changes the
    output; the program stays valid. Returns (module name, edited text)."""
    rng = random.Random(seed * 1000003 + k)
    name = rng.choice(mods)
    text = read_module(wd, name)
    idx = name[3:]
    heads = [m.end() for m in
             re.finditer(rf"^func m{idx}_c\d+\([^)]*\) {{\n", text, re.M)]
    at = rng.choice(heads)
    line = f"  g{idx}_acc = g{idx}_acc + {k + 1};\n"
    return name, text[:at] + line + text[at:]


# --- One run ----------------------------------------------------------------

class Run:
    def __init__(self, exe, workload, seed, trace):
        self.w = WORKLOADS[workload]
        self.workload, self.seed, self.trace = workload, seed, trace
        self.wd = os.path.join(build_dir(), "work",
                               f"{workload}-s{seed}-p{os.getpid()}")
        self.worker = Worker(exe, self.wd, trace)
        self.profile = os.path.join(self.wd, "profile.db")
        self.cache = os.path.join(self.wd, "cache")
        self.attempted = self.failed = 0
        self.correct = True
        self.builds, self.analyses = [], []
        self.untraced_builds = []
        self.setups, self.gens, self.interps, self.trains = [], [], [], []
        self.probe = None
        self.hashes = {}          # source version -> exe hash
        self.reports = {}         # source version -> analysis report hash
        self.editable = []        # edit-loop: modules the edits may touch

    def wrong(self, what):
        log(f"run.py: check failed: {what}")
        self.correct = False

    def common_args(self, incremental, budget):
        # Under a memory budget, operations run at one job: at more jobs the
        # loader's victim sort (Loader::relievePressure) races with shards
        # that change their byte counts, and now and then a build crashes.
        # A failure that comes and goes cannot be counted the same in every
        # run, so it is left out until that race is mended.
        args = ["--jobs", str(jobs())]
        if self.w["mem"] and budget:
            args = ["--jobs", "1", "--mem", self.w["mem"]]
        if self.w["incremental"] and incremental:
            args += ["--incremental", self.cache]
        return args

    def build_args(self, incremental=True, budget=True):
        args = self.common_args(incremental, budget)
        if self.w["pbo"]:
            args += ["--profile", self.profile]
        return args

    def analyze_args(self, incremental=True):
        return self.common_args(incremental, True)

    def setup(self):
        """Generation, the reference interpretation, profile training and
        the cold cache fill. Returns the reference output or exits 1."""
        shutil.rmtree(self.wd, ignore_errors=True)
        os.makedirs(os.path.join(self.wd, "src"))
        call = self.worker.call
        t0 = time.perf_counter()
        gen = call("gen", "--seed", str(self.seed))
        ref = gen and call("interp")
        train = ref and self.w["pbo"] and call("train", "--profile",
                                               self.profile)
        ok = bool(ref) and (bool(train) or not self.w["pbo"])
        if ok and self.w["incremental"]:
            fill = call("build", *self.build_args())
            ok = bool(fill and call("analyze", *self.analyze_args()))
            if ok and not same_output(fill, ref):
                self.wrong("cold incremental build output differs from the "
                           "reference interpreter")
        if not ok:
            log("run.py: set-up failed")
            sys.exit(1)
        self.setups.append(time.perf_counter() - t0)
        self.gens.append(gen["gen_s"])
        self.interps.append(ref["interp_s"])
        if train:
            self.trains.append(train["train_s"])
        return ref

    def timed_build(self, version, ref, traced=None):
        self.attempted += 1
        res = self.worker.call("build", *self.build_args(), trace=traced)
        if res is None:
            self.failed += 1
            return None
        good = True
        if not same_output(res, ref):
            self.wrong(f"exe output of {version} differs from the reference "
                       f"interpreter")
            good = False
        h = self.hashes.setdefault(version, res["exe_hash"])
        if h != res["exe_hash"]:
            self.wrong(f"two builds of {version} differ: {h} vs "
                       f"{res['exe_hash']}")
            good = False
        if not good:
            self.failed += 1
            return None
        (self.builds if traced is not False else
         self.untraced_builds).append(res)
        return res

    def timed_analysis(self, version):
        self.attempted += 1
        res = self.worker.call("analyze", *self.analyze_args())
        if res is None:
            self.failed += 1
            return None
        good = True
        if res["missing_codes"]:
            self.wrong(f"analysis of {version} misses planted codes: "
                       f"{res['missing_codes']}")
            good = False
        h = self.reports.setdefault(version, res["report_hash"])
        if h != res["report_hash"]:
            self.wrong(f"two analyses of {version} differ")
            good = False
        if not good:
            self.failed += 1
            return None
        self.analyses.append(res)
        return res

    def reference_build(self, version, ref):
        """An untimed build of the same sources that must produce the same
        executable: with no memory budget (cmo-offload), or cold and not
        incremental (edit-loop)."""
        res = self.worker.call("build", *self.build_args(False, False),
                               trace=False)
        if res is None:
            self.wrong(f"reference build of {version} failed")
            return
        if not same_output(res, ref):
            self.wrong(f"reference build of {version} differs from the "
                       f"reference interpreter")
        self.hashes[version] = res["exe_hash"]

    def reference_analysis(self, version):
        res = self.worker.call("analyze", *self.analyze_args(False),
                               trace=False)
        if res is None:
            self.wrong(f"cold analysis of {version} failed")
            return
        self.reports[version] = res["report_hash"]

    def round(self, k, ref, base):
        """One round: the workload's operations on round k's sources."""
        traced = None if not self.trace else (k % 2 == 0)
        if not self.w["incremental"]:
            version = "base"
            if k == 0 and self.workload == "cmo-offload":
                self.reference_build(version, ref)
            self.timed_build(version, ref, traced)
            self.timed_analysis(version)
            return
        # edit-loop: restore the last round's module, apply this round's.
        for name, text in base.items():
            write_module(self.wd, name, text)
        base.clear()
        if k == 0:
            self.editable = cold_modules(self.wd)
        name, text = edit_module(self.wd, self.editable, self.seed, k)
        base[name] = read_module(self.wd, name)
        write_module(self.wd, name, text)
        version = f"edit{k}"
        eref = self.worker.call("interp", trace=False)
        if eref is None:
            self.wrong(f"reference interpretation of {version} failed")
            eref = {"exit": None, "output_count": None,
                    "output_checksum": None}
        if k == 0:
            self.reference_build(version, eref)
        self.reference_analysis(version)
        self.timed_build(version, eref, traced)
        self.timed_analysis(version)

    def execute(self, seconds, rounds=None):
        """Set-ups, then whole rounds until `seconds` have passed (or
        exactly `rounds` rounds)."""
        for i in range(SETUPS if rounds is None else 1):
            ref = self.setup()
        if self.trace:
            self.probe = self.worker.call("probe")
            if not self.w["pbo"]:
                # This workload's set-up trains nothing; train once so the
                # profile layer still has a figure.
                train = self.worker.call("train", "--profile", self.profile)
                if train:
                    self.trains.append(train["train_s"])
        base = {}
        start = time.perf_counter()
        k = 0
        while True:
            self.round(k, ref, base)
            k += 1
            if rounds is not None and k >= rounds:
                break
            if rounds is None and time.perf_counter() - start >= seconds:
                # The traced run alternates traced and untraced rounds;
                # finish on an even count so both halves match.
                if not self.trace or k % 2 == 0:
                    break
        log(f"run.py: {self.workload} seed {self.seed}: {k} rounds, "
            f"{self.attempted} operations, {self.failed} failed")

    def cleanup(self):
        shutil.rmtree(self.wd, ignore_errors=True)


# --- Metrics ----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(run):
    b, a = run.builds, run.analyses
    vals = {
        "build_s": median([x["build_s"] for x in b]),
        "build_cpu_s": median([x["build_cpu_s"] for x in b]),
        "analyze_s": median([x["analyze_s"] for x in a]),
        "peak_rss_mib": median([x["peak_rss_mib"] for x in b]),
        "hlo_peak_mib": median([x["hlo_peak_mib"] for x in b]),
        "run_mcycles": median([x["run_cycles"] / 1e6 for x in b]),
        "run_minstrs": median([x["run_instrs"] / 1e6 for x in b]),
        "exe_instrs": median([x["exe_instrs"] for x in b]),
        "setup_s": median(run.setups),
    }
    log(f"run.py: {len(b)} builds, {len(a)} analyses, {len(run.setups)} "
        f"set-ups measured")
    return vals


def self_times(spans_by_process):
    """Self time per layer: each span's duration minus the part its
    children cover."""
    layers = {}
    for _, spans in spans_by_process:
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                covered[s["parent"]] += s["end"] - s["start"]
        for i, s in enumerate(spans):
            name = s["name"]
            layer = SPAN_LAYERS.get(name, name.split(".")[0])
            self_s = max(0.0, s["end"] - s["start"] - covered[i])
            layers[layer] = layers.get(layer, 0.0) + self_s
    return layers


def per_layer_metrics(run):
    b, a, p = run.builds, run.analyses, run.probe or {}
    vals = {
        "workload.gen_s": median(run.gens),
        "profile.train_s": median(run.trains),
        "vm.interp_s": median(run.interps),
        "hlo.cmo_klines": median([x["cmo_lines"] / 1000 for x in b]),
        "frontend.klines_per_s": median(
            [x["source_lines"] / 1000 / x["frontend_s"] for x in b]),
        "analysis.stream_s": median([x["stream_s"] for x in a]),
        "analysis.interproc_s": median([x["interproc_s"] for x in a]),
        "analysis.routines_rescanned": median(
            [x["routines_rescanned"] for x in a]),
    }
    for metric, stage in BUILD_STAGE_METRICS.items():
        vals[metric] = median([x["stages"].get(stage, 0.0) for x in b])
    for metric, field in BUILD_FIELD_METRICS.items():
        vals[metric] = median([x[field] for x in b])
    for metric, field in PROBE_METRICS.items():
        vals[metric] = p.get(field)
    traced = median([x["build_s"] for x in b])
    untraced = median([x["build_s"] for x in run.untraced_builds])
    vals["trace.overhead_ms"] = (None if traced is None or untraced is None
                                 else (traced - untraced) * 1000)

    layers = self_times(run.worker.spans)
    total = sum(layers.values()) or 1.0
    log("run.py: self time by layer over the traced operations:")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:<10} {s:9.3f} s  {100 * s / total:5.1f}%")
    log(f"  tracing overhead: {vals['trace.overhead_ms']} ms per build "
        f"(median traced minus median untraced build_s)")
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{run.workload}-s{run.seed}.json")
    with open(path, "w") as f:
        json.dump([{"op": op, "spans": s} for op, s in run.worker.spans], f)
    log(f"run.py: spans written to {path}")
    return vals


def report(run, vals, metrics):
    """Prints the result line for the metrics BENCHMARK.json lists."""
    missing = [m["name"] for m in metrics if vals.get(m["name"]) is None]
    if missing:
        log(f"run.py: no successful operation measured {', '.join(missing)}")
        return 1
    for m in metrics:
        log(f"  {m['name']:<28} {vals[m['name']]:14.6f} {m['unit']}")
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": vals[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


def check_all(exe, seed):
    """Every workload's checks once, two rounds each, no timing."""
    ok = True
    for name in WORKLOADS:
        run = Run(exe, name, seed, trace=False)
        try:
            run.execute(0, rounds=2)
        finally:
            run.cleanup()
        good = run.correct and run.failed == 0
        ok &= good
        print(f"{name}: {'ok' if good else 'FAILED'} "
              f"({run.attempted} operations, {run.failed} failed)")
    print("check: " + ("all workloads agree with their references" if ok
                       else "FAILED"))
    return 0 if ok else 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run every workload's checks once, without timing")
    args = ap.parse_args()
    if not args.check and not args.workload:
        ap.error("--workload or --check is required")
    exe = build_worker()
    if args.check:
        return check_all(exe, args.seed)
    run = Run(exe, args.workload, args.seed, bool(args.trace))
    try:
        run.execute(args.seconds)
    finally:
        run.cleanup()
    if args.trace:
        return report(run, per_layer_metrics(run), bench["per_layer"])
    return report(run, end_to_end_metrics(run), bench["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
