#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tamperscope commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

    classify_sampled  classify --jsonl --threads 1 on a sparse, sampled capture
    classify_dense    classify --threads 2 on a dense, time-ordered capture
    world_report      report --threads 1 on a 200k-session world
    merge_pops        merge of 1000 .agg partials written by pop-run

The script builds the release `tamperscope` binary and the `perfbench`
helper, makes the workload's inputs from the seed (cached per seed under
.bench_data/), and then measures for --seconds seconds:

  --trace 0  launches the binary again and again, timing each run from
             outside (wall clock, the child's own wait4 rusage) and
             checking every output; prints the end-to-end metrics.
  --trace 1  alternates untraced binary runs with traced runs of the
             helper's library composition of the same command; prints
             the per-layer metrics, the tracing overhead and coverage.

Every output is checked: classify stdout against the library
composition's bytes and the flows the generator delivered; report stdout
against the library composition; merge stdout against `report` over the
same world. At the default seed the input digests and the report digest
must also equal the ones recorded below.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, ".bench_data")

SESSIONS = 200_000
POPS = 1000
DEFAULT_SEED = 1
MIN_RUNS = 3
MAX_RUNS = 200
SETUP_REPS = 2
RUN_TIMEOUT_S = 150
KEEP_SEEDS = 2

WORKLOADS = {
    "classify_sampled": {"family": "sampled", "args": ["--jsonl", "--threads", "1"], "threads": 1},
    "classify_dense": {"family": "dense", "args": ["--threads", "2"], "threads": 2},
    "world_report": {"family": "world", "threads": 1},
    "merge_pops": {"family": "pops", "threads": 1},
}

# Digests at DEFAULT_SEED: the generated inputs, and the report every
# world_report / merge_pops run must print. A change to the netsim recipe,
# the world generator or the .agg format shows up here.
REPORT_SHA256 = "a0453c5fee0acabda90c682609da60a850e6ddc09843317b1066784623b654cf"
RECORDED = {
    "classify_sampled": {"input": "8b3a90fe97f98cda32d61d8907db11e287430ce18ae7d58d8ecdacf15f958f2b"},
    "classify_dense": {"input": "db6be27693fb6ad736b5ca00d6726142592e9e7c6cdabfc63d6ef266173bcb6b"},
    "world_report": {"input": "6284273f60994d6c3e61e8642ab8fbbd0e5d00bde63174846533547dcb6377d2", "output": REPORT_SHA256},
    "merge_pops": {"input": "946d8db912224d047fb77b102cccbc47465533d733bad4668d6ccda42b8c4981", "output": REPORT_SHA256},
}

# trace.coverage below these marks means the traced calls no longer
# account for the run's time (see perfbench/NOTES.md).
COVERAGE_TOLERANCE = {1: 0.90, 2: 0.50}

END_TO_END = [
    ("flows_per_s", "1/s"),
    ("cpu_us_per_flow", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256_files(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            while True:
                block = f.read(1 << 20)
                if not block:
                    break
                h.update(block)
    return h.hexdigest()


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", ".bench_build")
        self.env = env
        target = env["CARGO_TARGET_DIR"]
        if not os.path.isabs(target):
            target = os.path.join(ROOT, target)
        self.binary = os.path.join(target, "release", "tamperscope")
        self.helper = os.path.join(target, "release", "perfbench")
        self.out_dir = os.path.join(DATA, "out")

    # ---- processes -------------------------------------------------------

    def spawn(self, argv, stdout_path, stderr_path):
        """Run argv to completion; return (wall_s, cpu_s, maxrss_kib, status)."""
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                proc.returncode = 0  # reaped by wait4 above
        code = os.waitstatus_to_exitcode(status)
        return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, code

    def helper_json(self, args):
        res = subprocess.run([self.helper] + args, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"perfbench {args[0]} failed: {res.stderr.strip()}")
        return json.loads(res.stdout.strip().splitlines()[-1])

    def build(self):
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "tamperscope"],
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
        ):
            res = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr, stderr=sys.stderr)
            if res.returncode != 0:
                raise RuntimeError("build failed: " + " ".join(cmd))

    # ---- inputs ----------------------------------------------------------

    def build_id(self):
        return sha256_files([self.binary, self.helper])[:16]

    def prepare(self):
        """Make (or reuse) this workload's inputs for the seed; return meta."""
        family = self.spec["family"]
        d = os.path.join(DATA, f"{family}-{self.seed}")
        meta_path = os.path.join(d, "meta.json")
        build_id = self.build_id()
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                meta = json.load(f)
            if meta.get("build_id") == build_id:
                os.utime(d)
                return d, meta
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        self.evict(family)
        threads = str(max(1, min(os.cpu_count() or 1, 2)))
        t0 = time.perf_counter()
        if family in ("sampled", "dense"):
            cap = os.path.join(d, "capture.pcap")
            gen = self.helper_json(["gen-capture", f"--layout={family}", f"--sessions={SESSIONS}", f"--seed={self.seed}", f"--threads={threads}", f"--out={cap}"])
            ref = os.path.join(d, "reference.out")
            info = self.helper_json(["run", f"--workload={self.workload}", f"--input={cap}", f"--threads={self.spec['threads']}", f"--out={ref}"])
            if info["flows"] != gen["flows"]:
                raise RuntimeError(f"library classify saw {info['flows']} flows, the generator delivered {gen['flows']}")
            meta = {"input": sha256_files([cap]), "output": sha256_files([ref]), "flows": gen["flows"], "sessions": gen["sessions"], "packets": gen["packets"]}
            os.remove(ref)
        elif family == "world":
            ref = os.path.join(d, "reference.out")
            info = self.helper_json(["run", "--workload=world_report", f"--sessions={SESSIONS}", f"--seed={self.seed}", "--threads=1", f"--out={ref}"])
            flags = f"report --sessions {SESSIONS} --days 14 --seed {self.seed}"
            meta = {"input": hashlib.sha256(flags.encode()).hexdigest(), "output": sha256_files([ref]), "flows": info["flows"], "sessions": SESSIONS}
        else:
            pops = os.path.join(d, "pops")
            _, _, _, code = self.spawn([self.binary, "pop-run", "--pops", str(POPS), "--out", pops, "--sessions", str(SESSIONS), "--seed", str(self.seed), "--threads", threads], os.path.join(d, "pop-run.stdout"), os.path.join(d, "pop-run.stderr"))
            if code != 0:
                raise RuntimeError("pop-run failed")
            ref = os.path.join(d, "report.out")
            _, _, _, code = self.spawn([self.binary, "report", "--sessions", str(SESSIONS), "--seed", str(self.seed), "--threads", threads], ref, os.path.join(d, "report.stderr"))
            if code != 0:
                raise RuntimeError("report failed")
            meta = {"input": sha256_files(self.partials(d)), "output": sha256_files([ref]), "flows": self.stderr_flows(os.path.join(d, "report.stderr")), "sessions": SESSIONS, "partials": POPS}
        meta["build_id"] = build_id
        log(f"[{self.workload}] inputs for seed {self.seed} made in {time.perf_counter() - t0:.1f}s")
        with open(meta_path + ".tmp", "w") as f:
            json.dump(meta, f)
        os.replace(meta_path + ".tmp", meta_path)
        return d, meta

    def evict(self, family):
        """Keep the inputs of at most KEEP_SEEDS seeds per family."""
        dirs = [os.path.join(DATA, n) for n in os.listdir(DATA) if n.startswith(family + "-")]
        dirs.sort(key=os.path.getmtime)
        for old in dirs[: max(0, len(dirs) - KEEP_SEEDS)]:
            shutil.rmtree(old, ignore_errors=True)

    def partials(self, d):
        return [os.path.join(d, "pops", f"pop{i}.agg") for i in range(POPS)]

    @staticmethod
    def stderr_flows(path):
        """Flows in a report/merge result, from the binary's stderr summary."""
        with open(path) as f:
            text = f.read()
        for line in text.splitlines():
            words = line.replace(",", "").split()
            if line.startswith("[world]") and len(words) > 1:
                return int(words[1])
            if line.startswith("[merge]") and len(words) > 3:
                return int(words[3])
        return -1

    # ---- one command run ------------------------------------------------

    def binary_argv(self, d):
        fam = self.spec["family"]
        if fam in ("sampled", "dense"):
            return [self.binary, "classify", os.path.join(d, "capture.pcap")] + self.spec["args"]
        if fam == "world":
            return [self.binary, "report", "--sessions", str(SESSIONS), "--seed", str(self.seed), "--threads", "1"]
        return [self.binary, "merge"] + self.partials(d) + ["--sessions", str(SESSIONS), "--seed", str(self.seed)]

    def helper_argv(self, d):
        fam = self.spec["family"]
        argv = [self.helper, "run", f"--workload={self.workload}", f"--threads={self.spec['threads']}", f"--sessions={SESSIONS}", f"--seed={self.seed}"]
        if fam in ("sampled", "dense"):
            argv.append("--input=" + os.path.join(d, "capture.pcap"))
        elif fam == "pops":
            argv += ["--input=" + os.path.join(d, "pops"), f"--partials={POPS}"]
        return argv

    def check(self, out_path, err_path, meta, code):
        """True if one binary run exited 0 and printed the expected result."""
        if code != 0:
            return False
        with open(out_path, "rb") as f:
            data = f.read()
        if self.spec["family"] in ("sampled", "dense"):
            flows = data.count(b"\n")
        else:
            flows = self.stderr_flows(err_path)
        return hashlib.sha256(data).hexdigest() == meta["output"] and flows == meta["flows"]

    def run_binary(self, d, meta):
        out = os.path.join(self.out_dir, f"{self.workload}.out")
        err = os.path.join(self.out_dir, f"{self.workload}.err")
        wall, cpu, rss, code = self.spawn(self.binary_argv(d), out, err)
        ok = self.check(out, err, meta, code)
        if not ok:
            log(f"[{self.workload}] binary run failed its check (exit {code})")
        return {"wall": wall, "cpu": cpu, "rss_kib": rss, "ok": ok}

    def run_traced(self, d, meta, k):
        out = os.path.join(self.out_dir, f"{self.workload}.traced.out")
        res_path = os.path.join(self.out_dir, f"{self.workload}.traced.json")
        err = os.path.join(self.out_dir, f"{self.workload}.traced.err")
        spans = os.path.join(DATA, "traces", f"{self.workload}-seed{self.seed}-run{k}.tsv")
        argv = self.helper_argv(d) + ["--trace", f"--out={out}", f"--spans={spans}", f"--run={k}"]
        wall, _, _, code = self.spawn(argv, res_path, err)
        ok = code == 0
        result = {}
        if ok:
            with open(res_path) as f:
                result = json.loads(f.read().strip().splitlines()[-1])
            with open(out, "rb") as f:
                ok = hashlib.sha256(f.read()).hexdigest() == meta["output"] and result["flows"] == meta["flows"]
        if not ok:
            log(f"[{self.workload}] traced run failed its check (exit {code})")
        return {"wall": wall, "ok": ok, "metrics": result.get("metrics", {})}

    # ---- measurement ----------------------------------------------------

    def setup_samples(self, d, reps):
        fam = self.spec["family"]
        if fam in ("sampled", "dense"):
            args = ["setup", "--workload=classify", "--input=" + os.path.join(d, "capture.pcap")]
        else:
            args = ["setup", "--workload=world", f"--sessions={SESSIONS}", f"--seed={self.seed}"]
        return self.helper_json(args + [f"--reps={reps}"])["samples_s"]

    def measure(self, seconds, trace):
        self.build()
        os.makedirs(self.out_dir, exist_ok=True)
        d, meta = self.prepare()
        digests_ok = True
        if self.seed == DEFAULT_SEED:
            for key, want in RECORDED[self.workload].items():
                if meta[key] != want:
                    log(f"[{self.workload}] {key} digest {meta[key]} differs from the recorded {want}")
                    digests_ok = False
        print(f"workload {self.workload}  seed {self.seed}  input sha256 {meta['input']}  expected output sha256 {meta['output']}  flows {meta['flows']}")
        if trace:
            metrics, attempted, failed = self.measure_traced(d, meta, seconds)
        else:
            metrics, attempted, failed = self.measure_untraced(d, meta, seconds)
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}")
        print(f"  {'error_rate':<40} {failed / attempted:>16.6f} 1   ({failed} of {attempted} runs failed)")
        return {"correct": digests_ok and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    def measure_untraced(self, d, meta, seconds):
        runs, setup = [], []
        deadline = time.perf_counter() + seconds
        while len(runs) < MAX_RUNS and (len(runs) < MIN_RUNS or time.perf_counter() < deadline):
            runs.append(self.run_binary(d, meta))
            # Set-up is timed between the runs, so that its samples spread
            # over the whole window like the runs' do.
            setup += self.setup_samples(d, SETUP_REPS)
        good = [r for r in runs if r["ok"]] or runs
        flows = meta["flows"]
        wall = statistics.median(r["wall"] for r in good)
        cpu = statistics.median(r["cpu"] for r in good)
        rss = statistics.median(r["rss_kib"] for r in good)
        print(f"  runs {len(runs)}  wall_s {[round(r['wall'], 3) for r in runs]}")
        values = {
            "flows_per_s": flows / wall,
            "cpu_us_per_flow": cpu / flows * 1e6,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": rss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return metrics, len(runs), sum(1 for r in runs if not r["ok"])

    def measure_traced(self, d, meta, seconds):
        traces = os.path.join(DATA, "traces")
        shutil.rmtree(traces, ignore_errors=True)
        os.makedirs(traces)
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < MAX_RUNS and (len(traced) < 2 or time.perf_counter() < deadline):
            untraced.append(self.run_binary(d, meta))
            traced.append(self.run_traced(d, meta, len(traced)))
        good = [t for t in traced if t["ok"]]
        metrics = {}
        for name, unit in per_layer_units():
            if name == "trace.overhead_share":
                base = statistics.median(r["wall"] for r in untraced)
                value = statistics.median(t["wall"] for t in traced) / base - 1
            else:
                value = statistics.median(t["metrics"].get(name, 0.0) for t in good) if good else 0.0
            metrics[name] = {"value": value, "unit": unit}
        cov = metrics["trace.coverage"]["value"]
        need = COVERAGE_TOLERANCE[min(self.spec["threads"], 2)]
        verdict = "within" if cov >= need else "OUTSIDE"
        print(f"  traced runs {len(traced)}  untraced runs {len(untraced)}  coverage {cov:.3f} {verdict} tolerance >= {need}")
        print(f"  spans written to {os.path.relpath(traces, ROOT)}/")
        runs = untraced + traced
        return metrics, len(runs), sum(1 for r in runs if not r["ok"])


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    bench = Bench(args.workload, args.seed)
    try:
        result = bench.measure(args.seconds, args.trace == 1)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
