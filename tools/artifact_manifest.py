#!/usr/bin/env python3
"""Hash every bench/example artifact and stdout against a committed manifest.

"Same behaviour" for this repository means byte-identical artifacts. This
script runs every bench and example binary under WSCHED_QUICK=1, plus the
flag combinations the CI bench-smoke job exercises (control plane, the
net model, gray failure with slow-health and hedging, span tracing,
trace + probes + decision log, a 50-seed chaos search and the quorum-off
drill). Each run gets its own scratch directory; every file it writes, its
stdout and its exit status are hashed (SHA-256, first 16 hex digits) and
compared with the manifest.

Only table3_validation's wall-clock testbed columns are left out: the
`imp_*_actual` CSV/JSON fields and the "Actual" cells of its stdout table
(two runs of one tree differ there). Its simulated columns stay in.

The hashes depend on the compiler and libm, like golden_test's; the
manifest header records the toolchain it was made with.

Usage:
  tools/artifact_manifest.py --bin-dir BUILD [--manifest FILE] [--update]
                             [--jobs N]

Exits 0 when every hash matches, 1 naming each entry that moved (or
appeared, or disappeared), 2 on a usage error. --update rewrites the
manifest from this tree instead of comparing.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_MANIFEST = os.path.join(HERE, "..", "tests", "artifact_manifest.txt")

# The CI bench-smoke grid for the observability rows: one trace, jobs 2.
UCB = ["--filter", "trace=UCB"]
GRAY = ["--gray-mttf", "10", "--gray-mttr", "3", "--gray-cpu", "0.15",
        "--gray-stall-period", "1", "--gray-stall-len", "0.05",
        "--slow-health", "--hedge"]
OBS = ["--trace", "trace.json", "--probe-interval", "0.5",
       "--decision-log", "decisions.csv"]

# (run name, binary relative to --bin-dir, extra arguments). Every run also
# gets --out <run name> and --jobs N.
RUNS = [
    ("table1", "bench/table1_traces", []),
    ("table2", "bench/table2_params", []),
    ("fig3", "bench/fig3_analytic", []),
    ("fig4", "bench/fig4_optimizations", []),
    ("fig5", "bench/fig5_sensitivity", []),
    # Short testbed runs: only the simulated columns are hashed anyway.
    ("table3", "bench/table3_validation",
     ["--reps", "1", "--compression", "20", "--duration", "3"]),
    ("ext_cache", "bench/ext_cache", []),
    ("ext_hetero", "bench/ext_hetero", []),
    ("ext_faults", "bench/ext_faults", []),
    ("ext_overload", "bench/ext_overload", []),
    ("ext_netfaults", "bench/ext_netfaults", []),
    ("ext_ctrl", "bench/ext_ctrl", []),
    ("ext_gray", "bench/ext_gray", []),
    ("ablation", "bench/ablation_knobs", []),
    ("quickstart", "examples/quickstart", []),
    ("capacity", "examples/capacity_planning", []),
    ("custom_policy", "examples/custom_policy", []),
    ("workbench", "examples/trace_workbench", []),
    ("obs", "bench/fig4_optimizations", UCB + OBS),
    ("ctrl", "bench/fig4_optimizations", UCB + ["--ctrl"] + OBS),
    ("net", "bench/fig4_optimizations",
     UCB + ["--net-loss", "0.02", "--net-latency", "0.001:0.0005",
            "--stale-fallback", "0.3"] + OBS),
    ("gray", "bench/fig4_optimizations",
     UCB + GRAY + ["--trace", "trace.json", "--decision-log",
                   "decisions.csv"]),
    ("spans", "bench/ext_overload",
     ["--filter", "lambda=500", "--spans", "--span-out", "exemplars.json",
      "--exemplars", "3", "--trace", "trace.json"]),
    ("chaos", "bench/chaos_search",
     ["--chaos-seeds", "50", "--quick", "--chaos-out", "chaos"]),
    # Planted bug: exits 1 with minimized repros; the status is hashed too.
    ("quorum_off", "bench/chaos_search",
     ["--chaos-seeds", "25", "--quick", "--net-quorum=false",
      "--chaos-out", "planted"]),
]

TABLE3_ROW = re.compile(r"^(\w+, \S+/s)\s+(.*)$")


def table3_stdout(text):
    """Keeps table3's stdout minus the testbed ("Actual") cells.

    The table's column widths depend on the Actual cells, so the layout is
    dropped too: each data row becomes "<trace, rate> | <Simu cells>".
    """
    kept = []
    for line in text.splitlines():
        row = TABLE3_ROW.match(line)
        if row:
            cells = row.group(2).split()
            kept.append(row.group(1) + " | " + " ".join(cells[1::2]))
        elif line.startswith("Mean |Actual") or "M/S vs" in line or \
                set(line.strip()) <= {"-"} or "Actual" in line:
            continue
        else:
            kept.append(line)
    return "\n".join(kept) + "\n"


def table3_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if not name.endswith("_actual")]
    return "\n".join(",".join(line.split(",")[i] for i in keep)
                     for line in lines) + "\n"


def table3_json(text):
    rows = json.loads(text)
    return json.dumps([{k: v for k, v in row.items()
                        if not k.endswith("_actual")} for row in rows],
                      sort_keys=True) + "\n"


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def run_one(bin_dir, name, binary, args, jobs, root):
    workdir = os.path.join(root, name)
    os.makedirs(workdir)
    env = dict(os.environ, WSCHED_QUICK="1")
    env.pop("WSCHED_LOG", None)
    cmd = [os.path.join(bin_dir, binary), "--out", name,
           "--jobs", str(jobs)] + args
    proc = subprocess.run(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=False)
    entries = {}
    stdout = proc.stdout.decode()
    if name == "table3":
        stdout = table3_stdout(stdout)
    entries[name + "/stdout"] = digest(stdout)
    entries[name + "/exit"] = str(proc.returncode)
    if proc.returncode not in (0, 1):
        sys.stderr.write("%s: exit %d\n%s" % (name, proc.returncode,
                                              proc.stderr.decode()))
    for dirpath, _, files in os.walk(workdir):
        for f in files:
            path = os.path.join(dirpath, f)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "table3" and f.endswith(".csv"):
                data = table3_csv(data.decode())
            elif name == "table3" and f.endswith(".json"):
                data = table3_json(data.decode())
            entries[rel] = digest(data)
    return entries


def toolchain(bin_dir):
    compiler = "unknown"
    cache = os.path.join(bin_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as fh:
            for line in fh:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    try:
                        out = subprocess.run([cxx, "--version"],
                                             stdout=subprocess.PIPE,
                                             check=False).stdout.decode()
                        compiler = out.splitlines()[0].strip()
                    except OSError:
                        compiler = cxx
    libc = "-".join(platform.libc_ver()) or "unknown"
    return "%s; libm %s; %s" % (compiler, libc, platform.machine())


def read_manifest(path):
    entries, header = {}, {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# toolchain: "):
                header["toolchain"] = line[len("# toolchain: "):]
            if not line or line.startswith("#"):
                continue
            value, key = line.split(None, 1)
            entries[key] = value
    return entries, header


def write_manifest(path, entries, chain):
    with open(path, "w") as fh:
        fh.write("# Artifact manifest: tools/artifact_manifest.py --bin-dir "
                 "BUILD [--update]\n")
        fh.write("# Every bench/example under WSCHED_QUICK=1 plus the CI "
                 "bench-smoke flag combinations;\n")
        fh.write("# value = first 16 hex digits of SHA-256 (\"exit\" rows "
                 "hold the exit status).\n")
        fh.write("# Left out: table3's wall-clock testbed columns "
                 "(imp_*_actual, stdout Actual cells).\n")
        fh.write("# toolchain: %s\n" % chain)
        for key in sorted(entries):
            fh.write("%s  %s\n" % (entries[key], key))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True,
                        help="CMake build tree holding bench/ and examples/")
    parser.add_argument("--manifest", default=DEFAULT_MANIFEST)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest from this tree")
    parser.add_argument("--jobs", type=int, default=2,
                        help="--jobs passed to every run (outputs are "
                        "invariant under it)")
    args = parser.parse_args()
    bin_dir = os.path.abspath(args.bin_dir)
    for _, binary, _ in RUNS:
        if not os.access(os.path.join(bin_dir, binary), os.X_OK):
            sys.stderr.write("artifact_manifest: missing %s under %s\n" %
                             (binary, bin_dir))
            return 2

    entries = {}
    with tempfile.TemporaryDirectory(prefix="wsched-manifest-") as root:
        for name, binary, extra in RUNS:
            entries.update(run_one(bin_dir, name, binary, extra, args.jobs,
                                   root))
    chain = toolchain(bin_dir)

    if args.update:
        write_manifest(args.manifest, entries, chain)
        print("artifact_manifest: wrote %d entries to %s" %
              (len(entries), args.manifest))
        return 0

    if not os.path.exists(args.manifest):
        sys.stderr.write("artifact_manifest: no manifest at %s (run with "
                         "--update)\n" % args.manifest)
        return 2
    expected, header = read_manifest(args.manifest)
    moved = []
    for key in sorted(set(expected) | set(entries)):
        want, got = expected.get(key), entries.get(key)
        if want == got:
            continue
        if want is None:
            moved.append("new      %s" % key)
        elif got is None:
            moved.append("missing  %s" % key)
        else:
            moved.append("moved    %s (%s -> %s)" % (key, want, got))
    if not moved:
        print("artifact_manifest: %d entries match" % len(entries))
        return 0
    for line in moved:
        print(line)
    print("artifact_manifest: %d of %d entries differ" %
          (len(moved), len(set(expected) | set(entries))))
    if header.get("toolchain") != chain:
        print("note: manifest toolchain '%s', this build '%s'" %
              (header.get("toolchain"), chain))
    return 1


if __name__ == "__main__":
    sys.exit(main())
