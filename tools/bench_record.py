"""Run the benchmark for a list of seeds and record every run in one file.

Usage (from the repository root):
    python3 tools/bench_record.py --pr 20 --workload infer-chen --seeds 31-40 \
        --checkout parent=../parent --checkout change=. --seconds 45

Each ``--checkout NAME=DIR`` names a checkout whose ``perfbench/run.py`` is
run; without one, this checkout is run as ``change``.  For each workload and
seed, every checkout runs once, and the order of the checkouts turns by one
from seed to seed, so that two checkouts alternate which runs first.  The
JSON result line of each run is read and the record is written to
``BENCH_<pr>.json`` (``--out`` overrides): per checkout, its git sha, the
numpy and BLAS versions, the BLAS thread count and nproc its runs report,
every run's metrics, and each metric's median and quartiles per workload.
With two checkouts it also counts, per metric, the pairs of runs of one
seed that the second checkout wins, by the direction ``BENCHMARK.json``
gives, and the distance between the first checkout's quartiles; it sets
the second checkout's median shortfall against that metric's bound, and
it totals each checkout's attempted and failed operations per workload.

Before its runs, each checkout's ``src/`` and ``perfbench/`` are compiled
afresh into their ``__pycache__`` directories, and its runs get the
environment of this process without ``PYTHONPYCACHEPREFIX``, so that cold
CLI calls read that bytecode (even where ``PYTHONDONTWRITEBYTECODE`` is set)
rather than compile the package, whose cost would follow the source's
length.  The record names that state per checkout, as ``bytecode``.  A
pycache prefix of its own would not do: Python then reads no bytecode
outside it, numpy's and the standard library's included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """Seeds from a comma list of integers and ``a-b`` ranges."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_checkout(text):
    name, sep, path = text.partition("=")
    if not (sep and name and path):
        raise argparse.ArgumentTypeError(f"expected NAME=DIR, got {text!r}")
    return name, Path(path).resolve()


def git_sha(path):
    proc = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def run_env():
    """The environment of every run: this process's, without a pycache
    prefix, so that bytecode lives in ``__pycache__`` directories."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def compile_bytecode(path):
    """Compile the checkout's ``src/`` and ``perfbench/`` into their
    ``__pycache__`` directories, replacing what is there; returns the
    record of that state."""
    dirs = ["src", "perfbench"]
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-f"] + dirs,
                   cwd=path, env=run_env(), check=True)
    return {"compiled": dirs, "into": "__pycache__", "cache_tag": sys.implementation.cache_tag}


def run_once(path, workload, seed, seconds):
    """``(record, result)``: the record and final JSON lines of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=path, env=run_env(), capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {path} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return lines[0]["record"], lines[-1]


def quartiles(values):
    """``{"median", "q1", "q3"}`` of the values (the median alone for one)."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs):
    names = runs[0]["metrics"].keys()
    return {name: quartiles([run["metrics"][name]["value"] for run in runs]) for name in names}


def compare(base_runs, new_runs, specs):
    """``{"operations": ..., "metrics": ...}`` of ``new_runs`` against the
    same seeds' ``base_runs``, for the metrics ``specs`` maps to their
    ``BENCHMARK.json`` entries (``better`` and ``bound``).  ``operations``
    holds each side's total attempted and failed operations, since a change
    whose share of failed operations grows is not a like-for-like
    comparison.  ``metrics`` holds, per metric, the wins and losses of
    ``new_runs`` (ties count for neither), the medians, the base's quartile
    distance, the bound, ``worse_by`` (the new median's relative shortfall
    against the base median in the metric's direction, negative when it is
    better), ``beyond_bound`` (``worse_by`` exceeds the bound) and
    ``unresolved`` (the base's quartile distance exceeds the bound's share
    of its median, and not every new run beats every base run)."""
    operations = {side: {key: sum(run[key] for run in runs) for key in ("attempted", "failed")}
                  for side, runs in (("base", base_runs), ("new", new_runs))}
    metrics = {}
    for name, spec in specs.items():
        pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                 for a, b in zip(base_runs, new_runs)]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if not pairs:
            continue
        sign = 1 if spec["better"] == "higher" else -1
        base, new = quartiles([a for a, _ in pairs]), quartiles([b for _, b in pairs])
        spread = base["q3"] - base["q1"]
        scale = abs(base["median"])
        worse_by = sign * (base["median"] - new["median"]) / scale if scale else None
        separated = min(sign * b for _, b in pairs) > max(sign * a for a, _ in pairs)
        metrics[name] = {
            "pairs": len(pairs),
            "wins": sum(sign * (b - a) > 0 for a, b in pairs),
            "losses": sum(sign * (b - a) < 0 for a, b in pairs),
            "base_median": base["median"],
            "new_median": new["median"],
            "ratio": new["median"] / base["median"] if base["median"] else None,
            "base_quartile_distance": spread,
            "bound": spec["bound"],
            "worse_by": worse_by,
            "beyond_bound": worse_by is not None and worse_by > spec["bound"],
            "unresolved": spread > spec["bound"] * scale and not separated,
        }
    return {"operations": operations, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/run.py; repeat for several")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds of every workload, such as 31-40 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--checkout", type=parse_checkout, action="append",
                        help="NAME=DIR of a checkout to run; repeat for several")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    checkouts = dict(args.checkout or [("change", ROOT)])
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        specs = {spec["name"]: spec for spec in json.load(fh)["end_to_end"]}

    sides = {name: {"sha": git_sha(path), "bytecode": compile_bytecode(path), "workloads": {}}
             for name, path in checkouts.items()}
    names = list(checkouts)
    doc = {"pr": args.pr, "seeds": args.seeds, "seconds": args.seconds, "sides": sides}
    for workload in args.workload:
        for side in sides.values():
            side["workloads"][workload] = {"runs": [], "summary": None}
        for i, seed in enumerate(args.seeds):
            turn = i % len(names)
            order = names[turn:] + names[:turn]
            for name in order:
                record, result = run_once(checkouts[name], workload, seed, args.seconds)
                side = sides[name]
                for key in ("numpy", "blas", "blas_threads", "nproc", "python"):
                    side.setdefault(key, record[key])
                entry = side["workloads"][workload]
                entry["runs"].append({
                    "seed": seed, "order": order, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "metrics": result["metrics"]})
                entry["summary"] = summarize(entry["runs"])
                print(f"{workload} seed {seed} {name}: correct={result['correct']}",
                      file=sys.stderr, flush=True)
            # written after every seed, so that an interrupted record keeps its runs
            if len(names) == 2:
                base, new = (sides[name]["workloads"] for name in names)
                doc["comparison"] = {
                    "base": names[0], "new": names[1],
                    "workloads": {w: compare(base[w]["runs"], new[w]["runs"], specs)
                                  for w in base}}
            out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
