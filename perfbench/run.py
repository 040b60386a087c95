#!/usr/bin/env python3
"""The nazeta benchmark: four CLI workloads, exact oracles, outside-in trace.

Run from the repository root:

    python3 perfbench/run.py --workload group-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --make-reference

Each job is one `nazeta` invocation (or one library call) in a fresh
interpreter, one job at a time (closed loop, one client).  A pass runs every
job of the workload once; passes repeat while another fits in --seconds
(at least two), and the end-to-end times are per-job medians over passes,
in reference seconds (see job.py).  With --trace 1 the run makes one
untraced and one traced pass and reports the per-layer metrics.
The last line of standard output is the JSON result; progress, oracle
failures and digest differences go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"

RUN_DEADLINE_S = 165  # no pass starts that would likely end after this
SETUP_PROBES = 3  # import-only interpreters per run; the first warms caches
MIN_PASSES = 2
JOB_FIELDS = ("key", "rc", "inside_s", "ref_inside_s", "setup_s", "ref_setup_s",
              "calibrations", "maxrss_kb", "digest", "ok")

PER_LAYER_FUNCS = {  # metric prefix -> traced function
    "algebra.poly_mul": "algebra.Poly.__mul__",
    "algebra.poly_gcd": "algebra.poly_gcd",
    "algebra.rf_make": "algebra.RationalFunction.make",
    "algebra.substitute": "algebra.substitute",
    "algebra.roots": "algebra.poly_complex_roots",
    "curve.completed_zeta_factor": "curve.completed_zeta_factor",
    "rootsys.enumerate_weyl": "rootsys.enumerate_weyl",
    "rootsys.parabolic_data": "rootsys.parabolic_data",
    "rootsys.count_tables": "rootsys.count_tables",
    "groupzeta.weyl_term": "groupzeta.weyl_term",
    "groupzeta.period_gp": "groupzeta.period_gp",
    "groupzeta.group_zeta": "groupzeta.group_zeta",
    "groupzeta.fe_check_group": "groupzeta.fe_check_group",
    "groupzeta.group_zeta_zeros": "groupzeta.group_zeta_zeros",
    "groupzeta.edge_residue": "groupzeta.edge_residue",
    "multivar.laurent_mul": "multivar.LaurentPoly.__mul__",
    "multivar.mrf_make": "multivar.MultiRationalFunction.make",
    "multivar.divide_linear_at_one": "multivar.LaurentPoly.divide_linear_at_one",
    "multivar.residue_at_one": "multivar.residue_at_one",
    "residues.weyl_term_full": "residues.weyl_term_full",
    "residues.iterated_residue": "residues.iterated_residue",
    "residues.period_full": "residues.period_full",
    "compositions.parabolic_mass_sum": "compositions.parabolic_mass_sum",
    "purezeta.zagier_beta": "purezeta.zagier_beta",
    "purezeta.mass_reformulated": "purezeta.mass_reformulated",
    "purezeta.completed_zeta_value": "curve.completed_zeta_value",
    "purezeta.rh_report": "purezeta.rh_report",
    "numfield.volume_table": "numfield.volume_table",
    "cli.emit_json": "cli._emit_json",
    **{f"acceptance.criterion_{i}": f"acceptance.criterion_{i}" for i in range(1, 10)},
}
PER_LAYER_OBS = {  # metric -> (observation, combine over jobs)
    "algebra.max_degree": ("max_degree", max),
    "algebra.max_coeff_bits": ("max_coeff_bits", max),
    "curve.completed_zeta_factor.distinct_keys": ("distinct_keys", sum),
    "multivar.max_terms": ("max_terms", max),
    "residues.terms_total": ("terms_total", sum),
    "residues.terms_vanished": ("terms_vanished", sum),
    "compositions.enumerated": ("enumerated", sum),
    "cli.json_bytes": ("json_bytes", sum),
}


class Runner:
    """Runs jobs in fresh interpreters and checks their outputs."""

    def __init__(self, curves: dict, work: Path, reference: dict):
        self.curves = curves
        self.work = work
        self.curve_paths = wl.write_curves(curves, work)
        self.roots = oracles.RootData()
        self.reference = reference
        self.t_begin = time.monotonic()
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def spawn(self, spec: dict) -> dict | None:
        spec = dict(spec, root=str(ROOT), launch_ns=time.monotonic_ns())
        budget = max(5.0, RUN_DEADLINE_S + 10 - (time.monotonic() - self.t_begin))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True, timeout=budget,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{spec['id']}: timed out after {budget:.0f} s")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.problems.append(f"{spec['id']}: job exited {proc.returncode}: {tail}")
            return None
        with open(spec["result"]) as fh:
            return json.load(fh)

    def probe(self) -> float | None:
        res = self.spawn({"id": "probe", "kind": "probe", "argv": None,
                          "trace": False, "result": str(self.work / "probe.json")})
        return res["ref_setup_s"] if res else None

    def run_job(self, idx: int, job, trace: bool) -> dict | None:
        """One job: spawn, read its output, check it.  None if it failed."""
        key = job.key(self.curves)
        json_out, csv_out = self.work / f"{idx}.json", self.work / f"{idx}.csv"
        for path in (json_out, csv_out):
            path.unlink(missing_ok=True)
        curve_path = self.curve_paths.get(job.curve)
        spec = {
            "id": key, "kind": job.kind, "trace": trace,
            "argv": wl.cli_argv(job, curve_path, str(json_out), str(csv_out)),
            "curve": curve_path, "params": list(job.params),
            "result": str(self.work / f"{idx}.result.json"),
        }
        res = self.spawn(spec)
        if res is None:
            return None
        if spec["argv"] is None:
            output = res["output"]
        elif json_out.exists():
            output = json.loads(json_out.read_text())
        else:
            self.problems.append(f"{key}: exit {res['rc']} without JSON output")
            return None
        bad = self.check(job, output, res["rc"], csv_out)
        self.problems += [f"{key}: {msg}" for msg in bad]
        res["ok"] = not bad
        res["key"] = key
        res["digest"] = oracles.digest(output)
        self.digests[key] = res["digest"]
        return res

    def check(self, job, out, rc, csv_out: Path) -> list[str]:
        o = oracles
        c = self.curves.get(job.curve)
        try:
            if job.kind == "group":
                rows = len(csv_out.read_text().splitlines()) - 1 if csv_out.exists() else -1
                return o.check_group(job, c, self.roots, out, rows, rc)
            if job.kind == "residue":
                return o.check_residue(job, c, self.roots, out, rc)
            if job.kind == "engine":
                return o.check_engine(job, c, self.roots, out)
            if job.kind == "mass":
                return o.check_mass(job, c, out, rc)
            if job.kind == "beta-sym":
                return o.check_beta_sym(job, c, out)
            return o.check_report(out, rc)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return [f"output not checkable: {type(exc).__name__}: {exc}"]

    def run_pass(self, jobs, trace: bool) -> dict:
        t0 = time.monotonic()
        results = [self.run_job(i, job, trace) for i, job in enumerate(jobs)]
        done = [r for r in results if r is not None]
        return {
            "elapsed_s": time.monotonic() - t0,
            "attempted": len(jobs),
            "failed": len(jobs) - len(done),
            "correct": all(r["ok"] for r in done),
            "wall_s": sum(r["ref_inside_s"] for r in done),
            "raw_wall_s": sum(r["inside_s"] for r in done),
            "peak_rss_mb": max((r["maxrss_kb"] for r in done), default=0) / 1024,
            "setup": [r["ref_setup_s"] for r in done],
            "jobs": [{k: r[k] for k in JOB_FIELDS} for r in done],
            "traces": [r["trace"] for r in done if r.get("trace")],
        }

    def compare_digests(self) -> None:
        same = differ = missing = 0
        for key, d in sorted(self.digests.items()):
            ref = self.reference.get(key)
            if ref is None:
                missing += 1
            elif ref == d:
                same += 1
            else:
                differ += 1
                log(f"digest differs from reference: {key}: {d} (reference {ref})")
        log(f"exact-field digests: {same} match, {differ} differ, {missing} without reference")


def log(msg: str) -> None:
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def per_layer_metrics(traced: dict, untraced: dict) -> dict:
    funcs: dict[str, list] = {}
    layer_incl: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    obs: dict[str, list] = {}
    spans = 0
    for tr in traced["traces"]:
        for name, (calls, incl, own) in tr["functions"].items():
            acc = funcs.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += incl
        for layer, v in tr["layer_incl"].items():
            layer_incl[layer] = layer_incl.get(layer, 0.0) + v
        for layer, v in tr["layer_self"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + v
        for k, v in tr["obs"].items():
            obs.setdefault(k, []).append(v)
        spans += len(tr["spans"]) + tr["spans_dropped"]
    m = {}
    for prefix, fname in PER_LAYER_FUNCS.items():
        calls, incl = funcs.get(fname, [0, 0.0])
        m[f"{prefix}.calls"] = (calls, "count")
        m[f"{prefix}.s"] = (incl, "s")
    m["algebra.roots.companion_fallbacks"] = (funcs.get("algebra._companion_roots", [0])[0], "count")
    for metric, (k, combine) in PER_LAYER_OBS.items():
        unit = "bytes" if k == "json_bytes" else "bits" if "bits" in k else "count"
        m[metric] = (combine(obs.get(k, [0])), unit)
    for layer in sorted(layer_incl):
        m[f"layer.{layer}.incl_s"] = (layer_incl[layer], "s")
        m[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    m["trace.spans"] = (spans, "count")
    return m


def end_to_end_metrics(passes: list[dict], setup: list[float]) -> dict:
    """Per-job medians over the passes, then summed (wall) or maxed (slowest).

    Times are in reference seconds (see job.py): the speed of a shared
    host's CPUs swings by up to 2x for seconds to minutes, which no
    statistic over one run removes; scaling by a calibration loop sampled
    during each job does.
    """
    times: dict[str, list[float]] = {}
    for p in passes:
        for j in p["jobs"]:
            times.setdefault(j["key"], []).append(j["ref_inside_s"])
    per_job = [statistics.median(v) for v in times.values()]
    return {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "wall_s": (sum(per_job), "s"),
        "slowest_job_s": (max(per_job, default=0.0), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }


def select_metrics(measured: dict, wanted: list[dict]) -> dict:
    out = {}
    for entry in wanted:
        value, unit = measured.get(entry["name"], (0, entry["unit"]))
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def run(args, spec: dict) -> int:
    jobs = wl.WORKLOADS[args.workload]
    curves = wl.curves_for_seed(args.seed)
    for role, c in sorted(curves.items()):
        log(f"seed {args.seed}: {role} = {c.label}")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(curves, work, reference)
        setup = [runner.probe() for _ in range(SETUP_PROBES)][1:]
        setup = [s for s in setup if s is not None]
        passes: list[dict] = []
        t0 = time.monotonic()
        while True:
            passes.append(runner.run_pass(jobs, trace=False))
            elapsed = time.monotonic() - t0
            mean = elapsed / len(passes)
            log(f"pass {len(passes)}: wall_s {passes[-1]['wall_s']:.3f} (measured "
                f"{passes[-1]['raw_wall_s']:.3f}) "
                f"in {passes[-1]['elapsed_s']:.1f} s")
            if args.trace or time.monotonic() - runner.t_begin + mean > RUN_DEADLINE_S:
                break
            if len(passes) >= MIN_PASSES and elapsed + mean > args.seconds:
                break
        traced = runner.run_pass(jobs, trace=True) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    all_passes = passes + ([traced] if traced else [])
    setup += [s for p in passes for s in p["setup"]]
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    correct = all(p["correct"] for p in all_passes)
    for msg in runner.problems:
        log(f"PROBLEM {msg}")
    runner.compare_digests()
    if traced:
        measured = per_layer_metrics(traced, passes[0])
        metrics = select_metrics(measured, spec["per_layer"])
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "spans_fields": ["job", "id", "parent", "name", "start_s", "end_s"],
            "spans": [s for tr in traced["traces"] for s in tr["spans"]],
            "functions": {tr["job"]: tr["functions"] for tr in traced["traces"]},
            "metrics": metrics,
        }) + "\n")
        log(f"trace written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = select_metrics(end_to_end_metrics(passes, setup), spec["end_to_end"])
    for p in all_passes:
        p.pop("traces", None)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "curves": {r: c.label for r, c in curves.items()},
                    "passes": all_passes, "metrics": metrics}, indent=1) + "\n"
    )
    log(f"{args.workload}: {len(passes)} passes, {attempted} operations, {failed} failed, "
        f"correct={correct}")
    for name, m in metrics.items():
        log(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def make_reference() -> int:
    """Run every job on every candidate curve once and store the digests."""
    OUT.mkdir(exist_ok=True)
    digests: dict[str, str] = {}
    problems: list[str] = []
    n = max(len(wl.G1_CANDIDATES), len(wl.G2_CANDIDATES))
    for i in range(n):
        curves = {"g1": wl.G1_CANDIDATES[i % len(wl.G1_CANDIDATES)],
                  "g2": wl.G2_CANDIDATES[i % len(wl.G2_CANDIDATES)]}
        work = OUT / f"work-{os.getpid()}-{i}"
        work.mkdir()
        try:
            runner = Runner(curves, work, {})
            for name, jobs in wl.WORKLOADS.items():
                todo = [j for j in jobs if j.key(curves) not in digests]
                if not todo:
                    continue
                p = runner.run_pass(todo, trace=False)
                log(f"{name} on {curves['g1'].label}, {curves['g2'].label}: "
                    f"{len(todo)} jobs, {p['failed']} failed, correct={p['correct']}")
                digests.update((j["key"], j["digest"]) for j in p["jobs"])
            problems += runner.problems
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for msg in problems:
        log(f"PROBLEM {msg}")
    if problems:
        log("reference digests not written: fix the problems above first")
        return 1
    REFERENCE.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    log(f"wrote {len(digests)} digests to {REFERENCE.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="regenerate the reference digests of exact output fields")
    args = parser.parse_args()
    if not (SRC / "nazeta" / "__init__.py").is_file():
        log(f"no nazeta sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    import nazeta

    if not Path(nazeta.__file__).resolve().is_relative_to(SRC.resolve()):
        log(f"nazeta imported from {nazeta.__file__}, not from {SRC}")
        return 2
    if args.make_reference:
        return make_reference()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    if args.seed is None:
        args.seed = wl.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
