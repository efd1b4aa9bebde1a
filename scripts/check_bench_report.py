#!/usr/bin/env python3
"""Validate a bench_util --json report.

Checks that the report is well-formed, carries a non-empty StatsRegistry
block (the observability plane is wired into the harness), and — when a
baseline report is given — that throughput metrics have not regressed beyond
a tolerance. A comparison also prints the host fingerprint of both reports
(nproc, CPU model, calibration-loop ns; "not recorded" for reports written
before the writer had one), so a slower runner shows next to the numbers; it
does not change the verdict. Used by the CI bench-smoke job; run it locally
the same way:

    bench/micro_fastpath --json report.json
    scripts/check_bench_report.py report.json \
        --baseline BENCH_micro_fastpath.json --tolerance 0.05
"""
import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def index_results(report):
    return {(r["config"], r["metric"]): r for r in report.get("results", [])}


def fingerprint(report):
    host = report.get("host")
    if not isinstance(host, dict):
        return "not recorded"
    return (f"nproc={host.get('nproc')} cpu_model={host.get('cpu_model')!r} "
            f"calib_ns={host.get('calib_ns')}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("report", help="fresh --json report to validate")
    ap.add_argument("--baseline", help="committed report to compare against")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed fractional regression (default 0.05)")
    ap.add_argument("--p99-tolerance", type=float, default=0.25,
                    help="allowed fractional p99 regression when both reports "
                         "carry a p99 (default 0.25; tails are noisier than "
                         "medians, so the gate is wider)")
    ap.add_argument("--require-stats", action="store_true", default=True,
                    help="fail unless the report embeds a non-empty stats block")
    ap.add_argument("--gate-ratio", action="append", default=[],
                    metavar="NUM_CONFIG:DEN_CONFIG:METRIC:MIN",
                    help="require median[NUM_CONFIG][METRIC] >= MIN × "
                         "median[DEN_CONFIG][METRIC] within this report "
                         "(repeatable); e.g. overlap_on:overlap_off:"
                         "dot_melems_c512:1.3 gates the comm/compute overlap "
                         "win of the compute layer")
    ap.add_argument("--gate-min", action="append", default=[],
                    metavar="CONFIG:METRIC:MIN",
                    help="require median[CONFIG][METRIC] >= MIN within this "
                         "report (repeatable); e.g. admission_on:shed_pct:1 "
                         "asserts the overload phase actually shed")
    ap.add_argument("--gate-max", action="append", default=[],
                    metavar="CONFIG:METRIC:MAX",
                    help="require median[CONFIG][METRIC] <= MAX within this "
                         "report (repeatable); e.g. stages:stage_sum_ratio:1.1 "
                         "asserts the journey stages partition end-to-end time")
    args = ap.parse_args()

    report = load(args.report)
    failures = []

    for key in ("bench", "reps", "results"):
        if key not in report:
            failures.append(f"report is missing the '{key}' field")
    if not report.get("results"):
        failures.append("report has no results")

    # The StatsRegistry block: present, a dict, and carrying at least the
    # fabric + runtime counter families.
    stats = report.get("stats")
    if not isinstance(stats, dict) or not stats:
        failures.append("report has no embedded StatsRegistry block "
                        "('stats' missing or empty)")
    else:
        for family in ("fabric.", "runtime."):
            if not any(name.startswith(family) for name in stats):
                failures.append(f"stats block has no {family}* counters")
        bad = [k for k, v in stats.items() if not isinstance(v, int) or v < 0]
        if bad:
            failures.append(f"stats entries are not non-negative ints: {bad}")

    # The telemetry series block is optional — committed BENCH files predate
    # it — but when present it must be coherent: a positive sample period,
    # strictly increasing timestamps per metric, and non-negative values.
    series = report.get("series")
    n_series = 0
    if series is not None:
        if not isinstance(series, dict):
            failures.append("'series' present but not an object")
        else:
            sample_ns = series.get("sample_ns")
            if not isinstance(sample_ns, int) or sample_ns <= 0:
                failures.append(f"series.sample_ns invalid: {sample_ns!r}")
            metrics = series.get("metrics")
            if not isinstance(metrics, list) or not metrics:
                failures.append("series.metrics missing or empty")
                metrics = []
            for m in metrics:
                name = m.get("metric")
                if not isinstance(name, str) or not name:
                    failures.append("series entry without a metric name")
                    continue
                n_series += 1
                if not isinstance(m.get("rate"), bool):
                    failures.append(f"series {name}: missing 'rate' flag")
                pts = m.get("points")
                if not isinstance(pts, list) or not pts:
                    failures.append(f"series {name}: no points")
                    continue
                last_t = -1
                for p in pts:
                    if (not isinstance(p, list) or len(p) != 2
                            or not all(isinstance(x, int) for x in p)):
                        failures.append(f"series {name}: bad point {p!r}")
                        break
                    t, v = p
                    if t <= last_t:
                        failures.append(f"series {name}: timestamps not "
                                        f"strictly increasing at t={t}")
                        break
                    if v < 0:
                        failures.append(f"series {name}: negative value {v} "
                                        f"at t={t}")
                        break
                    last_t = t

    if args.baseline:
        base_report = load(args.baseline)
        print(f"host (fresh):    {fingerprint(report)}")
        print(f"host (baseline): {fingerprint(base_report)}")
        base = index_results(base_report)
        fresh = index_results(report)
        for key, b in sorted(base.items()):
            f = fresh.get(key)
            if f is None:
                failures.append(f"metric {key} present in baseline but absent "
                                "from the fresh report")
                continue
            if f["unit"] != b["unit"]:
                failures.append(f"metric {key} changed unit: "
                                f"{b['unit']} -> {f['unit']}")
                continue
            # Higher-is-better units regress downward; latency units upward.
            higher_is_better = "/s" in b["unit"]
            bm, fm = float(b["median"]), float(f["median"])
            if bm <= 0:
                continue
            delta = (bm - fm) / bm if higher_is_better else (fm - bm) / bm
            tag = (f"{key[0]}/{key[1]}: baseline {bm:g} {b['unit']}, "
                   f"fresh {fm:g} ({delta:+.1%})")
            if delta > args.tolerance:
                failures.append("REGRESSION " + tag)
            else:
                print("ok " + tag)
            # Tail gate: medians can hold steady while p99 quietly blows up
            # (a stall on the slow path), so the tail is checked separately,
            # with a wider tolerance.
            bp, fp = float(b.get("p99", 0)), float(f.get("p99", 0))
            if bp <= 0 or fp <= 0:
                continue
            p99_delta = (bp - fp) / bp if higher_is_better else (fp - bp) / bp
            p99_tag = (f"{key[0]}/{key[1]} p99: baseline {bp:g} {b['unit']}, "
                       f"fresh {fp:g} ({p99_delta:+.1%})")
            if p99_delta > args.p99_tolerance:
                failures.append("P99 REGRESSION " + p99_tag)
            else:
                print("ok " + p99_tag)

    # Intra-report ratio gates: one config must beat another on the same
    # metric by a floor factor (the overlap-on vs overlap-off ablation).
    if args.gate_ratio:
        fresh = index_results(report)
        for spec in args.gate_ratio:
            parts = spec.split(":")
            if len(parts) != 4:
                failures.append(f"bad --gate-ratio spec {spec!r} "
                                "(want NUM_CONFIG:DEN_CONFIG:METRIC:MIN)")
                continue
            num_cfg, den_cfg, metric, floor = parts
            try:
                floor = float(floor)
            except ValueError:
                failures.append(f"bad --gate-ratio floor in {spec!r}")
                continue
            num = fresh.get((num_cfg, metric))
            den = fresh.get((den_cfg, metric))
            if num is None or den is None:
                missing = num_cfg if num is None else den_cfg
                failures.append(f"gate-ratio {spec}: no result for "
                                f"({missing}, {metric})")
                continue
            nm, dm = float(num["median"]), float(den["median"])
            if dm <= 0:
                failures.append(f"gate-ratio {spec}: denominator median "
                                f"{dm:g} is not positive")
                continue
            ratio = nm / dm
            tag = (f"{metric}: {num_cfg} {nm:g} / {den_cfg} {dm:g} "
                   f"= {ratio:.2f}x (floor {floor:g}x)")
            if ratio < floor:
                failures.append("RATIO GATE " + tag)
            else:
                print("ok " + tag)

    # Absolute floor gates: a config's median must clear a fixed threshold
    # (e.g. the admission-on soak phase must actually shed under overload).
    if args.gate_min:
        fresh = index_results(report)
        for spec in args.gate_min:
            parts = spec.split(":")
            if len(parts) != 3:
                failures.append(f"bad --gate-min spec {spec!r} "
                                "(want CONFIG:METRIC:MIN)")
                continue
            cfg, metric, floor = parts
            try:
                floor = float(floor)
            except ValueError:
                failures.append(f"bad --gate-min floor in {spec!r}")
                continue
            r = fresh.get((cfg, metric))
            if r is None:
                failures.append(f"gate-min {spec}: no result for "
                                f"({cfg}, {metric})")
                continue
            median = float(r["median"])
            tag = f"{cfg}/{metric}: median {median:g} (floor {floor:g})"
            if median < floor:
                failures.append("MIN GATE " + tag)
            else:
                print("ok " + tag)

    # Absolute ceiling gates: the mirror of --gate-min, for metrics that must
    # stay bounded (ratios near 1, error percentages, etc.).
    if args.gate_max:
        fresh = index_results(report)
        for spec in args.gate_max:
            parts = spec.split(":")
            if len(parts) != 3:
                failures.append(f"bad --gate-max spec {spec!r} "
                                "(want CONFIG:METRIC:MAX)")
                continue
            cfg, metric, ceiling = parts
            try:
                ceiling = float(ceiling)
            except ValueError:
                failures.append(f"bad --gate-max ceiling in {spec!r}")
                continue
            r = fresh.get((cfg, metric))
            if r is None:
                failures.append(f"gate-max {spec}: no result for "
                                f"({cfg}, {metric})")
                continue
            median = float(r["median"])
            tag = f"{cfg}/{metric}: median {median:g} (ceiling {ceiling:g})"
            if median > ceiling:
                failures.append("MAX GATE " + tag)
            else:
                print("ok " + tag)

    if failures:
        for f in failures:
            print("FAIL:", f, file=sys.stderr)
        return 1
    tail = (f", series block well-formed ({n_series} metrics)"
            if series is not None else "")
    print(f"report {args.report}: stats block present "
          f"({len(stats)} counters){tail}, all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
