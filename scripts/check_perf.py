#!/usr/bin/env python3
"""Perf regression gate over sage_bench JSON record files.

Compares a fresh record file (schema v1, see bench/harness.h) against a
committed baseline — normally bench/baselines/smoke.json — and fails when:

  * the median wall-clock of any comparable record regresses by more than
    --wall-tolerance (default 25%); records whose baseline median is below
    --min-wall-seconds (default 5 ms) are skipped, sub-millisecond rows are
    scheduler jitter, not signal;
  * the serving p99 latency ("latency_seconds" on QueryService-measured
    rows) regresses by more than --latency-tolerance (default 25%);
    baselines with p99 below --min-latency-seconds (default 5 ms) are
    skipped for the same jitter reason, and a gated row silently losing
    its latency fields fails outright;
  * any PSAM counter gate (psam_cost, nvram_reads, nvram_writes) of a
    comparable record grows beyond --counter-tolerance (default 2%, plus a
    small absolute slack for tiny counts). Counters are deterministic at
    -threads 1, so this catches real traffic regressions; the tolerance
    absorbs the scheduling noise of multi-threaded rows (pass
    --counter-tolerance 0 for the strict gate).

A counter of a comparable record that falls more than 10% below the
baseline does not fail the gate, but it prints a warning: the gate only
fails rises, so a baseline left above the code it gates would let a real
regression back up to the stale figure pass unnoticed.

Records are matched by (benchmark, label, config, threads, graph n/m).
Records present on only one side are reported as warnings — thread-width
sweeps legitimately differ across machines — but zero overlap is an error
(wrong scale or wrong file). Exit codes: 0 pass, 1 regression, 2 usage or
schema error.

Refresh the baseline after an intentional perf change with:
    scripts/run_bench.sh --baseline

Self-check (run by CTest): check_perf.py --self-test
"""

import argparse
import copy
import json
import sys

SCHEMA_VERSION = 1
COUNTER_GATES = ("psam_cost", "nvram_reads", "nvram_writes")
# Absolute slack (words) added on top of the relative counter tolerance so
# tiny baselines (hundreds of words) don't fail on one extra chunk refill.
COUNTER_ABS_SLACK = 1024
# A fresh counter this far below its baseline means the baseline is stale.
STALE_COUNTER_DROP = 0.10


def record_key(rec):
    return (
        rec["benchmark"],
        rec["label"],
        tuple(sorted(rec.get("config", {}).items())),
        rec.get("threads", 0),
        rec.get("graph", {}).get("n", 0),
        rec.get("graph", {}).get("m", 0),
    )


def load_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    if not isinstance(doc.get("records"), list):
        raise ValueError(f"{path}: no records array")
    for i, rec in enumerate(doc["records"]):
        for key in ("benchmark", "label"):
            if key not in rec:
                raise ValueError(f"{path}: record {i} has no '{key}'")
    return doc


def counter_values(rec):
    """The gated counter scalars of a record, or None when unmeasured."""
    counters = rec.get("counters")
    if counters is None:
        return None
    return {
        "psam_cost": float(rec.get("psam_cost", 0.0)),
        "nvram_reads": float(counters.get("nvram_reads", 0)),
        "nvram_writes": float(counters.get("nvram_writes", 0)),
    }


def compare(fresh_doc, base_doc, *, wall_tolerance=0.25,
            counter_tolerance=0.02, min_wall_seconds=0.005,
            latency_tolerance=0.25, min_latency_seconds=0.005):
    """Returns (ok, regressions, warnings, checked_counts)."""
    fresh = {record_key(r): r for r in fresh_doc["records"]}
    base = {record_key(r): r for r in base_doc["records"]}
    overlap = [k for k in base if k in fresh]
    regressions = []
    warnings = []

    # A baseline row absent from the fresh run is only legitimate when the
    # same row exists at a *different* thread width (machine-dependent
    # sweeps like fig6). A row gone at every width means coverage shrank —
    # an algorithm stopped being measured, or a -filter snuck in — and
    # that must fail, not warn, or the gate erodes silently.
    def widthless(k):
        return (k[0], k[1], k[2], k[4], k[5])

    fresh_widthless = {widthless(k) for k in fresh}
    missing = [k for k in base if k not in fresh]
    extra = [k for k in fresh if k not in base]
    for k in missing:
        if widthless(k) in fresh_widthless:
            warnings.append(
                f"baseline record missing from fresh run (thread-width "
                f"mismatch): {k[0]}/{k[1]} (T{k[3]})"
            )
        else:
            regressions.append(
                f"{k[0]}/{k[1]}: baseline row missing from fresh run at "
                f"every thread width — measurement coverage lost"
            )
    # Split the unmatched fresh rows into whole new benchmark *families*
    # (a `benchmark` name the baseline has no row of at all — a freshly
    # added benchmark, one warning per family) and stray per-row additions
    # inside families the baseline already gates (new labels/configs, one
    # warning per row, as before). A new family is expected exactly once —
    # on the PR adding the benchmark — so drowning it in per-row noise
    # would hide the one line telling the author to adopt it.
    base_families = {k[0] for k in base}
    family_rows = [k for k in extra if k[0] not in base_families]
    extra = [k for k in extra if k[0] in base_families]
    for family in sorted({k[0] for k in family_rows}):
        count = sum(1 for k in family_rows if k[0] == family)
        warnings.append(
            f"new benchmark family not in baseline: {family} ({count} "
            f"row(s)) — adopt it with scripts/run_bench.sh --baseline"
        )
    for k in extra:
        warnings.append(f"fresh record not in baseline (new row?): {k[0]}/{k[1]}")
    if extra:
        # The per-row lines scroll away in CI logs; one closing line makes
        # ungated coverage visible and says how to adopt it.
        warnings.append(
            f"{len(extra)} new/unmatched fresh row(s) are not gated by this "
            f"baseline — if intentional, refresh it with "
            f"scripts/run_bench.sh --baseline"
        )
    if not overlap:
        regressions.append(
            "no overlapping records between fresh and baseline "
            "(different scale, threads, or benchmark set?)"
        )
        return False, regressions, warnings, {
            "wall": 0, "counters": 0, "latency": 0}

    wall_checked = 0
    counters_checked = 0
    latency_checked = 0
    for k in overlap:
        f_rec, b_rec = fresh[k], base[k]
        name = f"{k[0]}/{k[1]}" + (f" (T{k[3]})" if k[3] else "")

        b_wall = b_rec.get("wall_seconds", {}).get("median", 0.0)
        f_wall = f_rec.get("wall_seconds", {}).get("median", 0.0)
        if b_wall >= min_wall_seconds:
            wall_checked += 1
            if f_wall > b_wall * (1.0 + wall_tolerance):
                regressions.append(
                    f"{name}: median wall {f_wall:.4f}s vs baseline "
                    f"{b_wall:.4f}s (+{100.0 * (f_wall / b_wall - 1.0):.0f}%, "
                    f"tolerance {100.0 * wall_tolerance:.0f}%)"
                )

        b_latency = b_rec.get("latency_seconds")
        f_latency = f_rec.get("latency_seconds")
        if b_latency is not None and f_latency is None:
            # Serving rows carry percentiles; losing them would leave the
            # serving path's tail latency ungated.
            regressions.append(
                f"{name}: baseline row has latency percentiles but the "
                f"fresh record has none — latency gate lost"
            )
        if b_latency is not None and f_latency is not None:
            b_p99 = float(b_latency.get("p99", 0.0))
            f_p99 = float(f_latency.get("p99", 0.0))
            if b_p99 >= min_latency_seconds:
                latency_checked += 1
                if f_p99 > b_p99 * (1.0 + latency_tolerance):
                    regressions.append(
                        f"{name}: p99 latency {f_p99 * 1000:.2f}ms vs "
                        f"baseline {b_p99 * 1000:.2f}ms "
                        f"(+{100.0 * (f_p99 / b_p99 - 1.0):.0f}%, tolerance "
                        f"{100.0 * latency_tolerance:.0f}%)"
                    )

        f_counters = counter_values(f_rec)
        b_counters = counter_values(b_rec)
        if b_counters is not None and f_counters is None:
            # A gated row silently losing its counters would otherwise
            # leave it (and at smoke scale, possibly everything) ungated.
            regressions.append(
                f"{name}: baseline row has PSAM counters but the fresh "
                f"record has none — counter gate lost"
            )
        if f_counters is not None and b_counters is not None:
            counters_checked += 1
            for gate in COUNTER_GATES:
                allowed = (
                    b_counters[gate] * (1.0 + counter_tolerance)
                    + COUNTER_ABS_SLACK
                )
                if f_counters[gate] > allowed:
                    regressions.append(
                        f"{name}: {gate} {f_counters[gate]:.0f} vs baseline "
                        f"{b_counters[gate]:.0f} (allowed {allowed:.0f})"
                    )
            dropped = [
                f"{gate} {f_counters[gate]:.0f} vs {b_counters[gate]:.0f}"
                for gate in COUNTER_GATES
                if f_counters[gate]
                < b_counters[gate] * (1.0 - STALE_COUNTER_DROP)
            ]
            if dropped:
                warnings.append(
                    f"{name}: counters more than "
                    f"{100.0 * STALE_COUNTER_DROP:.0f}% below the baseline "
                    f"({', '.join(dropped)}) — stale baseline? refresh it "
                    f"with scripts/run_bench.sh --baseline"
                )

    checked = {"wall": wall_checked, "counters": counters_checked,
               "latency": latency_checked}
    return not regressions, regressions, warnings, checked


def run_check(args):
    try:
        fresh = load_doc(args.fresh)
        base = load_doc(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_perf: error: {e}", file=sys.stderr)
        return 2
    ok, regressions, warnings, checked = compare(
        fresh, base,
        wall_tolerance=args.wall_tolerance,
        counter_tolerance=args.counter_tolerance,
        min_wall_seconds=args.min_wall_seconds,
        latency_tolerance=args.latency_tolerance,
        min_latency_seconds=args.min_latency_seconds,
    )
    for w in warnings:
        print(f"check_perf: warning: {w}")
    for r in regressions:
        print(f"check_perf: REGRESSION: {r}")
    status = "PASS" if ok else "FAIL"
    print(
        f"check_perf: {status} — {len(fresh['records'])} fresh vs "
        f"{len(base['records'])} baseline records; wall gate on "
        f"{checked['wall']} rows (>= {args.min_wall_seconds * 1000:.0f} ms), "
        f"counter gate on {checked['counters']} rows, latency gate on "
        f"{checked['latency']} rows; "
        f"{len(regressions)} regressions, {len(warnings)} warnings"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Self-test (run by CTest as `check_perf.py --self-test`)


def make_record(benchmark="b", label="row", wall=0.1, nvram_reads=1_000_000,
                nvram_writes=0, psam_cost=None, with_counters=True,
                threads=1, latency_p99=None):
    rec = {
        "benchmark": benchmark,
        "label": label,
        "config": {"system": "Sage-NVRAM"},
        "graph": {"log_n": 10, "requested_edges": 20000, "n": 1024,
                  "m": 27970},
        "threads": threads,
        "repetitions": 3,
        "warmup": 1,
        "wall_seconds": {"count": 3, "min": wall, "max": wall, "mean": wall,
                         "median": wall, "stddev": 0.0},
        "device_seconds": 0.001,
        "model_seconds": max(wall, 0.001),
        "omega": 4.0,
        "peak_intermediate_bytes": 4096,
        "metrics": {},
    }
    if latency_p99 is not None:
        rec["latency_seconds"] = {
            "p50": latency_p99 / 2, "p95": latency_p99 * 0.9,
            "p99": latency_p99,
        }
    if with_counters:
        if psam_cost is None:
            psam_cost = nvram_reads + 4.0 * nvram_writes
        rec["psam_cost"] = psam_cost
        rec["counters"] = {
            "dram_reads": 0, "dram_writes": 0,
            "nvram_reads": nvram_reads, "nvram_writes": nvram_writes,
            "remote_nvram_accesses": 0, "memory_mode_hits": 0,
            "memory_mode_misses": 0,
        }
    return rec


def make_doc(records):
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": "sage_bench",
        "git_sha": "selftest",
        "threads": 1,
        "scale": {"log_n": 10, "edges": 20000},
        "repetitions": 3,
        "warmup": 1,
        "records": records,
    }


def self_test():
    failures = []

    def check(name, cond):
        print(f"  {'ok' if cond else 'FAIL'}: {name}")
        if not cond:
            failures.append(name)

    base = make_doc([make_record()])

    ok, _, _, _ = compare(copy.deepcopy(base), base)
    check("identical documents pass", ok)

    ok, regs, _, _ = compare(make_doc([make_record(wall=0.2)]), base)
    check("2x median wall regression fails", not ok and "wall" in regs[0])

    ok, _, _, _ = compare(make_doc([make_record(wall=0.105)]), base)
    check("+5% wall within 25% tolerance passes", ok)

    tiny_base = make_doc([make_record(wall=0.001)])
    ok, _, _, checked = compare(make_doc([make_record(wall=0.004)]), tiny_base)
    check("sub-threshold wall rows are skipped", ok and checked["wall"] == 0)

    ok, regs, _, _ = compare(
        make_doc([make_record(nvram_writes=50_000)]), base)
    check("new NVRAM writes fail the counter gate",
          not ok and any("nvram_writes" in r for r in regs))

    ok, regs, _, _ = compare(
        make_doc([make_record(nvram_reads=1_200_000)]), base)
    check("+20% nvram_reads fails the counter gate",
          not ok and any("nvram_reads" in r for r in regs))

    ok, _, _, _ = compare(make_doc([make_record(nvram_reads=1_010_000)]), base)
    check("+1% nvram_reads within 2% tolerance passes", ok)

    ok, _, _, _ = compare(
        make_doc([make_record(nvram_reads=1_010_000)]), base,
        counter_tolerance=0.0)
    check("+1% nvram_reads fails the strict gate", not ok)

    ok, _, warns, _ = compare(
        make_doc([make_record(nvram_reads=850_000)]), base)
    check("counter >10% below baseline warns, still passes",
          ok and any("stale baseline" in w and "nvram_reads" in w
                     for w in warns))

    ok, _, warns, _ = compare(
        make_doc([make_record(nvram_reads=950_000)]), base)
    check("counter 5% below baseline does not warn",
          ok and not any("stale baseline" in w for w in warns))

    stat_base = make_doc([make_record(with_counters=False)])
    ok, _, _, checked = compare(
        make_doc([make_record(with_counters=False, wall=5.0)]), stat_base,
        min_wall_seconds=10.0)
    check("records without counters skip the counter gate",
          ok and checked["counters"] == 0)

    ok, regs, _, _ = compare(make_doc([make_record(with_counters=False)]),
                             base)
    check("fresh record losing its counters fails",
          not ok and any("counter gate lost" in r for r in regs))

    ok, _, _, _ = compare(make_doc([make_record()]), stat_base)
    check("fresh record gaining counters passes", ok)

    serve_base = make_doc([make_record(latency_p99=0.010)])
    ok, _, _, checked = compare(
        make_doc([make_record(latency_p99=0.011)]), serve_base)
    check("+10% p99 within 25% tolerance passes",
          ok and checked["latency"] == 1)

    ok, regs, _, _ = compare(
        make_doc([make_record(latency_p99=0.020)]), serve_base)
    check("2x p99 latency regression fails",
          not ok and any("p99 latency" in r for r in regs))

    tiny_serve = make_doc([make_record(latency_p99=0.001)])
    ok, _, _, checked = compare(
        make_doc([make_record(latency_p99=0.004)]), tiny_serve)
    check("sub-floor p99 baselines are skipped",
          ok and checked["latency"] == 0)

    ok, regs, _, _ = compare(make_doc([make_record()]), serve_base)
    check("fresh record losing its latency fields fails",
          not ok and any("latency gate lost" in r for r in regs))

    ok, _, _, _ = compare(make_doc([make_record(latency_p99=0.010)]), base)
    check("fresh record gaining latency fields passes", ok)

    ok, regs, _, _ = compare(
        make_doc([make_record(label="other")]), base)
    check("zero overlap fails",
          not ok and any("no overlapping" in r for r in regs))

    ok, _, warns, _ = compare(
        make_doc([make_record(), make_record(threads=4)]), base)
    check("extra fresh records only warn",
          ok and sum("not in baseline" in w for w in warns) == 1)
    check("extra fresh records get an unmatched-rows summary",
          any("new/unmatched" in w and "1 " in w for w in warns))

    ok, _, warns, _ = compare(
        make_doc([make_record(),
                  make_record(threads=4),
                  make_record(label="brand-new")]), base)
    check("unmatched-rows summary counts every extra row",
          ok and any("2 new/unmatched" in w for w in warns))

    family_doc = make_doc([
        make_record(),
        make_record(benchmark="update_throughput", label="apply-batches"),
        make_record(benchmark="update_throughput", label="mixed read-write"),
    ])
    ok, _, warns, _ = compare(family_doc, base)
    check("whole new benchmark family warns once, not per row",
          ok and sum("new benchmark family" in w for w in warns) == 1
          and any("update_throughput (2 row(s))" in w for w in warns))
    check("new-family rows are kept out of the per-row unmatched noise",
          not any("new row?" in w for w in warns)
          and not any("new/unmatched" in w for w in warns))

    mixed_doc = make_doc([
        make_record(),
        make_record(threads=4),
        make_record(benchmark="update_throughput", label="apply-batches"),
    ])
    ok, _, warns, _ = compare(mixed_doc, base)
    check("family and per-row additions are reported separately",
          ok and any("new benchmark family" in w for w in warns)
          and sum("new row?" in w for w in warns) == 1
          and any("1 new/unmatched" in w for w in warns))

    # Multi-shard rows: one family whose rows differ only in the `shards`
    # config key. The whole family rides the adopt-the-baseline path, and
    # once adopted the shards key is part of row identity.
    def shard_record(shards, label=None):
        rec = make_record(benchmark="multi_shard",
                          label=label or f"bfs {shards} shard(s)")
        rec["config"]["shards"] = str(shards)
        return rec

    shard_doc = make_doc([make_record()] + [shard_record(k)
                                            for k in (1, 2, 4)])
    ok, _, warns, _ = compare(shard_doc, base)
    check("multi_shard rows keyed by shards config adopt as one family",
          ok and any("multi_shard (3 row(s))" in w for w in warns))

    moved_doc = make_doc([make_record(), shard_record(1), shard_record(2),
                          shard_record(8, label="bfs 4 shard(s)")])
    ok, regs, warns, _ = compare(moved_doc, shard_doc)
    check("a changed shards config un-matches the row instead of "
          "comparing against the old shard count",
          not ok and any("coverage lost" in r for r in regs)
          and sum("new row?" in w for w in warns) == 1)

    sweep_base = make_doc([make_record(), make_record(threads=4)])
    ok, _, warns, _ = compare(make_doc([make_record()]), sweep_base)
    check("row missing at one thread width only warns",
          ok and any("thread-width" in w for w in warns))

    two_base = make_doc([make_record(), make_record(label="other")])
    ok, regs, _, _ = compare(make_doc([make_record()]), two_base)
    check("row missing at every thread width fails",
          not ok and any("coverage lost" in r for r in regs))

    try:
        load_doc("/nonexistent/check_perf_selftest.json")
        check("missing file raises", False)
    except OSError:
        check("missing file raises", True)

    bad = make_doc([make_record()])
    bad["schema_version"] = 99
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(bad, f)
        bad_path = f.name
    try:
        load_doc(bad_path)
        check("schema version mismatch raises", False)
    except ValueError:
        check("schema version mismatch raises", True)
    finally:
        os.unlink(bad_path)

    if failures:
        print(f"check_perf self-test: {len(failures)} FAILED")
        return 1
    print("check_perf self-test: all passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("fresh", nargs="?", help="fresh sage_bench JSON file")
    parser.add_argument("baseline", nargs="?",
                        help="baseline JSON file (bench/baselines/smoke.json)")
    parser.add_argument("--wall-tolerance", type=float, default=0.25,
                        help="allowed relative median-wall growth (default 0.25)")
    parser.add_argument("--counter-tolerance", type=float, default=0.02,
                        help="allowed relative counter growth (default 0.02)")
    parser.add_argument("--min-wall-seconds", type=float, default=0.005,
                        help="skip wall gate below this baseline median "
                             "(default 0.005)")
    parser.add_argument("--latency-tolerance", type=float, default=0.25,
                        help="allowed relative p99 latency growth "
                             "(default 0.25)")
    parser.add_argument("--min-latency-seconds", type=float, default=0.005,
                        help="skip latency gate below this baseline p99 "
                             "(default 0.005)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in behavior checks and exit")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.fresh or not args.baseline:
        parser.error("fresh and baseline files are required")
    sys.exit(run_check(args))


if __name__ == "__main__":
    main()
