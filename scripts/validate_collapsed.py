#!/usr/bin/env python3
"""Validate flamegraph-collapsed folded stacks from the sampling profiler.

The profiler (src/obs/profiler) emits one folded line per aggregated cell:

    <thread>;(<phase>[:op]);<root>;...;<leaf> <count>

This checks what downstream flamegraph tooling (flamegraph.pl, speedscope)
would choke on, plus the repo's own attribution invariants:

  - every line splits into "<frames> <count>" with a positive integer count
    (count split on the LAST space: demangled frames keep no spaces, but
    defend against regressions);
  - frames contain no spaces and no stray semicolon artifacts (empty frames);
  - the first frame is the recording thread, the second the (phase) tag;
  - at least --min-named of the samples (default 90%) sit on named threads
    (anything not "[unnamed]" — rings exist only for registered threads, so
    a miss here means the registration hooks regressed);
  - each --require-symbol SUBSTR appears in at least one stack (CI passes the
    comm progress loop and dispatcher worker: the serve soak must attribute
    cycles to both by name).

Stdlib only:

    scripts/validate_collapsed.py serve_profile.collapsed \
        --require-symbol progress_main --require-symbol worker_main
"""
import argparse
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("path")
    ap.add_argument("--min-samples", type=int, default=1,
                    help="fail when fewer total samples than this (default 1)")
    ap.add_argument("--min-named", type=float, default=0.9,
                    help="minimum fraction of samples on named threads")
    ap.add_argument("--require-symbol", action="append", default=[],
                    help="substring that must appear in some stack frame")
    args = ap.parse_args()

    errors = []
    total = 0
    named = 0
    seen_symbols = set()
    threads = set()
    n_lines = 0

    with open(args.path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            n_lines += 1
            head, sep, count_s = line.rpartition(" ")
            if not sep:
                errors.append(f"line {lineno}: no count field: {line!r}")
                continue
            if not count_s.isdigit() or int(count_s) <= 0:
                errors.append(f"line {lineno}: bad count {count_s!r}")
                continue
            count = int(count_s)
            frames = head.split(";")
            if len(frames) < 2:
                errors.append(f"line {lineno}: need thread and phase frames: {line!r}")
                continue
            bad = [fr for fr in frames if fr == "" or " " in fr]
            if bad:
                errors.append(f"line {lineno}: malformed frames {bad!r}")
                continue
            if not (frames[1].startswith("(") and frames[1].endswith(")")):
                errors.append(f"line {lineno}: second frame is not a (phase) tag: "
                              f"{frames[1]!r}")
                continue
            total += count
            threads.add(frames[0])
            if frames[0] != "[unnamed]":
                named += count
            for fr in frames[2:]:
                seen_symbols.add(fr)

    if n_lines == 0:
        errors.append("no folded lines at all")
    if total < args.min_samples:
        errors.append(f"only {total} samples, need >= {args.min_samples}")
    if total > 0 and named / total < args.min_named:
        errors.append(f"named-thread samples {named}/{total} "
                      f"({named / total:.1%}) below {args.min_named:.0%}")
    for want in args.require_symbol:
        if not any(want in s for s in seen_symbols):
            errors.append(f"required symbol substring {want!r} not in any stack")

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        print(f"validate_collapsed: {len(errors)} error(s) in {args.path}",
              file=sys.stderr)
        return 1
    print(f"validate_collapsed: OK — {n_lines} cells, {total} samples, "
          f"{len(threads)} threads ({', '.join(sorted(threads))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
