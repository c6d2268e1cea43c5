#!/usr/bin/env python3
"""Compares how often one gtest fails in two test binaries.

Runs the named test RUNS times in each binary, alternating between them
so host noise falls on both sides alike, and prints the failures on each
side with a two-sided Fisher exact p for the difference:

    python3 scripts/flake_rate.py \\
        FleetChaos.QuiescentStateMatchesNeverFailedControlBitForBit 100 \\
        base/build/meshrt_slow_tests build/meshrt_slow_tests

A run fails when the binary exits non-zero or outlives TIMEOUT_S seconds.
A run that executes no test (a misspelt name) stops the script, so it
never counts as a pass. Exit code 0 after a complete comparison, 1 on
bad input. Standard library only.
"""

import argparse
import math
import subprocess
import sys

# Seconds before a run counts as failed.
TIMEOUT_S = 600.0


def fisher_two_sided(fail_a, runs_a, fail_b, runs_b):
    """Two-sided Fisher exact p for the 2x2 table of failures and passes:
    the total probability, under fixed margins, of every table no more
    likely than the one observed."""
    failures = fail_a + fail_b
    total = runs_a + runs_b

    def prob(k):
        return (math.comb(runs_a, k) * math.comb(runs_b, failures - k) /
                math.comb(total, failures))

    observed = prob(fail_a)
    lo = max(0, failures - runs_b)
    hi = min(runs_a, failures)
    p = sum(prob(k) for k in range(lo, hi + 1)
            if prob(k) <= observed * (1 + 1e-9))
    return min(1.0, p)


def run_once(binary, test):
    """True when the test passed. Raises ValueError when no test ran."""
    try:
        done = subprocess.run([binary, "--gtest_filter=" + test],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    if "[ RUN      ]" not in done.stdout:
        raise ValueError(f"{binary}: no test matches '{test}'")
    return done.returncode == 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("test", help="gtest name (a --gtest_filter pattern)")
    parser.add_argument("runs", type=int, help="runs per binary")
    parser.add_argument("binary_a", help="first test binary (the baseline)")
    parser.add_argument("binary_b", help="second test binary")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("runs must be at least 1")

    sides = [args.binary_a, args.binary_b]
    failures = [0, 0]
    try:
        for i in range(args.runs):
            # Alternate which side goes first, so neither always runs
            # just after the other.
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                if not run_once(sides[side], args.test):
                    failures[side] += 1
            print(f"run {i + 1}/{args.runs}: failures {failures[0]} vs "
                  f"{failures[1]}", file=sys.stderr, flush=True)
    except (OSError, ValueError) as err:
        print(f"flake_rate: {err}", file=sys.stderr)
        return 1

    print(args.test)
    for name, binary, failed in zip(("a", "b"), sides, failures):
        print(f"  {name}: {failed}/{args.runs} failed "
              f"({100.0 * failed / args.runs:.1f}%)  {binary}")
    p = fisher_two_sided(failures[0], args.runs, failures[1], args.runs)
    print(f"  two-sided Fisher exact p = {p:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
