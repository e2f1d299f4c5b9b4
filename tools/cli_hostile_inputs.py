#!/usr/bin/env python3
"""Hostile flag values against the real CLI: every one must be refused.

Each case runs `nsflow serve` (or `nsflow plan` for its own numeric flags,
a PE budget and its output) with one malformed value and must exit 1
within the timeout, with an error on stderr that names the flag (or, for
an output that cannot be written, the path). The cases are

  * numeric flags given a non-number, a fraction where an integer is
    needed, an exponent, an out-of-range or negative integer, or inf/nan —
    values a prefix-reading parser would truncate, wrap or run forever on —
    and a PE budget too small for one 4x4 sub-array;
  * the spec grammar's hostile shapes (docs/SERVING.md#spec-grammar) fed
    to --scenario, --adversity, --admission, --cluster, --mix and --tiers:
    an empty entry, a trailing comma, `name:` alone, a missing '=', an
    empty key, an empty value, a repeated key, inf/nan, trailing junk, a
    leading space, an unknown name and an unknown key;
  * every integer spec key at 1e12, 1e30 and -1e12 — values past the
    key's type, which a cast would wrap or leave undefined — plus a
    fractional client count and a replica fan-out past the largest id;
  * each output file pointed at /dev/full, which takes no byte: serve's
    --trace-out and --metrics-out and plan's --out must exit 1 naming the
    path, not report it written. These run only where /dev/full is a
    character device; any other name under /dev would create a file there.

One well-formed serve must still exit 0, so a CLI that refuses everything
fails too.

Registered as the `cli_hostile_inputs` ctest (CMakeLists.txt), so both CI
legs run it, the sanitized one included.

Usage:
    tools/cli_hostile_inputs.py --cli build/nsflow [--timeout 60]
"""

import argparse
import os
import stat
import subprocess
import sys

# A short serve the bad value rides on; a later flag overrides these.
SERVE = ["serve", "--replicas", "2", "--qps", "50", "--duration", "0.05",
         "--seed", "7"]
PLAN = ["plan", "--mix", "mlp=1"]

NUMERIC_CASES = [
    (SERVE, "--replicas", "1e3"),
    (SERVE, "--replicas", "4294967297"),
    (SERVE, "--replicas", "2.5"),
    (SERVE, "--qps", "5abc"),
    (SERVE, "--qps", "nan"),
    (SERVE, "--max-batch", "4.9"),
    (SERVE, "--seed", "-1"),
    (SERVE, "--seed", "18446744073709551616"),
    (SERVE, "--duration", "inf"),
    (SERVE, "--duration", " 1"),
    (SERVE, "--max-wait-ms", "5ms"),
    (SERVE, "--max-pes", "1e3"),
    (SERVE, "--max-pes", "0"),
    (SERVE, "--clock-mhz", "inf"),
    (SERVE, "--headroom", "0.2.5"),
    (SERVE, "--cooldown-s", "x"),
    (SERVE, "--min-replicas", "1.5"),
    (SERVE, "--max-replicas", "99999999999"),
    (PLAN, "--max-pes", "8"),
    (PLAN, "--p99-ms", "10ms"),
    (PLAN, "--devices", "8x"),
    (PLAN, "--nodes", "-4294967295"),
]

# Per spec-valued flag: the text before the entries ("diurnal:" for a
# named spec, "" for a bare list), an accepted key with a valid value, and
# a value the grammar does not know. Every case carries the `prefix` flags
# the bad value needs in order to be read at all.
GRAMMARS = [
    # flag, prefix, head, key, value, unknown
    ("--scenario", [], "diurnal:", "depth", "0.5", "tsunami"),
    ("--adversity", [], "straggler:", "factor", "2", "meteor"),
    ("--admission", [], "guard:", "depth", "64", "bouncer"),
    ("--cluster", [], "hash:", "nodes", "2", "mesh"),
    ("--mix", [], "", "mlp", "0.6", "gpt=1"),
    ("--tiers", ["--mix", "mlp=1", "--admission", "guard"], "", "mlp",
     "critical", "gpt=critical"),
]


# Per spec-valued flag: one name and each integer key it takes.
INTEGER_KEYS = [
    ("--scenario", "closed", ["clients"]),
    ("--adversity", "replica-fail", ["count", "replica", "node"]),
    ("--adversity", "churn", ["workload"]),
    ("--admission", "guard", ["depth", "retry"]),
    ("--cluster", "least-loaded", ["nodes", "hops"]),
]

INTEGER_CASES = [
    (flag, f"{name}:{key}={value}")
    for flag, name, keys in INTEGER_KEYS
    for key in keys
    for value in ("1e12", "1e30", "-1e12")
] + [
    ("--scenario", "closed:clients=2.5"),
    ("--adversity", "replica-fail:replica=2147483647,count=2"),
]


# Outputs that cannot be written: (flag, argv tail). The error must name the
# path, so FULL stands where the other cases name a flag.
FULL = "/dev/full"
WRITE_CASES = [
    ("--trace-out", SERVE + ["--trace-out", FULL]),
    ("--metrics-out", SERVE + ["--metrics-out", FULL]),
    ("plan --out", PLAN + ["--out", FULL]),
]


def is_char_device(path):
    try:
        return stat.S_ISCHR(os.stat(path).st_mode)
    except OSError:
        return False


def hostile_shapes(head, key, value, unknown):
    """The malformed inputs of one grammar, as (shape, text) pairs."""
    entry = f"{key}={value}"
    return [
        ("empty entry", f"{head},{entry}"),
        ("trailing comma", f"{head}{entry},"),
        ("name: alone", head or ","),
        ("missing '='", f"{head}{key}"),
        ("empty key", f"{head}={value}"),
        ("empty value", f"{head}{key}="),
        ("repeated key", f"{head}{entry},{entry}"),
        ("inf", f"{head}{key}=inf"),
        ("nan", f"{head}{key}=nan"),
        ("trailing junk", f"{head}{entry}x"),
        ("leading space", f"{head}{key}= {value}"),
        ("unknown name", unknown),
        ("unknown key", f"{head}bogus={value}"),
    ]


def cases():
    """Every hostile case as (label, argv tail, flag)."""
    out = []
    for base, flag, value in NUMERIC_CASES:
        out.append((f"{flag} {value!r}", base + [flag, value], flag))
    for flag, prefix, head, key, value, unknown in GRAMMARS:
        for shape, text in hostile_shapes(head, key, value, unknown):
            out.append((f"{flag} {shape} {text!r}",
                        SERVE + prefix + [flag, text], flag))
    for flag, text in INTEGER_CASES:
        out.append((f"{flag} {text!r}", SERVE + [flag, text], flag))
    if is_char_device(FULL):
        for flag, argv in WRITE_CASES:
            out.append((f"{flag} {FULL}", argv, FULL))
    return out


def run(cli, argv, timeout):
    """(exit code, stderr), or (None, note) when the run timed out."""
    try:
        result = subprocess.run([cli] + argv, capture_output=True, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"no exit within {timeout} s"
    return result.returncode, result.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cli", required=True, help="path to nsflow")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds one case may take (default 60)")
    args = parser.parse_args()

    code, err = run(args.cli, SERVE, args.timeout)
    if code != 0:
        raise SystemExit(f"the well-formed serve failed ({code}): {err}")

    failures = []
    all_cases = cases()
    for label, argv, flag in all_cases:
        code, err = run(args.cli, argv, args.timeout)
        if code != 1 or flag not in err:
            failures.append(f"{label}: exit {code}, stderr: {err.strip()}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(all_cases) - len(failures)}/{len(all_cases)} hostile values "
          f"refused with an error naming the flag or path")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
