"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py [--seed N]

At the smallest size of each workload, the op runs once against its true
reference and once against a corrupted one: a flipped verdict (check), a
wrong product of branch weights (prob), shifted class frequencies (sample),
an event id the prefix lacks (unfold).  The error rate must be 0 against
the truth and rise against the corruption; otherwise the gate is vacuous
and the script exits with status 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
import tempfile

import run  # sets the BLAS thread count before numpy loads

# Sampled runs of the smallest net: enough that moving most of one class's
# probability to another lies well outside five standard errors.
SAMPLE_RUNS = 400


def _flip_verdict(expected):
    code, min_eig = expected
    return 1 - code, min_eig


def _wrong_product(expected):
    return expected * 1.01


def _shift_frequency(expected):
    weights, classes, fixed = expected
    ranked = sorted(classes, key=lambda c: (-classes[c], sorted(c)))
    moved = 0.9 * classes[ranked[0]]
    shifted = dict(classes)
    shifted[ranked[0]] -= moved
    shifted[ranked[-1]] += moved
    return weights, shifted, fixed


def _missing_event(expected):
    events, conds = expected
    return events | {"ra[not-unfolded]"}, conds


CORRUPT = {"check": _flip_verdict, "prob": _wrong_product,
           "sample": _shift_frequency, "unfold": _missing_event}


def smallest(wl):
    """The cheapest op of the cycle: its first, by construction; for sample,
    every run of the first net."""
    first = wl.ops[0]
    return [first] * (SAMPLE_RUNS if wl.name == "sample" else 1)


def error_rate(wl, ops):
    part = dataclasses.replace(wl, ops=ops)
    records = []
    run.run_cycle(part, 0, records)
    return run.judge(part, records) / len(records)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    gen = run.load_program()
    import workloads

    out_dir = run.HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    vacuous = 0
    try:
        for name in run.WORKLOADS:
            wl = workloads.BUILDERS[name](gen, args.seed, workdir)
            ops = smallest(wl)
            bad = dataclasses.replace(ops[0], expected=CORRUPT[name](ops[0].expected))
            honest = error_rate(wl, ops)
            corrupted = error_rate(wl, [bad] * len(ops))
            ok = honest == 0 and corrupted > honest
            vacuous += not ok
            print(f"{name:<7} {ops[0].label:<12} error_rate true={honest:.3f} "
                  f"corrupted={corrupted:.3f}  {'ok' if ok else 'GATE FAILED'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if vacuous else 0


if __name__ == "__main__":
    sys.exit(main())
