"""Command-line front end.

Exit codes are a stable contract: 0 all checks pass, 1 a check failed,
2 parse/IO error, 3 a resource bound was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import checker, netfile, semantics
from .algebra import _check_total_dim
from .annotation import space_dim
from .compose import AnnotatedNet, drop_preserving_join, parallel, validate_drop_preserving
from .errors import BoundExceeded, NetFileError, QpnError
from .nets import (DEFAULT_MARKING_BOUND, NEGATIVE, as_occurrence_net, interval, to_dot,
                   verify_safety)
from .unfolding import UnfoldBudget, transfer_annotation, unfold, verify_branching_process

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_BOUND = 3


def _p(name, outcome):
    print(f"{'PASS' if outcome else 'FAIL'} {name}"
          + (f": {outcome.reason}" if getattr(outcome, 'reason', '') else ""))
    return bool(outcome)


def _load(path, bound):
    """Load a net file and verify its safety: (net, annotation, 0), or
    (None, None, exit code) after printing why safety failed."""
    net, ann, _, _ = netfile.load_net(path)
    safe = verify_safety(net, bound)
    if not safe:
        print(f"FAIL safety: {safe.reason}")
        return None, None, _exit_code(safe)
    return net, ann, EXIT_OK


def _run_stages(stages, args):
    """Load the net and print one line per stage run; returns the net, its
    annotation and the last stage's (name, outcome)."""
    net, ann, _, _ = netfile.load_net(args.path)
    for name, out in checker.run_stages(stages, net, ann, args.marking_bound,
                                        args.cluster_cap, args.tol_psd):
        if name != "drop":
            _p(name, out)
            continue
        report = out.data["report"]
        worst = report.worst
        print(f"{'PASS' if out else 'FAIL'} drop"
              f" (instances={len(report.instances)},"
              f" min_eig={worst if worst != float('inf') else 'n/a'})")
    return net, ann, name, out


def _exit_code(out) -> int:
    if out:
        return EXIT_OK
    return EXIT_BOUND if out.data.get("bound_exceeded") else EXIT_CHECK_FAILED


def cmd_validate(args) -> int:
    *_, out = _run_stages(checker.STAGES[:3], args)  # safety, signatures, cptni
    return _exit_code(out)


def cmd_check(args) -> int:
    net, ann, name, out = _run_stages(checker.STAGES, args)
    code = _exit_code(out)
    if name != "drop":
        return code
    report = out.data["report"]
    brute = None
    if args.oracle:
        try:
            o = as_occurrence_net(net)
        except QpnError as exc:
            print(f"FAIL oracle: input is not an occurrence net ({exc})")
            code = EXIT_CHECK_FAILED
        else:
            brute = checker.brute_force_global_drop(o, ann, tol=args.tol_psd)
            agree = brute.passed == report.passed
            print(f"{'PASS' if agree else 'FAIL'} oracle agreement: "
                  f"{'yes' if agree else 'no'} (brute={brute.passed}, "
                  f"local={report.passed})")
            if not agree:
                code = EXIT_CHECK_FAILED
    if args.report:
        doc = report.to_dict()
        if brute is not None:
            doc["oracle"] = brute.to_dict()
        netfile.save_report(args.report, doc)
    return code


def cmd_unfold(args) -> int:
    net, ann, code = _load(args.path, args.marking_bound)
    if code:
        return code
    bp = unfold(net, UnfoldBudget(args.depth, args.max_events))
    out = verify_branching_process(bp, net)
    _p("branching-process", out)
    if bp.exhausted:
        print(f"note: budget exhausted (depth={args.depth},"
              f" max_events={args.max_events})")
    if args.out:
        labels = dict(bp.label_place) | dict(bp.label_event)
        netfile.save_net(args.out, bp.occ, transfer_annotation(bp, ann),
                         {"unfolded_from": str(args.path),
                          "depth": args.depth}, labels)
        print(f"wrote {args.out}")
    if args.dot:
        labels = dict(bp.label_place) | dict(bp.label_event)
        with open(args.dot, "w") as fh:
            fh.write(to_dot(bp.occ, labels) + "\n")
        print(f"wrote {args.dot}")
    return EXIT_OK if out else EXIT_CHECK_FAILED


def cmd_compose(args) -> int:
    bound = args.marking_bound
    if args.mode == "par":
        (n1, a1, c1), (n2, a2, c2) = (_load(path, bound) for path in args.inputs)
        if c1 or c2:
            return c1 or c2
        composite, provenance = parallel(AnnotatedNet(n1, a1), AnnotatedNet(n2, a2))
        netfile.save_net(args.out, composite.net, composite.ann,
                         {"composition": "parallel",
                          "provenance": {k: list(v) for k, v in sorted(provenance.items())}})
        print(f"wrote {args.out}")
        return EXIT_OK
    net, ann, code = _load(args.inputs[0], bound)
    if code:
        return code
    spec = netfile.load_join_spec(args.inputs[1])
    x = AnnotatedNet(net, ann)
    valid = validate_drop_preserving(x, spec)
    if not _p("join-spec", valid) and not args.force:
        return EXIT_CHECK_FAILED
    joined = drop_preserving_join(x, spec, force=args.force)
    if args.force:
        _p("is-qpn-after-join", checker.is_qpn(joined.net, joined.ann, bound))
    netfile.save_net(args.out, joined.net, joined.ann, {"composition": "join"})
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_marking(s):
    return frozenset(p for p in s.split(",") if p)


def _load_matrix(path):
    with open(path) as fh:
        return netfile.matrix_from_json(json.load(fh), str(path))


def _initial_state(args, ann, m):
    """The --rho matrix, or the maximally mixed state on marking m, whose
    dimension is checked against the operator cap before it is built."""
    if args.rho:
        return _load_matrix(args.rho)
    dim = space_dim(ann, m)
    _check_total_dim(dim)
    return np.eye(dim, dtype=complex) / dim


def cmd_prob(args) -> int:
    net, ann, code = _load(args.path, args.marking_bound)
    if code:
        return code
    o = as_occurrence_net(net)
    m_from = _parse_marking(args.from_marking)
    m_to = _parse_marking(args.to_marking)
    iv = interval(o, m_from, m_to)
    rho = _initial_state(args, ann, m_from)
    if args.env:
        with open(args.env) as fh:
            doc = json.load(fh)
        env = {e: netfile.matrix_from_json(m, f"env.{e}") for e, m in doc.items()}
    else:
        policy = semantics.maximally_mixed_policy(ann)
        env = {e: policy(None, e) for e in iv.sigma if o.pol(e) == NEGATIVE}
    p = semantics.run_probability(o, ann, iv, rho, env)
    print(f"probability {p:.12f}")
    return EXIT_OK


def cmd_sample(args) -> int:
    net, ann, code = _load(args.path, args.marking_bound)
    if code:
        return code
    rho = _initial_state(args, ann, net.initial_marking)
    counts = {}
    for i in range(args.runs):
        st = semantics.sample_execution(net, ann, rho, seed=args.seed + i,
                                        max_steps=args.max_steps)
        key = tuple(rec["event"] for rec in st.log)
        counts[key] = counts.get(key, 0) + 1
    for key in sorted(counts):
        n = counts[key]
        freq = n / args.runs
        se = (freq * (1 - freq) / args.runs) ** 0.5 if args.runs else 0.0
        print(f"{' '.join(key) or '(none)'}: {n}/{args.runs}"
              f" ({freq:.4f} ± {se:.4f})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qpn",
                                  description="verify quantum-annotated Petri nets")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--marking-bound", type=int, default=DEFAULT_MARKING_BOUND)

    def verdict_limits(p):  # read only by the verdict stages
        common(p)
        p.add_argument("--tol-psd", type=float, default=checker.TOL_PSD)
        p.add_argument("--cluster-cap", type=int, default=checker.DEFAULT_CLUSTER_CAP)

    p = sub.add_parser("validate", help="the verdict stages up to CPTNI")
    p.add_argument("path")
    verdict_limits(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check", help="every verdict stage, in order")
    p.add_argument("path")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the drop stage against the brute-force "
                        "oracle (occurrence nets)")
    p.add_argument("--report", help="write a JSON report here")
    verdict_limits(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("unfold", help="depth-bounded unfolding")
    p.add_argument("path")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--max-events", type=int, default=10_000)
    p.add_argument("--out")
    p.add_argument("--dot")
    common(p)
    p.set_defaults(fn=cmd_unfold)

    p = sub.add_parser("compose", help="parallel composition or join")
    p.add_argument("mode", choices=["par", "join"])
    p.add_argument("inputs", nargs=2,
                   help="par: two net files; join: net file + spec file")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("prob", help="exact run probability of an interval")
    p.add_argument("path")
    p.add_argument("--from", dest="from_marking", required=True,
                   help="comma-separated place ids")
    p.add_argument("--to", dest="to_marking", required=True)
    p.add_argument("--rho", help="JSON matrix file (default maximally mixed)")
    p.add_argument("--env", help="JSON file: negative event id -> matrix")
    common(p)
    p.set_defaults(fn=cmd_prob)

    p = sub.add_parser("sample", help="Monte Carlo execution sampling")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--rho")
    common(p)
    p.set_defaults(fn=cmd_sample)
    return top


_PARSER = None  # built by the first call of main


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except NetFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except QpnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
