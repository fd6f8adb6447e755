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
from .algebra import TOL_PSD, _check_total_dim, is_hermitian, min_eigenvalue
from .annotation import space_dim
from .compose import AnnotatedNet, drop_preserving_join, parallel, validate_drop_preserving
from .errors import BoundExceeded, NetFileError, NotReachableFrom, QpnError, Unreachable
from .nets import (DEFAULT_MARKING_BOUND, NEGATIVE, as_occurrence_net, interval, to_dot,
                   verify_safety)
from .outcome import CheckOutcome
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


def _loaded(net, ann, *_):
    """The signatures stage of a net from `netfile.load_net`, which has
    validated them (a misfit is a located parse error there)."""
    return CheckOutcome.ok()


def _run_stages(stages, net, ann, args, cluster_cap):
    """Run the stages on the loaded net, print one line per stage run and
    yield its (name, outcome)."""
    stages = [(name, _loaded if name == "signatures" else check) for name, check in stages]
    for name, out in checker.run_stages(stages, net, ann, args.marking_bound, cluster_cap):
        if name != "drop":
            _p(name, out)
        else:
            report = out.data["report"]
            worst = report.worst
            print(f"{'PASS' if out else 'FAIL'} drop"
                  f" (instances={report.instance_count()},"
                  f" min_eig={worst if worst != float('inf') else 'n/a'})")
        yield name, out


def _exit_code(out) -> int:
    if out:
        return EXIT_OK
    return EXIT_BOUND if out.data.get("bound_exceeded") else EXIT_CHECK_FAILED


def cmd_validate(args) -> int:
    net, ann, _, _ = netfile.load_net(args.path)
    # safety, signatures, cptni: none reads the drop stage's limits
    *_, (_, out) = _run_stages(checker.STAGES[:3], net, ann, args, checker.DEFAULT_CLUSTER_CAP)
    return _exit_code(out)


def cmd_check(args) -> int:
    """Every stage, then the oracle if asked for; ``--report`` writes each
    stage's verdict and, where they ran, the drop and oracle reports, and
    where a stage or the oracle raised, the error, which is raised on."""
    net, ann, _, _ = netfile.load_net(args.path)
    ran, reports = [], {}  # the drop and oracle reports, where they ran
    try:
        for name, out in _run_stages(checker.STAGES, net, ann, args, args.cluster_cap):
            ran.append((name, out))
        code = _exit_code(out)
        if name == "drop":
            reports["drop"] = report = out.data["report"]
        if name == "drop" and args.oracle:
            try:
                o = as_occurrence_net(net)
            except QpnError as exc:
                print(f"FAIL oracle: input is not an occurrence net ({exc})")
                code = EXIT_CHECK_FAILED
            else:
                reports["oracle"] = brute = checker.brute_force_global_drop(
                    o, ann, cluster_cap=args.cluster_cap)
                agree = brute.passed == report.passed
                print(f"{'PASS' if agree else 'FAIL'} oracle agreement: "
                      f"{'yes' if agree else 'no'} (brute={brute.passed}, "
                      f"local={report.passed})")
                if not agree:
                    code = EXIT_CHECK_FAILED
    except QpnError as exc:
        at = "oracle" if len(ran) == len(checker.STAGES) else checker.STAGES[len(ran)][0]
        _save_check_report(args.report, ran, reports, error={"at": at, "reason": str(exc)})
        raise
    _save_check_report(args.report, ran, reports)
    return code


def _save_check_report(path, ran, reports, **error):
    if path:  # no stage times, so that reports compare byte for byte
        netfile.save_report(path, {
            "stages": [{"name": stage, "passed": verdict.passed, "reason": verdict.reason}
                       for stage, verdict in ran],
            **{key: r.to_dict() for key, r in reports.items()}, **error})


def cmd_unfold(args) -> int:
    net, ann, code = _load(args.path, args.marking_bound)
    if code:
        return code
    bp = unfold(net, UnfoldBudget(args.depth, args.max_events))
    out = verify_branching_process(bp, net)
    _p("branching-process", out)
    if bp.stopped_at is not None:
        print(f"note: budget exhausted (depth={args.depth},"
              f" max_events={args.max_events})")
    labels = bp.label_place | bp.label_event
    if args.out:
        netfile.save_net(args.out, bp.occ, transfer_annotation(bp, ann),
                         {"unfolded_from": str(args.path),
                          "depth": args.depth}, labels)
        print(f"wrote {args.out}")
    if args.dot:
        netfile.write_text(args.dot, to_dot(bp.occ, labels) + "\n")
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
    if "pair" in valid.data:  # an id that is no transition of the net
        raise NetFileError(f"unknown transition {valid.data['witness']!r}",
                           location=f"{args.inputs[1]}: pairs[{valid.data['pair']}]")
    if not _p("join-spec", valid) and not args.force:
        return EXIT_CHECK_FAILED
    joined = drop_preserving_join(x, spec, force=args.force, bound=bound)
    if args.force:
        _p("is-qpn-after-join", checker.is_qpn(joined.net, joined.ann, bound))
    netfile.save_net(args.out, joined.net, joined.ann, {"composition": "join"})
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_marking(s):
    return frozenset(p for p in s.split(",") if p)


def _initial_state(args, ann, m):
    """The --rho state on the space of marking m, or the maximally mixed
    state there, whose dimension is checked against the operator cap
    before it is built."""
    dim = space_dim(ann, m)
    if args.rho:
        return _read_state(netfile.read_json(args.rho), dim, str(args.rho))
    _check_total_dim(dim)
    return np.eye(dim, dtype=complex) / dim


def _read_state(data, dim, loc):
    """The matrix ``data`` as a state: finite, of shape dim × dim,
    Hermitian, positive semidefinite and of unit trace within TOL_PSD;
    else a NetFileError located at ``loc`` that says why not."""
    m = netfile.matrix_from_json(data, loc)
    netfile.require_finite(m, loc)
    if m.shape != (dim, dim):
        why = f"shape {m.shape}, expected {(dim, dim)}"
    elif not is_hermitian(m, TOL_PSD):
        why = "not a Hermitian matrix"
    elif (lo := min_eigenvalue(m)) < -TOL_PSD:
        why = f"not positive semidefinite (min eigenvalue {lo:.3e})"
    elif abs((trace := float(np.trace(m).real)) - 1) > TOL_PSD:
        why = f"trace {trace:.12g}, expected 1"
    else:
        return m
    raise NetFileError(why, location=loc)


def _load_env(path, ann, negatives):
    """The --env file: a state on the signal space of each negative event
    of the interval, each error located at the file and the event's key."""
    doc = netfile.read_json(path)
    if not isinstance(doc, dict):
        raise NetFileError("must map negative event ids to matrices", location=str(path))
    env = {}
    for e, data in doc.items():
        loc = f"{path}[{json.dumps(e)}]"
        if e not in negatives:
            raise NetFileError("not a negative event of the interval", location=loc)
        env[e] = _read_state(data, ann.signal_dim(e), loc)
    return env


def cmd_prob(args) -> int:
    net, ann, code = _load(args.path, args.marking_bound)
    if code:
        return code
    o = as_occurrence_net(net)
    m_from, m_to = _parse_marking(args.from_marking), _parse_marking(args.to_marking)
    for option, m in (("--from", m_from), ("--to", m_to)):  # [m_from; m_from] tests m_from
        try:
            iv = interval(o, m_from, m)
        except (Unreachable, NotReachableFrom) as exc:  # an input fault at its option
            raise NetFileError(str(exc), location=option) from None
    rho = _initial_state(args, ann, m_from)
    negatives = {e for e in iv.sigma if o.pol(e) == NEGATIVE}
    if args.env:
        env = _load_env(args.env, ann, negatives)
    else:
        policy = semantics.maximally_mixed_policy(ann)
        env = {e: policy(None, e) for e in negatives}
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


def non_negative_int(text) -> int:
    """An option's count: an int, never negative (else a usage error)."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qpn",
                                  description="verify quantum-annotated Petri nets")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--marking-bound", type=non_negative_int, default=DEFAULT_MARKING_BOUND)

    p = sub.add_parser("validate", help="the verdict stages up to CPTNI")
    p.add_argument("path")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check", help="every verdict stage, in order")
    p.add_argument("path")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the drop stage against the brute-force "
                        "oracle (occurrence nets)")
    p.add_argument("--report", help="write a JSON report here")
    common(p)
    # read only by the drop stage
    p.add_argument("--cluster-cap", type=non_negative_int, default=checker.DEFAULT_CLUSTER_CAP)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("unfold", help="depth-bounded unfolding")
    p.add_argument("path")
    p.add_argument("--depth", type=non_negative_int, default=4)
    p.add_argument("--max-events", type=non_negative_int, default=10_000)
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
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--runs", type=non_negative_int, default=1000)
    p.add_argument("--max-steps", type=non_negative_int, default=1000)
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
