"""Spans around the public functions at each layer boundary of ``qpn``.

The tracer wraps functions from outside: ``qpn`` is not edited.  Modules
bind imported names, so a function is replaced in its defining module and
in every ``qpn`` module that imported it (``checker.embed_operator`` is
also what ``semantics`` reaches through ``_embedded_effect``).  Methods and
the ``OccurrenceNet`` constructor are replaced on their class.

Spans carry the op id and their parent span; they stay in memory and are
written out when the run ends.  Counts are taken from arguments and return
values at the same boundaries, never from private state.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (layer module, traced callable).  A dotted callable is a method, replaced
# on its class; "OccurrenceNet" stands for the class's constructor.
TRACED = [
    ("cli", "main"),
    ("netfile", "load_net"),
    ("netfile", "save_net"),
    ("nets", "verify_safety"),
    ("nets", "marking_clusters"),
    ("nets", "OccurrenceNet"),
    ("nets", "interval"),
    ("annotation", "validate_signatures"),
    ("annotation", "annotation_is_cptni"),
    ("annotation", "check_local_obliviousness"),
    ("annotation", "GlobalValuation.q_interval"),
    ("checker", "check_local_drop"),
    ("checker", "single_extension_drop"),
    ("checker", "clique_drop"),
    ("algebra", "embed_operator"),
    ("algebra", "min_eigenvalue"),
    ("algebra", "FactorPermutation.matrix"),
    ("algebra", "effect"),
    ("algebra", "apply"),
    ("semantics", "run_probability"),
    ("semantics", "sample_execution"),
    ("unfolding", "unfold"),
    ("unfolding", "verify_branching_process"),
    ("unfolding", "transfer_annotation"),
]

# Calls that can raise on some input of a workload: they also report how
# many of their spans ended in an exception.
CAN_FAIL = {"netfile.load_net", "nets.OccurrenceNet", "algebra.min_eigenvalue",
            "semantics.run_probability", "semantics.sample_execution"}

# Counts and ratios, with their units.  "computed" byte counts are derived
# from shapes (entries * 16 bytes of complex128), not measured.
COUNTS = {
    "netfile.bytes_read": "B",
    "netfile.bytes_written": "B",
    "nets.markings": "count",
    "annotation.kraus_ops": "count",
    "annotation.kraus_ops_max": "count",
    "annotation.kraus_bytes": "B",
    "annotation.q_distinct_ratio": "ratio",
    "checker.drop_instances": "count",
    "checker.distinct_families": "count",
    "checker.distinct_family_ratio": "ratio",
    "algebra.eig_max_dim": "dim",
    "algebra.perm_bytes": "B",
    "semantics.steps": "count",
    "unfolding.events": "count",
    "unfolding.conditions": "count",
}

# Tracing overhead: the same cycle run untraced, then traced.
OVERHEAD = {
    "trace.untraced_ops_per_s": "op/s",
    "trace.traced_ops_per_s": "op/s",
    "trace.overhead_ops_per_s": "op/s",
}


def traced_names():
    return [f"{mod}.{name}" for mod, name in TRACED]


def metric_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name in CAN_FAIL:
            units[f"{name}.failed"] = "count"
    return units | COUNTS | OVERHEAD


class Tracer:
    def __init__(self):
        self.spans = []      # (op, name, parent, start, end, raised)
        self._stack = []
        self.op = -1
        self.counts = defaultdict(float)
        self._q_keys = set()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, parent, start, end, raised)
            if count is not None:
                count(out, *args)
            return out

        return traced

    def _count_hooks(self):
        c = self.counts

        def bytes_read(out, path, *rest):
            c["netfile.bytes_read"] += os.path.getsize(path)

        def bytes_written(out, path, *rest):
            c["netfile.bytes_written"] += os.path.getsize(path)

        def markings(out, *rest):
            c["nets.markings"] += out.data.get("markings", 0)

        def kraus(out, gv, iv):
            c["annotation.kraus_ops"] += len(out.kraus)
            c["annotation.kraus_ops_max"] = max(c["annotation.kraus_ops_max"], len(out.kraus))
            c["annotation.kraus_bytes"] += 16 * len(out.kraus) * out.dim_in * out.dim_out
            self._q_keys.add((self.op, id(gv), iv.key))

        def drops(out, *rest):
            c["checker.drop_instances"] += len(out.instances)
            c["checker.distinct_families"] += len({r.key[1] for r in out.instances})

        def eig_dim(out, m, *rest):
            c["algebra.eig_max_dim"] = max(c["algebra.eig_max_dim"], np.shape(m)[0])

        def perm_bytes(out, *rest):
            c["algebra.perm_bytes"] += 16 * out.size

        def steps(out, *rest):
            c["semantics.steps"] += len(out.log)

        def unfolded(out, *rest):
            c["unfolding.events"] += len(out.occ.transitions)
            c["unfolding.conditions"] += len(out.occ.places)

        return {
            "netfile.load_net": bytes_read,
            "netfile.save_net": bytes_written,
            "nets.verify_safety": markings,
            "annotation.GlobalValuation.q_interval": kraus,
            "checker.check_local_drop": drops,
            "algebra.min_eigenvalue": eig_dim,
            "algebra.FactorPermutation.matrix": perm_bytes,
            "semantics.sample_execution": steps,
            "unfolding.unfold": unfolded,
        }

    # -- installing --------------------------------------------------------

    def install(self):
        """Replace every traced callable; `uninstall` puts them back."""
        hooks = self._count_hooks()
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "qpn" or n.startswith("qpn."))]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            mod = sys.modules[f"qpn.{mod_name}"]
            if "." in attr or attr == "OccurrenceNet":
                cls_name, meth = attr.split(".") if "." in attr else (attr, "__init__")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, hooks.get(name)))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, hooks.get(name))
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self):
        """calls, busy_s, self_s (and failed) per traced call, plus counts.

        Busy time sums the spans of a name that are not nested inside
        another span of the same name; self time subtracts the direct
        child spans, which tile the parent in this single-threaded run.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for op, name, parent, start, end, raised in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, busy, self_t, failed = (defaultdict(int), defaultdict(float),
                                       defaultdict(float), defaultdict(int))
        for i, (op, name, parent, start, end, raised) in enumerate(spans):
            calls[name] += 1
            failed[name] += raised
            self_t[name] += end - start - child_time[i]
            p = parent
            while p >= 0 and spans[p][1] != name:
                p = spans[p][2]
            if p < 0:
                busy[name] += end - start
        out = {}
        for name in traced_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_t[name]
            if name in CAN_FAIL:
                out[f"{name}.failed"] = failed[name]
        c = self.counts
        for key in COUNTS:
            out[key] = c[key]
        q_calls = calls["annotation.GlobalValuation.q_interval"]
        out["annotation.q_distinct_ratio"] = len(self._q_keys) / q_calls if q_calls else 0.0
        inst = c["checker.drop_instances"]
        out["checker.distinct_family_ratio"] = (c["checker.distinct_families"] / inst
                                                if inst else 0.0)
        return out

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (op, name, parent, start, end, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "name": name, "parent": parent,
                                     "start": start, "end": end, "raised": raised}) + "\n")
