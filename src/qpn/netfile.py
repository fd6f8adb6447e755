"""JSON net files: the on-disk form of an annotated net.

Sections: metadata, places (id, dim, label?), transitions (id, polarity,
h, kraus, label?), flow, initial_marking.  Matrices are nested lists of
[re, im] pairs.  Serialization is canonical (sorted ids, fixed field
order), so load -> save -> load is the identity and files diff cleanly.
Files are written with one line per top-level key and per entry of
places, transitions, flow and initial_marking; any JSON layout loads.
"""

from __future__ import annotations

import json

import numpy as np

from .annotation import LocalAnnotation, validate_signatures
from .errors import NetFileError
from .nets import NEUTRAL, POLARITIES, Net

FORMAT = "qpn-net"
VERSION = 1


def _fail(loc, msg):
    raise NetFileError(msg, location=loc)


def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_json(data, loc):
    if not isinstance(data, list) or not data:
        _fail(loc, "matrix must be a nonempty list of rows")
    width = None
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            _fail(f"{loc}[{i}]", "row must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{loc}[{i}]", f"row has {len(row)} entries, expected {width}")
        out = []
        for j, v in enumerate(row):
            if (not isinstance(v, list) or len(v) != 2
                    or not all(isinstance(c, (int, float)) for c in v)):
                _fail(f"{loc}[{i}][{j}]", "entry must be an [re, im] pair")
            out.append(complex(v[0], v[1]))
        rows.append(out)
    return np.array(rows, dtype=complex)


def to_document(net: Net, ann: LocalAnnotation, metadata: dict | None = None,
                labels: dict | None = None) -> dict:
    """The canonical document of an annotated net.  Transitions that share
    one ``Channel`` object (the events of one label in an unfolded prefix)
    share one converted Kraus list."""
    labels = labels or {}
    kraus = {}  # id(channel) -> its Kraus list in JSON form
    places = []
    for p in sorted(net.places):
        entry = {"id": p, "dim": ann.dim(p)}
        if p in labels:
            entry["label"] = labels[p]
        places.append(entry)
    transitions = []
    for t in sorted(net.transitions):
        ch = ann.channel(t)
        if id(ch) not in kraus:
            kraus[id(ch)] = [matrix_to_json(k) for k in ch.kraus]
        entry = {"id": t, "polarity": net.pol(t), "h": ann.signal_dim(t),
                 "kraus": kraus[id(ch)]}
        if t in labels:
            entry["label"] = labels[t]
        transitions.append(entry)
    return {
        "format": FORMAT,
        "version": VERSION,
        "metadata": dict(metadata or {}),
        "places": places,
        "transitions": transitions,
        "flow": sorted([a, b] for a, b in net.flow),
        "initial_marking": sorted(net.initial_marking),
    }


def from_document(doc: dict):
    """Build (Net, LocalAnnotation, metadata, labels) from a parsed document,
    raising located diagnostics on schema violations."""
    if not isinstance(doc, dict):
        _fail("$", "document must be an object")
    if doc.get("format") != FORMAT:
        _fail("format", f"expected {FORMAT!r}, got {doc.get('format')!r}")
    for section in ("places", "transitions", "flow", "initial_marking"):
        if not isinstance(doc.get(section), list):
            _fail(section, "missing or not a list")

    dims, labels = {}, {}
    for i, entry in enumerate(doc["places"]):
        loc = f"places[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            _fail(loc, "place entry needs an id")
        pid = entry["id"]
        if pid in dims:
            _fail(loc, f"duplicate place id {pid!r}")
        dim = entry.get("dim", 1)
        if not isinstance(dim, int) or dim < 1:
            _fail(f"{loc}.dim", f"dimension must be a positive integer, got {dim!r}")
        dims[pid] = dim
        if "label" in entry:
            labels[pid] = entry["label"]

    polarity, channels, h = {}, {}, {}
    from .algebra import Channel

    for i, entry in enumerate(doc["transitions"]):
        loc = f"transitions[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            _fail(loc, "transition entry needs an id")
        tid = entry["id"]
        if tid in polarity or tid in dims:
            _fail(loc, f"duplicate id {tid!r}")
        pol = entry.get("polarity", NEUTRAL)
        if pol not in POLARITIES:
            _fail(f"{loc}.polarity", f"must be one of {POLARITIES}, got {pol!r}")
        polarity[tid] = pol
        hd = entry.get("h", 1)
        if not isinstance(hd, int) or hd < 1:
            _fail(f"{loc}.h", f"signal dimension must be a positive integer, got {hd!r}")
        if hd != 1:
            h[tid] = hd
        kraus = entry.get("kraus")
        if not isinstance(kraus, list) or not kraus:
            _fail(f"{loc}.kraus", "needs a nonempty list of matrices")
        mats = [matrix_from_json(k, f"{loc}.kraus[{j}]") for j, k in enumerate(kraus)]
        shapes = {m.shape for m in mats}
        if len(shapes) != 1:
            _fail(f"{loc}.kraus", f"inconsistent matrix shapes {sorted(shapes)}")
        rows, cols = mats[0].shape
        channels[tid] = Channel(cols, rows, tuple(mats))
        if "label" in entry:
            labels[tid] = entry["label"]

    flow = []
    for i, arc in enumerate(doc["flow"]):
        if not (isinstance(arc, list) and len(arc) == 2):
            _fail(f"flow[{i}]", "arc must be a [from, to] pair")
        a, b = arc
        known = set(dims) | set(polarity)
        if a not in known or b not in known:
            _fail(f"flow[{i}]", f"unknown id in arc {arc}")
        flow.append((a, b))
    for i, p in enumerate(doc["initial_marking"]):
        if p not in dims:
            _fail(f"initial_marking[{i}]", f"unknown place {p!r}")

    try:
        net = Net(set(dims), set(polarity), flow, set(doc["initial_marking"]),
                  polarity)
    except Exception as exc:
        _fail("$", str(exc))
    ann = LocalAnnotation(dims, channels, h)
    sig = validate_signatures(net, ann)
    if not sig:
        _fail("$", f"annotation does not fit the net: {sig.reason}")
    return net, ann, dict(doc.get("metadata") or {}), labels


def _write_json(path, doc: dict, default=None) -> None:
    """Write ``doc`` with one line per top-level key and, for a list value,
    one line per entry, in a single write.  Every piece goes through the C
    encoder (no indent); a list-valued field that entries share by object
    (a channel's Kraus list) is encoded once."""
    encode = json.JSONEncoder(default=default).encode
    shared = {}  # id(list) -> its encoding; doc keeps every list alive

    def entry_text(entry):
        if not (isinstance(entry, dict)
                and any(isinstance(v, list) for v in entry.values())):
            return encode(entry)
        fields = []
        for k, v in entry.items():
            if isinstance(v, list):
                if id(v) not in shared:
                    shared[id(v)] = encode(v)
                text = shared[id(v)]
            else:
                text = encode(v)
            fields.append(f"{encode(k)}: {text}")
        return "{" + ", ".join(fields) + "}"

    lines = []
    for key, value in doc.items():
        if isinstance(value, list) and value:
            body = ",\n".join(map(entry_text, value))
            lines.append(f"{encode(key)}: [\n{body}\n]")
        else:
            lines.append(f"{encode(key)}: {encode(value)}")
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def save_net(path, net: Net, ann: LocalAnnotation, metadata=None, labels=None):
    _write_json(path, to_document(net, ann, metadata, labels))


def load_net(path):
    """Load a net file; returns (Net, LocalAnnotation, metadata, labels)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise NetFileError(str(exc), location=str(path))
    except json.JSONDecodeError as exc:
        raise NetFileError(f"invalid JSON: {exc}", location=f"{path}:{exc.lineno}")
    return from_document(doc)


def load_join_spec(path):
    from .compose import JoinSpec

    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise NetFileError(str(exc), location=str(path))
    except json.JSONDecodeError as exc:
        raise NetFileError(f"invalid JSON: {exc}", location=f"{path}:{exc.lineno}")
    pairs = doc.get("pairs") if isinstance(doc, dict) else None
    if not isinstance(pairs, list):
        _fail("pairs", "join spec needs a list of [positive, negative] pairs")
    out = []
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            _fail(f"pairs[{i}]", "must be a [positive, negative] pair")
        out.append((pair[0], pair[1]))
    return JoinSpec(tuple(out))


def save_report(path, report_dict: dict):
    _write_json(path, report_dict, default=float)
