"""JSON net files: the on-disk form of an annotated net.

Sections: metadata, places (id, dim, label?), transitions (id, polarity,
h, kraus, label?), flow, initial_marking.  Ids are strings; matrices are
nested lists of [re, im] pairs.  Serialization is canonical (sorted ids,
fixed field order), so load -> save -> load is the identity and files
diff cleanly.  Files are written with one line per top-level key and per
entry of places, transitions, flow and initial_marking (`_layout`); any
JSON layout loads.  `save_net` formats each line straight from the net;
`_write_json` of `to_document` writes the same bytes through a document
and is the writer's reference (and the writer of `--report` files).
"""

from __future__ import annotations

import json
import math
import os
import stat
from json.encoder import encode_basestring_ascii

import numpy as np

from .annotation import LocalAnnotation, validate_signatures
from .errors import NetFileError
from .nets import NEUTRAL, POLARITIES, Net

FORMAT = "qpn-net"
VERSION = 1

_encode = json.JSONEncoder().encode


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
            if not (isinstance(v, list) and len(v) == 2
                    and isinstance(v[0], (int, float)) and isinstance(v[1], (int, float))):
                _fail(f"{loc}[{i}][{j}]", "entry must be an [re, im] pair")
            try:
                out.append(complex(v[0], v[1]))
            except OverflowError:  # an integer past the float range: not finite
                out.append(complex(math.inf, math.inf))
        rows.append(out)
    return np.array(rows, dtype=complex)


def kraus_from_json(data):
    """The Kraus list ``data`` as one (k, rows, cols) complex array by a
    single ``np.array`` call, or None unless that gives an int or float
    array of [re, im] pairs; the caller then scans ``data`` entry by entry
    with :func:`matrix_from_json`, which locates any fault."""
    try:
        a = np.array(data)
    except (ValueError, OverflowError):  # ragged, or mixed matrix shapes
        return None
    if a.ndim != 4 or a.shape[-1] != 2 or a.dtype.kind not in "if":
        return None
    return a.astype(float, copy=False).view(complex)[..., 0]


def _parsed_groups(entries) -> dict:
    """{index: Kraus stack} for the transition entries whose Kraus lists
    parse by one :func:`kraus_from_json` call and one finite check per
    group of one shape (k, rows, cols).  Raises nothing: a group that
    fails either, and an entry of no such shape, is left to the parse of
    each entry in file order, which locates any fault."""
    groups, out = {}, {}
    for i, entry in enumerate(entries):
        try:
            kraus = entry["kraus"]
            groups.setdefault((len(kraus), len(kraus[0]), len(kraus[0][0])), []).append(i)
        except (TypeError, KeyError, IndexError):
            pass
    for (k, _, _), idx in groups.items():
        a = kraus_from_json([m for i in idx for m in entries[i]["kraus"]])
        if a is not None and np.isfinite(a).all():
            out.update(zip(idx, a.reshape(len(idx), k, *a.shape[1:])))
    return out


def require_finite(a, loc):
    """Fail at the least entry of the array ``a`` that is not a finite
    float, if any, located by its indices under ``loc``."""
    finite = np.isfinite(a)
    if not finite.all():
        least = np.argwhere(~finite)[0]
        _fail(loc + "".join(f"[{i}]" for i in least), "entry must be a finite float")


def to_document(net: Net, ann: LocalAnnotation, metadata: dict | None = None,
                labels: dict | None = None) -> dict:
    """The canonical document of an annotated net."""
    labels = labels or {}
    places = []
    for p in sorted(net.places):
        entry = {"id": p, "dim": ann.dim(p)}
        if p in labels:
            entry["label"] = labels[p]
        places.append(entry)
    transitions = []
    for t in sorted(net.transitions):
        entry = {"id": t, "polarity": net.pol(t), "h": ann.signal_dim(t),
                 "kraus": [matrix_to_json(k) for k in ann.channel(t).kraus]}
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
    metadata = {} if doc.get("metadata") is None else doc["metadata"]
    if not isinstance(metadata, dict):
        _fail("metadata", "must be an object")

    dims, labels = {}, {}
    for i, entry in enumerate(doc["places"]):
        loc = f"places[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            _fail(loc, "place entry needs an id")
        pid = entry["id"]
        if not isinstance(pid, str):
            _fail(f"{loc}.id", f"id must be a string, got {pid!r}")
        if pid in dims:
            _fail(loc, f"duplicate place id {pid!r}")
        dim = entry.get("dim", 1)
        if type(dim) is not int or dim < 1:  # JSON true is no dimension
            _fail(f"{loc}.dim", f"dimension must be a positive integer, got {dim!r}")
        dims[pid] = dim
        if "label" in entry:
            labels[pid] = entry["label"]

    polarity, channels, h = {}, {}, {}
    from .algebra import Channel

    parsed = _parsed_groups(doc["transitions"])
    for i, entry in enumerate(doc["transitions"]):
        loc = f"transitions[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            _fail(loc, "transition entry needs an id")
        tid = entry["id"]
        if not isinstance(tid, str):
            _fail(f"{loc}.id", f"id must be a string, got {tid!r}")
        if tid in polarity or tid in dims:
            _fail(loc, f"duplicate id {tid!r}")
        pol = entry.get("polarity", NEUTRAL)
        if pol not in POLARITIES:
            _fail(f"{loc}.polarity", f"must be one of {POLARITIES}, got {pol!r}")
        polarity[tid] = pol
        hd = entry.get("h", 1)
        if type(hd) is not int or hd < 1:
            _fail(f"{loc}.h", f"signal dimension must be a positive integer, got {hd!r}")
        if hd != 1:
            h[tid] = hd
        kraus = entry.get("kraus")
        if not isinstance(kraus, list) or not kraus:
            _fail(f"{loc}.kraus", "needs a nonempty list of matrices")
        mats = parsed[i] if i in parsed else kraus_from_json(kraus)
        if mats is None:
            mats = [matrix_from_json(k, f"{loc}.kraus[{j}]") for j, k in enumerate(kraus)]
            shapes = {m.shape for m in mats}
            if len(shapes) != 1:
                _fail(f"{loc}.kraus", f"inconsistent matrix shapes {sorted(shapes)}")
        rows, cols = mats[0].shape
        channels[tid] = Channel(cols, rows, mats)
        if i not in parsed:  # a group's stacks are found finite together
            require_finite(channels[tid].stack, f"{loc}.kraus")
        if "label" in entry:
            labels[tid] = entry["label"]

    flow, marked = {}, set()  # arc -> its index; the initial places
    known = dims.keys() | polarity.keys()
    for i, arc in enumerate(doc["flow"]):
        if not (isinstance(arc, list) and len(arc) == 2):
            _fail(f"flow[{i}]", "arc must be a [from, to] pair")
        a, b = arc
        if not (isinstance(a, str) and isinstance(b, str)):
            _fail(f"flow[{i}]", f"arc ends must be strings, got {arc!r}")
        if a not in known or b not in known:
            _fail(f"flow[{i}]", f"unknown id in arc {arc}")
        if (a, b) in flow:
            _fail(f"flow[{i}]", f"duplicate arc {arc}")
        flow[a, b] = i
    for i, p in enumerate(doc["initial_marking"]):
        if not isinstance(p, str):
            _fail(f"initial_marking[{i}]", f"place id must be a string, got {p!r}")
        if p not in dims:
            _fail(f"initial_marking[{i}]", f"unknown place {p!r}")
        if p in marked:
            _fail(f"initial_marking[{i}]", f"duplicate place {p!r}")
        marked.add(p)
    bad = [(arc, i) for arc, i in flow.items() if (arc[0] in dims) == (arc[1] in dims)]
    if bad:  # the least arc that joins two places or two transitions
        (a, b), i = min(bad)
        _fail(f"flow[{i}]", f"flow arc ({a}, {b}) is not bipartite")

    net = Net(set(dims), set(polarity), flow, marked, polarity)
    ann = LocalAnnotation(dims, channels, h)
    sig = validate_signatures(net, ann)
    if not sig:
        _fail("$", f"annotation does not fit the net: {sig.reason}")
    return net, ann, dict(metadata), labels


def _layout(sections) -> str:
    """The file text of ``sections``, (key text, body) pairs in order: one
    line per key, where a str body is the value's text and a list body
    holds the texts of the value's entries, one line each.  The text is a
    single join: a list body's brackets and the outer braces are carried on
    the first and last pieces."""
    lines = []
    for key, body in sections:
        if isinstance(body, str):
            lines.append(f"{key}: {body}")
        elif body:
            lines.append(f"{key}: [\n{body[0]}")
            lines += body[1:]
            lines[-1] += "\n]"
        else:
            lines.append(f"{key}: []")
    if not lines:
        return "{\n\n}\n"
    lines[0] = "{\n" + lines[0]
    lines[-1] += "\n}\n"
    return ",\n".join(lines)


def _write_json(path, doc: dict, default=None) -> None:
    """Write ``doc`` in the file layout, every value and every entry of a
    list value through the C encoder."""
    encode = json.JSONEncoder(default=default).encode
    write_text(path, _layout(
        (encode(key), list(map(encode, value)) if isinstance(value, list) else encode(value))
        for key, value in doc.items()))


def save_net(path, net: Net, ann: LocalAnnotation, metadata=None, labels=None):
    """Write the net file of an annotated net: the bytes `_write_json`
    writes for `to_document`, formatted line by line from the net.  Ids
    (strings) take the encoder's string fast path once each, dimensions
    are ints, and each distinct label and each distinct channel's Kraus
    list is encoded once (the nodes of one label in an unfolded prefix
    share them)."""
    labels = labels or {}
    ident = {}  # node -> its encoded id
    tails, kraus = {}, {}  # id(label value or channel) -> its encoded text

    def tail(n):
        """The end of node n's entry: its label, if any, and the brace."""
        if n not in labels:
            return "}"
        v = labels[n]
        if id(v) not in tails:
            tails[id(v)] = f', "label": {_encode(v)}}}'
        return tails[id(v)]

    places = []
    for p in sorted(net.places):
        ident[p] = encode_basestring_ascii(p)
        places.append(f'{{"id": {ident[p]}, "dim": {ann.dims[p]}{tail(p)}')
    pol_text = {pol: encode_basestring_ascii(pol) for pol in POLARITIES}
    transitions = []
    for t in sorted(net.transitions):
        ident[t] = encode_basestring_ascii(t)
        ch = ann.channels[t]
        if id(ch) not in kraus:
            kraus[id(ch)] = _encode([matrix_to_json(k) for k in ch.kraus])
        transitions.append(
            f'{{"id": {ident[t]}, "polarity": {pol_text[net.polarity[t]]}, '
            f'"h": {ann.h.get(t, 1)}, "kraus": {kraus[id(ch)]}{tail(t)}')
    write_text(path, _layout([
        ('"format"', encode_basestring_ascii(FORMAT)),
        ('"version"', str(VERSION)),
        ('"metadata"', _encode(dict(metadata or {}))),
        ('"places"', places),
        ('"transitions"', transitions),
        ('"flow"', [f"[{ident[a]}, {ident[b]}]" for a, b in sorted(net.flow)]),
        ('"initial_marking"', [ident[p] for p in sorted(net.initial_marking)]),
    ]))


def read_json(path):
    """The JSON document in the file at ``path``; an unreadable file or
    invalid JSON raises a NetFileError located at the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise NetFileError(str(exc), location=str(path))
    except json.JSONDecodeError as exc:
        raise NetFileError(f"invalid JSON: {exc}", location=f"{path}:{exc.lineno}")


def write_text(path, text: str) -> None:
    """Write ``text`` over the file at ``path`` in place and trim a regular
    file to the new length (no O_TRUNC: on ext4 a truncate to zero makes the
    next rewrite wait for the last one's writeback).  A failed open or write
    raises a NetFileError located at the path."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise NetFileError(str(exc), location=str(path))


def load_net(path):
    """Load a net file; returns (Net, LocalAnnotation, metadata, labels)."""
    return from_document(read_json(path))


def load_join_spec(path):
    """The join spec file: {"pairs": [[positive, negative], ...]} with
    string ids; each error is located at the path and the pair."""
    from .compose import JoinSpec

    doc = read_json(path)
    pairs = doc.get("pairs") if isinstance(doc, dict) else None
    if not isinstance(pairs, list):
        _fail(f"{path}: pairs", "join spec needs a list of [positive, negative] pairs")
    out = []
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            _fail(f"{path}: pairs[{i}]", "must be a [positive, negative] pair")
        for t in pair:
            if not isinstance(t, str):
                _fail(f"{path}: pairs[{i}]", f"id must be a string, got {t!r}")
        out.append((pair[0], pair[1]))
    return JoinSpec(tuple(out))


def save_report(path, report_dict: dict):
    _write_json(path, report_dict, default=float)
