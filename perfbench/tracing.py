"""Spans around calls into the ckfree layers, recorded from outside the package.

`Tracer.install` replaces each public function listed in `TRACED` with a
wrapper, in every loaded `ckfree` module that holds a reference to it, so the
calls the CLI and the library make to one another are recorded too.  A span
holds its name, start, end, parent span and one count (search nodes, bytes,
faces or rows).  Spans stay in flat arrays in memory until `write`.
"""

from __future__ import annotations

import gzip
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict


def _nodes(result, args, kwargs):
    return result.nodes


def _len_result(result, args, kwargs):
    return len(result)


def _len_first_arg(result, args, kwargs):
    return len(args[0])


def _order(result, args, kwargs):
    return result.graph.n


def _none(result, args, kwargs):
    return 0


def _build_name(args, kwargs):
    validate = kwargs.get("validate", args[2] if len(args) > 2 else True)
    return "construction.build_construction" if validate else "construction.build_construction_novalidate"


# (module, attribute, span name, count of the call); an attribute "Class.method"
# wraps a method.  block_plan and the tiny graph accessors are left out: they
# are called per row or per search node, where a wrapper would dominate.
TRACED = [
    ("ckfree.embedding", "EmbeddedGraph.validate", "embedding.validate", _none),
    ("ckfree.embedding", "EmbeddedGraph.face_walks", "embedding.face_walks", _len_result),
    ("ckfree.embedding", "is_triangulation", "embedding.is_triangulation", _none),
    ("ckfree.embedding", "identify_vertices", "embedding.identify_vertices", _none),
    ("ckfree.embedding", "delete_edge", "embedding.delete_edge", _none),
    ("ckfree.construction", "moon_moser", "construction.moon_moser", _order),
    ("ckfree.construction", "truncated_moon_moser", "construction.truncated_moon_moser", _order),
    ("ckfree.construction", "build_construction", _build_name, _none),
    ("ckfree.construction", "complete_to_triangulation", "construction.complete_to_triangulation", _none),
    ("ckfree.construction", "verify_completion", "construction.verify_completion", _none),
    ("ckfree.certify", "longest_cycle", "certify.longest_cycle", _nodes),
    ("ckfree.certify", "has_cycle_of_length", "certify.has_cycle_of_length", _nodes),
    ("ckfree.certify", "longest_path_between", "certify.longest_path_between", _nodes),
    ("ckfree.certify", "certify_ck_free_structural", "certify.structural", _none),
    ("ckfree.certify", "certify_ck_free_brute", "certify.brute", _none),
    ("ckfree.codec", "encode_planar", "codec.encode_planar", _len_result),
    ("ckfree.codec", "decode_planar", "codec.decode_planar", _len_first_arg),
    ("ckfree.codec", "encode_graph6", "codec.encode_graph6", _len_result),
    ("ckfree.codec", "decode_graph6", "codec.decode_graph6", _len_first_arg),
    ("ckfree.bounds", "verify_inequality_chain", "bounds.verify_inequality_chain", _none),
    ("ckfree.bounds", "bounds_table", "bounds.bounds_table", _len_result),
    ("ckfree.bounds", "bounds_csv", "bounds.bounds_csv", _len_first_arg),
]

LAYERS = ("embedding", "construction", "certify", "codec", "bounds")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.largest_face_graph = None

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.count.append(0)
        self._open.append(idx)
        return idx

    def finish(self, idx: int, count: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.count[idx] = count
        self._open.pop()

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            count = 0
            try:
                result = fn(*args, **kwargs)
                count = counter(result, args, kwargs)
                return result
            finally:
                tracer.finish(idx, count)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "ckfree" or key.startswith("ckfree.")]
        for modname, attr, name, counter in TRACED:
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                wrapped = self._wrap(orig, name, counter)
                if meth == "face_walks":
                    wrapped = self._keep_largest(wrapped)
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, name, counter)
            for m in modules:
                if m.__dict__.get(attr) is orig:
                    self._undo.append((m, attr, orig))
                    setattr(m, attr, wrapped)

    def _keep_largest(self, traced):
        tracer = self

        def face_walks(graph):
            if tracer.largest_face_graph is None or graph.n > tracer.largest_face_graph.n:
                tracer.largest_face_graph = graph
            return traced(graph)

        return face_walks

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def face_walks_alloc_mib(self) -> float:
        """tracemalloc peak of one untraced face_walks call on the largest
        graph face tracing saw; 0 when no face was traced."""
        g = self.largest_face_graph
        if g is None:
            return 0.0
        walks_fn = type(g).face_walks
        tracemalloc.start()
        try:
            walks = walks_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del walks
        return peak / 2**20

    # -- summaries ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive seconds and summed counts per span name, and self
        seconds per layer (a span's time minus that of its child spans)."""
        secs: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            d = self.end[i] - self.start[i]
            name = self.names[self.name_id[i]]
            secs[name] += d
            counts[name] += self.count[i]
            if self.parent[i] >= 0:
                child[self.parent[i]] += d
        layer_self: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            layer = self.names[self.name_id[i]].split(".")[0]
            layer_self[layer] += self.end[i] - self.start[i] - child[i]
        return secs, counts, layer_self

    def write(self, path) -> None:
        """One CSV line per span: id, name, parent id, start, end, count."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,parent,start_s,end_s,count\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                        f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.count[i]}\n")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def unit_of(name: str) -> str:
    for suffix, unit in (("_kvertex_per_s", "kvertex/s"), ("_mib_per_s", "MiB/s"), ("_per_s", "1/s"),
                         ("_mib", "MiB"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced round, with units; a function no
    traced call reached reads 0."""
    secs, counts, layer_self = tracer.totals()

    def t(name: str) -> float:
        return secs[name] / rounds

    def c(name: str) -> int:
        return counts[name] // rounds  # equal in every round: the work is fixed

    search = ("certify.longest_cycle", "certify.has_cycle_of_length", "certify.longest_path_between")
    m = {
        "embedding.validate_s": t("embedding.validate"),
        "embedding.face_walks_s": t("embedding.face_walks"),
        "embedding.faces": c("embedding.face_walks"),
        "embedding.faces_per_s": _rate(c("embedding.face_walks"), t("embedding.face_walks")),
        "embedding.face_walks_alloc_mib": tracer.face_walks_alloc_mib(),
        "embedding.is_triangulation_s": t("embedding.is_triangulation"),
        "embedding.identify_vertices_s": t("embedding.identify_vertices"),
        "construction.moon_moser_s": t("construction.moon_moser"),
        "construction.moon_moser_kvertex_per_s": _rate(c("construction.moon_moser") / 1e3,
                                                       t("construction.moon_moser")),
        "construction.truncated_moon_moser_s": t("construction.truncated_moon_moser"),
        "construction.build_construction_s": t("construction.build_construction"),
        "construction.build_construction_novalidate_s": t("construction.build_construction_novalidate"),
        "construction.complete_to_triangulation_s": t("construction.complete_to_triangulation"),
        "certify.structural_s": t("certify.structural"),
        "certify.nodes_per_s": _rate(sum(map(c, search)), sum(map(t, search))),
        "codec.encode_planar_mib_per_s": _rate(c("codec.encode_planar") / 2**20, t("codec.encode_planar")),
        "codec.decode_planar_mib_per_s": _rate(c("codec.decode_planar") / 2**20, t("codec.decode_planar")),
        "codec.planar_bytes": c("codec.encode_planar") + c("codec.decode_planar"),
        "codec.encode_graph6_s": t("codec.encode_graph6"),
        "codec.decode_graph6_s": t("codec.decode_graph6"),
        "bounds.verify_inequality_chain_s": t("bounds.verify_inequality_chain"),
        "bounds.bounds_table_s": t("bounds.bounds_table"),
        "bounds.bounds_rows": c("bounds.bounds_table"),
        "bounds.bounds_csv_s": t("bounds.bounds_csv"),
    }
    for name in search:
        m[f"{name}_s"] = t(name)
        m[f"{name}_nodes"] = c(name)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / rounds
    return {name: (value, unit_of(name)) for name, value in m.items()}
