"""Spans around the library's public functions, recorded from outside it.

``install`` replaces each traced function in every module namespace that
binds it: ``solve_against_gram`` is imported by name into ``zariski``,
``invariants``, ``chains`` and ``noether``, so patching ``lattice`` alone
would miss their calls.  Because a module's functions look their callees
up in its own globals, patching the bindings catches the library's
internal calls too.  ``uninstall`` puts the originals back.

Spans are kept in memory while the traced pass runs; ``layer_metrics``
folds them into counts and self times, and ``write_spans`` writes them
out at the end.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter

# Library modules whose namespaces are patched, besides the package itself.
MODULES = ("lattice", "zariski", "invariants", "chains", "noether", "config", "cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size_of_matrix(args, kwargs):
    return len(_arg(args, kwargs, 0, "matrix"))


def _size_of_support(args, kwargs):
    return len(_arg(args, kwargs, 1, "decomposition").support)


def _size_of_chain(args, kwargs):
    return len(tuple(_arg(args, kwargs, 0, "e_seq")))


def _size_of_file(args, kwargs):
    try:
        return os.path.getsize(_arg(args, kwargs, 0, "path"))
    except (OSError, TypeError):
        return 0


# (defining module, function) -> (span name, size extractor or None).
# The two audits share one span name, as do the two renderers.
TARGETS = {
    ("lattice", "solve_exact"): ("lattice.solve_exact", _size_of_matrix),
    ("lattice", "solve_against_gram"): ("lattice.solve_against_gram", None),
    ("lattice", "is_negative_definite"): ("lattice.is_negative_definite", None),
    ("lattice", "det_int"): ("lattice.det_int", None),
    ("lattice", "pair"): ("lattice.pair", None),
    ("lattice", "pair_with_basis"): ("lattice.pair_with_basis", None),
    ("lattice", "build_lattice"): ("lattice.build_lattice", None),
    ("zariski", "zariski_decompose"): ("zariski.zariski_decompose", None),
    ("zariski", "star_lift"): ("zariski.star_lift", None),
    ("invariants", "e_sup"): ("invariants.e_sup", _size_of_support),
    ("invariants", "exceptional_solution"): ("invariants.exceptional_solution", None),
    ("invariants", "e_of_divisor_pair"): ("invariants.e_of_divisor_pair", None),
    ("invariants", "verify_e_inequality"): ("invariants.verify_e_inequality", None),
    ("chains", "chain_spec"): ("chains.chain_spec", _size_of_chain),
    ("chains", "hj_determinant"): ("chains.hj_determinant", None),
    ("chains", "classify_chain_equality"): ("chains.classify_chain_equality", None),
    ("chains", "foliation_e"): ("chains.foliation_e", None),
    ("noether", "log_pair_iterate"): ("noether.log_pair_iterate", None),
    ("noether", "pencil_audit"): ("noether.audit", None),
    ("noether", "surface_audit"): ("noether.audit", None),
    ("noether", "catalog_degree_dminus1"): ("noether.catalog_degree_dminus1", None),
    ("config", "load_workspace"): ("config.load_workspace", _size_of_file),
    ("cli", "build_parser"): ("cli.build_parser", None),
    ("cli", "run_command"): ("cli.run_command", None),
    ("cli", "render_json"): ("cli.render", None),
    ("cli", "render_text"): ("cli.render", None),
    ("cli", "main"): ("cli.main", None),
}
SPAN_NAMES = tuple(dict.fromkeys(name for name, _ in TARGETS.values()))

# Support-size buckets of e_sup self time and length buckets of chain_spec.
E_SUP_BUCKETS = (("s1-5", 1, 5), ("s6-7", 6, 7), ("s8-10", 8, 10))
CHAIN_BUCKETS = (("len1-4", 1, 4), ("len5-8", 5, 8))


class Tracer:
    """Nested spans of one thread: (name, start, end, parent, op, size)."""

    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name, fn, size_of):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = size_of(args, kwargs) if size_of is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id, size)

        return traced

    def install(self, modules) -> None:
        """Wrap every traced function at every binding in ``modules``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                origin = getattr(value, "__module__", None)
                if not callable(value) or not isinstance(origin, str):
                    continue
                target = TARGETS.get((origin.rpartition(".")[2], getattr(value, "__name__", None)))
                if target is None or hasattr(value, "__wrapped__"):
                    continue
                self._patched.append((mod, attr, value))
                setattr(mod, attr, self.wrap(target[0], value, target[1]))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\tsize\n")
            for name, start, end, parent, op, size in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{size}\n")


def _bucket(buckets, size):
    for label, lo, hi in buckets:
        if lo <= size <= hi:
            return label
    return None


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times from a list of finished spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    extra: dict[str, float] = defaultdict(int)
    solve_rows = 0
    for idx, (name, start, end, parent, _, size) in enumerate(spans):
        own = end - start - child_time[idx]
        calls[name] += 1
        self_s[name] += own
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "lattice.solve_exact":
            solve_rows += size
        elif name == "lattice.is_negative_definite" and parent_name == "zariski.zariski_decompose":
            extra["zariski.rounds"] += 1
        elif name == "lattice.solve_against_gram" and parent_name == "invariants.e_sup":
            extra["invariants.e_sup.subset_solves"] += 1
        elif name == "invariants.e_sup":
            if parent_name == "chains.foliation_e":
                extra["chains.foliation_e.e_sup_calls"] += 1
            bucket = _bucket(E_SUP_BUCKETS, size)
            if bucket:
                extra[f"invariants.e_sup.{bucket}.self_s"] += own
        elif name == "chains.chain_spec":
            bucket = _bucket(CHAIN_BUCKETS, size)
            if bucket:
                extra[f"chains.chain_spec.{bucket}.self_s"] += own
        elif name == "config.load_workspace":
            extra["config.bytes_read"] += size

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    n_solves = calls["lattice.solve_exact"]
    out["lattice.solve_exact.mean_n"] = solve_rows / n_solves if n_solves else 0.0
    for key in (
        "zariski.rounds",
        "invariants.e_sup.subset_solves",
        "chains.foliation_e.e_sup_calls",
        "config.bytes_read",
    ):
        out[key] = extra[key]
    for label, _, _ in E_SUP_BUCKETS:
        out[f"invariants.e_sup.{label}.self_s"] = extra[f"invariants.e_sup.{label}.self_s"]
    for label, _, _ in CHAIN_BUCKETS:
        out[f"chains.chain_spec.{label}.self_s"] = extra[f"chains.chain_spec.{label}.self_s"]
    return out
