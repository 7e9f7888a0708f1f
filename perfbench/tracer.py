"""Span recorder wrapped around the public functions of posetlim's modules.

install() replaces each public function of a layer module, and each
public method of its public classes, by a wrapper that records one span:
name, parent, query id, start and end.  The wrapper is put at the
module attribute and at every other module attribute that holds the
same function object, which covers names other modules import (for
example derived.enumerate_chains, spectral.chain_complex) and the
package re-exports.  uninstall() puts the originals back.  Wrappers
return results unchanged.

Spans are appended to flat arrays while recording is on; the worker
turns recording on only around the timed call of a query (and during
set-up, where spans get query id -1), so its own answer checks leave no
spans.  A few wrappers also run a hook that measures sizes, bit lengths
or repeated arguments; a hook's own time is recorded as a 'trace.hook'
span so that it is not charged to the caller's self time.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import inspect
import json
import sys
import weakref
from time import perf_counter

LAYERS = ("poset", "diagram", "abgroup", "intlinalg", "derived", "spectral",
          "classify", "randgen", "jsonio", "cli")

# constructors that do a layer's work, traced like methods
EXTRA_METHODS = {("intlinalg", "SpanChecker", "__init__")}

INTLINALG_SIZED = ("kernel", "solve", "lattice_basis", "preimage_lattice",
                   "intersect_lattices", "smith_normal_form", "diagonal_of_snf",
                   "SpanChecker.__init__")


def _matrices(obj):
    """Two-dimensional arrays in obj (an argument or a result)."""
    if hasattr(obj, "shape") and hasattr(obj, "flat") and len(obj.shape) == 2:
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            if hasattr(x, "shape") and hasattr(x, "flat") and len(x.shape) == 2:
                yield x


def _nonzeros(M):
    return sum(1 for v in M.flat if v)


def _max_bits(M):
    return max((abs(int(v)).bit_length() for v in M.flat), default=0)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.query = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.recording = False
        self.query_id = -1
        self.counters = {}
        self._round_keys = {}
        self._tokens = weakref.WeakKeyDictionary()
        self._next_token = 0
        self._filtered = weakref.WeakKeyDictionary()
        self._patches = []
        self._discover()

    # ------------------------------------------------------------ patching

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _discover(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"posetlim.{layer}")
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth, fn in vars(obj).items():
                        public = not meth.startswith("_") or (layer, attr, meth) in EXTRA_METHODS
                        if inspect.isfunction(fn) and public:
                            self._patches.append(
                                (obj, meth, fn, self._wrap(fn, f"{layer}.{attr}.{meth}")))
        for modname, mod in list(sys.modules.items()):
            if modname != "posetlim" and not modname.startswith("posetlim."):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    w = wrapped.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if w is not None:
                    self._patches.append((mod, attr, obj, w))

    def install(self):
        for owner, attr, _, w in self._patches:
            setattr(owner, attr, w)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        hook = self._hook_for(name, fn)
        hook_nid = self._name_id("trace.hook")
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.recording:
                return fn(*args, **kwargs)
            sid = len(rec.name)
            parent = rec.stack[-1]
            rec.name.append(nid)
            rec.parent.append(parent)
            rec.query.append(rec.query_id)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                rec.stack.pop()
                rec.start[sid] = t0
                rec.end[sid] = t1
            if hook is not None and rec.query_id >= 0:
                hid = len(rec.name)
                rec.name.append(hook_nid)
                rec.parent.append(parent)
                rec.query.append(rec.query_id)
                rec.start.append(t1)
                rec.end.append(t1)
                rec.recording = False
                try:
                    hook(sid, args, kwargs, result)
                finally:
                    rec.recording = True
                    rec.end[hid] = perf_counter()
            return result

        return wrapper

    # ------------------------------------------------------------ hooks

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def token(self, obj):
        """Identity of a live object that never repeats, unlike id()."""
        try:
            tok = self._tokens.get(obj)
        except TypeError:
            return ("id", id(obj))
        if tok is None:
            tok = self._tokens[obj] = self._next_token
            self._next_token += 1
        return tok

    def keyed(self, ratio, key):
        """One attempt of a reusable computation under `ratio`; distinct
        keys are counted per round."""
        self._round_keys.setdefault(ratio, set()).add(key)
        self.count(ratio + ".attempts")

    def end_round(self):
        for ratio, keys in self._round_keys.items():
            self.count(ratio + ".distinct", len(keys))
        self._round_keys = {}

    def _hook_for(self, name, fn):
        layer, _, short = name.partition(".")
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if name == "poset.enumerate_chains":
            return lambda sid, a, k, res: self.count("poset.chains", len(res))
        if layer == "intlinalg" and short in INTLINALG_SIZED:
            def hook(sid, a, k, res):
                p = self.parent[sid]
                if p < 0 or not self.names[self.name[p]].startswith("intlinalg."):
                    for M in _matrices(list(a) + list(k.values())):
                        self.count("intlinalg.entries_in", M.shape[0] * M.shape[1])
                        self.count("intlinalg.nonzeros_in", _nonzeros(M))
                for M in _matrices(res):
                    self.peak("intlinalg.max_bits", _max_bits(M))
            return hook
        if name in ("derived.chain_complex", "derived.cochain_complex"):
            def hook(sid, a, k, X):
                b = bound(a, k)
                self.keyed("derived.complex", (short, self.token(b["F"]), b["top"], b["normalized"]))
                for n in range(X.top + 1):
                    M = X.d_from(n).matrix
                    self.count("derived.diff_entries", M.shape[0] * M.shape[1])
                    self.count("derived.diff_nonzeros", _nonzeros(M))
            return hook
        if name == "spectral.build_filtered":
            def hook(sid, a, k, X):
                b = bound(a, k)
                self._filtered[X] = (self.token(b["F"]), b["variant"].name)
            return hook
        if name == "spectral.page":
            def hook(sid, a, k, res):
                b = bound(a, k)
                X = b["X"]
                self.keyed("spectral.page", (self._filtered.get(X, self.token(X)), b["r"]))
            return hook
        if name in ("classify.is_pseudo_projective_at", "classify.is_pseudo_injective_at"):
            def hook(sid, a, k, res):
                b = bound(a, k)
                self.keyed("classify.pseudo", (short, self.token(b["F"]), b["i0"], b["d"]))
            return hook
        if name == "jsonio.parse_diagram":
            def hook(sid, a, k, res):
                data = bound(a, k)["data"]
                if isinstance(data, str):
                    data = data.encode()
                if not isinstance(data, bytes):
                    data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
                self.count("jsonio.bytes_in", len(data))
            return hook
        return None

    # ------------------------------------------------------------ results

    def self_times(self):
        """Per-span (inclusive time, self time) lists.  Inclusive time is
        the duration less the trace.hook spans anywhere under the span,
        so neither figure counts the tracer's own measuring."""
        n = len(self.name)
        hook_nid = self._name_ids.get("trace.hook")
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        hooks = [0.0] * n
        # a parent is recorded before its children, so walking backwards
        # finishes each span's subtree before the span itself
        for i in range(n - 1, -1, -1):
            if self.name[i] == hook_nid:
                hooks[i] = dur[i]
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
                hooks[p] += hooks[i]
        return [d - h for d, h in zip(dur, hooks)], [d - c for d, c in zip(dur, covered)]

    def write(self, path):
        """All spans as gzip'd JSON columns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "query": self.query.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist()}, fh)


def _ratio(num, den, empty):
    return num / den if den else empty


def layer_metrics(tr, rounds, overhead):
    """Per-layer metrics: query-time values per traced round, set-up
    values (randgen) per set-up."""
    incl, self_t = tr.self_times()
    by_name = {}
    randgen_s = 0.0
    for i in range(len(tr.name)):
        name = tr.names[tr.name[i]]
        if tr.query[i] < 0:
            if name.startswith("randgen.") and (tr.parent[i] < 0 or not
                    tr.names[tr.name[tr.parent[i]]].startswith("randgen.")):
                randgen_s += incl[i]
            continue
        s = by_name.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += incl[i]
        s[2] += self_t[i]
    dd = 0.0
    for i in range(len(tr.name)):
        p = tr.parent[i]
        if tr.query[i] >= 0 and p >= 0 and tr.names[tr.name[i]] in ("abgroup.compose", "abgroup.AbHom.is_zero") \
                and tr.names[tr.name[p]] in ("derived.chain_complex", "derived.cochain_complex"):
            dd += incl[i]

    def calls(*names):
        return sum(by_name.get(n, (0, 0, 0))[0] for n in names) / rounds

    def total(*names):
        return sum(by_name.get(n, (0, 0, 0))[1] for n in names) / rounds

    def self_s(*names):
        return sum(by_name.get(n, (0, 0, 0))[2] for n in names) / rounds

    def prefixed(prefix):
        return [n for n in by_name if n.startswith(prefix)]

    c = tr.counters
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*prefixed(layer + "."))
    m["poset.enumerate_chains.self_s"] = self_s("poset.enumerate_chains")
    m["poset.chains"] = c.get("poset.chains", 0) / rounds
    m["diagram.validate_functor.self_s"] = self_s("diagram.validate_functor")
    m["diagram.im_ker_coker.self_s"] = self_s("diagram.im_at", "diagram.ker_at",
                                              "diagram.coker_at", "diagram.coim_at")
    m["abgroup.compose.self_s"] = self_s("abgroup.compose")
    m["abgroup.is_zero.self_s"] = self_s("abgroup.AbHom.is_zero")
    m["abgroup.dd_check_s"] = dd / rounds
    for fn in ("kernel", "solve", "lattice_basis", "preimage_lattice", "intersect_lattices",
               "smith_normal_form", "diagonal_of_snf"):
        m[f"intlinalg.{fn}.self_s"] = self_s(f"intlinalg.{fn}")
        m[f"intlinalg.{fn}.calls"] = calls(f"intlinalg.{fn}")
    checker = prefixed("intlinalg.SpanChecker.")
    m["intlinalg.span_checker.self_s"] = self_s(*checker)
    m["intlinalg.span_checker.calls"] = calls(*checker)
    m["intlinalg.entries_in"] = c.get("intlinalg.entries_in", 0) / rounds
    m["intlinalg.nonzero_fraction"] = _ratio(c.get("intlinalg.nonzeros_in", 0),
                                             c.get("intlinalg.entries_in", 0), 0.0)
    m["intlinalg.snf_transform_discarded_fraction"] = _ratio(
        calls("intlinalg.diagonal_of_snf"), calls("intlinalg.smith_normal_form"), 0.0)
    m["intlinalg.max_bits"] = c.get("intlinalg.max_bits", 0)
    for fn in ("chain_complex", "cochain_complex", "homology_at"):
        m[f"derived.{fn}.self_s"] = self_s(f"derived.{fn}")
    m["derived.diff_nonzero_fraction"] = _ratio(c.get("derived.diff_nonzeros", 0),
                                                c.get("derived.diff_entries", 0), 0.0)
    m["derived.complex_builds"] = calls("derived.chain_complex", "derived.cochain_complex")
    for ratio, name in (("derived.complex", "derived.complex_reuse_ratio"),
                        ("spectral.page", "spectral.page_reuse_ratio"),
                        ("classify.pseudo", "classify.pseudo_reuse_ratio")):
        m[name] = _ratio(c.get(ratio + ".distinct", 0), c.get(ratio + ".attempts", 0), 1.0)
    m["spectral.page.self_s"] = self_s("spectral.page")
    m["spectral.build_filtered.self_s"] = self_s("spectral.build_filtered")
    for fn in ("e_infinity", "convergence_check", "oracle_page_recurrence"):
        m[f"spectral.{fn}.s"] = total(f"spectral.{fn}")
    m["spectral.page.calls"] = calls("spectral.page")
    m["classify.classify_diagram.self_s"] = self_s("classify.classify_diagram")
    m["classify.pseudo_at.calls"] = calls("classify.is_pseudo_projective_at",
                                          "classify.is_pseudo_injective_at")
    m["jsonio.parse_diagram.self_s"] = self_s("jsonio.parse_diagram")
    m["jsonio.bytes_in"] = c.get("jsonio.bytes_in", 0) / rounds
    m["cli.main.self_s"] = self_s("cli.main")
    m["randgen.gen_s"] = randgen_s
    m["trace.spans"] = sum(s[0] for s in by_name.values()) / rounds
    m["trace.overhead_fraction"] = overhead
    return m
