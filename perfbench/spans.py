"""Span tracing of approxalg's public functions, applied from outside the package.

``Tracer.install()`` replaces each function named in ``TARGETS`` by a wrapper
in every approxalg module namespace (and class) that binds it, so calls made
inside the package are traced too; ``uninstall()`` puts the originals back.
Nothing under ``src/`` is modified.

Each wrapped call is one span: name, start, end, parent span, task id.
Spans are kept in flat in-memory arrays and written out by ``write_spans``
when the run ends.  A span's self time is its duration minus the time its
child spans cover; since the program is single-threaded, children are
nested and sequential, so that is the sum of the children's durations.

Metric definitions (``per_layer_metrics``):
  ``<group>_s``   inclusive time of the outermost spans of the group (a
                  recursive or nested call of the same group is not counted
                  twice);
  ``*self_s``     self time, summed over the layer's (or group's) spans;
  counts          number of spans, or the counters the hooks below collect.
"""

import gzip
import re
import sys
import time
from array import array

# (layer, dotted target, group).  A target is "module:function" or
# "module:Class.method"; "module:*Base.method" wraps the method on every
# class in the approxalg modules that derives from Base and defines it.
# Inner-loop helpers called hundreds of thousands of times a run from
# topology_check (v_set, d_set, closure_eval, approx_product) are left
# unwrapped: wrapping them added 38% to integer-spectrum's wall time, and
# their time shows as the self time of their caller.
TARGETS = [
    ("grammar", "grammar:parse_ring", "grammar.parse"),
    ("grammar", "grammar:parse_closure", "grammar.parse"),
    ("grammar", "grammar:parse_element", "grammar.parse"),
    ("grammar", "grammar:parse_generators", "grammar.parse"),
    ("grammar", "grammar:parse_poly", "grammar.parse"),
    ("grammar", "grammar:parse_point", "grammar.parse"),
    ("reports", "reports:Report.to_json", "reports.emit"),
    ("reports", "reports:Report.to_table", "reports.emit"),
    ("cli", "cli:main", "cli.main"),
    ("rings", "rings:subgroup_generated", "rings.closure"),
    ("rings", "rings:ideal_generated", "rings.closure"),
    ("rings", "rings:ideal_closure_set", "rings.closure"),
    ("rings", "rings:enumerate_subgroups", "rings.subgroup_enum"),
    ("rings", "rings:classical_ideals", "rings.subgroup_enum"),
    ("closures", "closures:ring_domain", "closures.ring_domain"),
    ("closures", "closures:FiniteDomain.__init__", "closures.domain_build"),
    ("closures", "closures:FiniteDomain.pair_setsum_aug", "closures.pair_cache"),
    ("closures", "closures:FiniteDomain.closure_vector", "closures.closure_vector"),
    ("closures", "closures:*ClosureSpec.eval_set", "closures.eval_set"),
    ("closures", "modules:*ModuleClosure.eval_set", "closures.eval_set"),
    ("closures", "closures:check_axioms", "closures.check_axioms"),
    ("closures", "closures:closure_member", "closures.member"),
    ("closures", "closures:*ClosureSpec.member", "closures.member"),
    ("homs", "closures:closure_image_compatible", "homs.compat"),
    ("homs", "closures:closure_preimage_compatible", "homs.compat"),
    ("homs", "homs:reduction_hom", "homs.build"),
    ("ideals", "ideals:is_approx_prime", "ideals.prime_test"),
    ("ideals", "ideals:z_prime_bruteforce", "ideals.prime_test"),
    ("ideals", "ideals:z_prime_bruteforce_grid", "ideals.z_grid"),
    ("ideals", "ideals:is_approx_ideal", "ideals.ideal_test"),
    ("ideals", "ideals:quotient_ring", "ideals.quotient"),
    ("spectrum", "spectrum:spectrum", "spectrum.spectrum"),
    ("spectrum", "spectrum:topology_check", "spectrum.topology"),
    ("localization", "localization:localize", "localization.localize"),
    ("localization", "localization:check_transfer_axioms",
     "localization.transfer_axioms"),
    ("localization", "localization:check_rep_independence",
     "localization.rep_independence"),
    ("localization", "localization:check_iota_functorial",
     "localization.iota_functorial"),
    ("localization", "localization:check_ext_contr_bijection",
     "localization.ext_contr"),
    ("localization", "localization:radical", "localization.radical"),
    ("localization", "localization:check_rad_eq_nil", "localization.radical"),
    ("localization", "localization:z_radical_bruteforce",
     "localization.radical"),
    ("localization", "localization:prime_radical", "localization.radical"),
    ("modules", "modules:finite_module", "modules.build"),
    ("modules", "modules:module_domain", "modules.build"),
    ("modules", "modules:module_quotient", "modules.build"),
    ("modules", "modules:scaling_hom", "modules.build"),
    ("modules", "modules:iso_first", "modules.iso"),
    ("modules", "modules:iso_second", "modules.iso"),
    ("modules", "modules:iso_third", "modules.iso"),
    ("modules", "modules:check_cm_axioms", "modules.cm_axioms"),
    ("nullstellensatz", "nullstellensatz:all_function_ring_ideals",
     "nullstellensatz.ideal_enum"),
    ("nullstellensatz", "nullstellensatz:check_esep", "nullstellensatz.checks"),
    ("nullstellensatz", "nullstellensatz:check_pp", "nullstellensatz.checks"),
    ("nullstellensatz", "nullstellensatz:check_ans", "nullstellensatz.checks"),
]

# check_axioms spans are renamed after the call, by the mode the report
# states, so the exhaustive bitmask engine and the set engine separate.
_AXIOM_GROUPS = {"exhaustive": "closures.check_axioms.exhaustive",
                 "subgroups": "closures.check_axioms.sets",
                 "ideals": "closures.check_axioms.sets",
                 "sampled": "closures.check_axioms.sets",
                 "bounded": "closures.check_axioms.bounded"}

# name, unit, and how it is computed from the run (see per_layer_metrics)
PER_LAYER = [
    ("grammar.calls", "count", ("calls", "grammar.parse")),
    ("grammar.self_s", "s", ("layer_self", "grammar")),
    ("reports.emit_s", "s", ("incl", "reports.emit")),
    ("reports.bytes", "bytes", ("counter", "reports.bytes")),
    ("reports.self_s", "s", ("layer_self", "reports")),
    ("cli.requests", "count", ("calls", "cli.main")),
    ("cli.self_s", "s", ("layer_self", "cli")),
    ("cli.exit_nonzero", "count", ("counter", "cli.exit_nonzero")),
    ("rings.closure_calls", "count", ("calls", "rings.closure")),
    ("rings.closure_s", "s", ("incl", "rings.closure")),
    ("rings.subgroup_enum_calls", "count", ("calls", "rings.subgroup_enum")),
    ("rings.subgroup_enum_s", "s", ("incl", "rings.subgroup_enum")),
    ("rings.subgroups_listed", "count", ("counter", "rings.subgroups_listed")),
    ("rings.self_s", "s", ("layer_self", "rings")),
    ("closures.domain_builds", "count", ("calls", "closures.domain_build")),
    ("closures.domain_cache_hits", "count",
     ("counter", "closures.domain_cache_hits")),
    ("closures.domain_build_s", "s", ("incl", "closures.domain_build")),
    ("closures.domain_table_bytes", "bytes",
     ("counter", "closures.domain_table_bytes")),
    ("closures.pair_cache_builds", "count",
     ("counter", "closures.pair_cache_builds")),
    ("closures.pair_cache_s", "s", ("incl", "closures.pair_cache")),
    ("closures.closure_vector_s", "s", ("incl", "closures.closure_vector")),
    ("closures.eval_set_calls", "count", ("calls", "closures.eval_set")),
    ("closures.eval_set_s", "s", ("incl", "closures.eval_set")),
    ("closures.exhaustive_self_s", "s",
     ("group_self", "closures.check_axioms.exhaustive")),
    ("closures.sets_engine_s", "s", ("incl", "closures.check_axioms.sets")),
    ("closures.subsets_quantified", "count",
     ("counter", "closures.subsets_quantified")),
    ("closures.member_calls", "count", ("calls", "closures.member")),
    ("closures.member_s", "s", ("incl", "closures.member")),
    ("closures.self_s", "s", ("layer_self", "closures")),
    ("ideals.prime_tests", "count", ("calls", "ideals.prime_test")),
    ("ideals.prime_test_s", "s", ("incl", "ideals.prime_test")),
    ("ideals.z_grid_s", "s", ("incl", "ideals.z_grid")),
    ("ideals.z_grid_cells", "count", ("counter", "ideals.z_grid_cells")),
    ("ideals.quotient_s", "s", ("incl", "ideals.quotient")),
    ("ideals.self_s", "s", ("layer_self", "ideals")),
    ("spectrum.spectrum_calls", "count", ("calls", "spectrum.spectrum")),
    ("spectrum.spectrum_s", "s", ("incl", "spectrum.spectrum")),
    ("spectrum.topology_s", "s", ("incl", "spectrum.topology")),
    ("spectrum.self_s", "s", ("layer_self", "spectrum")),
    ("localization.localize_s", "s", ("incl", "localization.localize")),
    ("localization.classes", "count", ("counter", "localization.classes")),
    ("localization.transfer_axioms_s", "s",
     ("incl", "localization.transfer_axioms")),
    ("localization.radical_s", "s", ("incl", "localization.radical")),
    ("localization.self_s", "s", ("layer_self", "localization")),
    ("modules.build_s", "s", ("incl", "modules.build")),
    ("modules.iso_s", "s", ("incl", "modules.iso")),
    ("modules.cm_axioms_s", "s", ("incl", "modules.cm_axioms")),
    ("modules.self_s", "s", ("layer_self", "modules")),
    ("nullstellensatz.ideal_enum_s", "s", ("incl", "nullstellensatz.ideal_enum")),
    ("nullstellensatz.checks_s", "s", ("incl", "nullstellensatz.checks")),
    ("nullstellensatz.self_s", "s", ("layer_self", "nullstellensatz")),
    ("homs.compat_s", "s", ("incl", "homs.compat")),
    ("homs.self_s", "s", ("layer_self", "homs")),
]

# the trace's own figures, filled in by run.py
TRACE_METRICS = [
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
]


def _subsets_stated(report, structure):
    """The number of subsets an axiom report says it quantified over."""
    domain = report.domain or ""
    if domain.startswith("all subsets"):
        return 1 << structure.cardinality()
    match = re.match(r"(\d+) ", domain)
    if match:
        return int(match.group(1))
    match = re.match(r"\(d\) for d <= (\d+)", domain)
    if match:
        return int(match.group(1)) + 1
    return 0


def _table_bytes(dom):
    arrays = [dom.masks, dom.neg_table, *dom.shift_tables,
              *dom.scale_tables.values()]
    return sum(a.nbytes for a in arrays)


def _post_check_axioms(tracer, idx, args, kwargs, result, _pre):
    tracer.rename(idx, _AXIOM_GROUPS.get(result.mode, "closures.check_axioms"))
    tracer.count("closures.subsets_quantified",
                 _subsets_stated(result, args[0].ring))


def _post_cm_axioms(tracer, idx, args, kwargs, result, _pre):
    tracer.count("closures.subsets_quantified",
                 _subsets_stated(result, args[0]))


def _post_domain_build(tracer, idx, args, kwargs, result, _pre):
    tracer.count("closures.domain_table_bytes", _table_bytes(args[0]))


def _domain_cache_size():
    return len(sys.modules["approxalg.closures"]._DOMAIN_CACHE)


def _pre_ring_domain(args, kwargs):
    return _domain_cache_size()


def _post_ring_domain(tracer, idx, args, kwargs, result, size_before):
    if _domain_cache_size() == size_before:
        tracer.count("closures.domain_cache_hits", 1)


def _pre_pair_cache(args, kwargs):
    return getattr(args[0], "_pair_aug", None) is None


def _post_pair_cache(tracer, idx, args, kwargs, result, was_empty):
    if was_empty:
        tracer.count("closures.pair_cache_builds", 1)
        tracer.count("closures.domain_table_bytes", result.nbytes)


def _post_z_grid(tracer, idx, args, kwargs, result, _pre):
    m, d_max = args[0], args[1]
    bound = args[2] if len(args) > 2 else kwargs.get("bound")
    if bound is None:
        bound = max(2 * m, 16)
    tracer.count("ideals.z_grid_cells", (d_max + 1) * bound)


def _post_subgroups(tracer, idx, args, kwargs, result, _pre):
    tracer.count("rings.subgroups_listed", len(result))


def _post_emit(tracer, idx, args, kwargs, result, _pre):
    tracer.count("reports.bytes", len(result.encode("utf-8")))


def _post_cli(tracer, idx, args, kwargs, result, _pre):
    if result != 0:
        tracer.count("cli.exit_nonzero", 1)


def _post_localize(tracer, idx, args, kwargs, result, _pre):
    tracer.count("localization.classes", result.class_count())


HOOKS = {
    "closures:check_axioms": (None, _post_check_axioms),
    "modules:check_cm_axioms": (None, _post_cm_axioms),
    "closures:FiniteDomain.__init__": (None, _post_domain_build),
    "closures:ring_domain": (_pre_ring_domain, _post_ring_domain),
    "closures:FiniteDomain.pair_setsum_aug": (_pre_pair_cache, _post_pair_cache),
    "ideals:z_prime_bruteforce_grid": (None, _post_z_grid),
    "rings:enumerate_subgroups": (None, _post_subgroups),
    "rings:classical_ideals": (None, _post_subgroups),
    "reports:Report.to_json": (None, _post_emit),
    "reports:Report.to_table": (None, _post_emit),
    "cli:main": (None, _post_cli),
    "localization:localize": (None, _post_localize),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names = []          # group names, indexed by name id
        self.layer_of = []       # layer of each name id
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self.stack = []
        self.task_id = -1
        self.counters = {}
        self.incl = {}           # group -> inclusive ns of outermost spans
        self._depth = {}
        self._patches = []

    # -- recording --------------------------------------------------------

    def _id(self, group, layer):
        nid = self._ids.get(group)
        if nid is None:
            nid = self._ids[group] = len(self.names)
            self.names.append(group)
            self.layer_of.append(layer)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.task_id)
        self.end.append(0)
        self.child.append(0)
        self.stack.append(idx)
        depth_key = self.names[nid]
        self._depth[depth_key] = self._depth.get(depth_key, 0) + 1
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        now = time.perf_counter_ns()
        self.end[idx] = now
        self.stack.pop()
        dur = now - self.start[idx]
        if self.stack:
            self.child[self.stack[-1]] += dur
        return dur

    def finish(self, idx, opened_as, dur):
        """Book the inclusive time once the span's final name is known."""
        depth = self._depth[opened_as] - 1
        self._depth[opened_as] = depth
        if depth == 0:
            group = self.names[self.name_id[idx]]
            self.incl[group] = self.incl.get(group, 0) + dur

    def rename(self, idx, group):
        layer = self.layer_of[self.name_id[idx]]
        self.name_id[idx] = self._id(group, layer)

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- installing the wrappers -----------------------------------------

    def _wrap(self, fn, layer, group, target):
        nid = self._id(group, layer)
        pre, post = HOOKS.get(target, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            pre_value = pre(args, kwargs) if pre is not None else None
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.finish(idx, group, tracer.close(idx))
                raise
            dur = tracer.close(idx)
            if post is not None:
                post(tracer, idx, args, kwargs, result, pre_value)
            tracer.finish(idx, group, dur)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, extra_namespaces=()):
        """Wrap every target; ``extra_namespaces`` are further modules (the
        benchmark's own) whose bindings of a target are replaced too."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "approxalg" or name.startswith("approxalg.")]
        modules.extend(extra_namespaces)
        for layer, target, group in TARGETS:
            mod_name, qual = target.split(":")
            mod = sys.modules["approxalg." + mod_name]
            if qual.startswith("*"):
                base_name, method = qual[1:].split(".")
                base = getattr(mod, base_name)
                for cls in _subclasses(base):
                    if method in cls.__dict__:
                        fn = cls.__dict__[method]
                        self._set(cls, method, self._wrap(fn, layer, group, target))
            elif "." in qual:
                cls_name, method = qual.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[method]
                self._set(cls, method, self._wrap(fn, layer, group, target))
            else:
                fn = getattr(mod, qual)
                wrapped = self._wrap(fn, layer, group, target)
                for other in modules:
                    for attr, value in list(other.__dict__.items()):
                        if value is fn:
                            self._set(other, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_ns(self):
        """Per-group and per-layer self time, in ns."""
        by_group = {}
        by_layer = {}
        for i in range(len(self.start)):
            nid = self.name_id[i]
            own = self.end[i] - self.start[i] - self.child[i]
            group = self.names[nid]
            by_group[group] = by_group.get(group, 0) + own
            layer = self.layer_of[nid]
            by_layer[layer] = by_layer.get(layer, 0) + own
        return by_group, by_layer

    def calls(self):
        out = {}
        for nid in self.name_id:
            group = self.names[nid]
            out[group] = out.get(group, 0) + 1
        return out

    def per_layer_metrics(self):
        by_group, by_layer = self.self_ns()
        calls = self.calls()
        out = {}
        for name, unit, (kind, key) in PER_LAYER:
            if kind == "calls":
                value = calls.get(key, 0)
            elif kind == "counter":
                value = self.counters.get(key, 0)
            elif kind == "incl":
                value = self.incl.get(key, 0) / 1e9
            elif kind == "group_self":
                value = by_group.get(key, 0) / 1e9
            else:
                value = by_layer.get(key, 0) / 1e9
            out[name] = (value, unit)
        return out

    def layer_table(self):
        """Text lines: layer, group, calls, inclusive and self seconds, one
        group a line, by self time."""
        by_group, _ = self.self_ns()
        calls = self.calls()
        rows = sorted(((self.layer_of[nid], group, calls[group],
                        self.incl.get(group, 0) / 1e9,
                        by_group.get(group, 0) / 1e9)
                       for nid, group in enumerate(self.names) if group in calls),
                      key=lambda row: -row[4])
        lines = [f"  {'layer':<16} {'group':<36} {'calls':>7} {'incl_s':>9} "
                 f"{'self_s':>9}"]
        lines += [f"  {layer:<16} {group:<36} {n:>7} {incl:>9.4f} {own:>9.4f}"
                  for layer, group, n, incl, own in rows]
        return lines

    def write_spans(self, path, origin_ns):
        """Gzipped TSV, one span a line, times relative to ``origin_ns``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\ttask\tlayer\tname\tstart_ns\tend_ns\tself_ns\n")
            for i in range(len(self.start)):
                nid = self.name_id[i]
                fh.write(f"{i}\t{self.parent[i]}\t{self.task[i]}\t"
                         f"{self.layer_of[nid]}\t{self.names[nid]}\t"
                         f"{self.start[i] - origin_ns}\t{self.end[i] - origin_ns}\t"
                         f"{self.end[i] - self.start[i] - self.child[i]}\n")


def _subclasses(base):
    seen = [base]
    out = []
    while seen:
        cls = seen.pop()
        out.append(cls)
        seen.extend(cls.__subclasses__())
    return out
