"""Layer spans recorded from outside the library.

`Tracer.install()` replaces the public functions and methods of each layer
with wrappers that record a span (name, start, end, parent) and a few work
counts; `uninstall()` puts the originals back.  Nothing under `src/` is
edited: functions are swapped in every `permdesign` module namespace that
holds them, so `from .x import f` references are covered too.  Spans are
kept in memory and reduced to per-layer metrics when the traced phase ends.

Everything runs in one thread, so a span's parent is simply the innermost
open span, and a layer's busy time is the union of its spans' intervals.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import Counter

from permdesign import (analysis, analyzer, cli, corpus, cosets, designgroup,
                        discovery, geometry, group, incidence, io)
from permdesign.perm import Permutation

clock = time.perf_counter

# (owner, attribute, span name); owner is a module or a class
SPANNED = (
    (group, "_build_chain", "group.chain_build"),
    (group.GroupWithChain, "point_stabilizer", "group.point_stabilizer"),
    (group, "induced_action", "group.induced_action"),
    (group.GroupWithChain, "elements", "group.elements"),
    (group, "prime_order_class_representatives", "group.class_rep"),
    (group, "normal_closure", "group.normal_closure"),
    (analysis, "minimal_block_system", "analysis.block_system"),
    (analysis, "primitivity_status", "analysis.primitivity"),
    (analysis, "is_quasiprimitive", "analysis.quasiprimitive"),
    (analysis, "classify_point_action", "analysis.classify"),
    (cosets, "lambda_constancy_crosscheck", "cosets.crosscheck"),
    (cosets, "double_coset_lambda", "cosets.double_coset_lambda"),
    (cosets, "subgroup_intersection", "cosets.subgroup_intersection"),
    (cosets.CosetSpace, "__init__", "cosets.coset_space"),
    (cosets.CosetGraph, "__init__", "cosets.coset_graph"),
    (cosets, "coset_action", "cosets.coset_action"),
    (cosets, "coset_graph_faithful", "cosets.faithful"),
    (designgroup.DesignAction, "__init__", "designgroup.design_action"),
    (designgroup.DesignAction, "local_primitivity_report",
     "designgroup.local_primitivity"),
    (designgroup.DesignAction, "local_point_action", "designgroup.local_action"),
    (designgroup.DesignAction, "local_block_action", "designgroup.local_action"),
    (incidence, "verify_design", "incidence.verify"),
    (incidence, "incidence_graph_diameter", "incidence.diameter"),
    (geometry, "build_PG", "geometry.build"),
    (geometry, "build_AG", "geometry.build"),
    (geometry, "build_symplectic_subdesign", "geometry.build"),
    (io, "read_group_file", "io.read"),
    (io, "read_design_file", "io.read"),
    (io, "write_group_file", "io.write"),
    (io, "write_design_file", "io.write"),
    (corpus, "bundled_corpus", "corpus.build"),
    (discovery, "random_subgroups_of_order", "discovery.search"),
    (discovery, "subgroups_conjugate_in", "discovery.search"),
    (discovery, "cyclic_normalizer", "discovery.search"),
    (discovery, "first_element_of_order", "discovery.search"),
    (analyzer, "analyze", "analyzer.analyze"),
    (cli, "cmd_census", "cli.census"),
)

# metric -> span name whose busy time it reports
BUSY_METRICS = {
    "group.chain_build_s": "group.chain_build",
    "group.point_stabilizer_s": "group.point_stabilizer",
    "group.induced_action_s": "group.induced_action",
    "group.elements_s": "group.elements",
    "group.class_rep_s": "group.class_rep",
    "group.normal_closure_s": "group.normal_closure",
    "analysis.primitivity_s": "analysis.primitivity",
    "analysis.quasiprimitive_s": "analysis.quasiprimitive",
    "analysis.classify_s": "analysis.classify",
    "cosets.crosscheck_s": "cosets.crosscheck",
    "cosets.double_coset_lambda_s": "cosets.double_coset_lambda",
    "cosets.subgroup_intersection_s": "cosets.subgroup_intersection",
    "cosets.coset_space_s": "cosets.coset_space",
    "cosets.coset_graph_s": "cosets.coset_graph",
    "cosets.coset_action_s": "cosets.coset_action",
    "cosets.faithful_s": "cosets.faithful",
    "designgroup.design_action_s": "designgroup.design_action",
    "designgroup.local_primitivity_s": "designgroup.local_primitivity",
    "designgroup.local_action_s": "designgroup.local_action",
    "incidence.verify_s": "incidence.verify",
    "incidence.diameter_s": "incidence.diameter",
    "geometry.build_s": "geometry.build",
    "io.read_s": "io.read",
    "io.write_s": "io.write",
    "corpus.build_s": "corpus.build",
    "discovery.search_s": "discovery.search",
}

# metric -> span name whose call count it reports
CALL_METRICS = {
    "group.chain_builds": "group.chain_build",
    "group.point_stabilizer_calls": "group.point_stabilizer",
    "group.class_rep_calls": "group.class_rep",
    "group.normal_closures": "group.normal_closure",
    "analysis.block_system_calls": "analysis.block_system",
    "cosets.double_coset_lambda_calls": "cosets.double_coset_lambda",
}

# work counts kept by the wrappers themselves
COUNTED = ("group.elements_enumerated", "group.enumeration_refusals",
           "cosets.canonical_reps")

# stages of analyze(collect_timings=True) reported one by one; the rest of
# its keys are summed into analyzer.stage.other_s
STAGES = ("preservation", "verify_design", "local_primitivity", "point_type",
          "block_type", "lambda_constancy", "diameter")

PERM_PROBES = ("perm.mul_ns.d15", "perm.mul_ns.d891", "perm.inverse_ns.d891")

# layers that act while the inputs are produced; every other metric is
# taken over the traced pass
SETUP_METRICS = ("geometry.build_s", "io.write_s", "corpus.build_s",
                 "discovery.search_s")

METRIC_UNITS = {}
METRIC_UNITS.update({m: "s" for m in BUSY_METRICS})
METRIC_UNITS.update({m: "count" for m in CALL_METRICS})
METRIC_UNITS.update({m: "count" for m in COUNTED})
METRIC_UNITS.update({f"analyzer.stage.{s}_s": "s" for s in STAGES})
METRIC_UNITS["analyzer.stage.other_s"] = "s"
METRIC_UNITS["cli.census_self_s"] = "s"
METRIC_UNITS["cosets.crosscheck_useful_frac"] = "ratio"
METRIC_UNITS["cosets.crosscheck_wasted_s"] = "s"
METRIC_UNITS.update({m: "ns" for m in PERM_PROBES})
METRIC_UNITS["trace.overhead_frac"] = "ratio"


class Tracer:
    """Spans and counts of one traced phase."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.stage_s = Counter()
        self.crosschecks = []  # (seconds, ended with an answer)
        self._open = []
        self._saved = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else None
            record = [name, clock(), None, parent]
            open_.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()

        traced.__wrapped__ = fn
        return traced

    def _elements(self, fn):
        counts = self.counts

        def elements(grp, *args, **kwargs):
            fresh = grp._elements is None
            try:
                out = fn(grp, *args, **kwargs)
            except group.EnumerationLimitError:
                counts["group.enumeration_refusals"] += 1
                raise
            if fresh:
                counts["group.elements_enumerated"] += len(out)
            return out

        return elements

    def _crosscheck(self, fn):
        log = self.crosschecks

        def crosscheck(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except group.EnumerationLimitError:
                log.append((clock() - t0, False))
                raise
            log.append((clock() - t0, True))
            return out

        return crosscheck

    def _canonical(self, fn):
        counts = self.counts

        def canonical(subgroup, x):
            counts["cosets.canonical_reps"] += 1
            return fn(subgroup, x)

        return canonical

    def _analyze(self, fn):
        stage_s = self.stage_s

        def analyze(*args, collect_timings=False, **kwargs):
            report = fn(*args, collect_timings=True, **kwargs)
            for key, seconds in report.timings.items():
                stage_s[key if key in STAGES else "other"] += seconds
            if not collect_timings:
                report.timings = None
            return report

        return analyze

    # -- patching --------------------------------------------------------

    def _replace(self, owner, attr, new):
        """Swap owner.attr for `new`; a module-level function is swapped in
        every permdesign module that imported it."""
        old = owner.__dict__[attr]
        holders = [owner]
        if not isinstance(owner, type):
            holders = [m for n, m in sys.modules.items()
                       if n.split(".")[0] == "permdesign"
                       and getattr(m, attr, None) is old]
        for holder in holders:
            self._saved.append((holder, attr, old))
            setattr(holder, attr, new)

    def install(self):
        extra = {
            "group.elements": self._elements,
            "cosets.crosscheck": self._crosscheck,
            "analyzer.analyze": self._analyze,
        }
        for owner, attr, name in SPANNED:
            fn = owner.__dict__[attr]
            if name in extra:
                fn = extra[name](fn)
            self._replace(owner, attr, self._wrap(name, fn))
        self._replace(cosets, "canonical_coset_representative",
                      self._canonical(cosets.canonical_coset_representative))

    def uninstall(self):
        while self._saved:
            holder, attr, old = self._saved.pop()
            setattr(holder, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction -------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def busy_s(self, name):
        """Time inside at least one span of this name (nested calls of the
        same layer are counted once)."""
        total = 0.0
        for n, start, end, parent in self.spans:
            if n != name:
                continue
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                total += end - start
        return total

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def top_self_s(self):
        own = self.self_times()
        return sum(t for t, s in zip(own, self.spans) if s[3] is None)

    def metrics(self):
        out = {m: self.busy_s(span) for m, span in BUSY_METRICS.items()}
        out.update({m: self.calls(span) for m, span in CALL_METRICS.items()})
        out.update({m: self.counts[m] for m in COUNTED})
        for stage in STAGES + ("other",):
            out[f"analyzer.stage.{stage}_s"] = self.stage_s[stage]
        own = self.self_times()
        out["cli.census_self_s"] = sum(
            t for t, s in zip(own, self.spans) if s[0] == "cli.census")
        answered = sum(1 for _, ok in self.crosschecks if ok)
        out["cosets.crosscheck_useful_frac"] = (
            answered / len(self.crosschecks) if self.crosschecks else 0.0)
        out["cosets.crosscheck_wasted_s"] = sum(
            t for t, ok in self.crosschecks if not ok)
        return out


def perm_probe(rng, degree, op, total=60000, rounds=15):
    """Median time of one operation on random permutations of a degree, in
    nanoseconds, over `rounds` timed batches."""
    pool = []
    for _ in range(16):
        images = list(range(degree))
        rng.shuffle(images)
        pool.append(Permutation(images))
    pairs = [(pool[i % 16], pool[(5 * i + 3) % 16]) for i in range(64)]
    per_round = max(1, total // (rounds * len(pairs)))
    samples = []
    for _ in range(rounds):
        t0 = clock()
        for _ in range(per_round):
            for p, q in pairs:
                op(p, q)
        samples.append((clock() - t0) / (per_round * len(pairs)))
    return statistics.median(samples) * 1e9


def perm_probes(seed):
    rng = random.Random(seed)
    return {
        "perm.mul_ns.d15": perm_probe(rng, 15, Permutation.__mul__, 300000),
        "perm.mul_ns.d891": perm_probe(rng, 891, Permutation.__mul__),
        "perm.inverse_ns.d891": perm_probe(rng, 891,
                                           lambda p, q: p.inverse()),
    }
