"""The benchmark harness under perfbench/ still runs against the library:
its self-test passes, its machine record reads every name it needs, its
tracer wraps and restores the layers that `analyze` goes through, and its
committed coset inputs are what its generator script derives.  The first
three run in a subprocess because importing perfbench/run.py clears the
PERMDESIGN_* variables of the importing process, and the tracer patches
module attributes."""

import importlib.util
import json
import os
import random
import subprocess
import sys

from permdesign import corpus
from permdesign.designgroup import DesignAction
from permdesign.io import format_group

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _run(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_smoke_test_passes():
    done = _run([os.path.join(PERFBENCH, "test_smoke.py")])
    assert done.returncode == 0, done.stderr[-2000:]


def test_benchmark_machine_record():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.import_library(); print(json.dumps(run.machine_record()))")
    done = _run(["-c", code, PERFBENCH])
    assert done.returncode == 0, done.stderr[-2000:]
    limits = json.loads(done.stdout)["limits"]
    assert set(limits) == {"element_limit", "index_limit", "point_limit",
                           "exhaustive_limit"}


_TRACE_ANALYZE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import permdesign
import tracing
from permdesign.analyzer import analyze
from permdesign.geometry import build_PG

def bindings():
    return {(name, attr): id(value)
            for name, module in sorted(sys.modules.items())
            if name.split(".")[0] == "permdesign"
            for attr, value in vars(module).items()
            if callable(value)} | {
        (owner.__name__, attr): id(owner.__dict__[attr])
        for owner, attr, _ in tracing.SPANNED if isinstance(owner, type)}

structure, group = build_PG(2, 2, 1)
before = bindings()
tracer = tracing.Tracer()
tracer.install()
try:
    report = analyze(group, structure, "fano-pgl32")
finally:
    tracer.uninstall()
print(json.dumps({"metrics": tracer.metrics(),
                  "types": [report.point_type, report.block_type],
                  "restored": bindings() == before}))
"""


def test_tracer_wraps_analyze_and_restores():
    done = _run(["-c", _TRACE_ANALYZE, PERFBENCH, os.path.join(ROOT, "src")])
    assert done.returncode == 0, done.stderr[-2000:]
    out = json.loads(done.stdout)
    assert out["restored"]
    assert out["types"] == ["AS", "AS"]
    metrics = out["metrics"]
    assert metrics["group.class_rep_calls"] == 0
    assert metrics["analysis.quasiprimitive_s"] > 0
    assert metrics["analysis.classify_s"] > 0


def test_bundled_corpus_accepts_and_ignores_rng():
    """perfbench/workloads.py builds the corpus-census inputs with
    bundled_corpus(rng=random.Random(seed)); the corpus is deterministic."""
    def summary(instances):
        return [(inst.name, [str(g) for g in inst.group.generators],
                 inst.structure) for inst in instances]

    seeded = summary(corpus.bundled_corpus(rng=random.Random(1)))
    assert seeded == summary(corpus.bundled_corpus())
    assert len(seeded) == 8


def test_committed_coset_inputs_match_their_generator(monkeypatch):
    """The stabilizer generators behind perfbench/coset_inputs/ are
    unchanged, for all five triples; `python3 perfbench/gen_coset_inputs.py`
    rewrites them."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location(
        "gen_coset_inputs", os.path.join(PERFBENCH, "gen_coset_inputs.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    names = []
    for name, comment, grp, design in gen.triples():
        names.append(name)
        roles = {"G": grp, "L": grp.point_stabilizer(design.blocks[0][0]),
                 "R": DesignAction(grp, design).block_stabilizer(0)}
        for role, sub in roles.items():
            path = os.path.join(gen.OUT_DIR, f"{name}.{role}.group")
            with open(path, encoding="utf-8") as fh:
                assert format_group(sub, f"{name} {role}: {comment}") == \
                    fh.read(), path
    assert names == ["a7-cos-15-3-1", "a7-cos-15-7-3", "agl-3-3-lines",
                     "pgl-4-3-lines", "symplectic-2-3"]
