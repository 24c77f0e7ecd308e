"""The benchmark's instance sets, built from the workload seed.

Every instance is serialised to ``.pgr`` text with its prescription, so
that a timed sample is exactly what ``crossflow solve FILE`` does: parse
the text, then solve.  Requires ``crossflow`` to be importable.
"""

from __future__ import annotations

from dataclasses import dataclass

# called through their modules, so that a traced run's wrappers see them
from crossflow import families, orient, pgr

CORPUS_SIZE = 400
CORPUS_MAX_VERTICES = 12
# prescriptions per family index, 240 instances a pass.  The counts put the
# median instance in the middle of the i = 101 group and the p95 instance
# in the middle of the i = 401 group, never on a step between two sizes,
# where a percentile would read the slowest instance of one group; and
# they keep a pass to a few seconds, so that a run holds several passes.
CIRCULANT_PRESCRIPTIONS = {51: 45, 101: 45, 201: 20, 401: 10}
COUNTEREXAMPLE_SCALES = (0, 1, 2, 3)


@dataclass(frozen=True)
class Instance:
    key: str
    graph: str  # the generated graph this instance prescribes on
    text: str
    expect: str  # "valid" | "none": the known answer


def _corpus(seed: int) -> list[Instance]:
    # disjoint generator seeds for distinct workload seeds
    out = []
    for j in range(CORPUS_SIZE):
        s = seed * CORPUS_SIZE + j
        g, p = families.gen_random_pt(s, CORPUS_MAX_VERTICES)
        out.append(Instance(f"rpt{s}", f"rpt{s}", pgr.serialize_graph(g, prescription=p), "valid"))
    return out


def _circulant(seed: int) -> list[Instance]:
    graphs = []
    for i, count in CIRCULANT_PRESCRIPTIONS.items():
        graphs.append((f"B{i}", families.gen_circulant_b(i), count))
        graphs.append((f"A{i}", families.gen_a(i), count))
    # round-robin over the graphs, so that any prefix of the list mixes sizes
    rounds = max(CIRCULANT_PRESCRIPTIONS.values())
    out = []
    for k in range(rounds):
        s = seed * rounds + k
        for name, g, count in graphs:
            if k < count:
                p = orient.random_prescription(g, s)
                text = pgr.serialize_graph(g, prescription=p)
                out.append(Instance(f"{name}/p{s}", name, text, "valid"))
    return out


def _counterexample(seed: int) -> list[Instance]:
    # the family is canonical: the seed does not change these instances
    out = []
    for k in COUNTEREXAMPLE_SCALES:
        g, p, _ = families.gen_counterexample(k)  # the forced arcs ride on g
        out.append(Instance(f"CE{k}", f"CE{k}", pgr.serialize_graph(g, prescription=p), "none"))
    return out


def build(workload: str, seed: int) -> list[Instance]:
    """The instance set of ``workload`` for ``seed``, in pass order."""
    return {"corpus": _corpus, "circulant": _circulant, "counterexample": _counterexample}[
        workload
    ](seed)
