"""The benchmark's workload matrix and the metric names it reports.

Each workload is a plain dict so that the harness can hand it to a worker
process as JSON; the self-test builds toy-sized dicts of the same shape.

Why these four workloads: the hot spots of the pipeline sit in three
layers, and no single input shows a gain in all of them.  Each workload
puts most of its time in one hot layer and almost none in another, so a
change to one layer has a workload that exercises it and one whose figures
should not move.

- census-checkers: the per-sample property checkers (pair closures of
  subalgGT1 and the automorphism search) do almost all of the work.  Every
  HM-3 sample at n=16 is idemprimal, so subalgGT1 runs every pair closure
  and the automorphism search never stops early.  Set-up is ~0.08 s.
- census-compile: the per-n compile (OrbitIndex, the census table realizer
  and the triple index arrays) is most of the job; the per-sample work is
  cheap vectorized gathers plus the cross check, and analysis is < 0.1 s.
- analyze-fixtures: the analysis layer (class infos, transversal, minimal
  terms) over every shipped fixture; cube-3's 823,550-term universe alone
  takes most of the time and sets the peak memory.  The closure layer is a
  control here: it should stay a small share.
- sample-tables: the `sample` command, which builds whole tables through
  factory.realize, the second realizer, instead of gathering from the
  census index arrays.  A change to either realizer must show here as well
  as on census-compile.

BENCHMARK.json gates the two census workloads.  The other two run by name:
an analyze job takes 21-36 s, so a run holds one or two jobs, and both
spread too widely between runs on a shared 2-CPU machine to be gated at
the run length four gated workloads would allow (see README.md).
"""

# A run takes its inputs from one of CASES recorded cases, chosen by
# seed % CASES, so every run's output can be checked against digests
# recorded at the seed commit (perfbench/golden.json).
CASES = 16

WORKLOADS = {
    "census-checkers": {
        "kind": "census",
        "system": "hagemann-mitschke-3",
        "n": 16,
        "samples": 100,
        "properties": ["subalg2", "subalgGT1", "automorphism", "cross",
                       "idemprimal"],
        "cross_check": 4,
    },
    "census-compile": {
        "kind": "census",
        "system": "near-unanimity-5",
        "n": 14,
        "samples": 300,
        "properties": ["subalg2", "subalg3", "cross"],
        "cross_check": 1,
    },
    "analyze-fixtures": {
        "kind": "analyze",
        "systems": None,  # every shipped .mlt fixture
    },
    "sample-tables": {
        "kind": "sample",
        "system": "maltsev",
        "n": 32,
        "count": 40,
    },
}

# The end-to-end metrics BENCHMARK.json gates, in the result line's metrics.
# sample_ms_p75 is pooled over every sample of a run's jobs; the others are
# medians over the jobs.  The 75th percentile is gated rather than a median
# because it is the steadiest time on a shared machine (see README.md).
END_TO_END = {
    "sample_ms_p75": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Printed with every --trace 0 run and kept in its record, but not gated:
# in some sets of runs of the same code they spread past the largest bound
# (0.28 for samples_per_s on census-checkers).
ALSO_REPORTED = {
    "wall_s": "s",
    "samples_per_s": "1/s",
    "sample_ms_p50": "ms",
}

# name -> unit.  "_s" values are a job's summed self time, "_ms" values a
# per-sample median (or the stated percentile) of per-sample self time.
PER_LAYER = {
    "terms.parse_s": "s",
    "closure.compute_s": "s",
    "closure.universe_terms": "count",
    "analysis.class_infos_s": "s",
    "analysis.transversal_s": "s",
    "analysis.minimal_s": "s",
    "analysis.classes": "count",
    "analysis.orbits": "count",
    "analysis.entries": "count",
    "params.eval_s": "s",
    "factory.dispatch_s": "s",
    "factory.orbit_index_s": "s",
    "census.context_s": "s",
    "census.realizer_s": "s",
    "census.index_arrays_s": "s",
    "factory.draws": "count",
    "factory.cells": "count",
    "factory.draw_ms": "ms",
    "census.realize_np_ms": "ms",
    "census.subalg2_ms": "ms",
    "census.subalg3_ms": "ms",
    "checkers.subalgGT1_ms": "ms",
    "checkers.automorphism_ms": "ms",
    "checkers.cross_ms": "ms",
    "census.sample_ms_p50": "ms",
    "census.sample_ms_p90": "ms",
    "factory.mfamily_ms": "ms",
    "factory.realize_ms_p50": "ms",
    "factory.realize_ms_p90": "ms",
    "factory.json_ms": "ms",
    "trace.overhead_s": "s",
}

# The counts that must repeat exactly from run to run (work-count guard).
WORK_COUNTS = ("closure.universe_terms", "analysis.classes", "analysis.orbits",
               "analysis.entries", "factory.draws", "factory.cells")
