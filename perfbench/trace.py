"""Spans and counters around the public functions of each uniseq module.

``install`` replaces each wrapped function in every ``uniseq`` module that
holds a reference to it, so calls between modules and inside a module both
pass through the wrapper.  Spans (name, parent, start, end) are kept in
memory and written out once the run ends; per-layer metrics are derived
from them, with a span's self time being its duration minus its children's.
"""

import json
import sys
import time
from collections import Counter

# Functions timed with a span, by module.  Hot inner functions are only
# counted (see ``install``): a span per call would cost more than the call.
SPANNED = {
    "families": ("instantiate_many", "load_family"),
    "submonoid": ("closure", "repeated_factors", "cross_factors", "irredundant_generators"),
    "conditions": ("analyze_family", "check_corollary"),
    "witness": ("verify_witness", "sample_states", "seeded_targets"),
    "equations": ("solve",),
    "actions": ("blocks", "partial_perm"),
}

PER_LAYER = (
    ("families.letters", "count"),
    ("submonoid.closure_s", "s"),
    ("submonoid.repeated_factors_s", "s"),
    ("submonoid.cross_factors_s", "s"),
    ("submonoid.irredundant_generators_s", "s"),
    ("submonoid.member_calls", "count"),
    ("submonoid.closure_rounds", "count"),
    ("submonoid.pool_words", "count"),
    ("submonoid.closure_peak_mb", "MB"),
    ("conditions.analyze_family_self_s", "s"),
    ("conditions.check_corollary_s", "s"),
    ("conditions.violations", "count"),
    ("witness.verify_witness_self_s", "s"),
    ("witness.eval_hom_calls", "count"),
    ("witness.letters", "count"),
    ("witness.letters_per_s", "1/s"),
    ("witness.target_calls", "count"),
    ("witness.target_builds", "count"),
    ("witness.sample_states_s", "s"),
    ("equations.solve_s", "s"),
    ("equations.evaluate_calls", "count"),
    ("actions.blocks_s", "s"),
    ("actions.partial_perm_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "count"),
)

JOB = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.counters = Counter()
        self.largest_closure = ()
        self.originals = {}

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, parent, time.perf_counter(), None])

    def _close(self):
        self.spans[self.stack.pop()][3] = time.perf_counter()

    def spanned(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def job(self, run, *args):
        self._open(JOB)
        try:
            return run(*args)
        finally:
            self._close()

    def counted(self, key, fn, amount=None):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            if amount is not None:
                counters[amount[0]] += amount[1](args)
            return fn(*args, **kwargs)
        return wrapper

    # -- result hooks ------------------------------------------------------

    def _closure_done(self, args, result):
        self.counters["submonoid.closure_rounds"] += result.iterations
        self.counters["submonoid.pool_words"] += len(result.pool)
        words = tuple(args[0])
        if sum(map(len, words)) > sum(map(len, self.largest_closure)):
            self.largest_closure = words

    def _verdict_done(self, args, result):
        verdict = getattr(result, "verdict", result)
        self.counters["conditions.violations"] += len(verdict.violations)

    def _instantiated(self, args, result):
        self.counters["families.letters"] += sum(map(len, result))


def _uniseq_modules():
    return [m for name, m in sys.modules.items() if name == "uniseq" or name.startswith("uniseq.")]


def _replace(orig, wrapper):
    for module in _uniseq_modules():
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def install(tracer):
    """Wrap the traced functions of the imported ``uniseq`` package."""
    hooks = {
        "closure": tracer._closure_done,
        "analyze_family": tracer._verdict_done,
        "check_corollary": tracer._verdict_done,
        "instantiate_many": tracer._instantiated,
    }
    for layer, names in SPANNED.items():
        module = sys.modules[f"uniseq.{layer}"]
        for name in names:
            orig = tracer.originals[f"{layer}.{name}"] = getattr(module, name)
            _replace(orig, tracer.spanned(f"{layer}.{name}", orig, hooks.get(name)))
    submonoid = sys.modules["uniseq.submonoid"]
    _replace(submonoid.member, tracer.counted("submonoid.member_calls", submonoid.member))
    witness = sys.modules["uniseq.witness"]
    _replace(witness.eval_hom, tracer.counted(
        "witness.eval_hom_calls", witness.eval_hom, ("witness.letters", lambda a: len(a[0]))))
    target = witness.SeededTarget
    target.__call__ = tracer.counted("witness.target_calls", target.__call__)
    target._build = tracer.counted("witness.target_builds", target._build)
    equations = sys.modules["uniseq.equations"]
    _replace(equations.evaluate, tracer.counted("equations.evaluate_calls", equations.evaluate))


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tracer, rounds):
    """Per-layer metrics per round of the workload.  The closure peak is
    measured separately and left at 0 here."""
    inclusive = Counter()
    own = Counter()
    for (name, _, start, end), self_s in zip(tracer.spans, self_times(tracer.spans)):
        inclusive[name] += end - start
        own[name] += self_s
    c = tracer.counters
    values = {
        "families.letters": c["families.letters"],
        "submonoid.closure_s": inclusive["submonoid.closure"],
        "submonoid.repeated_factors_s": inclusive["submonoid.repeated_factors"],
        "submonoid.cross_factors_s": inclusive["submonoid.cross_factors"],
        "submonoid.irredundant_generators_s": inclusive["submonoid.irredundant_generators"],
        "submonoid.member_calls": c["submonoid.member_calls"],
        "submonoid.closure_rounds": c["submonoid.closure_rounds"],
        "submonoid.pool_words": c["submonoid.pool_words"],
        "conditions.analyze_family_self_s": own["conditions.analyze_family"],
        "conditions.check_corollary_s": inclusive["conditions.check_corollary"],
        "conditions.violations": c["conditions.violations"],
        "witness.verify_witness_self_s": own["witness.verify_witness"],
        "witness.eval_hom_calls": c["witness.eval_hom_calls"],
        "witness.letters": c["witness.letters"],
        "witness.target_calls": c["witness.target_calls"],
        "witness.target_builds": c["witness.target_builds"],
        "witness.sample_states_s": inclusive["witness.sample_states"],
        "equations.solve_s": inclusive["equations.solve"],
        "equations.evaluate_calls": c["equations.evaluate_calls"],
        "actions.blocks_s": inclusive["actions.blocks"],
        "actions.partial_perm_s": inclusive["actions.partial_perm"],
        "cli.self_s": own[JOB],
        "cli.output_bytes": c["cli.output_bytes"],
    }
    values = {k: v / rounds for k, v in values.items()}
    busy = values["witness.verify_witness_self_s"]
    values["witness.letters_per_s"] = values["witness.letters"] / busy if busy else 0.0
    values["submonoid.closure_peak_mb"] = 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def write_spans(tracer, path, meta):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(meta, counters=dict(tracer.counters), spans=tracer.spans), handle)
