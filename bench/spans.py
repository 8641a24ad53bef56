"""In-memory spans around the simulator's public functions.

A :class:`Tracer` replaces each traced function in the namespace its caller
looks it up in (``federation.backward_pass`` is what ``local_train`` calls,
``pruning.generate_masks`` is what every caller reaches through the module)
and restores the originals on exit. Only the traced run installs it; the
runs that give the end-to-end metrics never do.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

from spafl import experiment, federation, pruning, strategies

# (namespace the caller looks the name up in, attribute, span name)
TRACE_POINTS = [
    (experiment, "parse_config", "experiment.parse_config"),
    (experiment, "build_simulation", "experiment.build_simulation"),
    (experiment, "synth_dataset", "data.synth_dataset"),
    (experiment, "dirichlet_partition", "data.dirichlet_partition"),
    (experiment, "client_split", "data.client_split"),
    (strategies, "run_strategy_round", "strategies.run_strategy_round"),
    (strategies, "aggregate_params", "strategies.aggregate_params"),
    (strategies, "local_train", "federation.local_train"),
    (federation, "local_train", "federation.local_train"),
    (federation, "importance_update", "federation.importance_update"),
    (federation, "aggregate_thresholds", "federation.aggregate_thresholds"),
    (federation, "evaluate", "federation.evaluate"),
    (federation.Channel, "downlink", "federation.channel"),
    (federation.Channel, "uplink", "federation.channel"),
    (federation, "backward_pass", "nn.backward_pass"),
    (federation, "forward_pass", "nn.forward_pass"),
    (federation, "sgd_momentum_step", "nn.sgd_momentum_step"),
    (federation, "clamp_parameters", "nn.clamp_parameters"),
    (pruning, "generate_masks", "pruning.generate_masks"),
    (pruning, "threshold_gradient", "pruning.threshold_gradient"),
    (pruning, "threshold_step", "pruning.threshold_step"),
    (pruning, "density_metrics", "pruning.density_metrics"),
    (pruning, "layer_reset", "pruning.layer_reset"),
]


SPAN_FIELDS = ("name", "start", "end", "parent", "run")


class Tracer:
    """Collects spans for one run as ``SPAN_FIELDS`` tuples; ``parent`` is
    the index of the enclosing span, -1 at top level. ``mask_bytes`` is the
    largest set of masks one ``generate_masks`` call returned."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.mask_bytes = 0
        self._stack: list[int] = []

    def _wrap(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            if name == "pruning.generate_masks":
                self.mask_bytes = max(self.mask_bytes, sum(m.nbytes for m in result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for owner, attr, name in TRACE_POINTS:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name, (calls, busy seconds)."""
        out: dict[str, tuple[int, float]] = {}
        for name, start, end, _, _ in self.spans:
            calls, busy = out.get(name, (0, 0.0))
            out[name] = (calls + 1, busy + end - start)
        return out

    def self_seconds(self, name: str) -> float:
        """Summed duration of the spans called ``name`` minus the time their
        direct children cover."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for _, start, end, parent, _ in self.spans:
            if parent in own:
                own[parent] -= end - start
        return sum(own.values())

    def write(self, f) -> None:
        for s in self.spans:
            f.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")
