"""Outside-in tracing of perfgan's public functions.

The tracer never edits perfgan's source. It replaces each listed function
in every ``perfgan.*`` namespace that binds it, because ``from .nn import
forward`` copies the name: patching only ``perfgan.nn`` would miss the
calls made from ``perfgan.gan`` and ``perfgan.generators``. Module-level
dicts that hold the function (such as a runner registry) are patched too.

Spans stay in flat in-memory arrays while the workload runs and are
written out once, at the end. A span's self time is its duration minus
the durations of its direct children, taken from a span stack.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

# "<module>.<function>" or "<module>.<Class>.<method>", relative to perfgan.
LAYER_FUNCTIONS = (
    "space.sample_uniform",
    "space.snap",
    "space.normalize",
    "space.normalize_batch",
    "sut.SyntheticSut.measure",
    "sut.SyntheticSut.power_grid",
    "sut.calibrate_gain",
    "nn.forward",
    "nn.backward",
    "nn.backward_from_output_grad",
    "nn.rmsprop_step",
    "nn.train_epochs",
    "gan.sample_candidates",
    "gan.predict_fitness",
    "gan.train_discriminator",
    "gan.train_generator",
    "gan.train_gan",
    "harness.load_config",
    "harness.run_experiment",
    "harness.summarize",
    "harness.emit_outputs",
)
# traced only to derive generators.self_ms
RUNNER_FUNCTIONS = (
    "generators.run_random",
    "generators.run_dn",
    "generators.run_ogan",
)

Undo = list[tuple[Any, str, Any]]


def metric_name(target: str) -> str:
    """'sut.SyntheticSut.measure' -> 'sut.measure'."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


def rebind(original: Callable, replacement: Callable) -> Undo:
    """Replace `original` wherever a perfgan module binds it.

    Covers module attributes and the values of module-level dicts.
    Returns what :func:`restore` needs to put everything back.
    """
    undo: Undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "perfgan" and not mod_name.startswith("perfgan."):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            if value is original:
                namespace[key] = replacement
                undo.append((namespace, key, original))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        undo.append((value, k, original))
    return undo


def restore(undo: Undo) -> None:
    for holder, key, original in reversed(undo):
        if isinstance(holder, dict):
            holder[key] = original
        else:
            setattr(holder, key, original)


def _resolve(target: str) -> tuple[Any, str, Callable] | None:
    """(owner, attribute, function) for a target, or None if it is gone."""
    module_name, *path = target.split(".")
    owner: Any = sys.modules.get(f"perfgan.{module_name}")
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
    if owner is None or not callable(getattr(owner, path[-1], None)):
        return None
    return owner, path[-1], getattr(owner, path[-1])


class Tracer:
    """Collects spans for the listed functions while installed.

    `tags` is any object with an integer `test_index` attribute; each span
    records its value at span start, next to the repetition number set by
    :meth:`installed`.
    """

    def __init__(self, tags: Any, targets: tuple[str, ...] = LAYER_FUNCTIONS + RUNNER_FUNCTIONS):
        self.tags = tags
        self.targets = targets
        self.names = [metric_name(t) if t in LAYER_FUNCTIONS else t for t in targets]
        self.rep = -1
        self.name_id = array("h")
        self.parent = array("i")
        self.rep_id = array("h")
        self.test_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: list[list] = []

    def _wrap(self, name_id: int, fn: Callable) -> Callable:
        stack = self._stack
        tags = self.tags
        name_ids, parents, reps, tests = self.name_id, self.parent, self.rep_id, self.test_index
        starts, ends, selfs = self.start, self.end, self.self_time

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            reps.append(self.rep)
            tests.append(tags.test_index)
            ends.append(0.0)
            selfs.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                ends[idx] = t1
                selfs[idx] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target for the duration of the block (one repetition)."""
        self.rep += 1
        undo: Undo = []
        try:
            for name_id, target in enumerate(self.targets):
                resolved = _resolve(target)
                if resolved is None:
                    continue  # removed from perfgan: reports zero calls
                owner, attr, fn = resolved
                wrapped = self._wrap(name_id, fn)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                    undo.append((owner, attr, fn))
                else:
                    undo.extend(rebind(fn, wrapped))
            yield
        finally:
            restore(undo)

    def summary(self) -> dict[str, dict]:
        """Per name: calls and self seconds per repetition, durations of all calls."""
        names = np.asarray(self.name_id, dtype=np.int16)
        reps = np.asarray(self.rep_id, dtype=np.int16)
        starts = np.asarray(self.start)
        durations = np.asarray(self.end) - starts
        selfs = np.asarray(self.self_time)
        out = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = {
                "calls": [int(np.count_nonzero(mask & (reps == r))) for r in range(self.rep + 1)],
                "self_s": [float(selfs[mask & (reps == r)].sum()) for r in range(self.rep + 1)],
                "durations": durations[mask],
            }
        return out

    def write(self, path, header: str) -> None:
        """Write every span, with the name table and a JSON header, as .npz."""
        np.savez_compressed(
            path,
            header=np.array(header),
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int16),
            parent=np.asarray(self.parent, dtype=np.int32),
            rep=np.asarray(self.rep_id, dtype=np.int16),
            test_index=np.asarray(self.test_index, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            self_time=np.asarray(self.self_time),
        )
