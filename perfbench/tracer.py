"""Span tracer that wraps c0ops boundary functions from outside the package.

Each boundary is patched under every name a caller looks it up by: the
attribute of the defining module and every ``from ... import`` copy in
other ``c0ops`` modules (for example ``c0ops.verify.build_Y_main``).
``numpy.linalg.svd`` is patched on ``numpy.linalg`` only, so it counts the
SVDs that c0ops requests explicitly, not the ones ``numpy.linalg.norm(x, 2)``
makes internally.

A span is ``[layer, start, end, parent, item, error, note]``. Spans stay in
memory and are written out by ``dump`` when the benchmark ends. A call made
from inside a span of the same layer is not recorded again, so ``calls``
counts entries into a layer from another layer or from the harness.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from time import perf_counter

# (layer, module, attribute); a dotted attribute names a classmethod.
BOUNDARIES = (
    ("inner", "c0ops.inner", "divides"),
    ("inner", "c0ops.inner", "gcd"),
    ("inner", "c0ops.inner", "lcm"),
    ("inner", "c0ops.inner", "quotient"),
    ("inner", "c0ops.inner", "evaluate"),
    ("inner", "c0ops.inner", "all_divisors"),
    ("inner", "c0ops.inner", "blaschke"),
    ("inner", "c0ops.inner", "monomial"),
    ("model_space.build", "c0ops.model_space", "build_model_space"),
    ("model_space.calculus", "c0ops.model_space", "blaschke_of_matrix"),
    ("subspaces.block_frame", "c0ops.subspaces", "invariant_subspace_of_block"),
    ("subspaces.distance", "c0ops.subspaces", "principal_distance"),
    ("subspaces.image_closure", "c0ops.subspaces", "image_closure"),
    ("subspaces.invariance", "c0ops.subspaces", "is_invariant"),
    ("subspaces.ambient_build", "c0ops.subspaces", "AmbientSpace.build"),
    ("jordan.models", "c0ops.jordan", "subspace_models"),
    ("jordan.rank", "c0ops.jordan", "_rank"),
    ("jordan.canonical", "c0ops.jordan", "canonical_subspace"),
    ("quasiaffine.build_Y", "c0ops.quasiaffine", "build_Y_main"),
    ("quasiaffine.build_X", "c0ops.quasiaffine", "build_X"),
    ("quasiaffine.solve", "c0ops.quasiaffine", "solve_norm_preserving"),
    ("quasiaffine.density", "c0ops.quasiaffine", "density_sweep"),
    ("exact_nilpotent.orbit_closure", "c0ops.exact_nilpotent", "orbit_closure"),
    ("exact_nilpotent.restriction", "c0ops.exact_nilpotent", "restriction_on_basis"),
    ("exact_nilpotent.model", "c0ops.exact_nilpotent", "nilpotent_jordan_model"),
    ("verify.signature", "c0ops.verify", "_subspace_signature"),
    ("verify.decide", "c0ops.verify", "decide_commutant_orbit"),
    ("verify.orbit", "c0ops.verify", "verify_orbit"),
    ("linalg.svd", "numpy.linalg", "svd"),
)


def svd_flop(args, kwargs) -> float:
    """Real flops of one ``numpy.linalg.svd`` call, computed from its shapes.

    Golub & Van Loan (Matrix Computations, 4th ed., Fig. 8.6.1) counts for an
    l x k matrix, l >= k: singular values only 4lk^2 - 4k^3/3, thin U and V
    14lk^2 + 8k^3, full U and V 4l^2k + 8lk^2 + 9k^3. A complex flop is
    counted as four real ones.
    """
    a = args[0]
    full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
    uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    *batch, m, n = a.shape
    big, small = max(m, n), min(m, n)
    if not uv:
        flop = 4 * big * small**2 - 4 * small**3 / 3
    elif full:
        flop = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
    else:
        flop = 14 * big * small**2 + 8 * small**3
    for b in batch:
        flop *= b
    return float(flop * (4 if a.dtype.kind == "c" else 1))


def block_key(args, kwargs):
    """The (theta, divisor) pair an invariant block frame is built for."""
    return (args[0].theta, args[1])


NOTES = {"linalg.svd": svd_flop, "subspaces.block_frame": block_key}


class Tracer:
    """Records spans around patched boundaries while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(layer)

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.item, None, None]
            if note is not None:
                span[6] = note(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every boundary; names that no longer exist are listed in ``missing``."""
        self.missing = []
        owners = [m for k, m in list(sys.modules.items()) if k == "c0ops" or k.startswith("c0ops.")]
        for layer, module, attr in BOUNDARIES:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if not isinstance(raw, classmethod):
                    self.missing.append(f"{module}.{attr}")
                    continue
                self._set(cls, meth, classmethod(self._wrap(layer, raw.__func__)))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(layer, fn)
            targets = owners if module.startswith("c0ops") else [mod]
            for owner in targets:
                for name, value in list(vars(owner).items()):
                    if value is fn:
                        self._set(owner, name, wrapped)

    def _set(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span opened by the harness itself, such as one item."""
        span = [layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.item, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        except Exception as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def summarize(self, start: int, stop: int) -> dict:
        """Per-layer calls, self time, failures and notes of spans[start:stop]."""
        child = [0.0] * (stop - start)
        for span in self.spans[start:stop]:
            parent = span[3]
            if parent >= start:
                child[parent - start] += span[2] - span[1]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans[start:stop]):
            agg = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "failed": 0, "notes": []})
            agg["calls"] += 1
            agg["self_s"] += span[2] - span[1] - child[i]
            agg["failed"] += span[5] is not None
            if span[6] is not None:
                agg["notes"].append(span[6])
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line; notes are kept only when numeric."""
        with open(path, "w") as fh:
            for layer, t0, t1, parent, item, error, note in self.spans:
                record = {"name": layer, "start": t0, "end": t1, "parent": parent, "item": item}
                if error is not None:
                    record["error"] = error
                if isinstance(note, float):
                    record["flop"] = note
                fh.write(json.dumps(record) + "\n")
