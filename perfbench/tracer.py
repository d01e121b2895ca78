"""Per-layer spans recorded from outside the program.

``hooked(tracer)`` replaces each public function named in ``HOOKS`` with a
wrapper, in every ``nlgames`` module namespace that binds it (``spectral_norm``
is bound in ``numerics``, ``bounds``, ``nlc`` and the package itself), and for
methods on every class of the module that defines one.  The originals come
back when the block exits.  A function that does not exist, or is never
called, reports 0 calls.

Self time is a span's duration minus the time covered by its child spans.
The exact counts are computed from each call's arguments, never measured.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types

HOOKS = {
    "algebra": ("character_table", "subtraction_table"),
    "games": ("game_from_tables", "evaluate_box"),
    "numerics": ("spectral_norm", "numerical_rank", "hermitian_eigen"),
    "bounds": ("game_matrix", "quantum_bound", "classical_value", "ns_winning_box", "analyze"),
    "nlc": ("nlc_game", "lambda_profile", "verify_theorem3", "verify_block_circulant"),
    "cli": ("main",),
}

SPANS = tuple(f"{module}.{name}" for module, names in HOOKS.items() for name in names)
COUNTS = (
    "algebra.character_table.entries",
    "numerics.gram_n3",
    "bounds.classical_value.assignments",
)


def _gram_size(span: str, args) -> int:
    """Rows of the Gram matrix a numerics call works on: A^H A for a
    rectangular argument, the argument itself for ``hermitian_eigen``."""
    shape = getattr(args[0], "shape", None) or (len(args[0]), len(args[0][0]))
    return shape[0] if span == "numerics.hermitian_eigen" else shape[1]


class Tracer:
    """Aggregates calls, self time and exact counts per hooked function."""

    def __init__(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.total_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        # One entry per open span: [name, seconds covered by its children].
        self._stack: list[list] = []

    def _count(self, span: str, args) -> None:
        if span == "algebra.character_table":
            self.counts["algebra.character_table.entries"] += args[0].order ** 2
        elif span == "bounds.classical_value":
            game = args[0]
            self.counts["bounds.classical_value.assignments"] += game.order**game.mA
        elif span.startswith("numerics.") and not any(
            name.startswith("numerics.") for name, _ in self._stack
        ):
            self.counts["numerics.gram_n3"] += _gram_size(span, args) ** 3

    def call(self, span: str, fn, args, kwargs):
        self._count(span, args)
        frame = [span, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.calls[span] += 1
            self.self_s[span] += duration - frame[1]
            self.total_s[span] += duration
            if self._stack:
                self._stack[-1][1] += duration

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly for the same inputs."""
        return {**{f"{s}.calls": n for s, n in self.calls.items()}, **self.counts}


def _wrap(tracer: Tracer, span: str, fn):
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        return tracer.call(span, fn, args, kwargs)

    return hooked


@contextlib.contextmanager
def hooked(tracer: Tracer):
    """Route every call to a function in ``HOOKS`` through ``tracer``."""
    modules = [m for n, m in list(sys.modules.items()) if n == "nlgames" or n.startswith("nlgames.")]
    restore = []
    try:
        for module_name, names in HOOKS.items():
            home = sys.modules.get(f"nlgames.{module_name}")
            if home is None:
                continue
            for name in names:
                span = f"{module_name}.{name}"
                original = getattr(home, name, None)
                if isinstance(original, types.FunctionType):
                    targets = [m for m in modules if m.__dict__.get(name) is original]
                else:
                    targets = [
                        cls
                        for cls in vars(home).values()
                        if isinstance(cls, type)
                        and cls.__module__ == home.__name__
                        and isinstance(cls.__dict__.get(name), types.FunctionType)
                    ]
                for target in targets:
                    fn = target.__dict__[name]
                    restore.append((target, name, fn))
                    setattr(target, name, _wrap(tracer, span, fn))
        yield tracer
    finally:
        for target, name, fn in reversed(restore):
            setattr(target, name, fn)
