"""Spans around the calls into scanvar's public functions, from outside.

`Tracer.install` replaces each public function of the traced modules (and
the two public methods of `CycleEmbedding`) by a timing wrapper in every
scanvar namespace that binds it, so calls through `from ... import` names
are seen too; `uninstall` restores the originals. Nothing under `src/`
changes. A span's self time is its duration minus that of the spans it
encloses. Sizes derived from array shapes are labelled computed.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "kernels", "embedding", "variance", "ordering", "simulate", "seeding")
# cli.main is the op itself; the time no other span covers is unattributed.
CLI_PUBLIC = ("load_model", "build_parser")
EIGEN = ("eig", "eigh", "eigvals", "eigvalsh")


def _realization_mb(args, kwargs) -> dict:
    blocks = args[1]
    kn = len(blocks) * blocks[0].shape[0]
    return {"embedding.realization_mb": 8.0 * kn * kn / 1e6}


def _lu_gflop(args, kwargs) -> dict:
    fam = args[0].family
    kn = fam.k * fam.n
    return {"embedding.lu_gflop": 2.0 / 3.0 * kn**3 / 1e9}


def _draws(args, kwargs) -> dict:
    fam, cfg = args
    transitions = cfg.burn_in + cfg.steps - 1
    width = fam.k if cfg.scheme == "embedded" else 1
    return {"simulate.draws": width * (1 + transitions)}


# Computed sizes, from the arguments of a call.
COMPUTED = {
    "embedding.embedding_realization": _realization_mb,
    "embedding.CycleEmbedding.resolvent_solve": _lu_gflop,
    "simulate.simulate": _draws,
}


class Tracer:
    def __init__(self):
        self.command = None  # label of the op in flight, set by `span`
        self.self_time = defaultdict(float)  # (command, span name) -> s
        self.calls = defaultdict(int)  # (command, span name) -> count
        self.counts = defaultdict(float)  # (command, counter) -> count
        self._stack = []  # [span name, time covered by child spans]
        self._patches = []  # (namespace, attribute, original)

    def _enter_exit(self, name: str, fn, args, kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[self.command, name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.self_time[self.command, name] += elapsed - frame[1]
            self.calls[self.command, name] += 1
            if self._stack:
                self._stack[-1][1] += elapsed

    def _wrap(self, name: str, fn):
        computed = COMPUTED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if computed is not None:
                for key, value in computed(args, kwargs).items():
                    self.counts[self.command, key] += value
            return self._enter_exit(name, fn, args, kwargs)

        return wrapper

    def _wrap_eigen(self, fn):
        """Count eigenproblems by the module of the innermost span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                module = self._stack[-1][0].split(".")[0]
                self.counts[self.command, module + ".eig_problems"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, command: str, fn, *args):
        """Run one op as the root span; returns fn's result."""
        self.command = command
        try:
            return self._enter_exit("op", fn, args, {})
        finally:
            self.command = None

    def _patch(self, namespace, attr: str, new) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)

    def install(self) -> None:
        mods = {m: sys.modules[f"scanvar.{m}"] for m in MODULES}
        namespaces = [sys.modules["scanvar"], *mods.values()]
        for short, mod in mods.items():
            public = CLI_PUBLIC if short == "cli" else list(getattr(mod, "__all__", vars(mod)))
            for attr in public:
                fn = getattr(mod, attr)
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patch(ns, attr, wrapper)
        emb = mods["embedding"].CycleEmbedding
        for attr in ("realization", "resolvent_solve"):
            self._patch(emb, attr, self._wrap(f"embedding.CycleEmbedding.{attr}", vars(emb)[attr]))
        for attr in EIGEN:
            self._patch(np.linalg, attr, self._wrap_eigen(getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)
