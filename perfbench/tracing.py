"""Spans and work counters recorded from the benchmark's own side.

The benchmark never patches ``snoise``.  It records a span around each of its
own calls into a public ``snoise`` function, and it counts work through
counting wrappers on the callables it hands to the library itself: the
kernel's ``G``/``g``, the jump-rate curve and the mark law's
``pdf``/``sample``.  A wrapper delegates to the wrapped object and returns
its result unchanged, so a traced pass computes bit-identical outputs.

:class:`NullProbe` is the untraced stand-in: same interface, no recording,
and it hands the library the plain callables.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

import numpy as np

from snoise.kernels import NoiseKernel
from snoise.marks import MarkDistribution


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullProbe:
    """Tracing off: spans and counters are no-ops, inputs stay unwrapped."""

    traced = False

    def span(self, name):
        return _NULL_SPAN

    def add(self, name, n=1):
        pass

    def begin_pass(self, pass_id):
        pass

    def kernel(self, kern):
        return kern

    def rate(self, fn):
        return fn

    def marks(self, dist):
        return dist


class _Span:
    __slots__ = ("probe", "name", "index")

    def __init__(self, probe, name):
        self.probe = probe
        self.name = name

    def __enter__(self):
        p = self.probe
        parent = p.stack[-1] if p.stack else -1
        self.index = len(p.spans)
        p.spans.append([self.name, time.perf_counter_ns(), 0, parent, p.pass_id])
        p.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        p = self.probe
        p.spans[self.index][2] = time.perf_counter_ns()
        p.stack.pop()
        return False


class Probe:
    """Tracing on: spans (name, start, end, parent, pass id) and counters.

    Spans stay in memory until :meth:`write_spans`.  A counter bumped by a
    wrapper is also recorded under the innermost open span, so work can be
    attributed to the library call that caused it (for example, points
    passed to ``rate`` inside ``simulate_mpp`` are its thinning candidates).
    """

    traced = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = 0
        self.counts: dict = defaultdict(int)

    def begin_pass(self, pass_id):
        self.pass_id = pass_id

    def span(self, name):
        return _Span(self, name)

    def add(self, name, n=1):
        self.counts[(self.pass_id, name)] += n

    def _tally(self, name, points):
        self.counts[(self.pass_id, name + ".calls")] += 1
        self.counts[(self.pass_id, name + ".points")] += points
        if self.stack:
            inner = self.spans[self.stack[-1]][0]
            self.counts[(self.pass_id, f"{inner}:{name}.points")] += points

    def kernel(self, kern: NoiseKernel) -> NoiseKernel:
        """Same kind, mark_dim and params, so the library dispatches as before."""
        def G(t, x):
            out = kern.G(t, x)
            self._tally("kernels.G", np.size(out))
            return out

        def g(t, x):
            out = kern.g(t, x)
            self._tally("kernels.g", np.size(out))
            return out

        return NoiseKernel(kern.kind, G, g, kern.mark_dim, kern.params)

    def rate(self, fn):
        def rate(t):
            out = fn(t)
            self._tally("rate", np.size(out))
            return out
        return rate

    def marks(self, dist: MarkDistribution) -> MarkDistribution:
        return _CountedMarks(dist, self)

    def pass_counts(self, pass_id) -> dict:
        """Counters of one pass, plus ``<span>.calls`` for every span name."""
        out = {name: n for (pid, name), n in self.counts.items() if pid == pass_id}
        for name, _t0, _t1, _parent, pid in self.spans:
            if pid == pass_id:
                key = name + ".calls"
                out[key] = out.get(key, 0) + 1
        return out

    def self_seconds(self, pass_id) -> dict:
        """Self time per span name: duration minus the time children cover."""
        child_ns = defaultdict(int)
        for _name, t0, t1, parent, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict = defaultdict(float)
        for idx, (name, t0, t1, _parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                out[name] += (t1 - t0 - child_ns[idx]) * 1e-9
        return dict(out)

    def write_spans(self, path):
        """All spans as gzipped TSV: index, name, start_ns, end_ns, parent, pass."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tpass\n")
            for idx, (name, t0, t1, parent, pid) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{t0}\t{t1}\t{parent}\t{pid}\n")


class _CountedMarks(MarkDistribution):
    """Delegates every hook of a mark law; counts ``pdf`` and ``sample`` use."""

    def __init__(self, base: MarkDistribution, probe: Probe):
        self._base = base
        self._probe = probe
        self.mark_dim = base.mark_dim
        self.mode = base.mode
        self.truncated_edges = base.truncated_edges

    def sample(self, rng, t, n):
        self._probe.add("marks.sample.calls")
        return self._base.sample(rng, t, n)

    def pdf(self, t, x):
        out = self._base.pdf(t, x)
        self._probe._tally("marks.pdf", np.size(out))
        return out

    def atoms(self, t):
        return self._base.atoms(t)

    def support(self, t):
        return self._base.support(t)

    def cdf(self, t, x):
        return self._base.cdf(t, x)
