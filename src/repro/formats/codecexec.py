"""Name kept for the end-to-end benchmark's tracer, nothing else.

``benchmarks/e2e/trace.py`` lists ``CodecPool.run`` of this module among
the functions it times, and that file changes only with the benchmark.
The codec itself is serial (:mod:`repro.formats.xtc`); nothing in the
package imports this module.
"""


class CodecPool:
    """Runs each task in the caller, in order."""

    def run(self, fn, tasks):
        return [fn(*t) for t in tasks]
