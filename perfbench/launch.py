"""One benchmark repeat in a fresh process: `mssq <args>` as its console script runs it.

Usage: python3 launch.py RECORD.json MODE T0 -- MSSQ-ARGS...

MODE is "plain" (time the command), "setup" (stop at `cli.main` entry) or
"trace" (wrap every public mssq function and count the shots drawn).  T0 is
`time.monotonic()` in the parent just before it started this process, so
`setup_s` covers interpreter start plus importing numpy and mssq.  The record
is written after the command returns; the exit code is the command's.
"""

import sys
import time


def _count_shots():
    """Make numpy.random.default_rng hand out generators that count multinomial draws.

    Every shot-mode evaluation draws one multinomial histogram per measurement
    group, so the sum of all drawn counts is the shots spent.  The counting
    generator wraps the same bit generator, so the random stream is unchanged.
    """
    import numpy as np

    class CountingGenerator(np.random.Generator):
        drawn = 0

        def multinomial(self, n, pvals, size=None):
            counts = super().multinomial(n, pvals, size)
            CountingGenerator.drawn += int(counts.sum())
            return counts

    def default_rng(seed=None):
        if isinstance(seed, np.random.Generator):
            return seed
        if isinstance(seed, np.random.BitGenerator):
            return CountingGenerator(seed)
        return CountingGenerator(np.random.PCG64(seed))

    np.random.default_rng = default_rng
    return CountingGenerator


def main() -> int:
    record_path, mode, t0 = sys.argv[1], sys.argv[2], float(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1 :]
    import mssq.cli

    entry = time.monotonic()
    record = {"setup_s": entry - t0}
    rc = 0
    if mode == "trace":
        import spans
        import layers

        counter = _count_shots()
        tracer = spans.Tracer()
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "mssq"]
        originals = spans.install(tracer, modules, layers.SIZES)
        record["stale_aliases"] = spans.stale_aliases(modules, originals)
        start = time.monotonic()
        record["install_s"] = start - entry
        rc = mssq.cli.main(argv)
        end = time.monotonic()
        record["shots_drawn"] = counter.drawn
        record["spans"] = spans.summarize(tracer.spans)
        tracer.spans.clear()
        record["summarize_s"] = time.monotonic() - end
    elif mode == "plain":
        rc = mssq.cli.main(argv)
    import json

    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
