"""One benchmark child process.

    python3 benchmark/child.py run COMMANDS_JSON RSS_OUT [SPANS_OUT]
    python3 benchmark/child.py setup DATASET_DIR|- NET(0|1)

``run`` calls ``evs.cli.main`` once per argv list in ``COMMANDS_JSON`` and
exits non-zero at the first command that fails.  At exit it writes its own
peak resident memory (``VmHWM``, kB) to ``RSS_OUT``: the ``ru_maxrss`` a parent
gets from ``wait4`` also counts the parent's memory, because the child starts as
a copy of it.  With ``SPANS_OUT`` it first installs the tracer and writes its
spans there at the end.

``setup`` does the work every ``evs`` process does before its first item:
import ``evs.cli``, ``resolve_config`` and ``build_lab``, then
``load_dataset`` and ``load_or_init_net`` where the workload uses them.
"""

import json
import sys
import time


def run(commands, rss_out, spans_out=None):
    try:
        return _run(commands, spans_out)
    finally:
        with open("/proc/self/status") as fh:
            peak_kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        with open(rss_out, "w") as fh:
            fh.write(peak_kb)


def _run(commands, spans_out):
    start = time.perf_counter()
    import evs.cli

    import_s = time.perf_counter() - start
    tracer = None
    if spans_out:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    for argv in commands:
        code = evs.cli.main(argv)
        if code != 0:
            return code
    if tracer is not None:
        tracer.dump(spans_out, import_s=import_s)
    return 0


def setup(dataset, net):
    import evs.cli  # noqa: F401
    from evs.bench import load_dataset, load_or_init_net
    from evs.config import build_lab, resolve_config

    cfg = resolve_config()
    build_lab(cfg)
    if dataset != "-":
        load_dataset(dataset)
    if net == "1":
        load_or_init_net(cfg)
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "run":
        sys.exit(run(json.loads(rest[0]), *rest[1:]))
    sys.exit(setup(*rest))
