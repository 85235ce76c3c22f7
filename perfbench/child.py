"""Child processes of a benchmark run; run.py starts them, users need not.

    child.py setup <workload>
        Time one set-up of an in-process workload in this fresh process and
        print {"setup_s": ..., "problems": [...]} as JSON.
    child.py cli <span file> <proc> <parent span> <op> -- <ghostsim args>
        Run the ghostsim CLI with tracing on and write the spans, and what
        the tracing itself cost, to <span file>. Exits with the CLI's status.
"""

from __future__ import annotations

import json
import sys
import time

import spans

ID_BLOCK = 10**6   # span ids of child <proc> start at proc * ID_BLOCK


def setup_sample(workload: str) -> int:
    import workloads

    seconds, _lab, state = workloads.timed_setup(workload)
    print(json.dumps({"setup_s": seconds, "problems": workloads.setup_problems(state)}))
    return 0


def traced_cli(span_file: str, proc: int, parent: int, op: str, argv) -> int:
    tracer = spans.Tracer(proc=proc, id_base=proc * ID_BLOCK, parent=parent)
    tracer.op = op
    with tracer.span(spans.IMPORT_SPAN):
        import ghostsim.cli
    tracer.install()
    try:
        status = ghostsim.cli.main(argv)
    finally:
        tracer.uninstall()
        t0 = time.perf_counter()
        payload = json.dumps(tracer.spans)
        cost = tracer.cost_s + time.perf_counter() - t0
        with open(span_file, "w", encoding="utf-8") as fh:
            fh.write(f'{{"cost_s": {cost!r}, "spans": {payload}}}')
    return status


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        return setup_sample(argv[1])
    if argv[:1] == ["cli"] and len(argv) >= 6 and argv[5] == "--":
        _, span_file, proc, parent, op, _sep, *rest = argv
        return traced_cli(span_file, int(proc), int(parent), op, rest)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
