"""One benchmark job: a single ``relu-bandits`` invocation in a fresh process.

Run by ``run.py`` as ``python3 perfbench/child.py <job.json>``.  The job file
names the ``simulate`` arguments, the mode and where to write the record:

* ``setup``: import the package, parse the config, stop (set-up samples);
* ``run``: the full invocation, untraced;
* ``trace``: the full invocation with every public name of the library
  wrapped by ``tracer``; the per-layer table goes into the record and the
  spans into ``spans.csv`` beside it.

Set-up ends when the CLI has parsed its config, when
``parse_experiment_config`` returns.  The record holds monotonic-clock stamps, which the
parent compares with its own stamp taken just before it started this
process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


class _SetupDone(BaseException):
    """Stops a ``setup`` job once the config is parsed.

    Derives from BaseException so the CLI's own error boundary lets it pass.
    """


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    mode = job["mode"]
    tracer = None
    if mode == "trace":
        import tracer as tracing  # imported only here, so untraced set-up is not charged for it

        tracer = tracing.Tracer()

    t_import = time.monotonic()
    import relu_bandits
    import relu_bandits.cli as cli

    import_s = time.monotonic() - t_import
    if tracer is not None:
        tracing.install(tracer, relu_bandits)

    marks: dict[str, float] = {}

    def mark_setup_end():
        if "setup_end" not in marks:
            marks["setup_end"] = time.monotonic()
            if mode == "setup":
                raise _SetupDone

    parse = cli.parse_experiment_config

    def parse_then_mark(*args, **kwargs):
        cfg = parse(*args, **kwargs)
        mark_setup_end()
        return cfg

    cli.parse_experiment_config = parse_then_mark

    try:
        rc = cli.main(job["argv"])
    except _SetupDone:
        rc = 0
    marks["done"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "rc": rc,
        "import_s": import_s,
        "setup_end": marks.get("setup_end"),
        "done": marks["done"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, import_s)
        tracing.write_spans(tracer, os.path.join(os.path.dirname(job["record"]), "spans.csv"))
    with open(job["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
