"""Fresh-interpreter helpers for the benchmark.

    python child.py setup
        time ``import dsm_geom.cli`` and building the catalogue; print JSON
    python child.py traced SUMMARY SPANS -- ARGV...
        run one dsm-geom job under the tracer; write the tracer summary to
        SUMMARY (JSON) and the spans to SPANS (.npz)

``dsm_geom`` must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""
import json
import sys
import time


def setup():
    started = time.perf_counter()
    import dsm_geom.cli  # noqa: F401

    imported = time.perf_counter()
    from dsm_geom import models

    models.catalogue()
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "catalogue_build_s": built - imported}))


def traced(summary_path, spans_path, argv):
    from dsm_geom import cli
    from tracer import Tracer

    tracer = Tracer(spans=True)
    with tracer:
        code = cli.main(argv)
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.summary(), handle)
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup()
    elif sys.argv[1:2] == ["traced"] and sys.argv[4:5] == ["--"]:
        sys.exit(traced(sys.argv[2], sys.argv[3], sys.argv[5:]))
    else:
        sys.exit(__doc__)
