"""One benchmark step in a fresh interpreter, launched by run.py.

    child.py setup CONFIG
        import bean_limit.cli and parse CONFIG: the set-up every CLI run pays
    child.py run [--trace SPANS_JSON] -- COMMAND --config CONFIG --out DIR
        run bean_limit.cli.main on the arguments after `--`; with --trace,
        wrap the solver layers first and write the recorded spans as JSON

The exit code is the CLI's.  The checkout's `src/` is put first on the
module path, so the program measured is the one in this checkout.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv):
    if argv[0] == "setup":
        import bean_limit.cli

        bean_limit.cli.RunConfig.parse(argv[1])
        return 0

    split = argv.index("--")
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv[:split] else None
    import bean_limit.cli

    sys.argv = ["bean-limit", *argv[split + 1:]]
    if trace_path is None:
        bean_limit.cli.main()

    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        bean_limit.cli.main()
    finally:
        Path(trace_path).write_text(json.dumps({"spans": tracer.spans}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
