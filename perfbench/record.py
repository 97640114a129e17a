"""Record ``expected.json``: each case's exit code and results digest at
the default seed.  Run from the root of a checkout after a deliberate change
to a case list:

    python3 perfbench/record.py

Exit code 3 is recorded as an expected refusal, which has no digest.
"""

import json
import sys

import run
import workloads


def main() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from wordmaplab import cli
    expected = {}
    for w in workloads.WORKLOADS:
        expected[w] = {}
        for label, argv, _ in workloads.cases(w, workloads.DEFAULT_SEED,
                                              run.OUT):
            code, dig, _ = run.run_case(cli, argv)
            expected[w][label] = {"exit": code, "refusal": True} \
                if code == 3 else {"exit": code, "digest": dig}
            print(w, label, expected[w][label])
    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
