#!/usr/bin/env bash
# Smoke test of the installed `qcompare` console script: exit 0 on success and
# when the reader of stdout closes early (with nothing on stderr), 2 on invalid
# input or an unwritable output.  Tier-1 checks each exit-2 rule in-process;
# this checks only what the entry point adds.  Run after `pip install -e .`,
# from a directory with no `no-such-dir` in it:
#
#   bash -e .github/scripts/console_exit_codes.sh
#
# pipefail stays off: `attack-scan | head -1` is meant to lose its reader.
set -e

expect_2() {
  code=0
  "$@" > /dev/null || code=$?
  if [ "$code" -ne 2 ]; then
    echo "expected exit 2, got $code: $*" >&2
    exit 1
  fi
}

# --help imports no handler module (tests/test_cli.py::TestImports checks which load).
qcompare --help > /dev/null
qcompare compare --alpha 1,0 --beta -1,0 > /dev/null
qcompare pkd --trials 1000000 --format json > /dev/null
# A library guard's error, a parser's error and an --out that cannot be written; every
# other exit-2 rule is a row of EXIT_2_CASES in tests/test_cli.py.
expect_2 qcompare pkd --scheme center --recipients 1
expect_2 qcompare lockkey --seed=1 simulate
expect_2 qcompare figure2 --format csv --out no-such-dir/fig2.csv
expect_2 qcompare figure2 --format csv --out /dev/full

stderr_file=$(mktemp)
trap 'rm -f "$stderr_file"' EXIT
# A reader that closes early ends the run quietly, with exit 0, like any Unix filter.
qcompare lockkey attack-scan --amp 5 --step 0.001 --format csv 2> "$stderr_file" | head -1
code=${PIPESTATUS[0]}
if [ "$code" -ne 0 ] || [ -s "$stderr_file" ]; then
  echo "closed pipe: expected exit 0 and no stderr, got $code:" >&2
  cat "$stderr_file" >&2
  exit 1
fi
echo "console script exit codes: ok"
