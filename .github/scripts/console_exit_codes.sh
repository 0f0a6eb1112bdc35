#!/usr/bin/env bash
# Exit codes of the installed `qcompare` console script: 0 on success, 2 on
# invalid input or an unwritable output, and no traceback when the reader of
# stdout closes early.  Run after `pip install -e .`, from a directory with no
# `no-such-dir` in it:
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
expect_2 qcompare pkd --scheme center --recipients 1
expect_2 qcompare figure2 --format csv --out no-such-dir/fig2.csv
expect_2 qcompare figure2 --format csv --out /dev/full
expect_2 qcompare lockkey simulate --attack coherent --beta -1
expect_2 qcompare lockkey simulate --attack vacuum --beta -1
# compare is a JSON point report; the sweep over |alpha - beta| is figure2's.
expect_2 qcompare compare --alpha 1,0 --beta 0,0 --format csv
# lockkey entropy is a JSON point report; the sweep over |alpha|^2 is figure4's.
expect_2 qcompare lockkey entropy --alpha-sq 2 --points 7
expect_2 qcompare lockkey entropy --alpha-sq-max 9
expect_2 qcompare lockkey entropy --format csv
# An option another mode reads is an error, not ignored: the squeezed oracle's
# inputs are squeezed vacua on a balanced splitter, and --beta is the
# magnitude of the coherent attack alone.
expect_2 qcompare oracle --xi1 0.2 --xi2 0.1 --transmittance 0.3
expect_2 qcompare oracle --xi1 0.2 --xi2 0.1 --alpha 1,0
expect_2 qcompare lockkey simulate --attack vacuum --beta 0.5
# Each subcommand takes only what it reads: --seed where it draws random numbers
# (lockkey simulate, pkd), and a --format its report can hold.
expect_2 qcompare compare --alpha 1,0 --beta 0,0 --seed 1
expect_2 qcompare figure2 --seed 1
expect_2 qcompare pkd --format svg
# A retired option is a usage error, never accepted silently.
expect_2 qcompare lockkey simulate --threshold-detectors
expect_2 qcompare compare --alpha 1,0 --beta 0,0 --sweep-max 3
# lockkey's options follow the action; one before it is named by the lockkey group.
expect_2 qcompare lockkey --seed=1 simulate

stderr_file=$(mktemp)
trap 'rm -f "$stderr_file"' EXIT
qcompare lockkey attack-scan --amp 5 --step 0.001 --format csv 2> "$stderr_file" | head -1
cat "$stderr_file"
if grep -q Traceback "$stderr_file"; then exit 1; fi
echo "console script exit codes: ok"
