#!/bin/sh
# Cargo target runner for the CI Test step: prints the name of each
# test binary before running it (and a marker after), so the step can
# attribute the harness's "finished in" lines to their binaries. The
# binary's own exit status is passed through unchanged.
#
#   CARGO_TARGET_<TRIPLE>_RUNNER=.github/ci/name-test-binary.sh cargo test -q
name=$(basename "$1" | sed 's/-[0-9a-f]*$//')
echo "tier1-binary: $name"
"$@"
status=$?
echo "tier1-end"
exit $status
