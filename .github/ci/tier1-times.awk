# Turn the output of the CI Test step into "seconds<TAB>binary<TAB>result"
# lines, one per test binary. Binaries are named by the lines that
# .github/ci/name-test-binary.sh prints; doc tests (which cargo runs
# without the runner) are numbered in the order they ran.
/^tier1-binary: / { name = $2; next }
/^tier1-end$/ { name = ""; next }
/^test result: / && / finished in / {
    secs = $0
    sub(/.* finished in /, "", secs)
    sub(/s$/, "", secs)
    label = name
    if (label == "") label = "doc-tests #" (++doc)
    result = $3
    sub(/\.$/, "", result)
    printf "%s\t%s\t%s\n", secs, label, result
}
