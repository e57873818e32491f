#!/bin/sh
# Run clippy on the seeded-violation fixture and fail unless every lint the
# workspace's module contracts rely on fires there. Run from the repo root:
#   sh ci/check_clippy_fixture.sh
set -u
out=$(cargo clippy --quiet --manifest-path ci/clippy_fixture/Cargo.toml 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -eq 0 ]; then
    echo "clippy passed on the fixture: its seeded violations went unflagged" >&2
    exit 1
fi
missing=0
for lint in disallowed_methods unwrap_used expect_used panic unreachable \
    indexing_slicing cast_possible_truncation; do
    if printf '%s\n' "$out" | grep -q "#${lint}\$"; then
        echo "fired: $lint"
    else
        echo "did not fire: $lint" >&2
        missing=1
    fi
done
exit "$missing"
