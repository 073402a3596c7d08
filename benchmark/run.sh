#!/usr/bin/env bash
# The benchmark's one command: builds both binaries (a no-op when they
# are fresh) and runs the one `--trace` asks for.
#
#   bash benchmark/run.sh --workload <name> --seed <u64> --seconds <n> --trace <0|1>
#
# Run it from the root of a checkout. Everything it writes stays under
# $CARGO_TARGET_DIR (default benchmark/target) and benchmark/out.
set -euo pipefail

here="$(dirname "$0")"
bin=e2e
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=traced
    fi
    prev="$arg"
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
