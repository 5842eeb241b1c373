#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build the harness and the
# decaf-site daemon it drives from source, then run one workload. The
# driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# and reads the last line of standard output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

build=(cargo build --quiet --release --offline
       -p decaf-e2e -p decaf-apps --bin decaf-e2e --bin decaf-site)

# With the external crates at hand (a vendored or cached registry) the plain
# build works. The build container has no registry: there the workspace is
# resolved against its in-tree stand-ins, exactly as .check-stubs/check.sh
# does for `cargo check`.
if ! "${build[@]}" 2>/dev/null; then
    patches=()
    for crate in serde serde_derive serde_json rand crossbeam-channel \
                 parking_lot proptest criterion; do
        patches+=(--config "patch.crates-io.${crate}.path=\".check-stubs/${crate}\"")
    done
    "${build[@]}" "${patches[@]}" >&2
fi

exec "${CARGO_TARGET_DIR:-target}/release/decaf-e2e" run "$@"
