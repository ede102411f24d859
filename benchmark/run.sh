#!/usr/bin/env bash
# Builds the harness from this checkout and runs it from the checkout's
# root, where it builds omg-server itself. Everything either build or a run
# writes — Go's build cache and its telemetry counters (which live in the
# user's config directory), the binaries, data directories — stays under
# .bench_build/ at the checkout root; a traced run leaves trace.json beside
# it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/omg-benchmark" .)
cd "$root"
exec "$build/omg-benchmark" "$@"
