#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. The build cache, the
# compiler's temporary files and the go command's own counter files (kept
# under the user config directory) are pointed inside .bench_build/ too, so
# nothing is written outside the checkout. These variables are set for the build only; the
# benchmark itself runs with the caller's environment.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(cd "$here" && GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" GOWORK=off GOPROXY=off go build -o "$build/e2e" .) >&2
cd "$root"
exec "$build/e2e" --trace-out "$build/spans.json" "$@"
