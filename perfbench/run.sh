#!/usr/bin/env bash
# Builds leased and the perfbench program from the checkout's sources, then
# runs one benchmark workload. Arguments pass through to perfbench:
#
#   bash perfbench/run.sh --workload read-miss --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache included), so the run touches nothing
# outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"

# The toolchain's usual home, for environments whose PATH omits it.
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export TMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

# A checkout without the repository's module (only the benchmark's files)
# must fail here, before any result is printed.
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root; run from a full checkout" >&2
	exit 2
fi

(cd "$root" && go build -trimpath -o "$out/bin/leased" ./cmd/leased) >&2
(cd "$here" && go build -trimpath -o "$out/bin/perfbench" .) >&2

cd "$root"
exec "$out/bin/perfbench" -leased "$out/bin/leased" -work "$out/work" "$@"
