#!/bin/sh
# Full verification, split into composable stages so CI can run them
# as separate jobs while `./verify.sh` (no argument, or `all`) still
# runs everything in order:
#
#   ./verify.sh build          go build + go vet
#   ./verify.sh lint           gofmt, dependency-free go.mod, truthlint (+ bite check)
#   ./verify.sh test           coverage-gated tests + allocation-regression gates
#   ./verify.sh race           the race detector over every package
#   ./verify.sh serve          daemon end-to-end: differential + race tests, live smoke load
#   ./verify.sh serve-binary   binary plane end-to-end: byte-identity tests, live pipelined smoke load
#   ./verify.sh fuzz [TARGET]  fuzz smoke; one named target, or all of them
#   ./verify.sh bench          regenerate BENCH_payments.json
#   ./verify.sh all            every stage above (fuzz runs all targets)
#
# Stages fail closed: set -eu everywhere, and the coverage comparison
# rejects an empty or malformed total instead of waving it through.
set -eu

stage_build() (
    set -x
    go build ./...
    go vet ./...
)

stage_lint() {
    # Formatting gate: gofmt -l prints offending files; any output fails.
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt: needs formatting:" >&2
        echo "$unformatted" >&2
        exit 1
    fi
    echo "gofmt: clean"

    # The module must stay dependency-free: everything builds from the
    # standard library alone, so a non-empty require block is a policy
    # violation, not a build problem.
    if grep -q '^require' go.mod; then
        echo "go.mod: require block found; the module must stay dependency-free" >&2
        exit 1
    fi
    echo "go.mod: dependency-free"

    # truthlint: project-specific mechanism and concurrency invariants
    # (determinism, float epsilon discipline, constant-time MAC
    # comparison, panic policy, discarded errors, wire field order,
    # snapshot immutability, atomic access discipline, goroutine
    # shutdown ties, the compiler-backed zero-alloc gate, and exports
    # with no non-test reference).
    # DESIGN.md §8 and §13.
    ( set -x; go run ./cmd/truthlint ./... )
    # The gates must actually bite: every known-bad fixture has to fail.
    for fixture in determinism floatcmp snapshotimmut atomicmix goroleak noalloc testonly; do
        if go run ./cmd/truthlint "./internal/lint/testdata/$fixture" >/dev/null 2>&1; then
            echo "truthlint: known-bad fixture $fixture unexpectedly passed" >&2
            exit 1
        fi
    done
    echo "truthlint: bite checks ok (determinism floatcmp snapshotimmut atomicmix goroleak noalloc testonly)"

    # No compiled binaries in the tree: a committed test binary once
    # cost this repo 8MB of history. Check the magic bytes of every
    # tracked file — ELF and Mach-O (both endiannesses, fat binaries)
    # all fail, whatever the file is named.
    binaries=""
    for f in $(git ls-files); do
        [ -f "$f" ] || continue
        magic=$(od -An -N4 -tx1 "$f" 2>/dev/null | tr -d ' ')
        case "$magic" in
            7f454c46|feedface|cefaedfe|feedfacf|cffaedfe|cafebabe|bebafeca)
                binaries="$binaries $f"
                ;;
        esac
    done
    if [ -n "$binaries" ]; then
        echo "lint: tracked compiled binaries found:$binaries" >&2
        echo "lint: remove them (git rm --cached) — .gitignore covers *.test and profiles" >&2
        exit 1
    fi
    echo "lint: no tracked compiled binaries"

    # SARIF export for code scanning. The clean run above means the
    # log carries zero results; what matters is that the encoder works
    # and CI has an artifact to upload (SARIF_OUT overrides the
    # destination directory).
    sarif_out="${SARIF_OUT:-/tmp}/truthlint.sarif"
    go run ./cmd/truthlint -sarif ./... > "$sarif_out"
    echo "truthlint: SARIF written to $sarif_out"
}

stage_test() {
    # Coverage-gated test run. The threshold only ratchets up: raise it
    # when new tests push the total higher; never lower it to admit an
    # untested change.
    COVER_MIN=93.7
    trap 'rm -f cover.out' EXIT
    ( set -x; go test ./... -coverprofile=cover.out -coverpkg=./internal/...,. )
    total=$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
    rm -f cover.out
    trap - EXIT
    case "$total" in
        ''|*[!0-9.]*|.|*.*.*)
            echo "coverage: could not parse total ($total)" >&2
            exit 1
            ;;
    esac
    awk -v t="$total" -v m="$COVER_MIN" 'BEGIN {
        printf "total coverage %.1f%% (minimum %.1f%%)\n", t, m
        exit (t + 0 < m + 0) ? 1 : 0
    }'

    # Allocation-regression gates: the steady-state zero-alloc
    # guarantees of the pooled solver (DESIGN.md §9) and the disabled
    # obs fast path (DESIGN.md §10) must hold on every run, so force
    # -count=1 — a cached "ok" would let a regression slide through.
    ( set -x
      go test ./internal/core/ -run 'TestSolverSteadyStateAllocs|TestSolverConcurrent' -count=1
      go test ./internal/obs/ -run Alloc -count=1 )
}

stage_race() (
    set -x
    go test -race ./...
)

stage_bench() (
    # ns/op regression gate: the workspace Dijkstra, the
    # fast-engine payment path, the all-sources engines, the serving
    # memo miss, an epoch's first miss, the socket-free binary
    # frame path and a paper deployment's graph construction are held to
    # within 15% of the committed BENCH_payments.json baseline,
    # which must come from the same host (the gate prints both host
    # stamps when they differ). -count=3 with
    # benchreport's min-of-runs collapse absorbs scheduler noise, and
    # its go test -p 1 keeps package builds out of the timed runs; exit
    # code 3 means a real regression.
    # GATETIME trades gate fidelity for speed.
    set -x
    go run ./cmd/benchreport -pkg ./... \
        -bench 'BenchmarkDijkstraWorkspace$|BenchmarkPaymentFast|BenchmarkAllSources(Link|Node)UDG300$|BenchmarkAllSourcesLinkUDG500$|BenchmarkServeQuoteMissUDG300$|BenchmarkServeEpochFirstMissUDG300$|BenchmarkServeBinaryQuoteFrame$|BenchmarkDeploymentGraphsUDG300$' \
        -benchtime "${GATETIME:-0.3s}" -count 3 \
        -out /tmp/bench_gate.json -baseline BENCH_payments.json
    # Artifact regen: ns/op, B/op, allocs/op for the whole contracted
    # suite, so allocation regressions show up as artifact diffs. The
    # default 0.3s benchtime keeps the committed artifact's ns/op
    # columns warm, gate-comparable measurements (the gate above reads
    # them as its baseline); BENCHTIME=1x is the cheap escape hatch
    # when only the alloc columns matter.
    go run ./cmd/benchreport -benchtime "${BENCHTIME:-0.3s}" -out BENCH_payments.json
)

# start_daemon LABEL [binary]: build truthrouted, quoteload and netgen
# into a fresh $tmp, serve a 96-node netgen topology (HTTP address in
# $tmp/addr; with "binary" the binary one in $tmp/binaddr too) and
# wait for the addr file. stop_daemon SIGTERMs it and fails unless it
# drains and exits 0; on an earlier exit the trap kills it.
start_daemon() {
    label=$1
    binary=${2:-}
    tmp=$(mktemp -d)
    daemon=""
    trap '[ -n "$daemon" ] && kill "$daemon" 2>/dev/null; rm -rf "$tmp"' EXIT
    ( set -x
      go build -o "$tmp/truthrouted" ./cmd/truthrouted
      go build -o "$tmp/quoteload" ./cmd/quoteload
      go build -o "$tmp/netgen" ./cmd/netgen )
    "$tmp/netgen" -n 96 -seed 11 > "$tmp/net.json"
    ready="$tmp/addr"
    set -- -addr 127.0.0.1:0 -addr-file "$tmp/addr"
    if [ "$binary" = binary ]; then
        ready="$tmp/binaddr"
        set -- "$@" -binary-addr 127.0.0.1:0 -binary-addr-file "$ready"
    fi
    "$tmp/truthrouted" -topology "$tmp/net.json" "$@" &
    daemon=$!
    tries=0
    while [ ! -s "$ready" ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "$label: daemon never wrote its addr file $ready" >&2
            exit 1
        fi
        sleep 0.1
    done
}

stop_daemon() {
    kill -TERM "$daemon"
    wait "$daemon"
    daemon=""
    rm -rf "$tmp"
    trap - EXIT
}

stage_serve() {
    # Serving gate: the daemon's end-to-end story. First the oracle
    # tests, forced fresh (-count=1): the differential suite (every
    # served quote byte-identical to a direct solver run on the
    # response's epoch) plain and under the race detector, plus the
    # allocation gates on the shard compute path and the memo miss,
    # then the quantized and zero-cost differentials and the
    # all-sources table build race under -race (the race test ten
    # times over). Then a
    # real daemon serves a netgen topology over TCP, survives a short
    # quoteload smoke with zero transport errors, and drains cleanly
    # on SIGTERM.
    ( set -x
      go test ./internal/serve/ -count=1
      go test ./internal/serve/ -race -count=1 \
        -run 'TestServeDifferentialVsSolver|TestServeDifferentialQuantized|TestServeDifferentialZeroCost|TestServeSnapshotConsistencyUnderRace|TestServeCrashMidBatchRestart'
      go test ./internal/serve/ -race -count=10 -run 'TestAllSourcesTableBuildRace' )

    start_daemon serve
    ( set -x
      "$tmp/quoteload" -addr "file:$tmp/addr" -duration "${SMOKELOAD:-5s}" -workers 8 \
          -bench BenchmarkServeQuoteLoadHTTP )
    stop_daemon
    echo "serve: smoke load ok, daemon drained cleanly"
}

stage_serve_binary() {
    # Binary plane gate (DESIGN.md §15). First the cross-transport
    # oracle, forced fresh: every binary-served quote byte-identical
    # to the HTTP path for the same (source, dest, epoch) across 200
    # live-update topologies, plain and under the race detector, plus
    # the malformed-frame error paths. Then a real daemon brings up
    # both listeners, a pipelined quoteload drives the framed protocol
    # over TCP with zero transport errors (latency percentiles land in
    # ${LOADOUT:-/tmp}/quoteload_binary.txt for the CI artifact), and
    # SIGTERM drains both planes cleanly.
    ( set -x
      go test ./internal/serve/ -count=1 \
        -run 'TestServeBinaryHTTPByteIdentity|TestBinary|TestServeBinaryTCPEndToEnd|TestRunLoadBinary|TestDecodeFrameMalformed|TestDecodePayloadsMalformed|TestReadFrameStream'
      go test ./internal/serve/ -race -count=1 \
        -run 'TestServeBinaryHTTPByteIdentity|TestServeBinaryTCPEndToEnd' )

    start_daemon serve-binary binary
    loadout="${LOADOUT:-/tmp}/quoteload_binary.txt"
    ( set -x
      "$tmp/quoteload" -addr "file:$tmp/binaddr" -proto binary -pipeline 64 \
          -duration "${SMOKELOAD:-5s}" -workers 4 \
          -bench BenchmarkServeQuoteLoadBinary | tee "$loadout" )
    stop_daemon
    echo "serve-binary: pipelined smoke load ok, daemon drained cleanly (latency report: $loadout)"
}

# stage_fuzz [TARGET] — each target runs its checked-in corpus plus a
# short burst of fresh inputs. Go allows one -fuzz pattern per
# invocation; with no argument every target runs in sequence, with a
# target name only that one runs (the CI matrix fans out one job per
# target).
FUZZ_TARGETS="
FuzzOracleInvariants:./internal/oracle/
FuzzOracleEngines:./internal/oracle/
FuzzReadNodeGraph:./internal/graph/
FuzzReadLinkGraph:./internal/graph/
FuzzReadEdgeWeighted:./internal/graph/
FuzzDecodeMessage:./internal/dist/
FuzzReplayWindow:./internal/dist/
FuzzReadDeployment:./internal/wireless/
FuzzDecodeQuoteFrame:./internal/serve/
"

stage_fuzz() {
    FUZZTIME=${FUZZTIME:-10s}
    want=${1:-}
    matched=0
    for entry in $FUZZ_TARGETS; do
        name=${entry%%:*}
        pkg=${entry#*:}
        if [ -n "$want" ] && [ "$want" != "$name" ]; then
            continue
        fi
        matched=1
        ( set -x; go test "$pkg" -fuzz "^${name}\$" -fuzztime "$FUZZTIME" )
    done
    if [ "$matched" -eq 0 ]; then
        echo "fuzz: unknown target $want (known: $(echo $FUZZ_TARGETS | sed 's/:[^ ]*//g'))" >&2
        exit 2
    fi
}

stage=${1:-all}
case "$stage" in
    build) stage_build ;;
    lint)  stage_lint ;;
    test)  stage_test ;;
    race)  stage_race ;;
    serve) stage_serve ;;
    serve-binary) stage_serve_binary ;;
    fuzz)  shift; stage_fuzz "${1:-}" ;;
    bench) stage_bench ;;
    all)
        stage_build
        stage_lint
        stage_test
        stage_race
        stage_serve
        stage_serve_binary
        stage_bench
        stage_fuzz
        ;;
    *)
        echo "usage: $0 [build|lint|test|race|serve|serve-binary|fuzz [TARGET]|bench|all]" >&2
        exit 2
        ;;
esac
