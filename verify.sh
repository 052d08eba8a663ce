#!/bin/sh
# verify.sh — the tier-1 gate: formatting, vet, aeropacklint (full rule
# suite plus the //lint:allow audit), build, race-enabled tests, coverage
# floors and a lint-cache benchmark smoke run.  Any failure stops the
# script with a non-zero exit.
set -eu

cd "$(dirname "$0")"

# coverage_floor <package> <floor-percent> — fail unless the package has
# test files AND its statement coverage parses AND meets the floor.  The
# old inline check piped `go test` straight into sed, which masked test
# failures behind sed's exit status and let a "[no test files]" package
# skate through as an unparseable (rather than failing) measurement.
coverage_floor() {
    pkg=$1
    floor=$2
    if ! out=$(go test -cover "$pkg" 2>&1); then
        echo "go test -cover $pkg failed:" >&2
        echo "$out" >&2
        exit 1
    fi
    case "$out" in
    *"[no test files]"*)
        echo "$pkg has no test files; a coverage floor cannot pass vacuously" >&2
        exit 1
        ;;
    esac
    cov=$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p' | head -n 1)
    if [ -z "$cov" ]; then
        echo "could not parse coverage for $pkg from:" >&2
        echo "$out" >&2
        exit 1
    fi
    if ! awk -v c="$cov" -v f="$floor" 'BEGIN { exit !(c >= f) }'; then
        echo "$pkg coverage ${cov}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "$pkg coverage: ${cov}% (floor ${floor}%)"
}

echo "== gofmt"
unformatted=$(gofmt -l cmd internal examples ./*.go)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== aeropacklint (all fifteen rules, interprocedural + value-flow)"
go run ./cmd/aeropacklint -q ./...

echo "== aeropacklint -audit-allows (no stale suppressions)"
go run ./cmd/aeropacklint -q -audit-allows ./...

echo "== aeropacklint -fix -dry-run (no machine-applicable fixes left unapplied)"
go run ./cmd/aeropacklint -q -fix -dry-run ./...

echo "== go build"
go build ./...

echo "== bench module build + vet (aeropackbench replays serve, core, cosee and envtest in-process)"
go -C bench build ./...
go -C bench vet ./...

echo "== go test -race"
go test -race ./...

echo "== go test -race -cpu=1,4 (parallel kernels)"
go test -race -cpu=1,4 ./internal/parallel ./internal/linalg ./internal/thermal

echo "== telemetry determinism (span trees and metric contracts, twice)"
go test -run TestObs -count=2 ./internal/obs/...

echo "== go test -race -cpu=1,4 (telemetry)"
go test -race -cpu=1,4 ./internal/obs

echo "== go test -race (robustness layer, fault injection)"
go test -race ./internal/robust

echo "== coverage floors"
coverage_floor ./internal/robust 85
coverage_floor ./internal/serve 85
coverage_floor ./internal/lint 85

echo "== solver iteration budget (E5 Fig. 10; no pipe, so a blown budget fails the gate)"
AEROPACK_SOLVER_GUARD=1 go test -count=1 -run 'TestSolverPerfGuard/E5IterationBudget' -v .

echo "== solver performance guard (E5 iteration budget, parallel-vs-serial)"
AEROPACK_SOLVER_GUARD=1 go test -run TestSolverPerfGuard -v . | grep -v '^=== '

echo "== solver benchmark smoke (BenchmarkE5_Fig10 + E2_Level2 + Par pair, 1 iteration)"
go test -run - -bench 'BenchmarkE5_Fig10$|BenchmarkE2_Level2$|BenchmarkPar_SolveSteady' -benchtime 1x .

echo "== lint-cache benchmark smoke (BenchmarkLintModule, 1 iteration)"
go test -run - -bench BenchmarkLintModule -benchtime 1x ./internal/lint

echo "== lint-phase benchmark smoke (BenchmarkLintPhases, 1 iteration)"
go test -run - -bench BenchmarkLintPhases -benchtime 1x ./internal/lint

echo "== value-flow benchmark smoke (BenchmarkValueFlow, 1 iteration)"
go test -run - -bench BenchmarkValueFlow -benchtime 1x ./internal/lint

echo "== flight-recorder disabled-path benchmark smoke (1 iteration)"
go test -run - -bench 'BenchmarkRecorderDisabled|BenchmarkObsDisabledSpan' -benchtime 1x ./internal/obs

echo "== ops endpoint smoke (live Fig. 10 sweep answering all four routes)"
go test -race -count=1 -run TestOpsEndpointDuringLiveSweep ./internal/obs/obshttp

echo "== aeropackd smoke (build binary, sync+async study, /metrics, SIGTERM)"
go test -count=1 -run TestAeropackdSmoke ./cmd/aeropackd

echo "== serve load harness smoke (BenchmarkServe_LoadGen, 1 iteration)"
go test -run - -bench Serve_LoadGen -benchtime 1x ./internal/serve/loadgen

echo "== benchjson -compare watchdog (self-compare every BENCH_*.json)"
for f in BENCH_*.json; do
    go run ./cmd/benchjson -compare "$f" "$f" >/dev/null || {
        echo "benchjson -compare failed on $f" >&2
        exit 1
    }
    echo "$f: self-compare OK"
done

echo "verify.sh: all gates passed"
