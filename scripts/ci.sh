#!/usr/bin/env sh
# ci.sh — the repository's single CI entry point.
#
# Usage:
#   scripts/ci.sh
#
# Runs, in order:
#   1. gofmt: no file may need reformatting
#   1b. docs budget: DESIGN.md + EXPERIMENTS.md together stay <= 110 KB
#      (one current table per claim; history is in git log)
#   2. tier-1 verify: go build, go vet, go test, go test -race (ROADMAP.md),
#      go test including the API listing (TestAPIListing: the root
#      package's exported declarations against testdata/api.txt),
#      then both test runs again under GOMAXPROCS=1 and =2, so a test that
#      depends on how many goroutines really run at once cannot pass on a
#      many-core builder and fail on a small runner. After the build,
#      GOOS=windows go build: the one check that the heap fallback behind
#      store.OpenMmap (mmap_other.go) still compiles where it is used
#   2a. tracing inlines: go build -gcflags=-m ./internal/obs must report
#      that (*Recorder).BeginPhase and EndPhase can inline. Call
#      sites do not guard a nil recorder, so an untraced run costs one
#      branch per hook only while these stay inlinable
#   2a*. no tracer below the executor: go list -deps ./internal/store must
#      not list viewjoin/internal/obs, and pathstack, twigstack and
#      interjoin must not import it (go list .Imports). The engines reach
#      obs only through internal/engine's Options.Tracer, which carries the
#      collector's enumerate span; a run's costs are its counters
#   2a'. scratch is per run, not per plan: no non-test Go file of the root
#      package or under internal/engine/ may declare a sync.Pool struct
#      field (TestNoStructHoldsAPool); package-level pools are the rule
#   2a''. one XML parser: no non-test package may import encoding/xml
#      (go list); internal/xmltree's scanner is the only reader of XML
#      text, and encoding/xml stays in its tests as the parity oracle
#   2a'''. one run, one job: no non-test Go file of the root package or
#      under cmd/ may name Parallelism outside a comment. A run is one
#      sequential pass (§IV), and Config.Workers bounds evaluations on the
#      assumption that each request costs one worker's CPU; a partitioned
#      run knob coming back would break both
#   2a''''. one counters record: no non-test Go file outside
#      internal/counters and internal/obs/report.go may hold a composite
#      literal keyed ElementsScanned:, the mark of a field-by-field copy of
#      the run's counters. The engines fill counters.Counters, Stats embeds
#      it and the server aggregates it whole; only the trace's camelCase
#      CountersReport re-spells the fields, for its wire
#   2b. benchmark module: go vet and go test inside benchmark/ (a nested
#      module root `go test ./...` does not reach), then a one-round
#      --quick run of every BENCHMARK.json workload with its verify step,
#      so API drift against the benchmark fails here
#   2c. Go benchmark smoke: every Benchmark* function once (-benchtime=1x),
#      so a benchmark that no longer builds or runs fails here, not in the
#      middle of somebody's measurement (BenchmarkServePage among them: a
#      cached-plan 20-row cursor page through the vjserve handler, at
#      Config{}, which is the configuration vjserve deploys)
#   2d. vjbench smoke: every experiment of cmd/vjbench once, at a small
#      scale and one sample a cell, so flag or wiring drift in the
#      command that prints the paper's tables fails here
#   2e. examples: every examples/* program runs once (go run, output
#      discarded). go build only compiles them; they are the public API's
#      worked calls, so an option or signature change must keep them
#      running, not just building
#   3. coverage floors, one shell function (coverage_floor) called per
#      package set. store: the storage layer is the persistence trust
#      boundary; its statement coverage must stay >= 85%
#   3b. engine coverage floor: the evaluation engines (internal/engine/...)
#      carry the join and cursor-resume correctness burden; their aggregate
#      statement coverage must stay >= 80%
#   3c. server coverage floor: the serving layer owns admission, outcome
#      accounting and the flight recorder; its statement coverage must
#      stay >= 90%, so no failure branch of the request edge goes untested
#   3d. enum coverage floor: the shared enumeration stage owns the
#      partial-flush ordering proofs; internal/engine/enum statement
#      coverage must stay >= 85%
#   3e. maintain coverage floor: the incremental maintenance layer is what
#      keeps materialized views byte-identical to re-materialization under
#      document updates; internal/maintain statement coverage must stay
#      >= 85%
#   3f. commands coverage floor: the commands (./cmd/...) parse flags, load
#      documents and view files and report failures; their aggregate
#      statement coverage must stay >= 50% (53.6% measured, vjbench and
#      vjgen untested at 0%)
#   3g. views coverage floor: materialization computes every solution list
#      and DAG pointer a view store holds; internal/views statement coverage
#      must stay >= 90%
#   3h. xmltree coverage floor: the XML scanner, the Builder and the piece
#      table are every document's way in; internal/xmltree statement
#      coverage must stay >= 85%
#   4. govulncheck, when the tool is installed (skipped, not failed, when
#      absent — hermetic runners don't fetch tools)
#   5. fuzz smoke: 10s each of FuzzParse (internal/tpq),
#      FuzzReadViewStore, FuzzCursorOps (internal/store: Next, Seek,
#      ResetRange, probes and the run read, AppendBefore, over built lists
#      and piece tables against the reference decode) and FuzzPieceList
#      (the list piece table against the reference splice),
#      FuzzEvaluateDifferential (root), FuzzUpdateDifferential (root),
#      FuzzEnumerateWindow (internal/engine/enum), FuzzApplyPieces
#      (internal/xmltree: the piece table against the reference splice),
#      FuzzParseMatchesEncodingXML and FuzzParse (internal/xmltree: the
#      XML scanner against encoding/xml, error texts included, and the
#      Write/Parse round trip), FuzzMaterialize (internal/views: every
#      solution list against the oracle, every pointer against its
#      §III-A definition), seeded from the committed corpora, and
#      FuzzQueryResponseEncoding,
#      FuzzQueryRequest (internal/server: arbitrary bodies to /query and
#      /debug/trace never panic, 500 or 503), FuzzQueryRequestDecode (the
#      /query body decoder against encoding/json: equal requests or equal
#      errors for any bytes) and FuzzUpdateRequest
#      (arbitrary bodies to /update never panic or 5xx, move the epoch by
#      one exactly when they answer 200, and leave the views counting what
#      the document holds)
#
# Environment:
#   VJCI_FUZZTIME        per-target fuzz budget (default 10s)
set -eu
cd "$(dirname "$0")/.."

fuzztime="${VJCI_FUZZTIME:-10s}"

echo "== gofmt"
unformatted="$(gofmt -l . 2>/dev/null || true)"
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need reformatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== docs budget: DESIGN.md + EXPERIMENTS.md <= 110 KB"
docs_bytes="$(cat DESIGN.md EXPERIMENTS.md | wc -c)"
if [ "$docs_bytes" -gt 110000 ]; then
	echo "DESIGN.md + EXPERIMENTS.md are $docs_bytes bytes, over the 110000 budget" >&2
	exit 1
fi

echo "== tier-1: build"
go build ./...
echo "== tier-1: build (GOOS=windows, the non-mmap file loader)"
GOOS=windows go build ./...
echo "== tracing hooks inline"
inl="$(go build -gcflags=-m ./internal/obs 2>&1)"
for m in BeginPhase EndPhase; do
	if ! echo "$inl" | grep -q "can inline (\*Recorder).$m\$"; then
		echo "(*obs.Recorder).$m no longer inlines: the untraced path would pay a call per hook" >&2
		exit 1
	fi
done
echo "== no tracer below the executor: store and the join engines do not use obs"
if go list -deps ./internal/store | grep -qx 'viewjoin/internal/obs'; then
	echo "internal/store depends on internal/obs: cursors count costs in counters, not in a tracer" >&2
	exit 1
fi
obsusers="$(go list -f '{{.ImportPath}} {{.Imports}}' ./internal/engine/pathstack ./internal/engine/twigstack ./internal/engine/interjoin | grep -E '[[ ]viewjoin/internal/obs[] ]' || true)"
if [ -n "$obsusers" ]; then
	echo "these engines import internal/obs; their costs are counters, not trace events:" >&2
	echo "$obsusers" >&2
	exit 1
fi
echo "== scratch pools are package-level, not per plan"
go test -count=1 -run '^TestNoStructHoldsAPool$' .
echo "== one XML parser: no non-test package imports encoding/xml"
xmlusers="$(go list -f '{{.ImportPath}} {{.Imports}}' ./... | grep -E '[[ ]encoding/xml[] ]' || true)"
if [ -n "$xmlusers" ]; then
	echo "these packages import encoding/xml; XML is read by xmltree.Parse only:" >&2
	echo "$xmlusers" >&2
	exit 1
fi
echo "== one run, one job: the root package and cmd/ name no Parallelism"
parusers="$(grep -nE '^[^/]*([^[:alnum:]_]|^)Parallelism([^[:alnum:]_]|$)' $( (ls *.go; find cmd -name '*.go') | grep -v '_test\.go$') || true)"
if [ -n "$parusers" ]; then
	echo "these lines name Parallelism: a run is one job, and no run option or flag splits it:" >&2
	echo "$parusers" >&2
	exit 1
fi
echo "== one counters record: no field-by-field copy of the counters"
copies="$(grep -nE '^[^/]*([^[:alnum:]_]|^)ElementsScanned[[:space:]]*:([^=]|$)' $(find . -name '*.go' ! -name '*_test.go' ! -path './internal/counters/*' ! -path './internal/obs/report.go') || true)"
if [ -n "$copies" ]; then
	echo "these lines copy the counters field by field; pass counters.Counters (or Stats.Counters) whole:" >&2
	echo "$copies" >&2
	exit 1
fi
echo "== tier-1: vet"
go vet ./...
echo "== tier-1: test"
go test ./...
echo "== tier-1: test -race"
go test -race ./...
for procs in 1 2; do
	echo "== tier-1: test, test -race (GOMAXPROCS=$procs)"
	GOMAXPROCS=$procs go test -count=1 ./...
	GOMAXPROCS=$procs go test -count=1 -race ./...
done

echo "== benchmark module: vet, test"
(cd benchmark && go vet ./... && go test ./...)
# The workloads BENCHMARK.json declares. --seconds 0 is one round: the
# --quick document is too small for update-mixed to delete from for longer.
for w in xmark-full nasa-selective serve-page serve-full update-mixed; do
	echo "== benchmark smoke: $w"
	sh benchmark/run.sh --quick --workload "$w" --seed 1 --seconds 0 --trace 0 >/dev/null
done

echo "== go benchmark smoke: every Benchmark* once"
go test -run '^$' -bench . -benchtime=1x ./... >/dev/null

echo "== vjbench smoke: every experiment once, small scale"
go run ./cmd/vjbench -exp all -xmark-scale 0.05 -nasa-datasets 200 -repeats 1 >/dev/null

echo "== examples: every examples/* program once"
for ex in examples/*/; do
	go run "./${ex%/}" >/dev/null
done

# coverage_floor PATTERN FLOOR LABEL: the aggregate statement coverage of
# the packages matching PATTERN must be at least FLOOR percent.
coverage_floor() {
	echo "== $3 coverage floor (>= $2%)"
	prof="$(mktemp -t vjci-cov-XXXXXX.out)"
	go test -count=1 -coverprofile "$prof" "$1" >/dev/null
	cov="$(go tool cover -func "$prof" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')"
	rm -f "$prof"
	if [ -z "$cov" ]; then
		echo "$3 coverage: could not parse coverage output" >&2
		exit 1
	fi
	if ! awk -v c="$cov" -v floor="$2" 'BEGIN { exit !(c+0 >= floor+0) }'; then
		echo "$3 coverage ${cov}% is below the $2% floor" >&2
		exit 1
	fi
	echo "$3 coverage: ${cov}%"
}
coverage_floor ./internal/store 85 store
coverage_floor ./internal/engine/... 80 engine
coverage_floor ./internal/server 90 server
coverage_floor ./internal/engine/enum 85 enum
coverage_floor ./internal/maintain 85 maintain
coverage_floor ./cmd/... 50 commands
coverage_floor ./internal/views 90 views
coverage_floor ./internal/xmltree 85 xmltree

if command -v govulncheck >/dev/null 2>&1; then
	echo "== govulncheck"
	govulncheck ./...
else
	echo "== govulncheck: not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "== fuzz smoke: FuzzParse ($fuzztime)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime "$fuzztime" ./internal/tpq
echo "== fuzz smoke: FuzzReadViewStore ($fuzztime)"
go test -run '^$' -fuzz '^FuzzReadViewStore$' -fuzztime "$fuzztime" ./internal/store
echo "== fuzz smoke: FuzzCursorOps ($fuzztime)"
go test -run '^$' -fuzz '^FuzzCursorOps$' -fuzztime "$fuzztime" ./internal/store
echo "== fuzz smoke: FuzzPieceList ($fuzztime)"
go test -run '^$' -fuzz '^FuzzPieceList$' -fuzztime "$fuzztime" ./internal/store
echo "== fuzz smoke: FuzzEvaluateDifferential ($fuzztime)"
go test -run '^$' -fuzz '^FuzzEvaluateDifferential$' -fuzztime "$fuzztime" .
echo "== fuzz smoke: FuzzUpdateDifferential ($fuzztime)"
go test -run '^$' -fuzz '^FuzzUpdateDifferential$' -fuzztime "$fuzztime" .
echo "== fuzz smoke: FuzzEnumerateWindow ($fuzztime)"
go test -run '^$' -fuzz '^FuzzEnumerateWindow$' -fuzztime "$fuzztime" ./internal/engine/enum
echo "== fuzz smoke: FuzzApplyPieces ($fuzztime)"
go test -run '^$' -fuzz '^FuzzApplyPieces$' -fuzztime "$fuzztime" ./internal/xmltree
echo "== fuzz smoke: FuzzParseMatchesEncodingXML ($fuzztime)"
go test -run '^$' -fuzz '^FuzzParseMatchesEncodingXML$' -fuzztime "$fuzztime" ./internal/xmltree
echo "== fuzz smoke: FuzzParse, internal/xmltree ($fuzztime)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime "$fuzztime" ./internal/xmltree
echo "== fuzz smoke: FuzzMaterialize ($fuzztime)"
go test -run '^$' -fuzz '^FuzzMaterialize$' -fuzztime "$fuzztime" ./internal/views
echo "== fuzz smoke: FuzzQueryResponseEncoding ($fuzztime)"
go test -run '^$' -fuzz '^FuzzQueryResponseEncoding$' -fuzztime "$fuzztime" ./internal/server
echo "== fuzz smoke: FuzzQueryRequest ($fuzztime)"
go test -run '^$' -fuzz '^FuzzQueryRequest$' -fuzztime "$fuzztime" ./internal/server
echo "== fuzz smoke: FuzzQueryRequestDecode ($fuzztime)"
go test -run '^$' -fuzz '^FuzzQueryRequestDecode$' -fuzztime "$fuzztime" ./internal/server
echo "== fuzz smoke: FuzzUpdateRequest ($fuzztime)"
go test -run '^$' -fuzz '^FuzzUpdateRequest$' -fuzztime "$fuzztime" ./internal/server

echo "== ci: OK"
