# Development entry points. `make check` is what CI runs.

GO ?= go

.PHONY: check fmt build vet lint lint-strict test race fuzz claims perf perf-trace star-check perf-compare idle loc

check: fmt build vet lint test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# hwlint runs the project's own analyzers (see internal/lint); -novet because
# the vet target above already ran. Exit codes: 1 means findings, 2 means the
# linter itself failed (load/type-check error or analyzer crash) — CI treats
# both as failures but the distinction shows up in the log.
lint:
	$(GO) run ./cmd/hwlint -novet ./...

# lint-strict is the CI variant: vet included, and every finding (suppressed
# ones too, with reasons) captured as hwlint.json for the build artifact.
lint-strict:
	$(GO) run ./cmd/hwlint -json ./... > hwlint.json

test:
	$(GO) test -timeout 5m ./...

# Non-test Go lines per package (build-constrained files as go list sees
# them, testdata never), the figure the ROADMAP's line budgets are stated
# in. Information only: it always succeeds. TestLineBudgets (loc_test.go,
# part of `make test`) holds the guarded packages to loc_budget.txt.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		n=0; if [ -n "$$files" ]; then n=$$(cat $$files | wc -l); fi; \
		printf '%6d %s\n' "$$n" "$$pkg"; \
	done

# The long-running targets run under a wall-clock bound of twice their
# figure in ROADMAP.md's timing table, so a hang fails the target instead of
# stalling whoever ran it; -k kills the target 10 s after the bound if it
# ignores the TERM.
BOUNDED = timeout -k 10s

# The concurrency-heavy packages under the race detector; the short timeout
# makes a reintroduced protocol hang (abort/fault-injection tests in core and
# netsim) fail in minutes instead of the 10-minute default. relop rides
# along for the budgeted join table: other goroutines' Reserve calls run its
# pressure callback, and probe threads share it; format for the writer's
# parallel chunk compression, and jen for the pipelined table load. The cfg
# and callgraph packages ride along without -race (they are single-threaded
# but underpin the analyzers that guard the racy packages, so they belong to
# the same gate). internal/core, the longest package run, has a bounded line
# of its own: it includes the adaptive-switch fault matrix
# (TestInjectedFailuresAbortAdaptiveSwitch), workers killed before, during,
# and after the mid-query switch handshake, on both transports. Every
# algorithm end to end through the warehouse
# (TestEndToEndSQLAllAlgorithmsAgree) runs last, under its own bound.
race:
	$(BOUNDED) 220s sh -c '\
	$(GO) test -race -timeout=120s ./internal/netsim/ ./internal/par/ ./internal/jen/ ./internal/format/ ./internal/skew/ ./internal/mem/ ./internal/sched/ ./internal/analyzer/ ./internal/relop/ && \
	$(GO) test -race -timeout=150s -run "TestConcurrent|TestAdaptive|TestStar|TestSnowflake" . && \
	$(GO) test ./internal/lint/cfg/ ./internal/lint/callgraph/'
	$(BOUNDED) 180s $(GO) test -race -timeout=150s ./internal/core/
	$(BOUNDED) 30s $(GO) test -race -timeout=25s -run "^TestEndToEndSQLAllAlgorithmsAgree$$" .

# Every Fuzz* target of every package, each fuzzed for 5 s past its seeds
# (`make test` runs the seeds alone). Targets are listed from the packages at
# run time, so a new one is covered without editing this file. A failing
# input lands in the package's testdata/fuzz/ for `go test -run` to replay.
fuzz:
	@$(BOUNDED) 240s sh -c 'set -e; for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list "^Fuzz" $$pkg); \
		for fn in $$(printf "%s\n" "$$list" | grep "^Fuzz"); do \
			echo "fuzz $$pkg $$fn"; \
			$(GO) test -run "^\$$" -fuzz "^$$fn\$$" -fuzztime 5s $$pkg; \
		done; \
	done'

# The paper's claims: every experiment of the reproduction (EXPERIMENTS.md)
# at the default 1/10000 scale, each checked against the shape the paper
# reports (which algorithm wins where, Table 1's counts). Exact counts and
# paper-scale times both feed the checks, so a change that moves either
# fails here.
claims:
	$(BOUNDED) 360s $(GO) run ./cmd/hwbench -exp all -check

# The repo's benchmark (BENCHMARK.json): all seven hwperf workloads, one
# untraced run each (~95 s).
perf:
	$(BOUNDED) 200s bash bench/run.sh -workload all -seed 1

# One short traced pass over all seven workloads: the per-layer metrics and
# span files, written to perf-trace/, which CI uploads as an artifact. Every
# result is verified, so a wrong answer fails the target. Not a timing gate:
# one second per workload on a shared runner says where time goes, not
# whether it moved.
perf-trace:
	$(BOUNDED) 180s $(GO) run ./bench/hwperf -workload all -seconds 1 -trace 1 -results perf-trace

# One star_cascade run at the benchmark's full data size (50x the smoke
# test `make test` runs), every result verified: the N-way executor's
# streamed stages with real shuffle volumes and timing. hwperf exits
# non-zero on a wrong result.
star-check:
	@out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	$(BOUNDED) 120s $(GO) run ./bench/hwperf -workload star_cascade -seconds 2 -results "$$out"

# Three repeats per workload into a scratch run set, compared metric by
# metric against the recorded baseline; exits 1 on a regression past a
# metric's bound and reports "unresolved" where run-to-run spread exceeds it.
perf-compare:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(BOUNDED) 600s bash bench/run.sh -workload all -seed 1 -repeat 3 -o "$$out" && \
	bash bench/run.sh -compare bench/results/baseline/runs_a.json "$$out"

# The ROADMAP's end-of-session check: list any repo binary (every cmd/*
# command, hwperf), test binary, `go run` executable or go command still
# running and fail if there is one. Run it last, after every foreground go
# test, make target and bench/run.sh. The command names are read from cmd/
# at run time and every name is written with a bracketed first letter, so
# the pattern never matches this recipe's own shell.
idle:
	@pat=$$(for d in cmd/*/; do n=$${d#cmd/}; n=$${n%/}; printf '[%.1s]%s|' "$$n" "$${n#?}"; done); \
	if pgrep -fa "$${pat}[h]wperf|[.]test|[g]o-build[^ ]*/exe/|[g]o (test|build|run|vet)"; then \
		echo "idle: the processes above are still running"; exit 1; fi
