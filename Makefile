# Convenience targets; the source of truth is dune.

.PHONY: all build test bench check fuzz-smoke obs-smoke fault-smoke \
        kernel-smoke epoch-smoke pool-smoke norec-smoke service-smoke \
        scale-smoke txds-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# CI gate: full build, full test suite, a perf-gate smoke run (write-log
# fast path >= 20% better than Hashtbl, observability-off overhead <= 2%
# vs the PR-2 baseline, sb7 cycles bit-identical to the frozen PR-4
# matrix), the observability smoke, the fuzz smoke, and the
# fault-injection smoke.
check: build
	dune runtest
	dune exec bench/perf_gate.exe -- --smoke --out /tmp/bench_gate_smoke.json
	$(MAKE) obs-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) fault-smoke
	$(MAKE) kernel-smoke
	$(MAKE) epoch-smoke
	$(MAKE) pool-smoke
	$(MAKE) norec-smoke
	$(MAKE) service-smoke
	$(MAKE) scale-smoke
	$(MAKE) txds-smoke

# Kernel smoke (seconds): the differential suite (current engines vs the
# frozen pre-refactor behavioral snapshot, bit-identical in simulated
# cycles), every composed design point run + fuzzed under its contract,
# one composed point exercised end-to-end through the CLI, and the
# line-budget guard: the five engines, all expressed over lib/kernel, stay
# within their current line counts (the pre-kernel total was 2576), and
# so do the other engine files, the composed engine and the shared
# visible-reader set, so code the kernel absorbed cannot quietly grow
# back.
ENGINE_FILES = lib/core/swisstm_engine.ml lib/stm_tl2/tl2_engine.ml \
               lib/stm_tiny/tinystm_engine.ml lib/stm_rstm/rstm_engine.ml \
               lib/stm_mv/mvstm_engine.ml
ENGINE_BUDGET = 1478

kernel-smoke: build
	dune exec test/test_main.exe -- test kernel-differential
	dune exec test/test_main.exe -- test kernel-composed
	dune exec bin/stm_run.exe -- rbtree --stm k-mixed+inv+counter+redo --threads 4
	@total=$$(cat $(ENGINE_FILES) | wc -l); \
	 if [ $$total -gt $(ENGINE_BUDGET) ]; then \
	   echo "LoC budget FAIL: engine files total $$total lines (> $(ENGINE_BUDGET))"; \
	   exit 1; \
	 else \
	   echo "LoC budget ok: engine files total $$total lines (<= $(ENGINE_BUDGET))"; \
	 fi
	@fail=0; \
	 for spec in lib/core/swisstm_engine.ml:476 lib/stm_tl2/tl2_engine.ml:157 \
	             lib/stm_tiny/tinystm_engine.ml:188 lib/stm_rstm/rstm_engine.ml:362 \
	             lib/stm_mv/mvstm_engine.ml:295 \
	             lib/kernel/norec.ml:183 lib/kernel/tlrw.ml:185 \
	             lib/kernel/compose.ml:431 lib/kernel/readers.ml:98 \
	             lib/kernel/seqlock.ml:60 lib/stm_intf/vset.ml:40; do \
	   f=$${spec%%:*}; cap=$${spec##*:}; n=$$(wc -l < $$f); \
	   if [ $$n -gt $$cap ]; then \
	     echo "LoC budget FAIL: $$f is $$n lines (> its cap $$cap)"; fail=1; \
	   fi; \
	 done; \
	 if [ $$fail -ne 0 ]; then exit 1; else echo "LoC budget ok: every engine file within its cap"; fi

# Observability smoke (seconds): metrics + profiler + trace export on a
# 2-thread contended micro over swisstm and tl2, with the emitted JSON
# schema-checked (catapult trace parsed back and validated).
obs-smoke: build
	dune exec bin/stm_run.exe -- obs-check

# Quick schedule-exploration pass (seconds): a few engines under perturbed
# schedules with opacity checking, plus the broken-engine self-check that
# proves the checker has teeth.  bin/stm_fuzz has the full knobs.
fuzz-smoke: build
	dune exec bin/stm_fuzz.exe -- --engine swisstm --policy pct --seeds 8 --progs 3
	dune exec bin/stm_fuzz.exe -- --engine tl2 --policy random --seeds 8 --progs 3
	dune exec bin/stm_fuzz.exe -- --engine mvstm --policy pct --seeds 8 --progs 3
	dune exec bin/stm_fuzz.exe -- --engine norec --policy random --seeds 8 --progs 3
	dune exec bin/stm_fuzz.exe -- --engine tlrw --policy pct --seeds 8 --progs 3
	dune exec bin/stm_fuzz.exe -- --epochs --engine norec --policy random --seeds 8 --progs 3
	dune exec bin/stm_fuzz.exe -- --epochs --engine swisstm --policy pct --seeds 8 --progs 3
	dune exec bin/stm_fuzz.exe -- --self-check --policy random --seeds 8 --progs 10

# Fault-injection smoke (seconds): a deterministic abort storm over a hot
# 8-thread workload; the adaptive CM must bound every thread's worst
# consecutive-abort run by its escalation budget K while timid/two-phase
# demonstrably do not.  Also fuzzes one engine per family under the storm
# (injected faults must never break opacity).
fault-smoke: build
	dune exec bin/fault_smoke.exe
	dune exec bin/stm_fuzz.exe -- --inject --engine swisstm-adaptive --seeds 6 --progs 3
	dune exec bin/stm_fuzz.exe -- --inject --engine tl2 --seeds 6 --progs 3
	dune exec bin/stm_fuzz.exe -- --inject --epochs --engine swisstm --seeds 6 --progs 3
	dune exec bin/stm_fuzz.exe -- --inject --engine norec --seeds 6 --progs 3
	dune exec bin/stm_fuzz.exe -- --inject --engine tlrw --seeds 6 --progs 3

# Memory smokes (seconds, native domains): epoch-smoke drives a
# privatizing writer against a snapshot-holding reader and requires zero
# use-after-reclaim observations with the reclaimer armed; pool-smoke
# builds and drops engines until the descriptor pools report recycling.
# NOrec family smoke (seconds): the Vset/Seqlock unit + differential
# suites (norec/tlrw vs glock and norec vs tl2 over random programs and
# perturbed schedules) and the deterministic NOrec-vs-TL2 crossover shape
# gate at smoke duration.  perf_gate embeds the same crossover checks at
# full duration into BENCH_PR8.json.
norec-smoke: build
	dune exec test/test_main.exe -- test norec
	dune exec test/test_main.exe -- test norec-differential
	dune exec bench/crossover_gate.exe -- --smoke

# Service smoke (seconds): the open-system SLO gate (monotone goodput
# ladder, adaptive-bounds-tail under the overload ramp, SLO collectors
# charge zero simulated cycles) run TWICE in separate processes; the
# emitted sidecars — which embed every SLO window of every run — must be
# bit-identical, proving the whole harness deterministic.
service-smoke: build
	dune exec bench/service_gate.exe -- --smoke --out /tmp/svc_smoke_a.json
	dune exec bench/service_gate.exe -- --smoke --out /tmp/svc_smoke_b.json
	cmp /tmp/svc_smoke_a.json /tmp/svc_smoke_b.json
	@echo "service-smoke: SLO JSON bit-identical across processes"

# Scale smoke (tens of seconds): the 64-512-core NUMA sweep (sb7 mixes
# over a 32-core-socket topology, the Figure-13 granularity subset, the
# work-stealing task mode, the RSTM thread-cap refusal) run TWICE in
# separate processes; the emitted sidecars — which embed every cell's
# simulated cycles and per-socket hit/miss/steal counters — must be
# bit-identical, proving the topology + stealing layer deterministic.
scale-smoke: build
	dune exec bench/scale_gate.exe -- --smoke --out /tmp/scale_smoke_a.json
	dune exec bench/scale_gate.exe -- --smoke --out /tmp/scale_smoke_b.json
	cmp /tmp/scale_smoke_a.json /tmp/scale_smoke_b.json
	@echo "scale-smoke: scale JSON bit-identical across processes"

# Boosted-collections smoke (seconds): the boosted-structure suites
# (semantic locks + undo vs sequential models, contended invariants,
# boosted/word composition), the free-on-remove leak regression with the
# double-free guard and epoch reclaimer armed, the linearizability
# self-checks, and the transaction-history fuzz (boosted map + queue
# histories checked for strict serializability under random and PCT
# schedules, across engines).
txds-smoke: build
	dune exec test/test_main.exe -- test boost
	dune exec test/test_main.exe -- test txds_leaks
	dune exec test/test_main.exe -- test txds_linearize
	dune exec bin/stm_fuzz.exe -- --txds --engine swisstm --policy random --seeds 6 --progs 3
	dune exec bin/stm_fuzz.exe -- --txds --engine swisstm --policy pct --seeds 6 --progs 3
	dune exec bin/stm_fuzz.exe -- --txds --engine tl2 --policy pct --seeds 6 --progs 3

epoch-smoke: build
	dune exec bin/epoch_smoke.exe -- epoch

pool-smoke: build
	dune exec bin/epoch_smoke.exe -- pool

clean:
	dune clean
