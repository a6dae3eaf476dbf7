# Convenience targets; the source of truth is dune.

.PHONY: all build test bench check fuzz-smoke obs-smoke fault-smoke \
        kernel-smoke epoch-smoke txds-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# CI gate.  Every target here builds the release profile that
# dune-workspace selects (no -opaque, so helpers inline across modules;
# the dev warnings stay errors).  Full build, full test suite (every
# alcotest suite runs here once, the kernel differential, composed, NOrec and boosted-collection
# suites included), one bench-gate smoke run (the result tables of the
# sb7, privatization, crossover, service, boost and scale sections equal
# to the committed golden bench/golden/gate-smoke.json cell for cell,
# every shape check holding, and the write log >= 20% faster than
# Hashtbl in a same-run A/B), then the observability, fuzz,
# fault-injection, kernel, memory and boosted-collections smokes.
check: build
	dune runtest
	dune exec bench/perf_gate.exe -- --smoke --out _build/gate-smoke.json
	$(MAKE) obs-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) fault-smoke
	$(MAKE) kernel-smoke
	$(MAKE) epoch-smoke
	$(MAKE) txds-smoke

# Kernel smoke (seconds): one composed point exercised end-to-end through
# the CLI, and the line-budget guard: the five engines, all expressed
# over lib/kernel, stay within their current line counts (the pre-kernel
# total was 2576), and so do the other engine files (the global lock
# included), the composed engine, the shared visible-reader set, the
# stripe table, the per-tid table, the irrevocability token, the
# scheduler, the coherence model, the topology, the descriptor, driver,
# hooks and packaging modules, the per-thread counters, the versioned
# locks, the write and read logs, the metrics registry, the SLO collector,
# the back-off policies, the design-space axes and the engine catalogue,
# so code the kernel absorbed (or per-thread state the descriptor
# absorbed, or contract mappings the catalogue absorbed) cannot quietly
# grow back.  The differential
# suite (current engines vs the frozen pre-refactor behavioral snapshot,
# bit-identical in simulated cycles) and the composed-point suite run in
# `dune runtest`.
ENGINE_FILES = lib/core/swisstm_engine.ml lib/stm_tl2/tl2_engine.ml \
               lib/stm_tiny/tinystm_engine.ml lib/stm_rstm/rstm_engine.ml \
               lib/stm_mv/mvstm_engine.ml
ENGINE_BUDGET = 1358

kernel-smoke: build
	dune exec bin/stm_run.exe -- rbtree --stm k-mixed+inv+counter+redo --threads 4
	@total=$$(cat $(ENGINE_FILES) | wc -l); \
	 if [ $$total -gt $(ENGINE_BUDGET) ]; then \
	   echo "LoC budget FAIL: engine files total $$total lines (> $(ENGINE_BUDGET))"; \
	   exit 1; \
	 else \
	   echo "LoC budget ok: engine files total $$total lines (<= $(ENGINE_BUDGET))"; \
	 fi
	@fail=0; \
	 for spec in lib/core/swisstm_engine.ml:436 lib/stm_tl2/tl2_engine.ml:139 \
	             lib/stm_tiny/tinystm_engine.ml:165 lib/stm_rstm/rstm_engine.ml:336 \
	             lib/stm_mv/mvstm_engine.ml:282 \
	             lib/kernel/norec.ml:162 lib/kernel/tlrw.ml:163 \
	             lib/stm_glock/glock_engine.ml:90 \
	             lib/kernel/compose.ml:407 lib/kernel/readers.ml:100 \
	             lib/kernel/seqlock.ml:40 lib/stm_intf/vset.ml:21 \
	             lib/stm_intf/serial.ml:67 lib/runtime/sim.ml:350 \
	             lib/runtime/tmatomic.ml:239 lib/runtime/topology.ml:130 \
	             lib/runtime/line_table.ml:61 lib/runtime/tid_table.ml:21 \
	             lib/kernel/txdesc.ml:194 \
	             lib/kernel/driver.ml:129 lib/kernel/package.ml:81 \
	             lib/kernel/hooks.ml:194 lib/stm_intf/stats.ml:117 \
	             lib/kernel/vlock.ml:182 lib/stm_intf/wlog.ml:197 \
	             lib/stm_intf/rset.ml:161 lib/obs/metrics.ml:291 \
	             lib/obs/slo.ml:210 lib/runtime/backoff.ml:48 \
	             lib/kernel/axes.ml:94 lib/engines/engines.ml:258; do \
	   f=$${spec%%:*}; cap=$${spec##*:}; n=$$(wc -l < $$f); \
	   if [ $$n -gt $$cap ]; then \
	     echo "LoC budget FAIL: $$f is $$n lines (> its cap $$cap)"; fail=1; \
	   fi; \
	 done; \
	 if [ $$fail -ne 0 ]; then exit 1; else echo "LoC budget ok: every engine file within its cap"; fi

# Observability smoke (seconds): metrics + profiler + trace export on a
# 2-thread contended micro over four engines; the record of tables and
# the catapult trace are read back from their files and checked.
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

# Boosted-collections smoke (seconds): the transaction-history fuzz
# (boosted map + queue histories checked for strict serializability under
# random and PCT schedules, across engines).  The boosted-structure,
# leak-regression and linearizability suites run in `dune runtest`.
txds-smoke: build
	dune exec bin/stm_fuzz.exe -- --txds --engine swisstm --policy random --seeds 6 --progs 3
	dune exec bin/stm_fuzz.exe -- --txds --engine swisstm --policy pct --seeds 6 --progs 3
	dune exec bin/stm_fuzz.exe -- --txds --engine tl2 --policy pct --seeds 6 --progs 3

# Memory smoke (seconds, native domains): epoch-smoke drives a
# privatizing writer against a snapshot-holding reader and requires zero
# use-after-reclaim observations with the reclaimer armed, epoch
# advances, deferred frees and a drained limbo.
epoch-smoke: build
	dune exec bin/epoch_smoke.exe -- epoch

clean:
	dune clean
