# Developer workflow for the pfault workspace.
#
#   make build   — release build of every crate and binary
#   make test    — full test suite (unit + integration + property)
#   make lint    — clippy gate: warnings are errors, and bare unwrap()
#                  is banned in pfault-platform library code (tests are
#                  allow-listed via cfg_attr in crates/core/src/lib.rs)
#   make doc     — rustdoc gate: every crate's docs build with warnings
#                  as errors, so a broken intra-doc link fails CI
#   make fmt     — formatting gate: `cargo fmt --check` over every
#                  workspace crate (the standalone benchmark/ package is
#                  not a workspace member and is not checked)
#   make sweep-smoke — bounded fault-space boundary sweep (<10 s): the
#                  stock firmware must sweep clean, and the seeded
#                  apply-before-verify bug must be caught and minimized
#   make obs-smoke — observability determinism gate: two same-seed
#                  campaigns must write byte-identical metrics JSON and
#                  probe-trace JSONL
#   make recovery-smoke — mechanistic-recovery gate (<10 s): the storm
#                  sweep must interrupt recovery stages, resume them,
#                  and degrade at least one device to read-only, and
#                  two same-seed runs must emit byte-identical reports
#   make fleet-smoke — fleet gate: correlated rack-level cuts must
#                  degrade MTTDL below the independent baseline with
#                  byte-identical same-seed reports, and the forced-loss
#                  config must lose data iff more than k chunks are gone
#   make kv-smoke — application-consistency gate: the KV sweep must
#                  produce surfaced, masked, and silent-poison outcomes,
#                  half-apply must poison strictly more than
#                  discard-whole, and same-seed reports must be
#                  byte-identical
#   make serve-smoke — campaign-daemon gate (<30 s): the serve
#                  experiment kills a daemon mid-campaign, restarts it
#                  over the same spool, and exits non-zero unless the
#                  resumed report is byte-identical to an uninterrupted
#                  run, event delivery is exactly-once, the bounded
#                  queue answered Busy, and drain left a resumable
#                  checkpoint behind
#   make plan-smoke — adaptive-planner gate (<60 s): the plan
#                  experiment exits non-zero unless the adaptive run
#                  matches the fixed baseline's confidence bands at
#                  ≥10x fewer trials, two worker counts reduce byte-equally,
#                  and planned pause/resume is byte-identical; cmp
#                  enforces deterministic same-seed reports, and equal
#                  reports on --threads 1 and --threads 2
#   make trace-smoke — block-layer tool gate (<5 s): blkdump's trace
#                  must survive its own blkparse-text and JSONL
#                  round-trips, and two same-seed runs each of
#                  `blkdump --jsonl` and `pfio --mixed-sizes` must print
#                  byte-identical output
#   make golden  — refactor-invariance gate: recomputes every row of
#                  golden/digests.tsv (a repro invocation and the sha256
#                  of its --json report and stdout) and fails, listing
#                  the rows that moved, unless all are byte-identical
#   make golden-update — rewrites golden/digests.tsv after an intended
#                  model change (show its diff in the change description)
#   make pfbench-smoke — one short pass of the repo benchmark over every
#                  workload (writes no result file); its campaign set-up
#                  checks serial and stealing reports byte-identical, and
#                  building it proves pflayers compiles against the
#                  platform API
#   make pfbench-test — the benchmark package's own tests (release): it
#                  links the platform and sweep APIs through pflayers and
#                  pfsweep, so a trimmed public API that breaks them
#                  fails here, tests included
#   make check   — everything CI runs

CARGO ?= cargo

.PHONY: all build test lint doc fmt lint-core lint-workspace sweep-smoke obs-smoke recovery-smoke fleet-smoke kv-smoke serve-smoke plan-smoke trace-smoke golden golden-update pfbench-smoke pfbench-test check clean

all: check

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

# Self-checking: the sweep's own oracle asserts the clean run has zero
# violations; the --inject-crc-bug run exits non-zero unless the bug is
# found and shrunk (see crates/bench/src/bin/repro.rs).
sweep-smoke: build
	./target/release/repro --exp sweep --seed 7
	./target/release/repro --exp sweep --seed 7 --inject-crc-bug --minimize

# The platform, fleet, and KV crates are the resilience boundary: trial
# failures must be values, never process aborts, so unwrap() is denied
# in their libraries and binaries outright. The flash arena and the
# device/image layer joined the gate with Snapshot v3: every campaign
# trial clones through them, so a panic there kills whole campaigns.
# The serve daemon joined with campaign-as-a-service: one panicking
# connection or job thread must never take down the other jobs.
lint-core:
	$(CARGO) clippy -p pfault-platform -p pfault-fleet -p pfault-kv -p pfault-flash -p pfault-ssd -p pfault-serve --all-targets -- -D warnings -D clippy::unwrap_used

lint-workspace:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

lint: lint-core lint-workspace

fmt:
	$(CARGO) fmt --all -- --check

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace --offline

# The probe bus is only useful if it is deterministic: the repro binary
# self-checks the trace (dense seqs, parseable lines, non-empty
# per-class metrics), and cmp enforces bit-identical reruns.
obs-smoke: build
	./target/release/repro --exp campaign --trials 4 --seed 11 \
		--metrics target/obs-a.json --trace target/obs-a.jsonl
	./target/release/repro --exp campaign --trials 4 --seed 11 \
		--metrics target/obs-b.json --trace target/obs-b.jsonl
	cmp target/obs-a.json target/obs-b.json
	cmp target/obs-a.jsonl target/obs-b.jsonl
	./target/release/blkdump --obs target/obs-a.jsonl > /dev/null

# Self-checking: an explicit recovery-storm run exits non-zero unless
# cuts landed inside recovery stages, interrupted sessions resumed, and
# at least one device degraded to read-only instead of bricking (see
# crates/bench/src/bin/repro.rs); cmp enforces determinism.
recovery-smoke: build
	./target/release/repro --exp recovery-storm --json target/storm-a.json
	./target/release/repro --exp recovery-storm --json target/storm-b.json
	cmp target/storm-a.json target/storm-b.json

# Self-checking: an explicit fleet run exits non-zero unless correlated
# cuts lose strictly more stripes (and MTTDL) than the same victim count
# applied independently, degraded reads and rebuild interruptions
# happened, every loss is cause-attributed, and two worker counts agree
# bit-for-bit on the first row (see crates/core/src/experiments/fleet.rs).
# cmp enforces byte-identical same-seed reports; the targeted proptest run
# asserts data loss occurs iff more than k chunks of a stripe are wiped.
fleet-smoke: build
	./target/release/repro --exp fleet --seed 13 --json target/fleet-a.json
	./target/release/repro --exp fleet --seed 13 --json target/fleet-b.json
	cmp target/fleet-a.json target/fleet-b.json
	$(CARGO) test -q -p pfault-fleet --lib forced_wipes_cause_loss_iff_beyond_parity

# Self-checking: an explicit kv run exits non-zero unless every
# divergence class occurred somewhere in the sweep, the half-applying
# firmware silently poisoned strictly more than the CRC-verifying
# firmware at equal seeds, journal batches actually tore, and two worker
# counts agree bit-for-bit on the first row (see
# crates/core/src/experiments/kv.rs). cmp enforces byte-identical
# same-seed reports; the targeted test pins the seeded silent-poison
# reproduction in the store crate itself.
kv-smoke: build
	./target/release/repro --exp kv --seed 11 --json target/kv-a.json
	./target/release/repro --exp kv --seed 11 --json target/kv-b.json
	cmp target/kv-a.json target/kv-b.json
	$(CARGO) test -q -p pfault-kv --lib seeded_silent_poison_reproduces

# Self-checking: the serve experiment spins up real daemons on loopback
# sockets and exits non-zero unless every durability and backpressure
# property held (see crates/serve/src/selfcheck.rs).
serve-smoke: build
	./target/release/repro --exp serve --seed 11

# Self-checking: the plan experiment exits non-zero unless the ≥10x
# trial-saving, two worker counts agreeing byte for byte, splitting
# determinism, and planned resume properties all held (see
# crates/core/src/experiments/plan.rs); cmp enforces byte-identical
# same-seed reports.
plan-smoke: build
	./target/release/repro --exp plan --json target/plan-a.json
	./target/release/repro --exp plan --json target/plan-b.json
	cmp target/plan-a.json target/plan-b.json
	./target/release/repro --exp plan --seed 7 --threads 1 --json target/plan-t1.json
	./target/release/repro --exp plan --seed 7 --threads 2 --json target/plan-t2.json
	cmp target/plan-t1.json target/plan-t2.json

# Trials keep no block trace, so the two CLI tools are the only users of
# pfault-trace's tracer and btt pass in the workspace. blkdump exits
# non-zero unless its trace round-trips through the blkparse text and
# JSONL forms (see crates/bench/src/bin/blkdump.rs); cmp enforces
# byte-identical same-seed output from both tools.
trace-smoke: build
	./target/release/blkdump --seed 7 --requests 64 --jsonl > target/blkdump-a.txt
	./target/release/blkdump --seed 7 --requests 64 --jsonl > target/blkdump-b.txt
	cmp target/blkdump-a.txt target/blkdump-b.txt
	./target/release/pfio --mixed-sizes --requests 400 --seed 3 > target/pfio-a.txt
	./target/release/pfio --mixed-sizes --requests 400 --seed 3 > target/pfio-b.txt
	cmp target/pfio-a.txt target/pfio-b.txt

# Every smoke target cmp's two runs of the same tree, which proves
# determinism; golden compares against digests committed from an earlier
# tree, which proves a refactor changed no report byte.
golden: build
	bash golden/check.sh

golden-update: build
	bash golden/check.sh --update

# The standalone benchmark package (benchmark/): `smoke` runs every
# workload once at CI size and exits non-zero if a run fails or the
# engines' reports differ.
pfbench-smoke:
	$(CARGO) run --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin pfbench -- smoke

pfbench-test:
	$(CARGO) test --release --offline --manifest-path benchmark/Cargo.toml

check: build fmt lint doc test sweep-smoke obs-smoke recovery-smoke fleet-smoke kv-smoke serve-smoke plan-smoke trace-smoke golden pfbench-smoke pfbench-test

clean:
	$(CARGO) clean
