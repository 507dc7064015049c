#!/usr/bin/env bash
# Tier-1 gate plus cheap end-to-end smoke checks. Everything here must
# stay fast enough to run on every change.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc =="
# Broken intra-doc links (a type moved between crates, a private item
# named from public docs) fail here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== build (release) =="
# --workspace: the smokes below run member binaries (fgcs-exp,
# fgcs-cluster, fgcs-serve); a plain build only covers the root package.
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== tracer equivalence, wide sweep (release) =="
# The supervised walker against its per-sample oracle on every lab,
# archetype and X8 detector at 4 machines x 14 days, three seeds and
# fault scales x0 to x60: 1,920 machine traces per path, ~7 s on 2 vCPUs.
cargo test --release -q --test tracer_equivalence -- --ignored

echo "== failover election property (release) =="
# The election as a pure function over 100,000 seeded rounds (2-5
# followers, some already primaries, arbitrary asymmetric reachability,
# random liveness): never two primaries in one epoch. A failing seed
# prints its replay command. ~0.1 s of tests on 2 vCPUs.
cargo test --release -q -p fgcs-service --lib -- --ignored --exact \
    repl::tests::election_never_puts_two_primaries_in_one_epoch_wide

echo "== settled-sample properties (release) =="
# Detector::settles holds exactly when observe would move only the
# silence clock, and OccurrenceRecorder::observe_all equals observe on
# every sample, over random streams of every sample kind. A failing
# case prints its seed. The two run side by side:
# the detector's, 1,000,000 streams: ~4.1 s on 2 vCPUs;
# the recorder's, 250,000 streams in random batches: ~3.2 s on 2 vCPUs.
cargo test --release -q -p fgcs-core --lib -- --ignored --exact \
    detector::tests::settles_is_exactly_a_step_that_moves_only_the_clock_wide \
    events::tests::observe_all_equals_observing_every_sample_wide

echo "== replication long-poll: batch rule, park-aware frame driver, replication e2e (release) =="
# The batching rule's table; the cross-loop wake (one signal per
# batch, an append between a pull's check and its park still seen);
# the frame driver feeding the shipped request handler 300,000 seeded
# frames over two connections and a virtual clock, valid, hostile,
# valid: no panic, typed replies, one
# reply per frame in order (frames pipelined behind a parked pull
# included), no park of a fencer's, first or newer-epoch pull, a pull
# parked through a demotion answered NotPrimary, no park past its cap
# plus one tick, an epoch that never falls, roles that move only as
# DESIGN.md §13.5 allows. Then the socket suites: the cross-loop wake
# and the hold cap on a two-loop primary, an election loser following
# the winner, a follower a thousand entries behind, bounded follower
# reads, and failover across real fgcs-serve processes. A failing seed
# prints its replay command. ~3 s of tests on 2 vCPUs.
cargo test --release -q -p fgcs-service --lib -- --include-ignored --exact \
    repl::tests::a_pull_is_answered_at_once_only_with_a_batch_or_no_way_to_wait \
    conn::tests::an_append_wakes_a_parked_pull_once_per_batch_and_never_misses_it \
    conn::tests::hostile_frames_never_break_the_handler_or_its_transitions_wide
cargo test --release -q -p fgcs-service --test repl_longpoll_e2e --test election_e2e \
    --test repl_backlog_e2e --test read_path_e2e --test failover_e2e

echo "== experiment smoke (table1 + fig1a reduced scale, faults full scale) =="
# Run from a scratch dir: fgcs-exp writes results/ relative to the cwd,
# and the reduced-scale output must not clobber the committed artifacts.
# The faults run doubles as the fault-injection reconciliation gate: the
# experiment asserts internally that the zero-rate injection reproduces
# the clean trace bit-for-bit, that every quality report matches the
# injected fault counts and that X11's bounds hold, so a drifting
# harness fails this smoke.
exp_bin="$PWD/target/release/fgcs-exp"
cluster_bin="$PWD/target/release/fgcs-cluster"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
for e in table1 fig1a; do
    (cd "$smoke_dir" && "$exp_bin" "$e" --quick > /dev/null)
done
# The supervised runs fan machines out over fgcs-par: the full-scale
# matrix (~0.3 s a run on 2 vCPUs) must equal the committed one at any
# worker count.
for w in 1 3; do
    (cd "$smoke_dir" && FGCS_PAR_WORKERS=$w "$exp_bin" faults > /dev/null)
    cmp -s "$smoke_dir/results/fault_matrix.csv" results/fault_matrix.csv \
        || { echo "faults smoke: fault_matrix.csv differs from the committed file at FGCS_PAR_WORKERS=$w" >&2; exit 1; }
done
echo "  fault_matrix.csv byte-identical to the committed file at FGCS_PAR_WORKERS=1/3"

echo "== trace and predictor smokes (full scale; byte-identical to the committed files) =="
# The JSONL trace goes through the record codec: its bytes are frozen,
# and nothing else compares results/trace.jsonl (the benchmark reads
# only the CSVs). X2 and X9 score their (window, predictor) pairs on
# fgcs-par workers, so their CSVs must not move with the worker count.
(cd "$smoke_dir" && "$exp_bin" trace > /dev/null)
for f in trace.jsonl trace.csv; do
    cmp -s "$smoke_dir/results/$f" "results/$f" \
        || { echo "trace smoke: $f differs from the committed file" >&2; exit 1; }
done
for w in 1 3; do
    (cd "$smoke_dir" && FGCS_PAR_WORKERS=$w "$exp_bin" predict > /dev/null)
    (cd "$smoke_dir" && FGCS_PAR_WORKERS=$w "$exp_bin" depth > /dev/null)
    for f in predict.csv predict_depth.csv; do
        cmp -s "$smoke_dir/results/$f" "results/$f" \
            || { echo "predict smoke: $f differs from the committed file at FGCS_PAR_WORKERS=$w" >&2; exit 1; }
    done
done
echo "  trace.jsonl, trace.csv, predict.csv and predict_depth.csv byte-identical (predict/depth at FGCS_PAR_WORKERS=1/3)"

echo "== contention smokes (full scale; byte-identical to the committed files) =="
# Every contention measurement goes through Machine::measure, which
# skips the periods of a repeating scheduling state. A standalone
# calibrate sweeps all 200 Figure 1 points itself (inside `all` it
# reuses fig1a/fig1b's), ~0.4 s on 2 vCPUs; fig2, fig3, fig4 and table1
# take under 20 ms each.
for w in 1 3; do
    (cd "$smoke_dir" && FGCS_PAR_WORKERS=$w "$exp_bin" calibrate > /dev/null)
    cmp -s "$smoke_dir/results/calibration.csv" results/calibration.csv \
        || { echo "contention smoke: calibration.csv differs from the committed file at FGCS_PAR_WORKERS=$w" >&2; exit 1; }
done
for e in fig2 fig3 fig4 table1; do
    (cd "$smoke_dir" && "$exp_bin" "$e" > /dev/null)
    cmp -s "$smoke_dir/results/$e.csv" "results/$e.csv" \
        || { echo "contention smoke: $e.csv differs from the committed file" >&2; exit 1; }
done
echo "  calibration.csv (FGCS_PAR_WORKERS=1/3), fig2.csv, fig3.csv, fig4.csv and table1.csv byte-identical"

echo "== claims gate (committed results/ + BENCH_serve.json + BENCH_fleet.json) =="
# Every paper bound and every X11-X15 bound, at full scale, on the
# committed artifacts. The same check functions (fgcs-experiments'
# claims module) run inside each experiment on what it writes, so no
# smoke below re-checks them.
"$exp_bin" gate

echo "== service experiment smokes (X12 serve, X13 cluster reduced scale; X14 sched full scale) =="
# X12: server + load generator over localhost TCP. X13: two shards of
# real fgcs-serve processes, shard 0's primary SIGKILLed mid-replay and
# its follower promoting itself with no operator step. X14: three
# scheduling policies in lockstep over a live 2-shard cluster. Each
# asserts its accounting identities and its claim's bounds internally.
# sched runs after serve: it splices its gate into the BENCH_serve.json
# that serve writes. It runs at full scale (~30 s on 2 vCPUs) because
# its CSV is deterministic: it must be byte-identical to the committed
# results/sched_eval.csv.
(cd "$smoke_dir" && "$exp_bin" serve --quick > serve.out)
(cd "$smoke_dir" && "$cluster_bin" --quick > cluster.out)
(cd "$smoke_dir" && "$exp_bin" sched > sched.out)
cmp -s "$smoke_dir/results/sched_eval.csv" results/sched_eval.csv \
    || { echo "sched smoke: sched_eval.csv differs from the committed file" >&2; exit 1; }
echo "  sched_eval.csv byte-identical to the committed file"

echo "== fleet streaming smoke (X15, reduced scale) =="
# The experiment asserts internally: streaming == exact oracle on the
# lab trace, and X15's bounds (sketch quantile error within its runtime
# certificate at production and stressed capacity, in-process
# worker-count bit-reproducibility, the RSS budget). The smoke additionally
# re-runs the whole binary under a different worker count and requires
# byte-identical CSVs — the determinism claim checked end to end.
(cd "$smoke_dir" && FGCS_PAR_WORKERS=1 "$exp_bin" fleet --quick > fleet.out)
# The experiment checks its table has the 5 archetypes + combined.
fa="$smoke_dir/results/fleet_archetypes.csv"
test -f "$fa" || { echo "missing $fa" >&2; exit 1; }
cp "$fa" "$smoke_dir/fleet_archetypes.w1.csv"
cp "$smoke_dir/results/fleet_cdf.csv" "$smoke_dir/fleet_cdf.w1.csv"
(cd "$smoke_dir" && FGCS_PAR_WORKERS=3 "$exp_bin" fleet --quick > fleet2.out)
cmp -s "$fa" "$smoke_dir/fleet_archetypes.w1.csv" \
    || { echo "fleet smoke: fleet_archetypes.csv differs across worker counts" >&2; exit 1; }
cmp -s "$smoke_dir/results/fleet_cdf.csv" "$smoke_dir/fleet_cdf.w1.csv" \
    || { echo "fleet smoke: fleet_cdf.csv differs across worker counts" >&2; exit 1; }
echo "  5 archetypes + combined, CSVs bit-identical across FGCS_PAR_WORKERS=1/3"
# Peak memory must not grow with the machine count: run_fleet folds
# each traced machine, in machine order, into one open chunk partial
# and merges it into the totals once the chunk is full, so only the
# records of machines traced ahead of a slower one are held. The same
# smoke at 16x the machines (FleetConfig::smoke() has 200) may read at
# most 2 MB more peak RSS.
smoke_rss() { grep -o '"peak_rss_mb":[^,}]*' "$1/BENCH_fleet.json" | cut -d: -f2; }
rss_1x=$(smoke_rss "$smoke_dir")
mkdir -p "$smoke_dir/fleet16x"
(cd "$smoke_dir/fleet16x" && FGCS_PAR_WORKERS=3 FGCS_FLEET_MACHINES=3200 "$exp_bin" fleet --quick > fleet.out)
rss_16x=$(smoke_rss "$smoke_dir/fleet16x")
[ -n "$rss_1x" ] && [ -n "$rss_16x" ] \
    || { echo "fleet smoke: missing peak_rss_mb" >&2; exit 1; }
[ "$rss_16x" -le $((rss_1x + 2)) ] \
    || { echo "fleet smoke: peak RSS grew from $rss_1x MB to $rss_16x MB at 16x the machines" >&2; exit 1; }
echo "  peak RSS $rss_1x MB at 200 machines, $rss_16x MB at 3200"

echo "== sim throughput smoke (quick mode; batched >= 5x stepwise on the Figure 1 machine, >= 20x on contended) =="
# Exits non-zero by itself when a ratio gate fails: lone-runnable spans
# and races carry calibrate and fig1a/fig1b.
FGCS_BENCH_QUICK=1 cargo bench -p fgcs-bench --bench sim_throughput

echo "== fleet path smoke (quick mode; span tracer >= 2.8x the per-sample tracer, supervised walker >= 1.8x its oracle) =="
# Exits non-zero by itself when a ratio gate fails: the span tracer
# carries run_testbed (every paper artifact) as well as run_fleet, the
# supervised walker carries run_testbed_faulty (X11).
FGCS_BENCH_QUICK=1 cargo bench -p fgcs-bench --bench fleet

echo "== placement path smoke (quick mode; a repeated place >= 20x cheaper than a pass) =="
# Exits non-zero by itself when the ratio gate fails: a Place with no
# write since the last one must come from the model's memo.
FGCS_BENCH_QUICK=1 cargo bench -p fgcs-bench --bench place

echo "== wire path smoke (quick mode; crc32 kernel >= 5x the bytewise loop) =="
# Exits non-zero by itself when the ratio gate fails.
FGCS_BENCH_QUICK=1 cargo bench -p fgcs-bench --bench wire

echo "== benchmark gates (benchmark/: names agree, ingest_small + query_mix + ingest_bulk_repl bit-identity, paper_all CSVs, fleet_sweep oracle) =="
# The benchmark package is a build of its own; these runs keep it
# compiling against the crates and put its gates in front of every
# change, not only the next full benchmark run: ingest_small — the
# workload that goes through ClientPool::send most often, with its own
# accounting identity and bit-identity gate — query_mix — every
# AvailReply and the PlaceReply bit-equal to an in-process
# OnlineAvailabilityModel fed the same events — and ingest_bulk_repl —
# the follower's repl_seq equal to the primary's, both nodes' records
# and transitions equal to an in-process replay, which no frame with a
# wrong checksum survives — and paper_all — one full-scale pass of
# `fgcs-exp all` (--quick bounds the pass count, not the experiments),
# each of its 21 CSVs byte-equal to the committed file — and
# fleet_sweep — run_fleet's bit-identity oracle: a second sweep of
# slice 0 equal to the first, a small fleet equal to the exact oracle,
# and the traced sweep (the chunk-per-worker loop written out) equal to
# run_fleet's result; that last gate runs only under --trace 1, whose
# span file lands in the ignored benchmark/out/. A failed gate exits 1.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- check
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload ingest_small --quick > /dev/null
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload query_mix --quick > /dev/null
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload ingest_bulk_repl --quick > /dev/null
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload paper_all --quick > /dev/null
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload fleet_sweep --quick --trace 1 > /dev/null

echo "ci.sh: all green"
