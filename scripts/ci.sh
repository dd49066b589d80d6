#!/usr/bin/env bash
# Tier-1 verification gate. Every PR must pass this script unchanged:
#
#   1. release build of the whole workspace,
#   2. the full test suite (unit + integration + property + doc tests),
#      and `cargo clippy --workspace` with every warning an error,
#   3. a smoke verification campaign — 2 workloads x 2 configs x 4
#      torture seeds (12 jobs) sharded over 4 workers, with a hard
#      wall-clock timeout and a JSON-validity check on the report,
#   4. a perf smoke — one kernel under full telemetry; the PerfSnapshot
#      artifact must have a live CPI stack and nonzero cache/DRAM
#      counters, and perf_report must render it cleanly,
#   5. a triage smoke — an injected-bug campaign with LightSSS on must
#      produce a self-contained replay bundle, and `replay --bundle`
#      must reproduce the divergence at the identical commit index,
#   6. a lifecycle smoke — a 12-job injected-bug campaign must produce
#      failing jobs whose bundles carry a non-empty crash-ring lifecycle
#      snapshot, pipeview must render one (waterfall and O3PipeView),
#      and two identical full-trace `--lifecycle` campaigns must emit
#      byte-identical deterministic report bodies with a live digest,
#   7. a fuzz smoke — two identical coverage-guided campaigns must emit
#      byte-identical deterministic report bodies with coverage growing
#      strictly round-over-round, and an injected-bug fuzz campaign must
#      find, triage, and replay the divergence,
#   8. an mp smoke — two identical 12-job multi-hart litmus fuzz
#      rounds must emit byte-identical deterministic report bodies,
#      divergence-free with live `mp:` coherence coverage, and the same
#      campaign with the §IV-C L2 probe/grant race injected must raise
#      a ForbiddenOutcome, minimize it, bundle it, and `replay
#      --bundle` must reproduce it at the identical commit index,
#   9. a bench smoke — scripts/bench.sh emits a schema-clean
#      BENCH_fig8.json covering every interpreter personality and the
#      cycle model on both small presets; the regenerated cycle_model
#      body (cycles / instret / cpi_milli) must match the committed
#      BENCH_fig8.json exactly and timing.sim_kilocycles_per_sec must be
#      present and nonzero (no wall-clock threshold — rates are
#      machine-dependent); the golden_bench pins pass, and a 12-job
#      campaign with the superblock trace tier as the DiffTest REF runs
#      to completion twice with byte-identical deterministic report
#      bodies,
#  10. a sampling smoke — `campaign --sample` profiles one kernel,
#      materializes at least 2 checkpoints into a reuse directory, fans
#      the sample jobs through the worker pool, and exits 0 with a
#      schema-clean `sampling` section; every sample window obeys the
#      top-down identity (CPI-stack sum == window cycles x commit
#      width), and a second run answering from the checkpoint cache
#      emits a byte-identical deterministic report body; a third run
#      profiling on `dromajo-like` (the single-stepping `run_blocks`
#      default) into a fresh directory emits the same body as the
#      `nemu-trace` override once the `ref_model` names are normalized.
#
# The campaign step is what the paper calls the verification flow: any
# DUT regression that makes a workload diverge, hang, or panic fails
# the gate with a minimized reproducer in the report.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== tier-1: cargo test -q --workspace =="
cargo test -q --workspace

echo "== tier-1: cargo clippy --workspace (warnings are errors) =="
cargo clippy --workspace --offline -- -D warnings

echo "== tier-1: smoke campaign (2 workloads x 2 configs x 4 seeds) =="
report="$(mktemp /tmp/campaign-smoke.XXXXXX.json)"
perf_report_json="$(mktemp /tmp/perf-smoke.XXXXXX.json)"
perf_snapshot="$(mktemp /tmp/perf-snapshot.XXXXXX.json)"
trap 'rm -f "$report" "$perf_report_json" "$perf_snapshot"' EXIT
timeout 600 target/release/campaign \
    --workloads mcf,libquantum \
    --configs small-nh,small-yqh \
    --torture-seeds 0..4 \
    --workers 4 \
    --out "$report"

python3 - "$report" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema_version"] == 6, r["schema_version"]
s = r["summary"]
assert s["total"] == 12 and s["halted"] == 12, s
assert len(r["jobs"]) == 12
assert all(j["cycles"] > 0 and j["commits_checked"] > 0 for j in r["jobs"])
assert "timing" in r
print("smoke campaign report OK:", s)
EOF

echo "== tier-1: perf smoke (mcf under telemetry) =="
timeout 300 target/release/campaign \
    --workloads mcf \
    --configs small-nh \
    --telemetry \
    --workers 1 \
    --out "$perf_report_json"

python3 - "$perf_report_json" "$perf_snapshot" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
perf = r["jobs"][0]["perf"]
cpi = {}
for core in perf["cores"]:
    for k, v in core["perf"]["cpi"].items():
        cpi[k] = cpi.get(k, 0) + v
cycles = max(c["perf"]["cycles"] for c in perf["cores"])
assert sum(cpi.values()) == cycles * perf["commit_width"], cpi
# The CPI components a real kernel run must exercise (rob_full/iq_full
# can legitimately stay zero on a short run).
for key in ("retired", "frontend_starved", "mispredict_recovery", "memory_stall"):
    assert cpi[key] > 0, f"CPI component {key} is zero: {cpi}"
caches = {c["name"]: c["stats"] for c in perf["caches"]}
l1d = [s for n, s in caches.items() if n.startswith("l1d")]
assert l1d and all(s["hits"] > 0 and s["misses"] > 0 for s in l1d), caches
assert perf["dram"]["accesses"] > 0, perf["dram"]
assert all(c["perf"]["rob_occupancy"]["samples"] > 0 for c in perf["cores"])
assert perf["mem_latency"]["l1_hit"]["samples"] > 0, perf["mem_latency"]
# Extract the bare snapshot artifact for the perf_report CLI smoke.
json.dump(perf, open(sys.argv[2], "w"))
print("perf smoke OK: CPI identity holds, all probe families live")
EOF

target/release/perf_report "$perf_report_json" > /dev/null
# Capture then head (see the pipeview note below): a direct pipe into
# head races SIGPIPE against the writer under pipefail.
target/release/perf_report "$perf_snapshot" > "$perf_snapshot.render"
head -12 "$perf_snapshot.render"
rm -f "$perf_snapshot.render"

echo "== tier-1: triage smoke (injected bug -> bundle -> replay) =="
triage_report="$(mktemp /tmp/triage-smoke.XXXXXX.json)"
bundle_dir="$(mktemp -d /tmp/triage-bundles.XXXXXX)"
trap 'rm -f "$report" "$perf_report_json" "$perf_snapshot" "$triage_report"; rm -rf "$bundle_dir"' EXIT
# The injected MulLowBit bug must make some seeds diverge, so the
# campaign exits 1 by contract; any other status is a failure.
set +e
timeout 600 target/release/campaign \
    --torture-seeds 0..3 \
    --configs small-nh \
    --inject-bug mul-low-bit \
    --lightsss 2000 \
    --max-cycles 8000000 \
    --workers 3 \
    --no-minimize \
    --bundle-dir "$bundle_dir" \
    --out "$triage_report"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "triage smoke: expected exit 1 (diverged jobs), got $rc" >&2
    exit 1
fi

bundle_file="$(python3 - "$triage_report" "$bundle_dir" <<'EOF'
import json, os, sys
r = json.load(open(sys.argv[1]))
assert r["schema_version"] == 6, r["schema_version"]
diverged = [j for j in r["jobs"] if "Diverged" in j["verdict"]]
assert diverged, "injected bug produced no divergence"
bundled = [j for j in diverged if j.get("triage")]
assert bundled, "diverged jobs carry no triage bundle"
j = bundled[0]
b = j["triage"]
assert b["trigger"] == "diverged" and b["reproduced"], b["trigger"]
assert b["at_commit"] > 0 and b["commit_tail"], "bundle lacks the commit anchor/tail"
path = os.path.join(sys.argv[2], f"job{j['index']}.bundle.json")
assert os.path.exists(path), f"bundle file missing: {path}"
print(path)
EOF
)"
echo "triage smoke bundle: $bundle_file"
# The bundle alone must reproduce the divergence at the same commit
# index (replay exits 0 only on REPRODUCED).
timeout 300 target/release/replay --bundle "$bundle_file"
# A bundle written under another schema version must be refused, not
# replayed (exit 2 names both versions).
stale_bundle="$bundle_dir/stale.bundle.json"
python3 - "$bundle_file" "$stale_bundle" <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
assert b["schema_version"] == 6, b["schema_version"]
b["schema_version"] = 5
json.dump(b, open(sys.argv[2], "w"))
EOF
set +e
timeout 300 target/release/replay --bundle "$stale_bundle" > /dev/null 2> "$stale_bundle.err"
rc=$?
set -e
if [ "$rc" -ne 2 ] || ! grep -q "schema version 5" "$stale_bundle.err"; then
    echo "stale-schema bundle: expected exit 2 naming the version, got $rc" >&2
    cat "$stale_bundle.err" >&2
    exit 1
fi

echo "== tier-1: --ref applies only to --sample profiling =="
# DiffTest has one REF: --ref outside --sample, and the retired `arch`
# and `nemu` spellings under --sample, are usage errors (exit 2).
for args in "--workloads mcf --ref nemu-trace" "--sample --workloads mcf --ref arch" \
    "--sample --workloads mcf --ref nemu"; do
    set +e
    # shellcheck disable=SC2086
    timeout 60 target/release/campaign $args > /dev/null 2> "$bundle_dir/ref.err"
    rc=$?
    set -e
    if [ "$rc" -ne 2 ] || ! grep -q "^usage:" "$bundle_dir/ref.err"; then
        echo "campaign $args: expected a usage error (exit 2), got $rc" >&2
        cat "$bundle_dir/ref.err" >&2
        exit 1
    fi
done
# The usage message lists exactly the four registered personalities.
if ! grep -qx "profiling refs (--sample only): dromajo-like, qemu-tci-like, spike-like, nemu-trace" \
    "$bundle_dir/ref.err"; then
    echo "campaign --ref nemu: usage does not list the four registered names" >&2
    cat "$bundle_dir/ref.err" >&2
    exit 1
fi

echo "== tier-1: lifecycle smoke (12-job injected bug -> crash ring -> pipeview) =="
life_report="$(mktemp /tmp/lifecycle-bug.XXXXXX.json)"
life_bundles="$(mktemp -d /tmp/lifecycle-bundles.XXXXXX)"
life_a="$(mktemp /tmp/lifecycle-a.XXXXXX.json)"
life_b="$(mktemp /tmp/lifecycle-b.XXXXXX.json)"
trap 'rm -f "$report" "$perf_report_json" "$perf_snapshot" "$triage_report" "$life_report" "$life_a" "$life_b"; rm -rf "$bundle_dir" "$life_bundles"' EXIT
set +e
timeout 600 target/release/campaign \
    --torture-seeds 0..6 \
    --configs small-nh,small-yqh \
    --inject-bug mul-low-bit \
    --lightsss 2000 \
    --max-cycles 8000000 \
    --workers 4 \
    --no-minimize \
    --bundle-dir "$life_bundles" \
    --out "$life_report"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "lifecycle smoke: expected exit 1 (diverged jobs), got $rc" >&2
    exit 1
fi

# Every failing job's bundle must carry the always-on crash ring: the
# last uops in flight before the divergence, capped and cause-tagged.
life_bundle="$(python3 - "$life_report" "$life_bundles" <<'EOF'
import json, os, sys
r = json.load(open(sys.argv[1]))
assert r["schema_version"] == 6, r["schema_version"]
assert len(r["jobs"]) == 12, len(r["jobs"])
bundled = [j for j in r["jobs"] if j.get("triage")]
assert bundled, "injected bug produced no triage bundle"
for j in bundled:
    b = j["triage"]
    assert b["schema_version"] == 6, b["schema_version"]
    ring = b["lifecycle_ring"]
    assert ring, f"job {j['index']}: bundle has an empty crash ring"
    assert len(ring) <= 64, f"job {j['index']}: ring overflows its cap: {len(ring)}"
    assert all(rec["committed"] > 0 or rec["cause"] for rec in ring), \
        f"job {j['index']}: ring record neither retired nor cause-tagged"
    assert all(rec["stamps"]["fetched"] > 0 for rec in ring), \
        f"job {j['index']}: unfetched ring record"
print(os.path.join(sys.argv[2], f"job{bundled[0]['index']}.bundle.json"))
EOF
)"
echo "lifecycle smoke bundle: $life_bundle"
# pipeview renders the bundle's ring as a waterfall and as O3PipeView.
# Capture then head: piping pipeview straight into `head -8` races —
# head exiting first sends SIGPIPE and the broken-pipe panic fails the
# pipeline under pipefail.
timeout 300 target/release/pipeview --bundle "$life_bundle" > "$life_bundle.pipeview"
head -8 "$life_bundle.pipeview"
rm -f "$life_bundle.pipeview"
timeout 300 target/release/pipeview --bundle "$life_bundle" --o3 > /dev/null
target/release/perf_report "$life_report" --lifecycle > /dev/null

# Full-trace mode: two identical --lifecycle campaigns must agree byte
# for byte once the timing section is dropped, digest included.
for f in "$life_a" "$life_b"; do
    timeout 600 target/release/campaign \
        --workloads mcf,libquantum \
        --configs small-nh \
        --torture-seeds 0..2 \
        --lifecycle \
        --workers 3 \
        --out "$f"
done

python3 - "$life_a" "$life_b" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a["schema_version"] == 6, a["schema_version"]
for r in (a, b):
    del r["timing"]
assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), \
    "--lifecycle campaign bodies differ between identical runs"
digests = [c["perf"]["lifecycle"] for j in a["jobs"] for c in j["perf"]["cores"]]
assert any(d["retired"] > 0 for d in digests), "lifecycle digest never counted a retire"
retired = sum(d["retired"] for d in digests)
print("lifecycle smoke OK: deterministic body, digest retired =", retired)
EOF

echo "== tier-1: fuzz smoke (determinism + coverage growth) =="
fuzz_a="$(mktemp /tmp/fuzz-smoke-a.XXXXXX.json)"
fuzz_b="$(mktemp /tmp/fuzz-smoke-b.XXXXXX.json)"
fuzz_bug="$(mktemp /tmp/fuzz-bug.XXXXXX.json)"
fuzz_bundles="$(mktemp -d /tmp/fuzz-bundles.XXXXXX)"
trap 'rm -f "$report" "$perf_report_json" "$perf_snapshot" "$triage_report" "$life_a" "$life_b" "$fuzz_a" "$fuzz_b" "$fuzz_bug"; rm -rf "$bundle_dir" "$fuzz_bundles"' EXIT
# Same seed + same worker count twice: the deterministic body (report
# minus the "timing" section) must be byte-identical, and every round
# must contribute new coverage.
for f in "$fuzz_a" "$fuzz_b"; do
    timeout 300 target/release/campaign \
        --fuzz --rounds 2 --fuzz-jobs 8 --fuzz-seed 5 \
        --configs small-nh \
        --workers 4 \
        --out "$f"
done

python3 - "$fuzz_a" "$fuzz_b" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a["schema_version"] == 6, a["schema_version"]
for r in (a, b):
    del r["timing"]
assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), \
    "fuzz report bodies differ between identical runs"
f = a["fuzz"]
assert len(f["rounds"]) == 2, f
for rnd in f["rounds"]:
    assert rnd["new_features"] > 0, f"round {rnd['round']} found no new coverage: {f}"
cums = [rnd["cumulative_features"] for rnd in f["rounds"]]
assert all(x < y for x, y in zip(cums, cums[1:])), f"coverage not strictly growing: {cums}"
assert f["total_features"] == cums[-1], f
assert all(j.get("coverage") for j in a["jobs"]), "fuzz jobs missing coverage maps"
print("fuzz smoke OK: deterministic body, coverage", cums)
EOF

echo "== tier-1: fuzz smoke (injected bug -> triage -> replay) =="
set +e
timeout 300 target/release/campaign \
    --fuzz --rounds 2 --fuzz-jobs 4 --fuzz-seed 5 \
    --configs small-nh \
    --inject-bug mul-low-bit \
    --lightsss 2000 \
    --workers 2 \
    --no-minimize \
    --bundle-dir "$fuzz_bundles" \
    --out "$fuzz_bug"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "fuzz bug smoke: expected exit 1 (diverged jobs), got $rc" >&2
    exit 1
fi

fuzz_bundle="$(python3 - "$fuzz_bug" "$fuzz_bundles" <<'EOF'
import json, os, sys
r = json.load(open(sys.argv[1]))
diverged = [j for j in r["jobs"] if "Diverged" in j["verdict"]]
assert diverged, "fuzz campaign missed the injected bug"
bundled = [j for j in diverged if j.get("triage")]
assert bundled, "diverged fuzz jobs carry no triage bundle"
j = bundled[0]
b = j["triage"]
assert b["trigger"] == "diverged" and b["reproduced"], b
assert b["job_index"] == j["index"], "fuzz job re-indexing broke the bundle"
path = os.path.join(sys.argv[2], f"job{j['index']}.bundle.json")
assert os.path.exists(path), f"bundle file missing: {path}"
print(path)
EOF
)"
echo "fuzz bug bundle: $fuzz_bundle"
timeout 300 target/release/replay --bundle "$fuzz_bundle"

echo "== tier-1: mp smoke (litmus determinism + coherence coverage) =="
mp_a="$(mktemp /tmp/mp-smoke-a.XXXXXX.json)"
mp_b="$(mktemp /tmp/mp-smoke-b.XXXXXX.json)"
mp_race="$(mktemp /tmp/mp-race.XXXXXX.json)"
mp_bundles="$(mktemp -d /tmp/mp-bundles.XXXXXX)"
trap 'rm -f "$report" "$perf_report_json" "$perf_snapshot" "$triage_report" "$life_a" "$life_b" "$fuzz_a" "$fuzz_b" "$fuzz_bug" "$mp_a" "$mp_b" "$mp_race"; rm -rf "$bundle_dir" "$fuzz_bundles" "$mp_bundles"' EXIT
# Same seed twice on the dual-core preset: the deterministic body must
# be byte-identical, every job must halt with an allowed outcome, and
# the coherence (`mp:`) coverage family must be live.
for f in "$mp_a" "$mp_b"; do
    timeout 600 target/release/campaign \
        --fuzz --mp --rounds 1 --fuzz-jobs 12 --fuzz-seed 0 \
        --configs small-nh \
        --max-cycles 400000 \
        --workers 4 \
        --out "$f"
done

python3 - "$mp_a" "$mp_b" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a["schema_version"] == 6, a["schema_version"]
for r in (a, b):
    del r["timing"]
assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), \
    "mp campaign bodies differ between identical runs"
s = a["summary"]
assert s["total"] == 12 and s["halted"] == 12, s
assert s["diverged"] == 0 and s["forbidden"] == 0, s
mp = set()
for j in a["jobs"]:
    mp |= {k for k, n in (j.get("coverage") or {}).get("mp") or [] if n > 0}
assert mp, "mp campaign recorded no coherence coverage"
print("mp smoke OK: deterministic body, mp features:", sorted(mp))
EOF

echo "== tier-1: mp smoke (L2 probe/grant race -> forbidden outcome -> replay) =="
# The injected probe/grant race corrupts a litmus line inside its race
# window; the outcome oracle must flag the forbidden observation, so
# the campaign exits 1 by contract.
set +e
timeout 600 target/release/campaign \
    --fuzz --mp --rounds 1 --fuzz-jobs 12 --fuzz-seed 0 \
    --configs small-nh \
    --inject-l2-race \
    --max-cycles 400000 \
    --workers 4 \
    --bundle-dir "$mp_bundles" \
    --out "$mp_race"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "mp race smoke: expected exit 1 (forbidden outcomes), got $rc" >&2
    exit 1
fi

mp_bundle="$(python3 - "$mp_race" "$mp_bundles" <<'EOF'
import json, os, sys
r = json.load(open(sys.argv[1]))
assert r["summary"]["forbidden"] >= 1, r["summary"]
bad = [j for j in r["jobs"] if "ForbiddenOutcome" in j["verdict"]]
assert bad, "forbidden tally has no matching job verdict"
j = bad[0]
m = j["minimized"]
assert m and m["error_class"] == "ForbiddenOutcome", m
assert m["litmus"] and not m["torture"], "minimized repro lost its litmus recipe"
b = j["triage"]
assert b and b["trigger"] == "forbidden-outcome" and b["reproduced"], b
assert b["forbidden_exit"], "bundle lacks the forbidden exit word"
path = os.path.join(sys.argv[2], f"job{j['index']}.bundle.json")
assert os.path.exists(path), f"bundle file missing: {path}"
print(path)
EOF
)"
echo "mp race bundle: $mp_bundle"
timeout 300 target/release/replay --bundle "$mp_bundle"

echo "== tier-1: bench smoke (BENCH_fig8.json + repeated campaign) =="
bench_json="$(mktemp /tmp/bench-smoke.XXXXXX.json)"
trace_a="$(mktemp /tmp/repeat-a.XXXXXX.json)"
trace_b="$(mktemp /tmp/repeat-b.XXXXXX.json)"
trap 'rm -f "$report" "$perf_report_json" "$perf_snapshot" "$triage_report" "$life_a" "$life_b" "$fuzz_a" "$fuzz_b" "$fuzz_bug" "$mp_a" "$mp_b" "$mp_race" "$bench_json" "$trace_a" "$trace_b"; rm -rf "$bundle_dir" "$fuzz_bundles" "$mp_bundles"' EXIT
# Reduced fuel keeps the leg fast; the committed BENCH_fig8.json (which
# golden_bench pins for speed ordering) is generated at full budget.
MINJIE_BENCH_FUEL=20000000 MINJIE_BENCH_OUT="$bench_json" scripts/bench.sh

python3 - "$bench_json" BENCH_fig8.json <<'EOF'
import json, math, sys
r = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
assert r["schema_version"] == 6, r["schema_version"]
assert r["figure"] == "fig8"
ps = r["personalities"]
assert len(ps) == 4, f"personality set drifted: {sorted(ps)}"
counts = {p["instructions"] for p in ps.values()}
assert len(counts) == 1, f"personalities disagree on retired instructions: {ps}"
assert "ref" not in r["campaign"], r["campaign"]
assert r["campaign"]["halted"] == r["campaign"]["jobs"] > 0, r["campaign"]
assert set(r["timing"]["mips"]) == set(ps), "timing.mips personality set drifted"
cm = r["cycle_model"]
assert set(cm) == {"small-nh", "small-yqh"}, f"cycle-model preset set drifted: {sorted(cm)}"
for preset, e in cm.items():
    assert e["cycles"] > 0 and e["instret"] > 0, (preset, e)
    assert e["cpi_milli"] == e["cycles"] * 1000 // e["instret"], (preset, e)
# The cycle model is deterministic and its budget (MINJIE_BENCH_CYCLES)
# is not reduced by this smoke, so the regenerated body must match the
# committed BENCH_fig8.json exactly — a drift means the microarchitecture
# changed without regenerating the committed report.
assert cm == committed["cycle_model"], (
    f"cycle_model drifted from committed BENCH_fig8.json:\n"
    f"  regenerated: {cm}\n  committed:   {committed['cycle_model']}"
)
# Simulation rates are machine-dependent: assert presence and sanity
# only, never a wall-clock threshold.
rates = r["timing"]["sim_kilocycles_per_sec"]
assert set(rates) == set(cm), "cycle-model rate set drifted"
for preset, kcps in rates.items():
    assert math.isfinite(kcps) and kcps > 0, (preset, kcps)
by_wl = r["timing"]["sim_kilocycles_per_sec_by_workload"]
assert set(by_wl) == set(cm), "per-workload rate preset set drifted"
for preset, entries in by_wl.items():
    assert entries, f"{preset}: empty per-workload rate map"
    for name, kcps in entries.items():
        assert math.isfinite(kcps) and kcps > 0, (preset, name, kcps)
print("bench smoke report OK:", {n: round(m, 1) for n, m in r["timing"]["mips"].items()},
      {p: e["cpi_milli"] for p, e in cm.items()},
      {p: round(k, 1) for p, k in rates.items()})
EOF

cargo test -q --test golden_bench

# The same 12-job smoke as step 3, run twice; both must halt everywhere
# and agree byte for byte once the timing section is dropped.
for f in "$trace_a" "$trace_b"; do
    timeout 600 target/release/campaign \
        --workloads mcf,libquantum \
        --configs small-nh,small-yqh \
        --torture-seeds 0..4 \
        --workers 4 \
        --out "$f"
done

python3 - "$trace_a" "$trace_b" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
s = a["summary"]
assert s["total"] == 12 and s["halted"] == 12, s
for r in (a, b):
    del r["timing"]
assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), \
    "campaign bodies differ between identical runs"
print("repeated campaign OK:", s)
EOF

echo "== tier-1: sampling smoke (checkpoint farm -> weighted CPI) =="
sample_a="$(mktemp /tmp/sample-smoke-a.XXXXXX.json)"
sample_b="$(mktemp /tmp/sample-smoke-b.XXXXXX.json)"
sample_step="$(mktemp /tmp/sample-smoke-step.XXXXXX.json)"
ckpt_dir="$(mktemp -d /tmp/sample-ckpts.XXXXXX)"
ckpt_step_dir="$(mktemp -d /tmp/sample-ckpts-step.XXXXXX)"
trap 'rm -f "$report" "$perf_report_json" "$perf_snapshot" "$triage_report" "$life_a" "$life_b" "$fuzz_a" "$fuzz_b" "$fuzz_bug" "$mp_a" "$mp_b" "$mp_race" "$bench_json" "$trace_a" "$trace_b" "$sample_a" "$sample_b" "$sample_step"; rm -rf "$bundle_dir" "$fuzz_bundles" "$mp_bundles" "$ckpt_dir" "$ckpt_step_dir"' EXIT
# Two identical farms sharing one checkpoint directory: the first
# profiles and materializes the blobs, the second must answer from the
# cache, and both deterministic bodies must agree byte for byte.
for f in "$sample_a" "$sample_b"; do
    timeout 600 target/release/campaign \
        --sample \
        --workloads sjeng \
        --configs small-nh,small-yqh \
        --interval 5000 \
        --max-checkpoints 3 \
        --checkpoint-dir "$ckpt_dir" \
        --workers 3 \
        --out "$f"
done

# The same farm profiled by single-stepping (`dromajo-like` runs the
# trait-default `run_blocks`) into its own directory, so it cannot
# answer from the `nemu-trace` blobs.
timeout 600 target/release/campaign \
    --sample \
    --workloads sjeng \
    --configs small-nh,small-yqh \
    --interval 5000 \
    --max-checkpoints 3 \
    --checkpoint-dir "$ckpt_step_dir" \
    --ref dromajo-like \
    --workers 3 \
    --out "$sample_step"

blobs=$(ls "$ckpt_dir"/*.ckpt 2>/dev/null | wc -l)
if [ "$blobs" -lt 2 ]; then
    echo "sampling smoke: expected >= 2 checkpoint blobs in $ckpt_dir, got $blobs" >&2
    exit 1
fi

python3 - "$sample_a" "$sample_b" "$sample_step" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
step = json.load(open(sys.argv[3]))
assert a["schema_version"] == 6, a["schema_version"]
sampling = a["sampling"]
assert len(sampling) == 2, f"one summary per config cell: {len(sampling)}"
for sm in sampling:
    assert sm["workload"] == "kernel:sjeng" and sm["ref_model"] == "nemu-trace", sm
    assert sm["checkpoints"] >= 2 and sm["aggregated"] >= 2, sm
    assert 0 < sm["weighted_cpi_milli"] < 50_000, sm
    assert sum(p["members"] for p in sm["phases"]) <= sm["total_intervals"], sm
# Every measured window obeys the top-down identity exactly.
sampled_jobs = [j for j in a["jobs"] if j.get("sample")]
assert sampled_jobs, "no sample records in the report"
for j in sampled_jobs:
    s = j["sample"]
    if s["window_cycles"] == 0:
        continue
    stack = sum(s["cpi_stack"].values())
    width = j["perf"]["commit_width"]
    assert stack == s["window_cycles"] * width, \
        f"job {j['index']}: CPI-stack sum {stack} != {s['window_cycles']} x {width}"
for r in (a, b):
    del r["timing"]
assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), \
    "sampled campaign bodies differ between identical runs (cache round-trip)"
# Block-granular profiling (nemu-trace override) and the single-stepping
# trait default must select and measure the very same checkpoints.
assert [sm["ref_model"] for sm in step["sampling"]] == ["dromajo-like"] * 2, step["sampling"]
del step["timing"]
for r in (a, step):
    for sm in r["sampling"]:
        sm["ref_model"] = None
assert json.dumps(a, sort_keys=True) == json.dumps(step, sort_keys=True), \
    "sampled bodies differ between nemu-trace and dromajo-like profiling"
print("sampling smoke OK:",
      {f"{sm['config']}": sm["weighted_cpi_milli"] for sm in sampling})
EOF
target/release/perf_report "$sample_a" > /dev/null

echo "== tier-1 gate passed =="
