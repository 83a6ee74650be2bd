//! Determinism regression suite: the paper-reproduction numbers must be a
//! pure function of the configuration — identical across repeat runs,
//! across worker counts, and with the scheduler's self-resume fast path
//! on or off (the fast path only short-circuits token passes whose
//! outcome is already forced, so only wall clock may change).

use viampi_bench::json::to_string_pretty;
use viampi_bench::runner;
use viampi_core::{ConnMode, Device, RunReport, Universe, WaitPolicy};
use viampi_npb::{cg, llc, Class};
use viampi_sim::SimTime;

/// The virtual-time fingerprint of a run: everything in the outcome that
/// the experiments derive numbers from.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    end_time: SimTime,
    events: u64,
    finishes: Vec<SimTime>,
    result_bits: Vec<u64>,
}

fn fingerprint(report: &RunReport<Option<f64>>) -> Fingerprint {
    Fingerprint {
        end_time: report.end_time,
        events: report.events,
        finishes: report.ranks.iter().map(|r| r.finish).collect(),
        result_bits: report
            .results
            .iter()
            .map(|r| r.unwrap_or(f64::NAN).to_bits())
            .collect(),
    }
}

fn barrier_run(np: usize) -> RunReport<Option<f64>> {
    // The fig4 configuration at its largest cLAN point.
    Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| llc::barrier_latency(mpi, 300))
        .unwrap()
}

fn npb_run() -> RunReport<Option<f64>> {
    // One NPB kernel (CG class S), reduced to the same result shape.
    Universe::new(8, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            let r = cg::run(mpi, Class::S);
            Some(if r.verified { r.time_secs } else { f64::NAN })
        })
        .unwrap()
}

#[test]
fn barrier_outcome_is_bit_identical_across_repeats() {
    let a = fingerprint(&barrier_run(32));
    let b = fingerprint(&barrier_run(32));
    assert_eq!(a, b, "repeat fig4 run must be bit-identical");
}

#[test]
fn npb_outcome_is_bit_identical_across_repeats() {
    let a = fingerprint(&npb_run());
    let b = fingerprint(&npb_run());
    assert_eq!(a, b, "repeat CG run must be bit-identical");
}

#[test]
fn fig4_json_is_identical_under_jobs_1_and_n() {
    // The full fig4 experiment at --jobs 1 and --jobs 4 must produce the
    // same points in the same order, down to the serialized bytes.
    runner::set_jobs(1);
    let (_, serial) = viampi_bench::experiments::fig4();
    runner::set_jobs(4);
    let (_, parallel) = viampi_bench::experiments::fig4();
    runner::set_jobs(0);
    assert_eq!(
        to_string_pretty(&serial),
        to_string_pretty(&parallel),
        "fig4 JSON must not depend on the worker count"
    );
}

#[test]
fn npb_point_is_identical_under_jobs_1_and_n() {
    let instances = [(viampi_bench::experiments::Prog::Cg, Class::S, 8)];
    runner::set_jobs(1);
    let (_, serial) = viampi_bench::experiments::npb_figure("det_cg", Device::Clan, &instances);
    runner::set_jobs(4);
    let (_, parallel) = viampi_bench::experiments::npb_figure("det_cg", Device::Clan, &instances);
    runner::set_jobs(0);
    assert_eq!(
        to_string_pretty(&serial),
        to_string_pretty(&parallel),
        "NPB JSON must not depend on the worker count"
    );
    // Clean up the scratch record the two npb_figure calls wrote.
    let _ = std::fs::remove_file(viampi_bench::report::results_dir().join("det_cg.json"));
}

fn pooled_ring_run(np: usize) -> RunReport<Option<f64>> {
    // Eager + rendezvous neighbor exchange: every payload rides the pooled
    // data plane (frame alloc, single staging copy, by-reference delivery,
    // recycle on drop), with sizes crossing several pool size classes and
    // one rendezvous transfer (> eager threshold).
    Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        .run(|mpi| {
            let np = mpi.size();
            let me = mpi.rank();
            let right = (me + 1) % np;
            let left = (me + np - 1) % np;
            let mut acc = 0.0f64;
            for &sz in &[1usize, 64, 256, 1500, 4000, 6000] {
                let sbuf = vec![(me as u8) ^ (sz as u8); sz];
                let (data, status) = mpi.sendrecv(&sbuf, right, 7, Some(left), Some(7));
                assert_eq!(data.len(), sz);
                assert_eq!(status.source, left);
                assert!(data.iter().all(|&b| b == (left as u8) ^ (sz as u8)));
                acc += data.iter().map(|&b| b as f64).sum::<f64>();
            }
            Some(acc)
        })
        .unwrap()
}

#[test]
fn pooled_exchange_is_bit_identical_across_repeats() {
    let a = pooled_ring_run(8);
    let b = pooled_ring_run(8);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "repeat pooled-path run must be bit-identical"
    );
    let ra = a.metrics.render();
    assert_eq!(ra, b.metrics.render(), "pool/wheel counters must replay");
    for name in ["nic.pool.hits", "nic.pool.recycled", "sim.wheel.push_l0"] {
        assert!(ra.contains(name), "snapshot is missing {name}:\n{ra}");
    }
}

#[test]
fn pooled_exchange_is_identical_under_jobs_1_and_n() {
    let nps = vec![2usize, 4, 8];
    runner::set_jobs(1);
    let serial: Vec<String> =
        runner::par_map(nps.clone(), |np| pooled_ring_run(np).metrics.render());
    runner::set_jobs(4);
    let parallel: Vec<String> = runner::par_map(nps, |np| pooled_ring_run(np).metrics.render());
    runner::set_jobs(0);
    assert_eq!(
        serial, parallel,
        "pooled-path metrics must not depend on the worker count"
    );
}

#[test]
fn fault_injected_outcome_is_bit_identical_across_repeats() {
    // Fault injection must not break replayability: the injector draws
    // from its own seeded stream, so the same seed gives the same drops,
    // duplications, delays and retries — and therefore the same virtual
    // times, event counts and counters, down to the serialized bytes.
    // Under VIAMPI_NO_FASTPATH=1 the same constants pin the engine path
    // (see `outcome_matches_with_fast_path_disabled_if_env_set`).
    for seed in [3u64, 8, 21] {
        let a = viampi_bench::simcheck::run_seed(seed, viampi_bench::simcheck::FaultKind::Heavy);
        let b = viampi_bench::simcheck::run_seed(seed, viampi_bench::simcheck::FaultKind::Heavy);
        assert!(a.violations.is_empty(), "seed {seed}: {:?}", a.violations);
        assert_eq!(
            to_string_pretty(&a),
            to_string_pretty(&b),
            "seed {seed}: fault-injected replay diverged"
        );
    }
}

#[test]
fn simcheck_batch_is_identical_under_jobs_1_and_n() {
    // A fault-injected simcheck batch fans out over the worker pool; the
    // outcomes and the summary must not depend on the worker count.
    runner::set_jobs(1);
    let (serial_outcomes, serial_summary) =
        viampi_bench::simcheck::run_seeds(0, 16, viampi_bench::simcheck::FaultKind::Light);
    runner::set_jobs(4);
    let (parallel_outcomes, parallel_summary) =
        viampi_bench::simcheck::run_seeds(0, 16, viampi_bench::simcheck::FaultKind::Light);
    runner::set_jobs(0);
    assert_eq!(
        to_string_pretty(&serial_summary),
        to_string_pretty(&parallel_summary),
        "simcheck summary must not depend on the worker count"
    );
    for (s, p) in serial_outcomes.iter().zip(&parallel_outcomes) {
        assert_eq!(
            to_string_pretty(s),
            to_string_pretty(p),
            "seed {}: outcome differs between --jobs 1 and --jobs 4",
            s.seed
        );
    }
}

#[test]
fn metrics_snapshot_is_byte_identical_across_repeats() {
    // The cross-layer metrics snapshot is part of the run outcome, so it
    // obeys the same contract as the virtual-time numbers: its rendered
    // form must be byte-identical across repeat runs, and it must carry
    // entries from every publishing layer.
    let a = barrier_run(8).metrics.render();
    let b = barrier_run(8).metrics.render();
    assert_eq!(a, b, "repeat runs must render identical metrics");
    for name in [
        "sim.events",
        "sim.handoffs",
        "mpi.collectives",
        "mpi.sends",
        "nic.msgs_tx",
        "nic.conns_established",
        "fault.conn_dropped",
    ] {
        assert!(a.contains(name), "snapshot is missing {name}:\n{a}");
    }
}

#[test]
fn metrics_snapshot_is_identical_under_jobs_1_and_n() {
    // Runs fanned out over the worker pool must produce the same metrics
    // as the serial loop, in the same order, down to the rendered bytes.
    let nps = vec![4usize, 8, 12, 16];
    runner::set_jobs(1);
    let serial: Vec<String> = runner::par_map(nps.clone(), |np| barrier_run(np).metrics.render());
    runner::set_jobs(4);
    let parallel: Vec<String> = runner::par_map(nps, |np| barrier_run(np).metrics.render());
    runner::set_jobs(0);
    assert_eq!(
        serial, parallel,
        "metrics must not depend on the worker count"
    );
}

// ---------------------------------------------------------------------------
// Campaign engine: shrinking, resume determinism, pinned summary metrics.
// ---------------------------------------------------------------------------

use std::path::{Path, PathBuf};
use viampi_bench::campaign::{run_campaign, CampaignConfig, CampaignState};
use viampi_bench::simcheck::{key, run_key, shrink_key, Axis, FaultKind};

/// Fresh scratch directory under the system temp dir.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("viampi_campaign_{}_{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write a small-geometry campaign template (64 roots per batch, 8 keys
/// per shard) so the test walks root *and* child rounds in a few seconds.
fn small_state(dir: &Path) -> PathBuf {
    let mut st = CampaignState::new(FaultKind::Heavy, 0);
    st.batch_roots = 64;
    st.shard_size = 8;
    st.round_keys = (0..64).collect();
    let path = dir.join("state.json");
    st.checkpoint(&path).unwrap();
    path
}

fn campaign_cfg(dir: &Path, budget: u64) -> CampaignConfig {
    CampaignConfig {
        state_path: dir.join("state.json"),
        kind: FaultKind::Heavy,
        seeds_budget: Some(budget),
        timebox: None,
        corpus_path: Some(dir.join("corpus.seeds")),
    }
}

/// Run a campaign through `budget_steps` successive invocations (each one
/// resumes the previous state file) and return the final state-file and
/// corpus-file bytes.
fn campaign_bytes(label: &str, budget_steps: &[u64], jobs: usize) -> (String, Option<Vec<u8>>) {
    let dir = scratch_dir(label);
    small_state(&dir);
    runner::set_jobs(jobs);
    for &budget in budget_steps {
        run_campaign(&campaign_cfg(&dir, budget)).unwrap();
    }
    runner::set_jobs(0);
    let state = std::fs::read_to_string(dir.join("state.json")).unwrap();
    let corpus = std::fs::read(dir.join("corpus.seeds")).ok();
    let _ = std::fs::remove_dir_all(&dir);
    (state, corpus)
}

#[test]
fn shrinker_minimum_still_fails_and_is_deterministic() {
    // Start from a large-np mutated key and "fail" whenever the scenario
    // keeps np >= 8 — the shrinker must walk the ladder down to the
    // smallest still-failing scenario, identically on every run.
    let start = key::mutated(Axis::NpLarge, 7, 1234);
    let mut fails = |k: u64| run_key(k, FaultKind::None).np >= 8;
    assert!(fails(start), "sanity: the starting key must fail");
    let (min_a, steps_a) = shrink_key(start, &mut fails);
    let (min_b, steps_b) = shrink_key(start, &mut fails);
    assert_eq!((min_a, steps_a), (min_b, steps_b), "shrinking must replay");
    assert!(steps_a > 0, "a large-np start must shrink at least once");
    let min_run = run_key(min_a, FaultKind::None);
    assert!(min_run.np >= 8, "the minimized key must still fail");
    assert_eq!(
        min_run.np, 8,
        "np ladder must reach the smallest failing band"
    );
    assert!(
        run_key(start, FaultKind::None).np >= min_run.np,
        "shrinking must never grow the scenario"
    );
}

#[test]
fn shrinker_keeps_the_original_when_nothing_smaller_fails() {
    // A predicate that only the original key satisfies: no candidate can
    // replace it, and the result replays the original exactly.
    let start = key::mutated(Axis::Storm, 3, 99);
    let mut only_start = |k: u64| k == start;
    let (min, _steps) = shrink_key(start, &mut only_start);
    assert_eq!(min, start);
}

#[test]
fn campaign_resume_matches_one_shot_at_any_jobs() {
    // The tentpole contract: a campaign stopped at a budget boundary and
    // resumed to a larger budget must leave byte-identical state and
    // corpus files to a one-shot run at the larger budget — at any worker
    // count, and identically across worker counts.
    let (one_shot_1, corpus_os_1) = campaign_bytes("oneshot_j1", &[150], 1);
    let (resumed_1, corpus_re_1) = campaign_bytes("resumed_j1", &[70, 150], 1);
    assert_eq!(
        one_shot_1, resumed_1,
        "resume must not change the state bytes"
    );
    assert_eq!(
        corpus_os_1, corpus_re_1,
        "resume must not change the corpus"
    );
    let (one_shot_4, _) = campaign_bytes("oneshot_j4", &[150], 4);
    let (resumed_4, corpus_re_4) = campaign_bytes("resumed_j4", &[70, 150], 4);
    assert_eq!(
        one_shot_4, resumed_4,
        "resume must not change the state bytes"
    );
    assert_eq!(
        one_shot_1, one_shot_4,
        "campaign state must not depend on the worker count"
    );
    assert_eq!(
        corpus_os_1, corpus_re_4,
        "corpus must not depend on the worker count"
    );
}

#[test]
fn campaign_summary_metrics_are_pinned() {
    // The summary publishes its counters through the `metric_defs!`
    // registry: the dotted names are part of the interface and must not
    // drift, and the values must equal the cumulative state counters.
    let dir = scratch_dir("metrics");
    small_state(&dir);
    runner::set_jobs(1);
    let report = run_campaign(&campaign_cfg(&dir, 40)).unwrap();
    runner::set_jobs(0);
    let names: Vec<&str> = report
        .summary
        .metrics
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(
        names,
        [
            "sim.campaign.seeds_run",
            "sim.campaign.coverage_signatures",
            "sim.campaign.derived_seeds",
            "sim.campaign.shrink_steps",
            "sim.campaign.violations",
        ]
    );
    let value = |n: &str| {
        report
            .summary
            .metrics
            .iter()
            .find(|m| m.name.ends_with(n))
            .unwrap()
            .value
    };
    assert_eq!(value("seeds_run"), report.state.seeds_run);
    assert_eq!(
        value("coverage_signatures"),
        report.state.coverage.len() as u64
    );
    assert_eq!(value("derived_seeds"), report.state.derived_seeds);
    assert_eq!(value("violations"), report.state.violations);
    assert!(report.state.seeds_run >= 40, "the budget was reached");
    let json = to_string_pretty(&report.summary);
    assert!(
        json.contains("\"sim.campaign.seeds_run\""),
        "summary JSON embeds the names"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_campaign_resumes_to_one_shot_bytes() {
    // Kill a real campaign process mid-flight (SIGKILL, no cleanup), then
    // resume its checkpoint to a fixed budget: state and corpus must be
    // byte-identical to a never-killed run at the same budget.
    let dir = scratch_dir("killed");
    let state_path = dir.join("state.json");
    let corpus_path = dir.join("corpus.seeds");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .args([
            "--campaign",
            state_path.to_str().unwrap(),
            "--seeds",
            "100000",
            "--jobs",
            "2",
            "--corpus",
            corpus_path.to_str().unwrap(),
            "--summary-out",
            dir.join("summary.json").to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    // Wait for at least two committed shards, then kill without warning.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        if let Ok(text) = std::fs::read_to_string(&state_path) {
            if let Ok(st) = CampaignState::from_json(&text) {
                if st.seeds_run >= 64 {
                    break;
                }
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "campaign process made no progress"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.kill().unwrap();
    let _ = child.wait();
    let killed_at = CampaignState::from_json(&std::fs::read_to_string(&state_path).unwrap())
        .unwrap()
        .seeds_run;
    if killed_at >= 300 {
        // The process outran the resume budget before the kill landed; the
        // prefix property can't be checked against a 300-seed one-shot.
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    // Resume the killed checkpoint to 300 seeds...
    runner::set_jobs(1);
    run_campaign(&CampaignConfig {
        state_path: state_path.clone(),
        kind: FaultKind::Heavy,
        seeds_budget: Some(300),
        timebox: None,
        corpus_path: Some(corpus_path.clone()),
    })
    .unwrap();
    // ...and run a never-killed 300-seed campaign from scratch.
    let fresh = scratch_dir("fresh");
    run_campaign(&CampaignConfig {
        state_path: fresh.join("state.json"),
        kind: FaultKind::Heavy,
        seeds_budget: Some(300),
        timebox: None,
        corpus_path: Some(fresh.join("corpus.seeds")),
    })
    .unwrap();
    runner::set_jobs(0);
    assert_eq!(
        std::fs::read_to_string(&state_path).unwrap(),
        std::fs::read_to_string(fresh.join("state.json")).unwrap(),
        "killed-and-resumed state must match the one-shot bytes"
    );
    assert_eq!(
        std::fs::read(&corpus_path).ok(),
        std::fs::read(fresh.join("corpus.seeds")).ok(),
        "killed-and-resumed corpus must match the one-shot bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

// ---------------------------------------------------------------------------
// Engine modes: compute coalescing.
// ---------------------------------------------------------------------------

/// The fig4 barrier run under an explicit engine-mode configuration
/// (overrides beat the `VIAMPI_NO_COALESCE` environment, so these tests
/// are race-free under any test-harness parallelism).
fn barrier_run_modes(np: usize, coalesce: Option<bool>) -> RunReport<Option<f64>> {
    let mut uni = Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().coalesce = coalesce;
    uni.run(|mpi| llc::barrier_latency(mpi, 300)).unwrap()
}

/// The CG class-S run under an explicit engine-mode configuration.
fn npb_run_modes(coalesce: Option<bool>) -> RunReport<Option<f64>> {
    let mut uni = Universe::new(8, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().coalesce = coalesce;
    uni.run(|mpi| {
        let r = cg::run(mpi, Class::S);
        Some(if r.verified { r.time_secs } else { f64::NAN })
    })
    .unwrap()
}

#[test]
fn coalescing_on_and_off_match_for_fig4_and_cg() {
    // Lazy (deferred-clock) and eager compute charging are two encodings
    // of the same virtual-time history.
    assert_eq!(
        fingerprint(&barrier_run_modes(16, Some(true))),
        fingerprint(&barrier_run_modes(16, Some(false))),
        "fig4 must not depend on compute coalescing"
    );
    assert_eq!(
        fingerprint(&npb_run_modes(Some(true))),
        fingerprint(&npb_run_modes(Some(false))),
        "CG must not depend on compute coalescing"
    );
}

#[test]
fn engine_mode_counter_names_are_pinned() {
    // The coalescing/direct-handoff observability counters are part of
    // the metrics interface: the dotted names must not drift.
    let r = barrier_run_modes(8, None);
    let rendered = r.metrics.render();
    for name in [
        "sim.coalesce.advances",
        "sim.coalesce.flushes",
        "sim.direct.handoffs",
        "sim.direct.self_resumes",
    ] {
        assert!(
            rendered.contains(name),
            "snapshot is missing {name}:\n{rendered}"
        );
    }
    let repeat = barrier_run_modes(8, None).metrics.render();
    assert_eq!(
        rendered, repeat,
        "mode counters must replay bit-identically"
    );
}

// ---------------------------------------------------------------------------
// Engine backends: the state-machine (fiber) scheduler vs OS threads.
// ---------------------------------------------------------------------------

use viampi_sim::Backend;

/// The fig4 barrier run with the engine backend (and optionally other
/// engine modes) pinned through the config — overrides beat the
/// `VIAMPI_ENGINE` environment, so these tests are race-free under any
/// test-harness parallelism.
fn barrier_run_backend(
    np: usize,
    backend: Backend,
    coalesce: Option<bool>,
) -> RunReport<Option<f64>> {
    let mut uni = Universe::new(np, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().engine_backend = Some(backend);
    uni.config_mut().coalesce = coalesce;
    uni.run(|mpi| llc::barrier_latency(mpi, 300)).unwrap()
}

/// The CG class-S run with the engine backend pinned.
fn npb_run_backend(backend: Backend) -> RunReport<Option<f64>> {
    let mut uni = Universe::new(8, Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().engine_backend = Some(backend);
    uni.run(|mpi| {
        let r = cg::run(mpi, Class::S);
        Some(if r.verified { r.time_secs } else { f64::NAN })
    })
    .unwrap()
}

#[test]
fn sm_backend_repeat_runs_are_bit_identical() {
    let a = barrier_run_backend(16, Backend::Sm, None);
    let b = barrier_run_backend(16, Backend::Sm, None);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "repeat sm runs must be bit-identical"
    );
    assert_eq!(
        a.metrics.render(),
        b.metrics.render(),
        "sm metrics must replay bit-identically"
    );
}

#[test]
fn sm_backend_matches_threads_for_fig4_and_cg() {
    // The substrate swap must be invisible in every published number:
    // end times, event counts, per-rank finishes, result bits.
    assert_eq!(
        fingerprint(&barrier_run_backend(16, Backend::Sm, None)),
        fingerprint(&barrier_run_backend(16, Backend::Threads, None)),
        "fig4 must not depend on the engine backend"
    );
    assert_eq!(
        fingerprint(&npb_run_backend(Backend::Sm)),
        fingerprint(&npb_run_backend(Backend::Threads)),
        "CG must not depend on the engine backend"
    );
}

#[test]
fn sm_backend_matches_across_engine_modes() {
    // sm composes with the other engine modes: coalescing off must leave
    // the outcome bit-identical to the plain sm run.
    let base = fingerprint(&barrier_run_backend(16, Backend::Sm, None));
    assert_eq!(
        fingerprint(&barrier_run_backend(16, Backend::Sm, Some(false))),
        base,
        "sm must not depend on compute coalescing"
    );
}

#[test]
fn sm_counter_names_are_pinned() {
    // The sm observability counters are part of the metrics interface:
    // the dotted names must not drift, an sm run must actually poll and
    // park fibers, and a threads run must report them at zero.
    let r = barrier_run_backend(8, Backend::Sm, None);
    let rendered = r.metrics.render();
    for name in [
        "sim.sm.polls",
        "sim.sm.parks",
        "sim.sm.resumes",
        "sim.sm.rank_mem_peak",
    ] {
        assert!(
            rendered.contains(name),
            "snapshot is missing {name}:\n{rendered}"
        );
    }
    assert!(
        r.metrics.get("sim.sm.parks").unwrap() > 0,
        "sm run must park"
    );
    assert!(
        r.metrics.get("sim.sm.rank_mem_peak").unwrap() > 0,
        "sm run must sample fiber stack depth"
    );
    let t = barrier_run_backend(8, Backend::Threads, None);
    assert_eq!(
        t.metrics.get("sim.sm.polls"),
        Some(0),
        "threads run must not count sm polls"
    );
}

#[test]
fn outcome_matches_with_fast_path_disabled_if_env_set() {
    // When the whole test process runs under VIAMPI_NO_FASTPATH=1 this
    // checks the engine path; otherwise it checks the fast path. Either
    // way the committed constants pin the virtual-time results so a
    // regression in *either* path shows up as a diff against these.
    let report = barrier_run(8);
    let a = fingerprint(&report);
    let b = fingerprint(&barrier_run(8));
    assert_eq!(a, b);
    assert!(
        report.end_time > SimTime::ZERO && report.events > 0,
        "sanity: the run did real work"
    );
}

// ---------------------------------------------------------------------------
// Multi-VI endpoints: stripe channels and the MPI+threads producer model.
// ---------------------------------------------------------------------------

/// A threads-per-rank pair exchange with `vis_per_peer` stripe VIs per
/// pair, on BVIA (whose per-VI polling + lock-convoy charges make the
/// endpoint model observable in virtual time). Engine backend optionally
/// pinned — overrides beat the environment, so these tests are race-free
/// under any harness parallelism.
fn multivi_run(
    vis_per_peer: usize,
    threads: usize,
    backend: Option<Backend>,
) -> RunReport<Option<f64>> {
    let mut uni = Universe::new(2, Device::Berkeley, ConnMode::OnDemand, WaitPolicy::Polling);
    uni.config_mut().vis_per_peer = vis_per_peer;
    uni.config_mut().engine_backend = backend;
    uni.run(move |mpi| {
        let peer = 1 - mpi.rank();
        viampi_npb::patterns::threaded_pair_exchange(mpi, peer, threads, 24, 256);
        Some(mpi.now().as_secs_f64())
    })
    .unwrap()
}

#[test]
fn multivi_exchange_is_bit_identical_across_repeats() {
    for (vis, threads) in [(1usize, 4usize), (4, 4)] {
        let a = multivi_run(vis, threads, None);
        let b = multivi_run(vis, threads, None);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "repeat multi-VI run (S={vis}, T={threads}) must be bit-identical"
        );
        assert_eq!(
            a.metrics.render(),
            b.metrics.render(),
            "multi-VI metrics (S={vis}, T={threads}) must replay bit-identically"
        );
    }
}

#[test]
fn multivi_exchange_matches_across_backends() {
    // The endpoint model is engine-independent: threads and sm must agree
    // bit-for-bit at both the default and a striped configuration.
    for (vis, threads) in [(1usize, 4usize), (4, 4)] {
        assert_eq!(
            fingerprint(&multivi_run(vis, threads, Some(Backend::Threads))),
            fingerprint(&multivi_run(vis, threads, Some(Backend::Sm))),
            "multi-VI run (S={vis}, T={threads}) must not depend on the backend"
        );
    }
}

#[test]
fn multivi_fig9_json_is_identical_under_jobs_1_and_n() {
    // The full fig9 grid at --jobs 1 and --jobs 4 must serialize to the
    // same bytes (and, since it regenerates the committed record in
    // place, to the committed bytes — the figure-identity CI job diffs).
    runner::set_jobs(1);
    let (_, serial) = viampi_bench::experiments::fig9();
    runner::set_jobs(4);
    let (_, parallel) = viampi_bench::experiments::fig9();
    runner::set_jobs(0);
    assert_eq!(
        to_string_pretty(&serial),
        to_string_pretty(&parallel),
        "fig9 JSON must not depend on the worker count"
    );
}

#[test]
fn multivi_endpoint_counter_names_are_pinned() {
    // The endpoint/convoy observability counters are part of the metrics
    // interface: dotted names must not drift, and a striped multi-producer
    // run must actually exercise stripe setup, striped sends and the
    // shared-VI convoy accounting.
    let r = multivi_run(4, 4, None);
    let rendered = r.metrics.render();
    for name in [
        "mpi.endpoint.stripe_setups",
        "mpi.endpoint.striped_sends",
        "mpi.endpoint.vis_per_peer",
        "mpi.endpoint.threads_max",
        "nic.vi.producer_switches",
        "nic.vi.convoy_ns",
        "nic.vi.multi_producer_vis",
    ] {
        assert!(
            rendered.contains(name),
            "snapshot is missing {name}:\n{rendered}"
        );
    }
    assert!(
        r.metrics.get("mpi.endpoint.stripe_setups").unwrap() > 0,
        "striped run must provision non-zero stripes"
    );
    assert!(
        r.metrics.get("mpi.endpoint.striped_sends").unwrap() > 0,
        "striped run must send on non-zero stripes"
    );
    assert_eq!(r.metrics.get("mpi.endpoint.vis_per_peer"), Some(4));
    // A shared-VI multi-producer run pays convoys; the default does not.
    let shared = multivi_run(1, 4, None);
    assert!(
        shared.metrics.get("nic.vi.producer_switches").unwrap() > 0,
        "shared-VI multi-producer run must count producer switches"
    );
    let default = multivi_run(1, 1, None);
    assert_eq!(default.metrics.get("nic.vi.producer_switches"), Some(0));
    assert_eq!(default.metrics.get("mpi.endpoint.striped_sends"), Some(0));
}
