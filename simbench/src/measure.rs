//! Rounds of a workload's simulation set on the worker pool, the
//! correctness verdict over them, and the metrics derived from them.

use crate::calib::Probe;
use crate::recorder::{is_npb, Timeline};
use crate::refs::{render_output, References};
use crate::stats::{central_mean, median, tail, Tail};
use crate::workloads::{numerics_baseline_s, Item, Kind, Output};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::thread::ThreadId;
use std::time::Instant;
use viampi_bench::runner;
use viampi_sim::{MetricsSnapshot, SplitMix64};

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_p50_s", "s"),
    ("sim_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // sim: engine, fibers, timing wheel.
    ("sim.events", "count"),
    ("sim.sm.resumes", "count"),
    ("sim.ready_peak", "count"),
    ("sim.queue_peak", "count"),
    ("sim.sm.rank_mem_peak", "bytes"),
    ("sim.coalesce.flush_ratio", "ratio"),
    ("sim.ns_per_event", "ns"),
    // via: fabric, NIC, wire-buffer pool.
    ("nic.msgs_tx", "count"),
    ("nic.bytes_tx", "bytes"),
    ("nic.conn_requests", "count"),
    ("nic.conns_established", "count"),
    ("nic.pinned_peak", "bytes"),
    ("nic.pool.hit_ratio", "ratio"),
    ("via.setup_us_per_conn", "us"),
    // core: MPI device, matching, credits, collectives, universe.
    ("mpi.sends", "count"),
    ("mpi.recvs", "count"),
    ("mpi.eager_sent", "count"),
    ("mpi.rendezvous_sent", "count"),
    ("mpi.credit_msgs", "count"),
    ("mpi.fifo_deferred_sends", "count"),
    ("mpi.unexpected_ratio", "ratio"),
    ("core.setup_s", "s"),
    ("core.body_s", "s"),
    ("core.teardown_s", "s"),
    ("core.call_s", "s"),
    ("call.us_p50", "us"),
    ("call.us_tail", "us"),
    // npb: kernels.
    ("npb.call_s", "s"),
    ("npb.numerics_s", "s"),
    ("npb.share", "ratio"),
    ("app.body_s", "s"),
    // bench.runner: fan-out.
    ("runner.busy_ratio", "ratio"),
    ("runner.straggler_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Counters read straight from `RunReport::metrics`, merged over a round.
const COUNTERS: &[&str] = &[
    "sim.events",
    "sim.sm.resumes",
    "sim.ready_peak",
    "sim.queue_peak",
    "sim.sm.rank_mem_peak",
    "nic.msgs_tx",
    "nic.bytes_tx",
    "nic.conn_requests",
    "nic.conns_established",
    "nic.pinned_peak",
    "mpi.sends",
    "mpi.recvs",
    "mpi.eager_sent",
    "mpi.rendezvous_sent",
    "mpi.credit_msgs",
    "mpi.fifo_deferred_sends",
];

/// One simulation of one round.
pub struct SimRun {
    /// Index into the workload's item list.
    pub item: usize,
    start_s: f64,
    end_s: f64,
    worker: ThreadId,
    /// Host phases (and calls, when traced).
    pub timeline: Timeline,
    /// Simulated output, or why there is none.
    pub output: Result<Output, String>,
    metrics: MetricsSnapshot,
}

/// One pass over a workload's whole simulation set.
pub struct Round {
    /// Host seconds from the first hand-out to the last result, less the
    /// time spent in host-speed probes.
    pub wall_s: f64,
    /// The host's slowness during the round (1.0 = the reference host,
    /// see [`Probe`]): the median of the probes taken in it. Every host time the round reports is divided
    /// by it, which expresses it in reference-host seconds.
    pub slowness: f64,
    /// The simulations, in hand-out order.
    pub runs: Vec<SimRun>,
}

impl Round {
    fn sum(&self, f: impl Fn(&SimRun) -> f64) -> f64 {
        self.runs.iter().map(f).fold(0.0, |a, x| a + x)
    }

    /// Host nanoseconds as reference-host seconds.
    fn ref_s(&self, ns: u64) -> f64 {
        secs(ns) / self.slowness
    }

    /// [`Round::wall_s`] in reference-host seconds.
    fn wall(&self) -> f64 {
        self.wall_s / self.slowness
    }

    fn sim_wall_s(&self) -> f64 {
        self.sum(|r| self.ref_s(r.timeline.span_ns))
    }

    fn setup_s(&self) -> f64 {
        self.sum(|r| self.ref_s(r.timeline.setup_ns))
    }

    /// Seconds the round waits after the first worker runs out of work.
    fn straggler_s(&self) -> f64 {
        let mut last: HashMap<ThreadId, f64> = HashMap::new();
        for r in &self.runs {
            let e = last.entry(r.worker).or_insert(0.0);
            *e = e.max(r.end_s);
        }
        let first_idle = last.values().copied().fold(f64::INFINITY, f64::min);
        if first_idle.is_finite() {
            (self.wall_s - first_idle).max(0.0) / self.slowness
        } else {
            0.0
        }
    }

    fn counters(&self) -> MetricsSnapshot {
        let mut agg = MetricsSnapshot::default();
        for r in &self.runs {
            agg.merge(&r.metrics);
        }
        agg
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The workload seed's effect on the engine: the default seed (0) keeps
/// the committed round-robin tie-break; any other seed explores another.
pub fn sched_seed(seed: u64) -> Option<u64> {
    (seed != 0).then_some(seed)
}

/// Hand-out order `k` of a fixed family: order 0 is the item order, order
/// `k > 0` a shuffle drawn from `k`. A run of `n` rounds hands out orders
/// `seed, seed + 1, ...` modulo `n`: the seed picks which round gets which
/// order, while every run of `n` rounds covers the same family.
pub fn order(items: usize, k: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..items).collect();
    if k != 0 {
        let mut rng = SplitMix64::new(k);
        for i in (1..items).rev() {
            v.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
    }
    v
}

/// Run simulation `i` once, turning a panic into a failed output.
fn run_one(items: &[Item], i: usize, seed: u64, traced: bool, start: Instant) -> SimRun {
    let start_s = start.elapsed().as_secs_f64();
    let (timeline, output, metrics) =
        catch_unwind(AssertUnwindSafe(|| items[i].run(sched_seed(seed), traced))).unwrap_or_else(
            |p| {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                (
                    Timeline::default(),
                    Err(format!("panic: {msg}")),
                    MetricsSnapshot::default(),
                )
            },
        );
    SimRun {
        item: i,
        start_s,
        end_s: start.elapsed().as_secs_f64(),
        worker: std::thread::current().id(),
        timeline,
        output,
        metrics,
    }
}

/// A timed round: every item once, one after another on this thread, with
/// a host-speed probe between simulations (at most one per
/// [`crate::calib`] gap). The probe's time is left out of the round's wall.
pub fn run_round(
    items: &[Item],
    order: Vec<usize>,
    seed: u64,
    traced: bool,
    probe: &mut Probe,
) -> Round {
    let first = probe.samples().len();
    let start = Instant::now();
    let mut probing = 0.0;
    let mut runs = Vec::with_capacity(order.len());
    for i in order {
        let t = Instant::now();
        probe.maybe_sample();
        probing += t.elapsed().as_secs_f64();
        runs.push(run_one(items, i, seed, traced, start));
    }
    let wall_s = start.elapsed().as_secs_f64() - probing;
    // The probe after the last simulation brackets the round.
    probe.sample();
    Round {
        wall_s,
        slowness: median(&probe.samples()[first..]),
        runs,
    }
}

/// An unprobed round as a closed loop over `workers` threads built on
/// `runner::par_map`: a worker takes the next simulation only when its
/// previous one has returned. Its host times are divided by `slowness`.
pub fn fan_out(
    items: &[Item],
    order: Vec<usize>,
    seed: u64,
    workers: usize,
    slowness: f64,
) -> Round {
    runner::set_jobs(workers);
    let start = Instant::now();
    let runs = runner::par_map(order, |i| run_one(items, i, seed, false, start));
    Round {
        wall_s: start.elapsed().as_secs_f64(),
        slowness,
        runs,
    }
}

/// The correctness gate's verdict over a run's rounds.
pub struct Verdict {
    /// Simulations run.
    pub attempted: u64,
    /// Simulations that erred, failed NPB verification, differed from the
    /// committed reference, or differed from their own first repeat.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
}

impl Verdict {
    /// Fold in the verdict over other rounds.
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }
}

/// Judge every simulation of `rounds`.
pub fn judge(items: &[Item], rounds: &[&Round], refs: &References, seed: u64) -> Verdict {
    let mut first: BTreeMap<usize, String> = BTreeMap::new();
    let mut v = Verdict {
        attempted: 0,
        failed: 0,
        reasons: Vec::new(),
    };
    for run in rounds.iter().flat_map(|r| &r.runs) {
        v.attempted += 1;
        let item = &items[run.item];
        let verdict = run
            .output
            .as_ref()
            .map_err(|e| format!("{}: {e}", item.name()))
            .and_then(|out| {
                refs.check(item, out, seed == 0)?;
                let text = render_output(out);
                match first.get(&run.item) {
                    Some(prev) if *prev != text => Err(format!(
                        "{}: output {text} differs from its first repeat {prev}",
                        item.name()
                    )),
                    Some(_) => Ok(()),
                    None => {
                        first.insert(run.item, text);
                        Ok(())
                    }
                }
            });
        if let Err(reason) = verdict {
            v.failed += 1;
            if v.reasons.len() < 5 {
                v.reasons.push(reason);
            }
        }
    }
    v
}

/// A metric as printed: name, value, unit, and an optional note.
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Human-readable qualifier (percentile, sample count, ...).
    pub note: String,
}

fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64, note: String) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"));
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// End-to-end metrics of untraced rounds, and a per-simulation summary.
pub fn end_to_end(items: &[Item], rounds: &[Round], rss_mb: f64) -> (Vec<Metric>, Vec<String>) {
    let m = |name, value, note| metric(END_TO_END, name, value, note);
    let walls: Vec<f64> = rounds.iter().map(Round::wall).collect();
    // Each simulation's sample is the median of its repeats over the
    // rounds. The set mixes a few sizes, so a percentile of the raw
    // samples sits on the edge of one size's cluster, i.e. on the fastest
    // or slowest repeat of one simulation; the per-simulation median keeps
    // the percentile's position and count but not that extreme.
    let per_item = |f: &dyn Fn(&Round, &SimRun) -> f64| -> Vec<f64> {
        (0..items.len())
            .map(|i| {
                let v: Vec<f64> = rounds
                    .iter()
                    .flat_map(|r| r.runs.iter().map(move |s| (r, s)))
                    .filter(|(_, s)| s.item == i)
                    .map(|(r, s)| f(r, s))
                    .collect();
                median(&v)
            })
            .collect()
    };
    let item_walls = per_item(&|r, s| r.ref_s(s.timeline.span_ns));
    let item_setups = per_item(&|r, s| r.ref_s(s.timeline.setup_ns));
    let sims: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.runs.iter().map(|s| item_walls[s.item]))
        .collect();
    let setups: Vec<f64> = rounds.iter().map(Round::setup_s).collect();
    let Tail { value, pct, n } = tail(&sims);
    let r = rounds.len();
    let metrics = vec![
        m("wall_s", median(&walls), format!("median of {r} rounds")),
        m(
            "sim_p50_s",
            central_mean(&sims),
            format!(
                "p40-p60 mean of {} simulations, each its median over {r} rounds",
                sims.len()
            ),
        ),
        m("sim_tail_s", value, format!("p{pct:.4} of {n} simulations")),
        m(
            "setup_s",
            median(&setups),
            format!("median over {r} rounds of the per-round sum"),
        ),
        m(
            "peak_rss_mb",
            rss_mb,
            "VmHWM after the serial reference pass".into(),
        ),
    ];
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let raw: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let slow: Vec<f64> = rounds.iter().map(|r| r.slowness).collect();
    let mut lines = vec![
        format!("  round walls (reference-host s): {}", fmt(&walls)),
        format!("  round walls (host s):           {}", fmt(&raw)),
        format!("  round host slowness:             {}", fmt(&slow)),
    ];
    for (i, item) in items.iter().enumerate() {
        lines.push(format!(
            "  sim {:<34} wall {:.4} s  setup {:.4} s",
            item.name(),
            item_walls[i],
            item_setups[i]
        ));
    }
    (metrics, lines)
}

/// Per-layer metrics from alternating untraced/traced rounds of the same
/// hand-out orders, and from one fan-out round on `workers` threads.
pub fn per_layer(
    items: &[Item],
    untraced: &[Round],
    traced: &[Round],
    fanout: &Round,
    workers: usize,
    probe: &mut Probe,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let m = |name, value, note: &str| metric(PER_LAYER, name, value, note.to_string());
    let mut out = Vec::new();
    let mut lines = Vec::new();
    let counters = untraced[0].counters();
    let get = |name: &str| counters.get(name);
    let ratio = |a: &str, b: &str| match (get(a), get(b)) {
        (Some(x), Some(y)) if y > 0 => Some(x as f64 / y as f64),
        _ => None,
    };
    // Absent counters are reported as absent and left out of the metrics.
    let mut push = |name: &'static str, v: Option<f64>, note: &str| match v {
        Some(v) => out.push(m(name, v, note)),
        None => lines.push(format!("  {name:<26} absent ({note})")),
    };
    for &name in COUNTERS {
        push(name, get(name).map(|v| v as f64), "first untraced round");
    }
    let med = |rounds: &[Round], f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let self_s = |r: &Round, pick: &dyn Fn(&str) -> bool| {
        r.sum(|s| {
            s.timeline.trace.as_ref().map_or(0.0, |t| {
                t.call_self_ns
                    .iter()
                    .filter(|(k, _)| pick(k))
                    .map(|(_, &ns)| r.ref_s(ns))
                    .fold(0.0, |a, x| a + x)
            })
        })
    };
    let body_self = med(traced, &|r| {
        r.sum(|s| {
            s.timeline
                .trace
                .as_ref()
                .map_or(0.0, |t| r.ref_s(t.body_self_ns))
        })
    });
    let (numerics, baselines) = numerics_s(items, probe)?;
    let traced_span = med(traced, &Round::sim_wall_s);
    let untraced_span = med(untraced, &Round::sim_wall_s);
    let setup_untraced = med(untraced, &Round::setup_s);
    push(
        "sim.coalesce.flush_ratio",
        ratio("sim.coalesce.flushes", "sim.coalesce.advances"),
        "flushes / advances",
    );
    push(
        "sim.ns_per_event",
        get("sim.events")
            .filter(|&e| e > 0)
            .map(|e| (traced_span - body_self - numerics) * 1e9 / e as f64),
        "traced sim wall minus body self time minus NPB numerics, per event",
    );
    push(
        "nic.pool.hit_ratio",
        match (get("nic.pool.hits"), get("nic.pool.misses")) {
            (Some(h), Some(mi)) if h + mi > 0 => Some(h as f64 / (h + mi) as f64),
            _ => None,
        },
        "hits / (hits + misses)",
    );
    push(
        "via.setup_us_per_conn",
        get("nic.conns_established")
            .filter(|&c| c > 0)
            .map(|c| setup_untraced * 1e6 / c as f64),
        "untraced setup phase / connections established",
    );
    push(
        "mpi.unexpected_ratio",
        ratio("mpi.unexpected_msgs", "mpi.recvs"),
        "unexpected / recvs",
    );
    push(
        "core.setup_s",
        Some(med(traced, &Round::setup_s)),
        "traced, run entry to last body entry",
    );
    push(
        "core.body_s",
        Some(med(traced, &|r| r.sum(|s| r.ref_s(s.timeline.body_ns)))),
        "traced body phase",
    );
    push(
        "core.teardown_s",
        Some(med(traced, &|r| r.sum(|s| r.ref_s(s.timeline.teardown_ns)))),
        "traced teardown",
    );
    push(
        "core.call_s",
        Some(med(traced, &|r| self_s(r, &|k| !is_npb(k)))),
        "self time in Mpi calls and finalize",
    );
    push(
        "npb.call_s",
        Some(med(traced, &|r| self_s(r, &is_npb))),
        "self time in viampi_npb calls",
    );
    push(
        "npb.numerics_s",
        Some(numerics),
        "1-rank baselines of the same kernels and classes",
    );
    push(
        "npb.share",
        (untraced_span > 0.0).then(|| numerics / untraced_span),
        "numerics / untraced sim wall",
    );
    push(
        "app.body_s",
        Some(body_self),
        "self time in benchmark-owned body code",
    );
    // Inclusive call latencies, all kinds together and per kind.
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in traced {
        for s in &r.runs {
            for c in s.timeline.trace.iter().flat_map(|t| &t.calls) {
                by_kind
                    .entry(c.kind)
                    .or_default()
                    .push(r.ref_s(c.end_ns - c.start_ns) * 1e6);
            }
        }
    }
    let all: Vec<f64> = by_kind.values().flatten().copied().collect();
    if !all.is_empty() {
        let t = tail(&all);
        push(
            "call.us_p50",
            Some(median(&all)),
            &format!("{} calls", all.len()),
        );
        push(
            "call.us_tail",
            Some(t.value),
            &format!("p{:.4} of {} calls", t.pct, t.n),
        );
    } else {
        push("call.us_p50", None, "no benchmark-issued calls");
        push("call.us_tail", None, "no benchmark-issued calls");
    }
    let mut kind_lines = Vec::new();
    for (kind, v) in &by_kind {
        let t = tail(v);
        kind_lines.push(format!(
            "  call[{kind}]: p50 {:.3} us, p{:.4} {:.3} us, {} calls",
            median(v),
            t.pct,
            t.value,
            t.n
        ));
    }
    push(
        "runner.busy_ratio",
        Some(fanout.sim_wall_s() / (workers as f64 * fanout.wall())),
        &format!("sim wall / ({workers} workers x wall), fan-out round"),
    );
    push(
        "runner.straggler_s",
        Some(fanout.straggler_s()),
        "wait after the first worker ran dry, fan-out round",
    );
    let tw = median(&traced.iter().map(Round::wall).collect::<Vec<_>>());
    let uw = median(&untraced.iter().map(Round::wall).collect::<Vec<_>>());
    push(
        "trace.overhead_ratio",
        Some(tw / uw - 1.0),
        &format!("traced {tw:.3} s vs untraced {uw:.3} s"),
    );
    lines.extend(kind_lines);
    lines.extend(baselines);
    // Report in declaration order.
    out.sort_by_key(|x| PER_LAYER.iter().position(|(n, _)| *n == x.name));
    Ok((out, lines))
}

/// Σ over the set's NAS simulations of their kernel's 1-rank baseline
/// (reference-host seconds, each divided by a probe taken just before
/// it), and one line per baseline.
fn numerics_s(items: &[Item], probe: &mut Probe) -> Result<(f64, Vec<String>), String> {
    let mut cache = BTreeMap::new();
    let mut total = 0.0;
    for item in items {
        if let Kind::Npb(prog, class) = item.kind {
            let key = (prog.name().to_uppercase(), class.name());
            if !cache.contains_key(&key) {
                let slowness = probe.sample();
                cache.insert(key.clone(), numerics_baseline_s(prog, class)? / slowness);
            }
            total += cache[&key];
        }
    }
    let lines = cache
        .iter()
        .map(|((prog, class), s)| format!("  npb 1-rank baseline {prog}.{class}: {s:.4} s"))
        .collect();
    Ok((total, lines))
}

/// Write the spans of one traced round as JSON lines: workload,
/// simulation, the three phases, and every benchmark-issued call.
pub fn write_spans(
    path: &Path,
    workload: &str,
    items: &[Item],
    round: &Round,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut id = 0u64;
    let mut span = |w: &mut dyn Write,
                    name: &str,
                    parent: Option<u64>,
                    sim: Option<usize>,
                    start: u64,
                    end: u64,
                    rank: Option<u32>| {
        id += 1;
        let parent = parent.map_or("null".into(), |p| p.to_string());
        let sim = sim.map_or("null".into(), |s| s.to_string());
        let rank = rank.map_or("null".into(), |r| r.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"parent\":{parent},\"sim\":{sim},\"name\":{name:?},\"start_ns\":{start},\"end_ns\":{end},\"rank\":{rank}}}"
        )
        .map(|_| id)
    };
    let wall_ns = round
        .runs
        .iter()
        .map(|r| (r.end_s * 1e9) as u64)
        .max()
        .unwrap_or(0);
    let root = span(&mut w, workload, None, None, 0, wall_ns, None)?;
    for (sim, run) in round.runs.iter().enumerate() {
        let t = &run.timeline;
        let base = (run.start_s * 1e9) as u64;
        let name = format!("simulation {}", items[run.item].name());
        let s = span(
            &mut w,
            &name,
            Some(root),
            Some(sim),
            base,
            base + t.span_ns,
            None,
        )?;
        let setup_end = base + t.setup_ns;
        let body_end = setup_end + t.body_ns;
        let setup = span(&mut w, "setup", Some(s), Some(sim), base, setup_end, None)?;
        let body = span(
            &mut w,
            "body",
            Some(s),
            Some(sim),
            setup_end,
            body_end,
            None,
        )?;
        span(
            &mut w,
            "teardown",
            Some(s),
            Some(sim),
            body_end,
            base + t.span_ns,
            None,
        )?;
        for c in t.trace.iter().flat_map(|t| &t.calls) {
            let parent = if base + c.start_ns < setup_end {
                setup
            } else {
                body
            };
            span(
                &mut w,
                c.kind,
                Some(parent),
                Some(sim),
                base + c.start_ns,
                base + c.end_ns,
                Some(c.rank),
            )?;
        }
    }
    w.flush()
}
