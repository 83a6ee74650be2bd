//! `simbench` — end-to-end and per-layer host-time benchmark of the viampi
//! simulator. See `simbench/README.md` for the workloads and metrics.
//!
//! ```text
//! simbench --workload <npb_mix|collectives|conn_scale> --seed <n> --seconds <s> --trace <0|1>
//! simbench --smoke
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
//! every simulation was correct, 1 when one was not, and 2 on a usage or
//! environment error (in which case no result line is printed).

mod calib;
mod measure;
mod recorder;
mod refs;
mod smoke;
mod stats;
mod workloads;

use calib::Probe;
use measure::{fan_out, judge, per_layer, run_round, Metric, Round, Verdict};
use refs::References;
use std::path::PathBuf;
use std::time::Instant;
use workloads::Workload;

/// Workers of the traced pass's fan-out round, at most. The reference host
/// has 2 CPUs.
const MAX_WORKERS: usize = 2;

/// Fewest rounds a run makes, so that medians mean something.
const MIN_ROUNDS: usize = 3;

/// Host-speed samples taken before the first timed round.
const PROBE_WARMUP: usize = 5;

/// No new round starts once a run has measured for this multiple of
/// `--seconds` (or [`RUN_CAP_S`]), so that a run on a slow host still ends
/// near its time.
const OVERRUN: f64 = 1.1;

/// No new round starts after this many host seconds, so that a run on a
/// slow host still ends well within three minutes.
const RUN_CAP_S: f64 = 120.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad(&names.join(" | ")))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Refuse to measure under any `VIAMPI_*` override: `VIAMPI_PAR`,
/// `VIAMPI_SHARDS`, `VIAMPI_NO_COALESCE`, `VIAMPI_NO_FASTPATH`,
/// `VIAMPI_ENGINE`, `VIAMPI_JOBS` and the rest change what is measured.
fn env_guard() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("VIAMPI_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// What a number needs to name its host.
pub struct Host {
    nproc: usize,
    /// Workers of the traced pass's fan-out round; timed rounds use one.
    pub fanout: usize,
}

impl Host {
    fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            nproc,
            fanout: nproc.min(MAX_WORKERS),
        }
    }

    fn line(&self) -> String {
        format!(
            "host: nproc={} arch={} os={} rustc=\"{}\" workers=1 fan-out={} engine=sm",
            self.nproc,
            std::env::consts::ARCH,
            std::env::consts::OS,
            env!("SIMBENCH_RUSTC_VERSION"),
            self.fanout
        )
    }
}

/// The repository's committed `results/` directory.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results")
}

/// The outcome of one benchmark run.
pub struct Outcome {
    verdict: Verdict,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Outcome {
    fn print(&self, header: &str) {
        println!("{header}");
        for l in &self.lines {
            println!("{l}");
        }
        for m in &self.metrics {
            println!(
                "  {:<26} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let v = &self.verdict;
        println!(
            "  fail_ratio {}/{} = {}",
            v.failed,
            v.attempted,
            v.failed as f64 / v.attempted.max(1) as f64
        );
        for r in &v.reasons {
            println!("  FAILED: {r}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let mut num = String::new();
                viampi_bench::json::emit_f64(&mut num, m.value);
                format!(
                    "\"{}\": {{\"value\": {num}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            v.failed == 0,
            v.attempted,
            v.failed,
            metrics.join(", ")
        );
    }
}

/// Run one workload: `rounds` untraced rounds for the end-to-end
/// metrics, or alternating untraced/traced rounds and one fan-out round
/// for the per-layer ones.
pub fn run_workload(
    items: &[workloads::Item],
    refs: &References,
    seed: u64,
    rounds: usize,
    budget_s: f64,
    traced: bool,
    host: &Host,
) -> Result<(Outcome, Vec<Round>), String> {
    // Reference pass: every simulation once, serially on this thread, at
    // the committed schedule whatever the seed, so its outputs must equal
    // results/*.json exactly. It warms the process up, and the memory peak
    // right after it is that of the largest simulation alone (taken before
    // the host-speed probe allocates anything).
    let reference = fan_out(items, measure::order(items.len(), 0), 0, 1, 1.0);
    let rss = measure::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut probe = Probe::default();
    for _ in 0..PROBE_WARMUP {
        probe.sample();
    }
    let t0 = Instant::now();
    let within_cap = |r: usize| r < MIN_ROUNDS || t0.elapsed().as_secs_f64() < budget_s;
    let mut untraced = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut fanned = Vec::new();
    let (metrics, mut lines) = if traced {
        let pairs = (rounds / 2).max(1);
        // Same hand-out order within a pair; alternate which side goes
        // first so neither pays for drift alone.
        for r in (0..pairs).take_while(|&r| within_cap(r)) {
            let order = measure::order(items.len(), seed.wrapping_add(r as u64) % pairs as u64);
            let mut one = |t: bool| run_round(items, order.clone(), seed, t, &mut probe);
            if r % 2 == 0 {
                untraced.push(one(false));
                traced_rounds.push(one(true));
            } else {
                traced_rounds.push(one(true));
                untraced.push(one(false));
            }
        }
        let slowness = stats::median(probe.samples());
        let order = measure::order(items.len(), seed);
        fanned.push(fan_out(items, order, seed, host.fanout, slowness));
        per_layer(
            items,
            &untraced,
            &traced_rounds,
            &fanned[0],
            host.fanout,
            &mut probe,
        )?
    } else {
        for r in (0..rounds).take_while(|&r| within_cap(r)) {
            let order = measure::order(items.len(), seed.wrapping_add(r as u64) % rounds as u64);
            untraced.push(run_round(items, order, seed, false, &mut probe));
        }
        measure::end_to_end(items, &untraced, rss)
    };
    let seeded: Vec<&Round> = untraced
        .iter()
        .chain(&traced_rounds)
        .chain(&fanned)
        .collect();
    let mut verdict = judge(items, &[&reference], refs, 0);
    verdict.add(judge(items, &seeded, refs, seed));
    let gate = if seed == 0 {
        "every output equals its committed results/*.json point"
    } else {
        "reference-pass outputs equal results/*.json, seeded outputs match its schedule-invariant fields"
    };
    lines.insert(
        0,
        format!(
            "  rounds: 1 reference + {} untraced + {} traced + {} fan-out, {} simulations each; \
             correctness: {gate}, and repeat byte-identically",
            untraced.len(),
            traced_rounds.len(),
            fanned.len(),
            items.len()
        ),
    );
    let outcome = Outcome {
        verdict,
        metrics,
        lines,
    };
    Ok((outcome, traced_rounds))
}

fn run(args: &Args, host: &Host) -> Result<bool, String> {
    let wl = args.workload.ok_or("--workload is required")?;
    let items = wl.items(false);
    let refs = References::load(&results_dir(), &items)?;
    let rounds = ((args.seconds / wl.nominal_round_s()).round() as usize).max(MIN_ROUNDS);
    let budget_s = (OVERRUN * args.seconds).min(RUN_CAP_S);
    let (outcome, traced) =
        run_workload(&items, &refs, args.seed, rounds, budget_s, args.trace, host)?;
    if let Some(first) = traced.first() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", wl.name(), args.seed));
        measure::write_spans(&path, wl.name(), &items, first)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans of the first traced round: {}", path.display());
    }
    let kind = if args.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    outcome.print(&format!(
        "simbench {} seed={} {kind}:",
        wl.name(),
        args.seed
    ));
    Ok(outcome.verdict.failed == 0)
}

fn main() {
    let code = env_guard().and_then(|()| parse_args()).and_then(|args| {
        let host = Host::detect();
        println!("{}", host.line());
        if args.smoke {
            smoke::run(&host).map(|()| true)
        } else {
            run(&args, &host)
        }
    });
    match code {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    }
}
