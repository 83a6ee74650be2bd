//! Profile one simulated MPI program and export a Chrome trace.
//!
//! Runs the chosen program with `MpiConfig::trace` enabled, then writes
//! the run's spans, protocol events and metrics snapshot as Chrome
//! trace-event JSON — open it in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! ```text
//! profile [--program cg|mg|is|ep|ft|lu|ring|barrier] [--np N]
//!         [--device clan|bvia] [--class S|A|B|C] [--out PATH] [--jobs J]
//!         [--engine threads|sm]
//! ```
//!
//! Defaults: `--program ring --np 4 --device clan --class S`, output to
//! `results/profile_<program>.json`.

use std::path::PathBuf;
use viampi_bench::{profile, report, runner};
use viampi_core::{ConnMode, Device, RunReport, Universe, WaitPolicy};
use viampi_npb::{cg, ep, ft, is, llc, lu, mg, ring, Class};

struct Args {
    program: String,
    np: usize,
    device: Device,
    class: Class,
    out: Option<PathBuf>,
    engine: Option<viampi_sim::Backend>,
}

fn die(msg: &str) -> ! {
    eprintln!("profile: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut args = Args {
        program: "ring".to_string(),
        np: 4,
        device: Device::Clan,
        class: Class::S,
        out: None,
        engine: None,
    };
    let value = |argv: &[String], i: usize, flag: &str| -> String {
        argv.get(i + 1)
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
            .clone()
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--program" => {
                args.program = value(&argv, i, "--program");
                i += 2;
            }
            "--np" => {
                args.np = value(&argv, i, "--np")
                    .parse()
                    .unwrap_or_else(|_| die("--np expects a number"));
                i += 2;
            }
            "--device" => {
                args.device = match value(&argv, i, "--device").as_str() {
                    "clan" => Device::Clan,
                    "bvia" => Device::Berkeley,
                    _ => die("--device expects clan|bvia"),
                };
                i += 2;
            }
            "--class" => {
                args.class = match value(&argv, i, "--class").as_str() {
                    "S" | "s" => Class::S,
                    "A" | "a" => Class::A,
                    "B" | "b" => Class::B,
                    "C" | "c" => Class::C,
                    _ => die("--class expects S|A|B|C"),
                };
                i += 2;
            }
            "--out" => {
                args.out = Some(PathBuf::from(value(&argv, i, "--out")));
                i += 2;
            }
            "--engine" => {
                args.engine = match value(&argv, i, "--engine").as_str() {
                    "threads" => Some(viampi_sim::Backend::Threads),
                    "sm" => Some(viampi_sim::Backend::Sm),
                    _ => die("--engine expects threads|sm"),
                };
                i += 2;
            }
            "--jobs" => i += 2, // handled by runner::init_from_args
            a if a.starts_with("--jobs=") => i += 1,
            "--help" | "-h" => {
                println!(
                    "usage: profile [--program cg|mg|is|ep|ft|lu|ring|barrier] [--np N] \
                     [--device clan|bvia] [--class S|A|B|C] [--out PATH] [--jobs J] \
                     [--engine threads|sm]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    args
}

/// Run `program` with tracing enabled; every rank returns a headline f64
/// (kernel seconds, latency, or ring time — only shown, never recorded).
fn traced_run(args: &Args) -> RunReport<f64> {
    let mut uni = Universe::new(
        args.np,
        args.device,
        ConnMode::OnDemand,
        WaitPolicy::Polling,
    );
    uni.config_mut().trace = true;
    uni.config_mut().engine_backend = args.engine;
    let class = args.class;
    let run = match args.program.as_str() {
        "ring" => uni.run(|mpi| ring::run(mpi, 4, 4096)),
        "barrier" => uni.run(|mpi| llc::barrier_latency(mpi, 100).unwrap_or(f64::NAN)),
        "cg" => uni.run(move |mpi| cg::run(mpi, class).time_secs),
        "mg" => uni.run(move |mpi| mg::run(mpi, class).time_secs),
        "is" => uni.run(move |mpi| is::run(mpi, class).time_secs),
        "ep" => uni.run(move |mpi| ep::run(mpi, class).time_secs),
        "ft" => uni.run(move |mpi| ft::run(mpi, class).time_secs),
        "lu" => uni.run(move |mpi| lu::run(mpi, class).time_secs),
        other => die(&format!(
            "unknown program: {other} (expected cg|mg|is|ep|ft|lu|ring|barrier)"
        )),
    };
    run.unwrap_or_else(|e| die(&format!("simulation failed: {e:?}")))
}

fn main() {
    runner::init_from_args();
    let args = parse_args();
    let report = traced_run(&args);

    let json = profile::chrome_trace(&report);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| report::results_dir().join(format!("profile_{}.json", args.program)));
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("write {}: {e}", out.display())));

    let spans: usize = report.ranks.iter().map(|r| r.spans.len()).sum();
    let events: usize = report.ranks.iter().map(|r| r.trace.len()).sum();
    println!(
        "profiled {} (np={}, device={}, class={}): end {} us, {} spans, {} protocol events",
        args.program,
        args.np,
        args.device.name(),
        args.class,
        report::fmt(report.end_time.as_micros_f64()),
        spans,
        events,
    );
    println!("\nmetrics:\n{}", report.metrics.render());
    println!(
        "chrome trace written to {} — load it at https://ui.perfetto.dev",
        out.display()
    );
}
