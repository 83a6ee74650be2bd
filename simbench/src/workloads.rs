//! The benchmark's workloads: fixed sets of simulations, the rank bodies
//! that drive them, and where each one's committed reference lives.

use crate::recorder::{Recorder, NPB_CG_RANK, NPB_KERNEL};
use std::sync::Arc;
use viampi_bench::experiments::Prog;
use viampi_bench::json::Value;
use viampi_core::{ConnMode, Device, Mpi, MpiConfig, ReduceOp, RunReport, Universe, WaitPolicy};
use viampi_npb::{adi, cg, ep, ft, is, lu, mg, patterns, Class, KernelResult};
use viampi_sim::{Backend, MetricsSnapshot};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 NAS instances on cLAN, static-polling vs on-demand.
    NpbMix,
    /// Figs. 4–5 barrier and allreduce sweeps on both devices.
    Collectives,
    /// Connection setup at scale: large on-demand worlds and static init.
    ConnScale,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::NpbMix, Workload::Collectives, Workload::ConnScale];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NpbMix => "npb_mix",
            Workload::Collectives => "collectives",
            Workload::ConnScale => "conn_scale",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Host seconds one timed round of the full set takes on the reference
    /// host (2 CPUs, x86_64, one simulation at a time); converts
    /// `--seconds` into a fixed round count so the sample count, and with
    /// it the tail percentile, is the same on every run.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::NpbMix => 4.2,
            Workload::Collectives => 2.9,
            Workload::ConnScale => 3.2,
        }
    }

    /// The workload's simulation set; `smoke` gives a tiny one that still
    /// covers every kind of simulation the full set runs.
    pub fn items(self, smoke: bool) -> Vec<Item> {
        let clan = (
            "static-polling",
            ConnMode::StaticPeerToPeer,
            WaitPolicy::Polling,
        );
        let od = ("on-demand", ConnMode::OnDemand, WaitPolicy::Polling);
        let mut v = Vec::new();
        match (self, smoke) {
            (Workload::NpbMix, false) => {
                for (prog, class, np) in [
                    (Prog::Cg, Class::A, 16),
                    (Prog::Cg, Class::B, 32),
                    (Prog::Mg, Class::A, 16),
                    (Prog::Is, Class::A, 16),
                    (Prog::Sp, Class::A, 16),
                ] {
                    for cfg in [clan, od] {
                        v.push(Item::new(Kind::Npb(prog, class), Device::Clan, cfg, np));
                    }
                }
            }
            (Workload::NpbMix, true) => {
                v.push(Item::new(
                    Kind::Npb(Prog::Cg, Class::A),
                    Device::Berkeley,
                    od,
                    4,
                ));
            }
            (Workload::Collectives, false) => {
                use viampi_bench::experiments::{BVIA_CONFIGS, CLAN_CONFIGS};
                for kind in [Kind::Barrier, Kind::Allreduce] {
                    for cfg in CLAN_CONFIGS {
                        for np in [8, 16, 32] {
                            v.push(Item::new(kind, Device::Clan, cfg, np));
                        }
                    }
                    for cfg in BVIA_CONFIGS {
                        for np in [4, 8] {
                            v.push(Item::new(kind, Device::Berkeley, cfg, np));
                        }
                    }
                }
            }
            (Workload::Collectives, true) => {
                v.push(Item::new(Kind::Barrier, Device::Berkeley, clan, 4));
                v.push(Item::new(Kind::Allreduce, Device::Clan, od, 4));
            }
            (Workload::ConnScale, false) => {
                v.push(Item::new(Kind::Ring, Device::Clan, od, 4096));
                v.push(Item::new(Kind::CgExchange, Device::Clan, od, 1024));
                v.push(Item::init(
                    Device::Berkeley,
                    ConnMode::StaticPeerToPeer,
                    256,
                ));
                v.push(Item::init(Device::Clan, ConnMode::StaticClientServer, 256));
            }
            (Workload::ConnScale, true) => {
                v.push(Item::new(Kind::Ring, Device::Clan, od, 256));
                v.push(Item::new(Kind::CgExchange, Device::Berkeley, od, 256));
                v.push(Item::init(Device::Clan, ConnMode::StaticPeerToPeer, 8));
            }
        }
        v
    }
}

/// What one simulation runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// One NAS kernel (`viampi_npb`), as in Figs. 6–7.
    Npb(Prog, Class),
    /// llcbench barrier latency, as in Fig. 4.
    Barrier,
    /// llcbench allreduce latency over one double, as in Fig. 5.
    Allreduce,
    /// Four laps of a 64-byte token ring, as in the large-N Table 2.
    Ring,
    /// Two rounds of the CG neighbour exchange, as in the large-N Table 2.
    CgExchange,
    /// An empty body: `MPI_Init` alone, as in Fig. 8.
    Init,
}

/// One simulation of a workload.
#[derive(Clone, Debug)]
pub struct Item {
    /// What it runs.
    pub kind: Kind,
    /// Interconnect.
    pub device: Device,
    /// Configuration label as the committed records spell it.
    pub label: &'static str,
    /// Connection management.
    pub conn: ConnMode,
    /// Completion wait policy.
    pub wait: WaitPolicy,
    /// Ranks.
    pub np: usize,
}

/// A simulated output: named fields as the committed records spell them.
pub type Output = Vec<(&'static str, Value)>;

/// llcbench repetitions, as in `fig4`/`fig5`.
const LLC_REPS: usize = 300;

impl Item {
    fn new(
        kind: Kind,
        device: Device,
        (label, conn, wait): (&'static str, ConnMode, WaitPolicy),
        np: usize,
    ) -> Item {
        Item {
            kind,
            device,
            label,
            conn,
            wait,
            np,
        }
    }

    fn init(device: Device, conn: ConnMode, np: usize) -> Item {
        Item::new(
            Kind::Init,
            device,
            (conn.name(), conn, WaitPolicy::Polling),
            np,
        )
    }

    /// Short human-readable name.
    pub fn name(&self) -> String {
        let what = match self.kind {
            Kind::Npb(prog, class) => format!("{}.{}", prog.name().to_uppercase(), class),
            Kind::Barrier => "barrier".into(),
            Kind::Allreduce => "allreduce".into(),
            Kind::Ring => "ring".into(),
            Kind::CgExchange => "cg-x".into(),
            Kind::Init => "init".into(),
        };
        format!("{what}.{} {}/{}", self.np, self.device.name(), self.label)
    }

    /// The committed record (`results/<file>.json`) holding this
    /// simulation's reference point, and the fields that identify it.
    pub fn reference(&self) -> (&'static str, Vec<(&'static str, Value)>) {
        let s = |x: &str| Value::Str(x.to_string());
        let np = Value::Int(self.np as u64);
        let dev = s(self.device.name());
        match self.kind {
            Kind::Npb(prog, class) => {
                let file = match self.device {
                    Device::Clan => "fig6_npb_clan",
                    Device::Berkeley => "fig7_npb_bvia",
                };
                let label = format!("{}.{}.{}", prog.name().to_uppercase(), class, self.np);
                (
                    file,
                    vec![
                        ("device", dev),
                        ("config", s(self.label)),
                        ("label", s(&label)),
                    ],
                )
            }
            Kind::Barrier | Kind::Allreduce => {
                let file = match self.kind {
                    Kind::Barrier => "fig4_barrier_latency",
                    _ => "fig5_allreduce_latency",
                };
                (
                    file,
                    vec![("device", dev), ("config", s(self.label)), ("np", np)],
                )
            }
            Kind::Ring | Kind::CgExchange => {
                let app = if matches!(self.kind, Kind::Ring) {
                    "Ring"
                } else {
                    "CG-x"
                };
                let keys = vec![
                    ("app", s(app)),
                    ("device", dev),
                    ("mode", s(self.label)),
                    ("np", np),
                ];
                ("tab2_largen", keys)
            }
            Kind::Init => {
                let file = if self.np >= 256 {
                    "fig8_largen"
                } else {
                    "fig8_init_time"
                };
                (
                    file,
                    vec![("device", dev), ("mode", s(self.label)), ("np", np)],
                )
            }
        }
    }

    /// Output fields that do not depend on the engine's equal-clock
    /// tie-break, so they must match the committed record at every seed
    /// (the rest — virtual times — only at the default seed).
    pub fn schedule_invariant(field: &str) -> bool {
        matches!(
            field,
            "verified" | "avg_vis" | "utilization" | "pinned_peak" | "chan_peak"
        )
    }

    fn universe(&self, sched_seed: Option<u64>) -> Universe {
        let mut uni = Universe::new(self.np, self.device, self.conn, self.wait);
        let cfg: &mut MpiConfig = uni.config_mut();
        cfg.engine_backend = Some(Backend::Sm);
        cfg.sched_seed = sched_seed;
        uni
    }

    /// Run the simulation once. Returns its host timeline, its output
    /// (or why it failed) and the run's deterministic counters.
    pub fn run(
        &self,
        sched_seed: Option<u64>,
        traced: bool,
    ) -> (
        crate::recorder::Timeline,
        Result<Output, String>,
        MetricsSnapshot,
    ) {
        let uni = self.universe(sched_seed);
        let kind = self.kind;
        let rec = Arc::new(Recorder::start(traced));
        let r = rec.clone();
        let result = uni.run(move |mpi| {
            let rank = mpi.rank();
            r.enter(rank);
            let out = rank_body(kind, mpi, &r);
            r.exit(rank);
            out
        });
        let timeline = rec.finish(rec.now_ns());
        match result {
            Ok(report) => {
                let metrics = report.metrics.clone();
                (timeline, self.output(&report), metrics)
            }
            Err(e) => (
                timeline,
                Err(format!("simulation error: {e:?}")),
                MetricsSnapshot::default(),
            ),
        }
    }

    fn output(&self, report: &RunReport<RankOut>) -> Result<Output, String> {
        Ok(match self.kind {
            Kind::Npb(..) => {
                let kernels: Vec<&KernelResult> = report
                    .results
                    .iter()
                    .map(|r| match r {
                        RankOut::Kernel(k) => Ok(k),
                        _ => Err("rank returned no kernel result".to_string()),
                    })
                    .collect::<Result<_, _>>()?;
                let time = kernels.iter().map(|k| k.time_secs).fold(0.0f64, f64::max);
                vec![
                    ("time_secs", Value::Float(time)),
                    ("verified", Value::Bool(kernels.iter().all(|k| k.verified))),
                ]
            }
            Kind::Barrier | Kind::Allreduce => match report.results.first() {
                Some(RankOut::Latency(Some(us))) => vec![("latency_us", Value::Float(*us))],
                _ => return Err("rank 0 reported no latency".into()),
            },
            Kind::Ring | Kind::CgExchange => {
                let chan_peak = report
                    .ranks
                    .iter()
                    .map(|r| r.channels.len())
                    .max()
                    .unwrap_or(0);
                vec![
                    ("avg_vis", Value::Float(report.avg_vis())),
                    ("utilization", Value::Float(report.utilization())),
                    ("pinned_peak", Value::Int(report.max_pinned() as u64)),
                    ("chan_peak", Value::Int(chan_peak as u64)),
                ]
            }
            Kind::Init => {
                let ms = report.avg_init_time().as_secs_f64() * 1e3;
                vec![("init_ms", Value::Float(ms))]
            }
        })
    }
}

/// Host seconds of a 1-rank run of one NAS kernel and class: the plain
/// single-process baseline of its numerics.
pub fn numerics_baseline_s(prog: Prog, class: Class) -> Result<f64, String> {
    let item = Item::new(
        Kind::Npb(prog, class),
        Device::Clan,
        ("on-demand", ConnMode::OnDemand, WaitPolicy::Polling),
        1,
    );
    let t0 = std::time::Instant::now();
    let (_, out, _) = item.run(None, false);
    out.map(|_| t0.elapsed().as_secs_f64())
}

/// What a rank body returns.
pub enum RankOut {
    /// Nothing to report.
    Unit,
    /// llcbench mean latency (rank 0 only).
    Latency(Option<f64>),
    /// A NAS kernel's result.
    Kernel(KernelResult),
}

fn rank_body(kind: Kind, mpi: &Mpi, rec: &Recorder) -> RankOut {
    let rank = mpi.rank();
    match kind {
        Kind::Npb(prog, class) => RankOut::Kernel(rec.call(rank, NPB_KERNEL, || match prog {
            Prog::Cg => cg::run(mpi, class),
            Prog::Mg => mg::run(mpi, class),
            Prog::Is => is::run(mpi, class),
            Prog::Ep => ep::run(mpi, class),
            Prog::Sp => adi::run(mpi, adi::App::Sp, class),
            Prog::Bt => adi::run(mpi, adi::App::Bt, class),
            Prog::Ft => ft::run(mpi, class),
            Prog::Lu => lu::run(mpi, class),
        })),
        // The same call sequence as `llc::barrier_latency`.
        Kind::Barrier => {
            rec.call(rank, "barrier", || mpi.barrier());
            let t0 = mpi.now();
            for _ in 0..LLC_REPS {
                rec.call(rank, "barrier", || mpi.barrier());
            }
            let mine = mpi.now().since(t0).as_micros_f64() / LLC_REPS as f64;
            RankOut::Latency(collect_average(mpi, rec, mine))
        }
        // The same call sequence as `llc::allreduce_latency(mpi, _, 1)`.
        Kind::Allreduce => {
            let data = vec![1.0f64; 1];
            rec.call(rank, "allreduce", || mpi.allreduce(&data, ReduceOp::Sum));
            let t0 = mpi.now();
            for _ in 0..LLC_REPS {
                rec.call(rank, "allreduce", || mpi.allreduce(&data, ReduceOp::Sum));
            }
            let mine = mpi.now().since(t0).as_micros_f64() / LLC_REPS as f64;
            RankOut::Latency(collect_average(mpi, rec, mine))
        }
        // The same call sequence as `ring::run(mpi, 4, 64)`.
        Kind::Ring => {
            let size = mpi.size();
            let (next, prev) = ((rank + 1) % size, (rank + size - 1) % size);
            let token = vec![0xA5u8; 64];
            for _ in 0..4 {
                if rank == 0 {
                    rec.call(rank, "send", || mpi.send(&token, next, 0));
                    rec.call(rank, "recv", || mpi.recv(Some(prev), Some(0)));
                } else {
                    let (t, _) = rec.call(rank, "recv", || mpi.recv(Some(prev), Some(0)));
                    rec.call(rank, "send", || mpi.send(&t, next, 0));
                }
            }
            RankOut::Unit
        }
        // The same call sequence as `patterns::neighbor_exchange(mpi,
        // &patterns::cg_rank(np, rank), 2, 64)`.
        Kind::CgExchange => {
            let partners = rec.call(rank, NPB_CG_RANK, || patterns::cg_rank(mpi.size(), rank));
            let buf = vec![0x3Cu8; 64];
            for tag in 0..2 {
                let mut reqs = Vec::with_capacity(partners.len() * 2);
                for &p in &partners {
                    reqs.push(rec.call(rank, "irecv", || mpi.irecv(Some(p), Some(tag))));
                }
                for &p in &partners {
                    reqs.push(rec.call(rank, "isend", || mpi.isend(&buf, p, tag)));
                }
                rec.call(rank, "waitall", || mpi.waitall(&reqs));
            }
            RankOut::Unit
        }
        Kind::Init => RankOut::Unit,
    }
}

/// `llc`'s closing step: rank 0 gathers and averages every rank's mean.
fn collect_average(mpi: &Mpi, rec: &Recorder, mine_us: f64) -> Option<f64> {
    let blocks = rec.call(mpi.rank(), "gather", || {
        mpi.gather(0, &mine_us.to_le_bytes())
    });
    blocks.map(|bs| {
        let vals: Vec<f64> = bs
            .iter()
            .map(|b| f64::from_le_bytes(b.as_slice().try_into().expect("8-byte block")))
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    })
}
