//! One driver per paper table/figure. Each returns printable text and
//! writes a JSON record under `results/`.
//!
//! Every driver fans its configuration grid out over [`crate::runner`]'s
//! worker pool: each grid point is an independent deterministic
//! simulation, and results are collected by index, so the tables and JSON
//! records are byte-identical at any `--jobs` setting.

use crate::impl_json;
use crate::micro;
use crate::report::{fmt, table, write_json};
use crate::runner;
use viampi_core::{ConnMode, Device, Mpi, Universe, WaitPolicy};
use viampi_npb::{adi, cg, ep, ft, is, llc, lu, mg, patterns, ring, Class};
use viampi_via::DeviceProfile;

/// The three cLAN configurations of §5.3.
pub const CLAN_CONFIGS: [(&str, ConnMode, WaitPolicy); 3] = [
    (
        "static-spinwait",
        ConnMode::StaticPeerToPeer,
        WaitPolicy::SpinWait { spincount: 100 },
    ),
    (
        "static-polling",
        ConnMode::StaticPeerToPeer,
        WaitPolicy::Polling,
    ),
    ("on-demand", ConnMode::OnDemand, WaitPolicy::Polling),
];

/// The two Berkeley-VIA configurations (wait == poll there).
pub const BVIA_CONFIGS: [(&str, ConnMode, WaitPolicy); 2] = [
    (
        "static-polling",
        ConnMode::StaticPeerToPeer,
        WaitPolicy::Polling,
    ),
    ("on-demand", ConnMode::OnDemand, WaitPolicy::Polling),
];

// ========================================================================
// Figure 1 — BVIA latency vs number of active VIs
// ========================================================================

/// One Fig. 1 series point.
#[derive(Debug, Clone)]
pub struct Fig1Point {
    /// Device profile name.
    pub device: String,
    /// Message size in bytes.
    pub size: usize,
    /// Total active VIs on the NIC (idle + the one in use).
    pub active_vis: usize,
    /// One-way latency in µs.
    pub latency_us: f64,
}

impl_json!(Fig1Point {
    device,
    size,
    active_vis,
    latency_us
});

/// Reproduce Fig. 1: VIA-level latency as a function of active VIs.
pub fn fig1() -> (String, Vec<Fig1Point>) {
    let mut items = Vec::new();
    for (dev, profile) in [
        ("bvia", DeviceProfile::berkeley()),
        ("clan", DeviceProfile::clan()),
    ] {
        for &size in &[4usize, 1024, 4096] {
            for idle in [0usize, 1, 3, 7, 11, 15] {
                items.push((dev, profile.clone(), size, idle));
            }
        }
    }
    let points = runner::timed("fig1_vi_scaling", || {
        runner::par_map(items, |(dev, profile, size, idle)| Fig1Point {
            device: dev.into(),
            size,
            active_vis: idle + 1,
            latency_us: micro::via_latency_with_idle_vis(profile, size, idle),
        })
    });
    write_json("fig1_vi_scaling", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.device.clone(),
                p.size.to_string(),
                p.active_vis.to_string(),
                fmt(p.latency_us),
            ]
        })
        .collect();
    let text = format!(
        "Figure 1 — latency vs number of active VIs (paper: BVIA grows, hardware VIA flat)\n\n{}",
        table(&["device", "bytes", "active VIs", "latency (us)"], &rows)
    );
    (text, points)
}

// ========================================================================
// Table 1 — average distinct destinations per process
// ========================================================================

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Tab1Row {
    /// Application model.
    pub app: String,
    /// Rank count.
    pub np: usize,
    /// Mean distinct destinations per process.
    pub avg_destinations: f64,
    /// The paper's value (from Vetter & Mueller), for comparison.
    pub paper: f64,
}

impl_json!(Tab1Row {
    app,
    np,
    avg_destinations,
    paper
});

/// Reproduce Table 1 from the pattern generators.
pub fn tab1() -> (String, Vec<Tab1Row>) {
    type PatternGen = fn(usize) -> Vec<std::collections::BTreeSet<usize>>;
    let apps: [(&str, PatternGen, [f64; 2]); 6] = [
        ("sPPM", patterns::sppm, [5.5, 6.0]),
        ("SMG2000", patterns::smg2000, [41.88, 1023.0]),
        ("Sphot", patterns::sphot, [0.98, 1.0]),
        ("Sweep3D", patterns::sweep3d, [3.5, 4.0]),
        ("Samrai4", patterns::samrai, [4.94, 10.0]),
        ("CG", patterns::cg, [6.36, 11.0]),
    ];
    let mut rows_data = Vec::new();
    for (name, gen, paper) in apps {
        for (i, np) in [64usize, 1024].into_iter().enumerate() {
            let avg = patterns::average_destinations(&gen(np));
            rows_data.push(Tab1Row {
                app: name.into(),
                np,
                avg_destinations: avg,
                paper: paper[i],
            });
        }
    }
    write_json("tab1_destinations", &rows_data);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.np.to_string(),
                fmt(r.avg_destinations),
                fmt(r.paper),
            ]
        })
        .collect();
    let text = format!(
        "Table 1 — average number of distinct destinations per process\n\n{}",
        table(&["app", "procs", "measured", "paper"], &rows)
    );
    (text, rows_data)
}

// ========================================================================
// Table 2 — VIs and resource utilization per workload
// ========================================================================

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Tab2Row {
    /// Workload.
    pub app: String,
    /// Ranks.
    pub np: usize,
    /// Average live VIs per process, static management.
    pub static_vis: f64,
    /// Average live VIs per process, on-demand management.
    pub ondemand_vis: f64,
    /// Utilization (used/created), static.
    pub static_util: f64,
    /// Utilization, on-demand.
    pub ondemand_util: f64,
    /// Peak pinned eager-pool bytes per process, static.
    pub static_pinned: usize,
    /// Peak pinned bytes per process, on-demand.
    pub ondemand_pinned: usize,
}

impl_json!(Tab2Row {
    app,
    np,
    static_vis,
    ondemand_vis,
    static_util,
    ondemand_util,
    static_pinned,
    ondemand_pinned,
});

type Workload = Box<dyn Fn(&Mpi) + Send + Sync>;

fn tab2_workloads(np: usize) -> Vec<(&'static str, Workload)> {
    let mut v: Vec<(&'static str, Workload)> = vec![
        (
            "Ring",
            Box::new(|mpi: &Mpi| {
                ring::run(mpi, 4, 64);
            }),
        ),
        (
            "Barrier",
            Box::new(|mpi: &Mpi| {
                llc::barrier_latency(mpi, 20);
            }),
        ),
        (
            "Allreduce",
            Box::new(|mpi: &Mpi| {
                llc::allreduce_latency(mpi, 20, 4);
            }),
        ),
        (
            "Alltoall",
            Box::new(|mpi: &Mpi| {
                llc::alltoall_latency(mpi, 5, 64);
            }),
        ),
        (
            "Allgather",
            Box::new(|mpi: &Mpi| {
                llc::allgather_latency(mpi, 5, 64);
            }),
        ),
        (
            "Bcast",
            Box::new(|mpi: &Mpi| {
                llc::bcast_latency(mpi, 20, 64);
            }),
        ),
        (
            "CG",
            Box::new(|mpi: &Mpi| {
                cg::run(mpi, Class::S);
            }),
        ),
        (
            "MG",
            Box::new(|mpi: &Mpi| {
                mg::run(mpi, Class::S);
            }),
        ),
        (
            "IS",
            Box::new(|mpi: &Mpi| {
                is::run(mpi, Class::S);
            }),
        ),
        (
            "EP",
            Box::new(|mpi: &Mpi| {
                ep::run(mpi, Class::S);
            }),
        ),
        // FT needs the grid side divisible by np: class S (16³) up to 16
        // ranks, class A (32³) beyond.
        (
            "FT",
            Box::new(|mpi: &Mpi| {
                let class = if mpi.size() > 16 { Class::A } else { Class::S };
                ft::run(mpi, class);
            }),
        ),
    ];
    // SP/BT need square rank counts: 16 yes, 32 no (paper uses 36).
    if (np as f64).sqrt().fract() == 0.0 {
        v.push((
            "SP",
            Box::new(|mpi: &Mpi| {
                adi::run(mpi, adi::App::Sp, Class::S);
            }),
        ));
        v.push((
            "BT",
            Box::new(|mpi: &Mpi| {
                adi::run(mpi, adi::App::Bt, Class::S);
            }),
        ));
        v.push((
            "LU",
            Box::new(|mpi: &Mpi| {
                lu::run(mpi, Class::S);
            }),
        ));
    }
    v
}

fn measure_tab2(app: &'static str, np: usize, body: std::sync::Arc<Workload>) -> Tab2Row {
    let run = |conn: ConnMode| {
        let body = body.clone();
        Universe::new(np, Device::Clan, conn, WaitPolicy::Polling)
            .run(move |mpi| body(mpi))
            .unwrap()
    };
    let st = run(ConnMode::StaticPeerToPeer);
    let od = run(ConnMode::OnDemand);
    Tab2Row {
        app: app.into(),
        np,
        static_vis: st.avg_vis(),
        ondemand_vis: od.avg_vis(),
        static_util: st.utilization(),
        ondemand_util: od.utilization(),
        static_pinned: st.max_pinned(),
        ondemand_pinned: od.max_pinned(),
    }
}

/// Reproduce Table 2 at the paper's sizes (16 and 32; SP/BT use 16 and 36).
pub fn tab2(sizes: &[usize]) -> (String, Vec<Tab2Row>) {
    let mut items: Vec<(&'static str, usize, std::sync::Arc<Workload>)> = Vec::new();
    for &np in sizes {
        for (app, body) in tab2_workloads(np) {
            items.push((app, np, std::sync::Arc::new(body)));
        }
        // SP/BT at 36 when the paper's 32 is requested and 32 isn't square.
        if np == 32 {
            for (app, sq) in [("SP", 36usize), ("BT", 36), ("LU", 36)] {
                let body: Workload = match app {
                    "SP" => Box::new(|mpi: &Mpi| {
                        adi::run(mpi, adi::App::Sp, Class::S);
                    }),
                    "BT" => Box::new(|mpi: &Mpi| {
                        adi::run(mpi, adi::App::Bt, Class::S);
                    }),
                    _ => Box::new(|mpi: &Mpi| {
                        lu::run(mpi, Class::S);
                    }),
                };
                items.push((app, sq, std::sync::Arc::new(body)));
            }
        }
    }
    let data = runner::timed("tab2_resources", || {
        runner::par_map(items, |(app, np, body)| measure_tab2(app, np, body))
    });
    write_json("tab2_resources", &data);
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.np.to_string(),
                fmt(r.static_vis),
                fmt(r.ondemand_vis),
                fmt(r.static_util),
                fmt(r.ondemand_util),
                format!("{}K", r.static_pinned >> 10),
                format!("{}K", r.ondemand_pinned >> 10),
            ]
        })
        .collect();
    let text = format!(
        "Table 2 — average VIs and resource utilization per process\n\n{}",
        table(
            &["app", "size", "VIs st", "VIs od", "util st", "util od", "pin st", "pin od"],
            &rows
        )
    );
    (text, data)
}

// ========================================================================
// Figures 2 & 3 — latency and bandwidth
// ========================================================================

/// One latency/bandwidth point.
#[derive(Debug, Clone)]
pub struct MicroPoint {
    /// Device.
    pub device: String,
    /// Configuration label.
    pub config: String,
    /// Message size in bytes.
    pub size: usize,
    /// Metric value (µs for latency, MB/s for bandwidth).
    pub value: f64,
}

impl_json!(MicroPoint {
    device,
    config,
    size,
    value
});

fn configs_for(device: Device) -> Vec<(&'static str, ConnMode, WaitPolicy)> {
    match device {
        Device::Clan => CLAN_CONFIGS.to_vec(),
        Device::Berkeley => BVIA_CONFIGS.to_vec(),
    }
}

/// Reproduce Fig. 2: one-way latency vs message size.
pub fn fig2() -> (String, Vec<MicroPoint>) {
    let sizes = [0usize, 4, 16, 64, 256, 1024, 2048, 4096];
    let mut items = Vec::new();
    for device in [Device::Clan, Device::Berkeley] {
        for (label, conn, wait) in configs_for(device) {
            for &size in &sizes {
                items.push((device, label, conn, wait, size));
            }
        }
    }
    let points = runner::timed("fig2_latency", || {
        runner::par_map(items, |(device, label, conn, wait, size)| MicroPoint {
            device: device.name().into(),
            config: label.into(),
            size,
            value: micro::pingpong_latency(device, conn, wait, size, 200),
        })
    });
    write_json("fig2_latency", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.device.clone(),
                p.config.clone(),
                p.size.to_string(),
                fmt(p.value),
            ]
        })
        .collect();
    let text = format!(
        "Figure 2 — one-way latency vs message size (us)\n\n{}",
        table(&["device", "config", "bytes", "latency"], &rows)
    );
    (text, points)
}

/// Reproduce Fig. 3: bandwidth vs message size (the dip at the 5000-byte
/// eager→rendezvous threshold is the paper's §5.3 observation).
pub fn fig3() -> (String, Vec<MicroPoint>) {
    let sizes = [
        64usize, 256, 1024, 2048, 4096, 4999, 5001, 8192, 16_384, 65_536, 262_144,
    ];
    let mut items = Vec::new();
    for device in [Device::Clan, Device::Berkeley] {
        for (label, conn, wait) in configs_for(device) {
            for &size in &sizes {
                items.push((device, label, conn, wait, size));
            }
        }
    }
    let points = runner::timed("fig3_bandwidth", || {
        runner::par_map(items, |(device, label, conn, wait, size)| MicroPoint {
            device: device.name().into(),
            config: label.into(),
            size,
            value: micro::bandwidth(device, conn, wait, size, 10, 8),
        })
    });
    write_json("fig3_bandwidth", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.device.clone(),
                p.config.clone(),
                p.size.to_string(),
                fmt(p.value),
            ]
        })
        .collect();
    let text = format!(
        "Figure 3 — bandwidth vs message size (MB/s)\n\n{}",
        table(&["device", "config", "bytes", "MB/s"], &rows)
    );
    (text, points)
}

// ========================================================================
// Figures 4 & 5 — barrier / allreduce latency vs process count
// ========================================================================

/// One collective-latency point.
#[derive(Debug, Clone)]
pub struct CollPoint {
    /// Device.
    pub device: String,
    /// Configuration label.
    pub config: String,
    /// Ranks.
    pub np: usize,
    /// Mean latency in µs (llcbench methodology).
    pub latency_us: f64,
}

impl_json!(CollPoint {
    device,
    config,
    np,
    latency_us
});

fn collective_sweep(
    op: &'static str,
    f: impl Fn(&Mpi) -> Option<f64> + Send + Sync + Clone + 'static,
) -> (String, Vec<CollPoint>) {
    let mut items = Vec::new();
    for device in [Device::Clan, Device::Berkeley] {
        let nps: Vec<usize> = if device == Device::Clan {
            vec![2, 3, 4, 6, 8, 12, 16, 24, 32]
        } else {
            vec![2, 3, 4, 6, 8] // the paper could run ≤ 8 on BVIA
        };
        for (label, conn, wait) in configs_for(device) {
            for &np in &nps {
                items.push((device, label, conn, wait, np));
            }
        }
    }
    let name = format!("{op}_latency");
    let points = runner::timed(&name, || {
        runner::par_map(items, |(device, label, conn, wait, np)| {
            let f = f.clone();
            let report = Universe::new(np, device, conn, wait)
                .run(move |mpi| f(mpi))
                .unwrap();
            CollPoint {
                device: device.name().into(),
                config: label.into(),
                np,
                latency_us: report.results[0].expect("rank 0 reports"),
            }
        })
    });
    write_json(&name, &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.device.clone(),
                p.config.clone(),
                p.np.to_string(),
                fmt(p.latency_us),
            ]
        })
        .collect();
    let text = format!(
        "{op} latency vs process count (us, llcbench methodology)\n\n{}",
        table(&["device", "config", "procs", "latency"], &rows)
    );
    (text, points)
}

/// Reproduce Fig. 4 (barrier latency).
pub fn fig4() -> (String, Vec<CollPoint>) {
    collective_sweep("fig4_barrier", |mpi| llc::barrier_latency(mpi, 300))
}

/// Reproduce Fig. 5 (allreduce latency, MPI_SUM over one double).
pub fn fig5() -> (String, Vec<CollPoint>) {
    collective_sweep("fig5_allreduce", |mpi| llc::allreduce_latency(mpi, 300, 1))
}

// ========================================================================
// Figures 6 & 7 and Table 3 — NAS parallel benchmarks
// ========================================================================

/// NPB program selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Prog {
    Cg,
    Mg,
    Is,
    Ep,
    Sp,
    Bt,
    Ft,
    Lu,
}

impl Prog {
    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Prog::Cg => "cg",
            Prog::Mg => "mg",
            Prog::Is => "is",
            Prog::Ep => "ep",
            Prog::Sp => "sp",
            Prog::Bt => "bt",
            Prog::Ft => "ft",
            Prog::Lu => "lu",
        }
    }
}

/// One NPB measurement.
#[derive(Debug, Clone)]
pub struct NpbPoint {
    /// Device.
    pub device: String,
    /// Configuration label.
    pub config: String,
    /// `PROG.CLASS.NP` label.
    pub label: String,
    /// Measured-region time in virtual seconds (max over ranks, as NPB
    /// reports).
    pub time_secs: f64,
    /// Verification outcome.
    pub verified: bool,
}

impl_json!(NpbPoint {
    device,
    config,
    label,
    time_secs,
    verified
});

/// Run one NPB instance under one configuration.
pub fn npb_point(
    device: Device,
    config: (&str, ConnMode, WaitPolicy),
    prog: Prog,
    class: Class,
    np: usize,
) -> NpbPoint {
    let (label, conn, wait) = config;
    let report = Universe::new(np, device, conn, wait)
        .run(move |mpi| match prog {
            Prog::Cg => cg::run(mpi, class),
            Prog::Mg => mg::run(mpi, class),
            Prog::Is => is::run(mpi, class),
            Prog::Ep => ep::run(mpi, class),
            Prog::Sp => adi::run(mpi, adi::App::Sp, class),
            Prog::Bt => adi::run(mpi, adi::App::Bt, class),
            Prog::Ft => ft::run(mpi, class),
            Prog::Lu => lu::run(mpi, class),
        })
        .unwrap();
    let time = report
        .results
        .iter()
        .map(|r| r.time_secs)
        .fold(0.0f64, f64::max);
    NpbPoint {
        device: device.name().into(),
        config: label.into(),
        label: report.results[0].label(),
        time_secs: time,
        verified: report.results.iter().all(|r| r.verified),
    }
}

/// The paper's Fig.-6 instance list (cLAN).
pub fn fig6_instances() -> Vec<(Prog, Class, usize)> {
    let mut v = Vec::new();
    for prog in [Prog::Mg, Prog::Is, Prog::Cg] {
        for (class, np) in [
            (Class::A, 16),
            (Class::B, 16),
            (Class::A, 32),
            (Class::B, 32),
            (Class::C, 32),
        ] {
            v.push((prog, class, np));
        }
    }
    for prog in [Prog::Sp, Prog::Bt] {
        for class in [Class::A, Class::B] {
            v.push((prog, class, 16));
        }
    }
    v
}

/// Supplementary instances: the two NPB programs the paper's suite lists
/// (§5.5) but does not plot — FT (alltoall transposes) and LU (pipelined
/// wavefront).
pub fn supplement_instances() -> Vec<(Prog, Class, usize)> {
    vec![
        (Prog::Ft, Class::A, 16),
        (Prog::Ft, Class::A, 32),
        (Prog::Ft, Class::B, 16),
        (Prog::Lu, Class::A, 16),
        (Prog::Lu, Class::B, 16),
        (Prog::Lu, Class::A, 4),
    ]
}

/// The paper's Fig.-7 instance list (Berkeley VIA, ≤ 8 processes).
pub fn fig7_instances() -> Vec<(Prog, Class, usize)> {
    vec![
        (Prog::Is, Class::A, 8),
        (Prog::Is, Class::B, 8),
        (Prog::Cg, Class::A, 8),
        (Prog::Cg, Class::B, 8),
        (Prog::Ep, Class::A, 8),
        (Prog::Cg, Class::A, 4),
        (Prog::Is, Class::A, 4),
        (Prog::Bt, Class::A, 4),
        (Prog::Sp, Class::A, 4),
    ]
}

/// Run a full NPB figure: every instance under every configuration.
pub fn npb_figure(
    name: &str,
    device: Device,
    instances: &[(Prog, Class, usize)],
) -> (String, Vec<NpbPoint>) {
    let mut items = Vec::new();
    for &(prog, class, np) in instances {
        for config in configs_for(device) {
            items.push((config, prog, class, np));
        }
    }
    let points = runner::timed(name, || {
        runner::par_map(items, |(config, prog, class, np)| {
            npb_point(device, config, prog, class, np)
        })
    });
    write_json(name, &points);
    // Normalized view (paper's y-axis): per instance, divide by the
    // static-polling time.
    let mut rows = Vec::new();
    for &(prog, class, np) in instances {
        let label = format!("{}.{}.{}", prog.name().to_uppercase(), class, np);
        let base = points
            .iter()
            .find(|p| p.label == label && p.config == "static-polling")
            .map(|p| p.time_secs)
            .unwrap_or(1.0);
        for p in points.iter().filter(|p| p.label == label) {
            rows.push(vec![
                p.label.clone(),
                p.config.clone(),
                format!("{:.3}", p.time_secs),
                format!("{:.3}", p.time_secs / base),
                if p.verified {
                    "ok".into()
                } else {
                    "FAIL".into()
                },
            ]);
        }
    }
    let text = format!(
        "{name} — NPB times on {} (normalized to static-polling)\n\n{}",
        device.name(),
        table(
            &["instance", "config", "time (s)", "normalized", "verify"],
            &rows
        )
    );
    (text, points)
}

// ========================================================================
// Figure 8 — MPI_Init time
// ========================================================================

/// One init-time point.
#[derive(Debug, Clone)]
pub struct InitPoint {
    /// Device.
    pub device: String,
    /// Connection mode.
    pub mode: String,
    /// Ranks.
    pub np: usize,
    /// Mean `MPI_Init` time across ranks, ms.
    pub init_ms: f64,
}

impl_json!(InitPoint {
    device,
    mode,
    np,
    init_ms
});

/// Reproduce Fig. 8: `MPI_Init` time vs process count for client/server
/// static, peer-to-peer static, and on-demand.
pub fn fig8() -> (String, Vec<InitPoint>) {
    let mut items = Vec::new();
    for device in [Device::Clan, Device::Berkeley] {
        let modes: Vec<ConnMode> = if device == Device::Clan {
            vec![
                ConnMode::StaticClientServer,
                ConnMode::StaticPeerToPeer,
                ConnMode::OnDemand,
            ]
        } else {
            // BVIA provides only the peer-to-peer model.
            vec![ConnMode::StaticPeerToPeer, ConnMode::OnDemand]
        };
        let nps: Vec<usize> = if device == Device::Clan {
            vec![2, 4, 6, 8, 10, 12, 14, 16]
        } else {
            vec![2, 4, 6, 8]
        };
        for mode in modes {
            for &np in &nps {
                items.push((device, mode, np));
            }
        }
    }
    let points = runner::timed("fig8_init_time", || {
        runner::par_map(items, |(device, mode, np)| {
            let report = Universe::new(np, device, mode, WaitPolicy::Polling)
                .run(|_mpi| ())
                .unwrap();
            InitPoint {
                device: device.name().into(),
                mode: mode.name().into(),
                np,
                init_ms: report.avg_init_time().as_secs_f64() * 1e3,
            }
        })
    });
    write_json("fig8_init_time", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.device.clone(),
                p.mode.clone(),
                p.np.to_string(),
                fmt(p.init_ms),
            ]
        })
        .collect();
    let text = format!(
        "Figure 8 — MPI_Init time vs process count (ms)\n\n{}",
        table(&["device", "mode", "procs", "init (ms)"], &rows)
    );
    (text, points)
}

// ========================================================================
// Large-N series — fig8/tab2 beyond paper scale (state-machine engine)
// ========================================================================

/// Modes exercised at large N: the paper's worst-case static setup vs
/// on-demand. BVIA only implements the peer-to-peer static model.
fn largen_modes(device: Device) -> Vec<(&'static str, ConnMode)> {
    match device {
        Device::Clan => vec![
            ("static-cs", ConnMode::StaticClientServer),
            ("on-demand", ConnMode::OnDemand),
        ],
        Device::Berkeley => vec![
            ("static-p2p", ConnMode::StaticPeerToPeer),
            ("on-demand", ConnMode::OnDemand),
        ],
    }
}

/// On-demand scales to 4096 ranks. Static modes stop where the NIC VI
/// table stops them: a fully wired world needs np-1 VIs per process, so
/// cLAN (`max_vis` 1024) tops out at np = 1024 and BVIA (`max_vis` 256)
/// at np = 256 — which is the paper's resource argument made literal.
fn largen_sizes(device: Device, mode: ConnMode) -> &'static [usize] {
    match (device, mode) {
        (_, ConnMode::OnDemand) => &[256, 1024, 4096],
        (Device::Clan, _) => &[256, 1024],
        (Device::Berkeley, _) => &[256],
    }
}

/// A large-N world: always the state-machine engine backend (one OS
/// thread, O(used-channels) memory). Threads-vs-sm result parity is
/// enforced by `tests/backend_parity.rs`, so the numbers here are
/// backend-independent.
fn largen_universe(np: usize, device: Device, mode: ConnMode) -> Universe {
    let mut uni = Universe::new(np, device, mode, WaitPolicy::Polling);
    uni.config_mut().engine_backend = Some(viampi_sim::Backend::Sm);
    uni
}

/// Fig. 8 extension: `MPI_Init` time at np = 256/1024/4096 (static capped
/// at 1024), both devices, on the state-machine engine.
pub fn fig8_largen() -> (String, Vec<InitPoint>) {
    let mut items = Vec::new();
    for device in [Device::Clan, Device::Berkeley] {
        for (label, mode) in largen_modes(device) {
            for &np in largen_sizes(device, mode) {
                items.push((device, label, mode, np));
            }
        }
    }
    let points = runner::timed("fig8_largen", || {
        runner::par_map(items, |(device, label, mode, np)| {
            let report = largen_universe(np, device, mode).run(|_mpi| ()).unwrap();
            InitPoint {
                device: device.name().into(),
                mode: label.into(),
                np,
                init_ms: report.avg_init_time().as_secs_f64() * 1e3,
            }
        })
    });
    write_json("fig8_largen", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.device.clone(),
                p.mode.clone(),
                p.np.to_string(),
                fmt(p.init_ms),
            ]
        })
        .collect();
    let text = format!(
        "Figure 8 (large-N) — MPI_Init time vs process count (ms)\n\n{}",
        table(&["device", "mode", "procs", "init (ms)"], &rows)
    );
    (text, points)
}

/// One large-N resource row.
#[derive(Debug, Clone)]
pub struct Tab2LargenRow {
    /// Workload name.
    pub app: String,
    /// Device.
    pub device: String,
    /// Connection-mode label.
    pub mode: String,
    /// Ranks.
    pub np: usize,
    /// Average live VIs per process.
    pub avg_vis: f64,
    /// Utilization (used/created).
    pub utilization: f64,
    /// Peak pinned eager-pool bytes per process.
    pub pinned_peak: usize,
    /// Most channels any one rank materialized — the O(used-channels)
    /// witness: ≪ np for on-demand sparse workloads, np-1 for static.
    pub chan_peak: usize,
    /// Largest per-rank fiber stack usage in bytes (sm backend gauge).
    /// Printed in the table but not serialized: it is the deepest stack
    /// address seen at a park, so it moves with compiled frame sizes and
    /// would break the record's byte identity across toolchains.
    pub rank_mem_peak: u64,
}

impl_json!(Tab2LargenRow {
    app,
    device,
    mode,
    np,
    avg_vis,
    utilization,
    pinned_peak,
    chan_peak
});

#[derive(Clone, Copy)]
enum LargenApp {
    Ring,
    CgExchange,
}

/// Table 2 extension: VI/memory resources for a ring and a CG-style
/// neighbour exchange at np = 256/1024/4096 (static capped at 1024).
pub fn tab2_largen() -> (String, Vec<Tab2LargenRow>) {
    let mut items = Vec::new();
    for device in [Device::Clan, Device::Berkeley] {
        for (label, mode) in largen_modes(device) {
            for &np in largen_sizes(device, mode) {
                for (app, kind) in [("Ring", LargenApp::Ring), ("CG-x", LargenApp::CgExchange)] {
                    items.push((app, device, label, mode, np, kind));
                }
            }
        }
    }
    let data = runner::timed("tab2_largen", || {
        runner::par_map(items, |(app, device, label, mode, np, kind)| {
            let report = largen_universe(np, device, mode)
                .run(move |mpi| match kind {
                    LargenApp::Ring => {
                        ring::run(mpi, 4, 64);
                    }
                    LargenApp::CgExchange => {
                        let partners = patterns::cg_rank(mpi.size(), mpi.rank());
                        patterns::neighbor_exchange(mpi, &partners, 2, 64);
                    }
                })
                .unwrap();
            Tab2LargenRow {
                app: app.into(),
                device: device.name().into(),
                mode: label.into(),
                np,
                avg_vis: report.avg_vis(),
                utilization: report.utilization(),
                pinned_peak: report.max_pinned(),
                chan_peak: report
                    .ranks
                    .iter()
                    .map(|r| r.channels.len())
                    .max()
                    .unwrap_or(0),
                rank_mem_peak: report.metrics.get("sim.sm.rank_mem_peak").unwrap_or(0),
            }
        })
    });
    write_json("tab2_largen", &data);
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.device.clone(),
                r.mode.clone(),
                r.np.to_string(),
                fmt(r.avg_vis),
                fmt(r.utilization),
                format!("{}K", r.pinned_peak >> 10),
                r.chan_peak.to_string(),
                format!("{}K", r.rank_mem_peak >> 10),
            ]
        })
        .collect();
    let text = format!(
        "Table 2 (large-N) — resources per process at scale\n\n{}",
        table(
            &["app", "device", "mode", "size", "VIs", "util", "pin", "chan pk", "stack pk"],
            &rows
        )
    );
    (text, data)
}

// ========================================================================
// Figure 9 — MPI+threads message rate: shared VI vs multi-VI endpoints
// ========================================================================

/// One Fig. 9 series point: `threads` simulated producer threads per rank
/// driving a bidirectional pair exchange, either funnelled through one
/// shared VI per peer or striped across `vis_per_peer` endpoint VIs.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Device profile name.
    pub device: String,
    /// Connection-mode label.
    pub mode: String,
    /// Endpoint layout: `shared` (one VI per pair) or `striped`
    /// (`vis_per_peer == threads`, one VI per producer thread).
    pub endpoints: String,
    /// Configured VIs per peer pair.
    pub vis_per_peer: usize,
    /// Simulated producer threads per rank.
    pub threads: usize,
    /// Steady-state message rate per rank, thousand msgs/s.
    pub rate_kmsgs: f64,
    /// Total NIC producer switches (shared-VI lock-convoy events).
    pub producer_switches: u64,
    /// Total virtual time charged to VI lock convoys, µs.
    pub convoy_us: f64,
}

impl_json!(Fig9Point {
    device,
    mode,
    endpoints,
    vis_per_peer,
    threads,
    rate_kmsgs,
    producer_switches,
    convoy_us
});

/// The Fig. 9 measurement kernel: per-rank steady-state message rate
/// (thousand msgs/s) of a `threads`-producer bidirectional pair exchange
/// at np = 2, with `vis_per_peer` endpoint VIs per pair. A one-message
/// warm-up round brings every stripe up first (so on-demand connection
/// setup stays out of the measured window), then `msgs` messages per
/// thread are timed.
pub fn threaded_rate(
    device: Device,
    mode: ConnMode,
    vis_per_peer: usize,
    threads: usize,
    msgs: usize,
    len: usize,
) -> (f64, u64, f64) {
    let mut uni = Universe::new(2, device, mode, WaitPolicy::Polling);
    uni.config_mut().vis_per_peer = vis_per_peer;
    let report = uni
        .run(move |mpi| {
            let peer = 1 - mpi.rank();
            patterns::threaded_pair_exchange(mpi, peer, threads, 1, len);
            let t0 = mpi.now();
            patterns::threaded_pair_exchange(mpi, peer, threads, msgs, len);
            (threads * msgs) as f64 / mpi.now().since(t0).as_secs_f64() / 1e3
        })
        .unwrap();
    let rate = report.results[0];
    let switches = report.metrics.get("nic.vi.producer_switches").unwrap_or(0);
    let convoy_us = report.metrics.get("nic.vi.convoy_ns").unwrap_or(0) as f64 / 1e3;
    (rate, switches, convoy_us)
}

/// Fig. 9: message rate vs producer threads T ∈ {1, 2, 4, 8} for a shared
/// single VI per pair vs `T` endpoint VIs (Zambre-style multi-VI
/// endpoints), under both connection modes on both devices. The shared VI
/// serializes producers through one doorbell and pays the device's
/// lock-convoy charge on every producer switch; striping trades that for
/// the NIC's per-VI polling overhead, and wins from T = 4 up.
pub fn fig9() -> (String, Vec<Fig9Point>) {
    const MSGS: usize = 256;
    const LEN: usize = 256;
    let mut items = Vec::new();
    for device in [Device::Clan, Device::Berkeley] {
        for (label, mode) in [
            ("on-demand", ConnMode::OnDemand),
            ("static-p2p", ConnMode::StaticPeerToPeer),
        ] {
            for threads in [1usize, 2, 4, 8] {
                for (endpoints, vis) in [("shared", 1usize), ("striped", threads)] {
                    items.push((device, label, mode, threads, endpoints, vis));
                }
            }
        }
    }
    let points = runner::timed("fig9_threads", || {
        runner::par_map(items, |(device, label, mode, threads, endpoints, vis)| {
            let (rate_kmsgs, producer_switches, convoy_us) =
                threaded_rate(device, mode, vis, threads, MSGS, LEN);
            Fig9Point {
                device: device.name().into(),
                mode: label.into(),
                endpoints: endpoints.into(),
                vis_per_peer: vis,
                threads,
                rate_kmsgs,
                producer_switches,
                convoy_us,
            }
        })
    });
    write_json("fig9_threads", &points);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.device.clone(),
                p.mode.clone(),
                p.endpoints.clone(),
                p.vis_per_peer.to_string(),
                p.threads.to_string(),
                fmt(p.rate_kmsgs),
                p.producer_switches.to_string(),
                fmt(p.convoy_us),
            ]
        })
        .collect();
    let text = format!(
        "Figure 9 — MPI+threads message rate: shared VI vs multi-VI endpoints\n\n{}",
        table(
            &[
                "device",
                "mode",
                "endpoints",
                "VIs",
                "T",
                "kmsg/s",
                "switches",
                "convoy (µs)"
            ],
            &rows
        )
    );
    (text, points)
}
