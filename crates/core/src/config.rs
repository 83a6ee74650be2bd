//! Run configuration: device selection, connection-management mode, wait
//! policy, and protocol tuning knobs (eager threshold, credits, buffers).

use viampi_sim::SimDuration;
use viampi_via::{DeviceProfile, FaultProfile};

/// Which simulated interconnect to run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// GigaNet cLAN (hardware VIA).
    Clan,
    /// Berkeley VIA over Myrinet (firmware VIA).
    Berkeley,
}

impl Device {
    /// Resolve to the cost profile.
    pub fn profile(self) -> DeviceProfile {
        match self {
            Device::Clan => DeviceProfile::clan(),
            Device::Berkeley => DeviceProfile::berkeley(),
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Device::Clan => "clan",
            Device::Berkeley => "bvia",
        }
    }
}

/// Connection-management strategy (the paper's subject).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnMode {
    /// Fully-connected network built in `MPI_Init` with the VIA 0.95
    /// client/server model. MVICH's implementation establishes the pairs in
    /// a fixed global order, i.e. **serialized** (paper §5.6).
    StaticClientServer,
    /// Fully-connected network built in `MPI_Init` with the VIA 1.0
    /// peer-to-peer model; all requests are issued concurrently.
    StaticPeerToPeer,
    /// The paper's contribution: a VI is created and a peer-to-peer request
    /// issued only when a pair of processes first communicates.
    OnDemand,
}

impl ConnMode {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ConnMode::StaticClientServer => "static-cs",
            ConnMode::StaticPeerToPeer => "static-p2p",
            ConnMode::OnDemand => "on-demand",
        }
    }

    /// True for the two fully-connected-at-init modes.
    pub fn is_static(self) -> bool {
        !matches!(self, ConnMode::OnDemand)
    }
}

/// Completion-wait policy used by the blocking progress engine (paper §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Poll until completion (MVICH with a very large spincount).
    Polling,
    /// MVICH default: poll `spincount` times, then fall back to the
    /// provider's blocking wait. On cLAN that wait goes through the kernel
    /// and pays an interrupt wake-up penalty; on Berkeley VIA wait *is* a
    /// poll loop, so the two policies coincide.
    SpinWait {
        /// Number of poll iterations before blocking (MVICH default: 100).
        spincount: u32,
    },
}

impl WaitPolicy {
    /// The MVICH default spin-then-wait policy.
    pub fn spinwait_default() -> Self {
        WaitPolicy::SpinWait { spincount: 100 }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WaitPolicy::Polling => "polling",
            WaitPolicy::SpinWait { .. } => "spinwait",
        }
    }
}

/// Full configuration of an MPI run.
#[derive(Debug, Clone)]
pub struct MpiConfig {
    /// Interconnect.
    pub device: Device,
    /// Connection management strategy.
    pub conn: ConnMode,
    /// Completion wait policy.
    pub wait: WaitPolicy,
    /// Eager → rendezvous switch point in bytes (MVICH default: 5000).
    pub eager_threshold: usize,
    /// Pre-posted eager receive buffers per VI (also the initial credit
    /// count). MVICH associates ~120 KiB with each VI: 15 × 8 KiB.
    pub num_bufs: usize,
    /// Size of each eager buffer in bytes (header + payload).
    pub buf_size: usize,
    /// Return credits explicitly once this many have accumulated with no
    /// traffic to piggyback on.
    pub credit_return_threshold: usize,
    /// Host compute rate used by `Mpi::compute` (flops per microsecond —
    /// ~280 for the testbed's 700 MHz Pentium III Xeon).
    pub flops_per_us: f64,
    /// Per-MPI-call software overhead (argument checking, queue walks).
    pub call_overhead: SimDuration,
    /// Model OS preemption noise (timer ticks / daemons on the testbed's
    /// Linux 2.2 SMP nodes). Deterministic; disable for exact-equality
    /// timing tests.
    pub os_noise: bool,
    /// Mean interval between preemptions per rank, µs.
    pub noise_interval_us: u64,
    /// Preemption duration, µs.
    pub noise_duration_us: u64,
    /// Enable the paper's *future work*: dynamic per-VI flow control.
    /// Channels start with `initial_bufs` buffers and grow toward
    /// `num_bufs` under traffic pressure, so pinned memory follows actual
    /// per-peer intensity instead of the worst case.
    pub dynamic_credits: bool,
    /// Starting buffers per VI under dynamic flow control.
    pub initial_bufs: usize,
    /// Record a per-rank protocol trace (see [`crate::trace`]).
    pub trace: bool,
    /// Base connection retry timeout, µs. Comfortably above a fault-free
    /// establishment (~205 µs on cLAN, ~390 µs on Berkeley VIA), so a retry
    /// only ever fires on an actually-lost packet. Doubles on each attempt.
    pub conn_retry_timeout_us: u64,
    /// Retry budget per connection: after this many retransmissions the
    /// channel is failed and pending requests error out.
    pub conn_retry_max: u32,
    /// Connection-path fault injection (see [`viampi_via::fault`]). `None`
    /// — the default and the setting of every experiment — leaves the
    /// fabric perfectly reliable *and* disarms the retry machinery, so
    /// fault-free runs schedule no extra timer events and stay bit-identical
    /// with earlier revisions.
    pub faults: Option<FaultProfile>,
    /// Schedule-exploration seed for the engine's equal-clock tie-break
    /// (see [`viampi_sim::Engine::set_sched_seed`]). `None` keeps the
    /// default round-robin order.
    pub sched_seed: Option<u64>,
    /// Compute-time coalescing override (see
    /// [`viampi_sim::Engine::set_coalesce`]). `None` defers to
    /// `VIAMPI_NO_COALESCE` (default on). Results are bit-identical either
    /// way.
    pub coalesce: Option<bool>,
    /// Execution-substrate override (see [`viampi_sim::Engine::set_backend`]):
    /// `threads` (one OS thread per rank) or `sm` (proc-state-machine
    /// fibers on one thread, the large-N substrate). `None` defers to
    /// `VIAMPI_ENGINE` (default `threads`). Results are bit-identical
    /// either way.
    pub engine_backend: Option<viampi_sim::Backend>,
    /// VIs (endpoints) per peer pair — the Zambre et al. endpoint model.
    /// Each pair holds this many independent stripe channels, each with its
    /// own VI, credits and send FIFO; a rank's sends pick the stripe
    /// `thread % vis_per_peer` (see [`crate::Mpi::set_thread`]), so per-VI
    /// FIFO is preserved while cross-VI ordering is relaxed. On-demand
    /// brings stripes up lazily on first use; the static modes must wire
    /// all of them in `MPI_Init`. Default 1 reproduces the paper's
    /// one-VI-per-pair protocol exactly.
    pub vis_per_peer: usize,
}

impl MpiConfig {
    /// Paper-faithful defaults for a device/mode/policy combination.
    pub fn new(device: Device, conn: ConnMode, wait: WaitPolicy) -> Self {
        MpiConfig {
            device,
            conn,
            wait,
            eager_threshold: 5000,
            num_bufs: 15,
            buf_size: 8192,
            credit_return_threshold: 7,
            flops_per_us: 280.0,
            call_overhead: SimDuration::nanos(400),
            os_noise: true,
            noise_interval_us: 1200,
            noise_duration_us: 60,
            dynamic_credits: false,
            initial_bufs: 4,
            trace: false,
            conn_retry_timeout_us: 2000,
            conn_retry_max: 10,
            faults: None,
            sched_seed: None,
            coalesce: None,
            engine_backend: None,
            vis_per_peer: 1,
        }
    }

    /// Largest eager payload a single buffer can carry.
    pub fn max_eager_payload(&self) -> usize {
        self.buf_size - crate::protocol::HEADER_LEN
    }

    /// Bytes of pinned memory each fully provisioned VI consumes (receive
    /// pool + send staging pool), the quantity behind the paper's "120 kB
    /// per VI" resource argument.
    pub fn per_vi_buffer_bytes(&self) -> usize {
        2 * self.num_bufs * self.buf_size
    }

    /// Validate and normalize (e.g. grow buffers to fit the threshold).
    pub fn normalized(mut self) -> Self {
        let need = self.eager_threshold + crate::protocol::HEADER_LEN;
        if self.buf_size < need {
            self.buf_size = need.next_power_of_two();
        }
        assert!(self.num_bufs >= 2, "need at least 2 credits for progress");
        assert!(
            (1..=16).contains(&self.vis_per_peer),
            "vis_per_peer must be in 1..=16"
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = MpiConfig::new(Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling);
        assert_eq!(c.eager_threshold, 5000);
        // 15 × 8 KiB = 120 KiB receive pool per VI, as in MVICH.
        assert_eq!(c.num_bufs * c.buf_size, 120 << 10);
        assert!(c.max_eager_payload() >= c.eager_threshold);
    }

    #[test]
    fn normalization_grows_buffers_for_large_thresholds() {
        let c = MpiConfig {
            eager_threshold: 60_000,
            ..MpiConfig::new(Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling)
        }
        .normalized();
        assert!(c.max_eager_payload() >= 60_000);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Device::Clan.name(), "clan");
        assert_eq!(Device::Berkeley.name(), "bvia");
        assert_eq!(ConnMode::OnDemand.name(), "on-demand");
        assert_eq!(ConnMode::StaticPeerToPeer.name(), "static-p2p");
        assert_eq!(ConnMode::StaticClientServer.name(), "static-cs");
        assert_eq!(WaitPolicy::Polling.name(), "polling");
        assert_eq!(WaitPolicy::spinwait_default().name(), "spinwait");
    }

    #[test]
    fn static_predicate() {
        assert!(ConnMode::StaticClientServer.is_static());
        assert!(ConnMode::StaticPeerToPeer.is_static());
        assert!(!ConnMode::OnDemand.is_static());
    }
}
