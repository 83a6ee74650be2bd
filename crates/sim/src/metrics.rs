//! Cross-layer metrics registry.
//!
//! Every layer of the stack (engine, fabric/NIC, MPI device) publishes its
//! counters into a [`Registry`]: a statically registered, index-addressed
//! store of typed metrics — monotone counters, point-in-time gauges and
//! log₂-bucket histograms. Registration is static: a layer declares its
//! metric set once with [`metric_defs!`], which yields typed handles
//! ([`CounterId`]/[`GaugeId`]/[`HistId`]) and the definition tables a
//! registry is built from, so every update is a bounds-checked vector index
//! — no hashing, no locks, no allocation on the update path.
//!
//! Everything is virtual-time aware by construction: values are only ever
//! driven by simulation activity, so a [`MetricsSnapshot`] is as
//! deterministic as the run that produced it — identical across repeat
//! runs, worker counts, and the engine's fast-path setting. A registry
//! built with [`Registry::disabled`] turns every update into an early-out
//! no-op and holds no storage at all.
//!
//! Snapshots from different layers (and different ranks) compose: each
//! entry carries its cross-registry merge rule ([`MergeOp`]), so per-rank
//! snapshots fold into the flat per-run snapshot exposed by the `core`
//! crate's `RunReport`.

/// Static description of one metric, produced by [`metric_defs!`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted metric name (`layer.metric`), unique within its registry.
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

/// Typed handle of a registered counter (index into the counter table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Typed handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Typed handle of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

impl CounterId {
    /// Handle for the counter registered at `idx` (use via [`metric_defs!`]).
    pub const fn new(idx: u32) -> Self {
        CounterId(idx)
    }
}

impl GaugeId {
    /// Handle for the gauge registered at `idx` (use via [`metric_defs!`]).
    pub const fn new(idx: u32) -> Self {
        GaugeId(idx)
    }
}

impl HistId {
    /// Handle for the histogram registered at `idx` (use via [`metric_defs!`]).
    pub const fn new(idx: u32) -> Self {
        HistId(idx)
    }
}

/// Declare a metric set: generates one typed handle constant per metric
/// plus `COUNTER_DEFS` / `GAUGE_DEFS` / `HIST_DEFS` tables in registration
/// order and a `registry()` constructor. Invoke inside a dedicated module:
///
/// ```
/// pub mod my_metrics {
///     viampi_sim::metric_defs! {
///         counters { HITS => "demo.hits": "Times the demo path ran" }
///         gauges { DEPTH => "demo.depth": "Current queue depth" }
///         hists { BYTES => "demo.bytes": "Payload size distribution" }
///     }
/// }
/// let mut reg = my_metrics::registry();
/// reg.inc(my_metrics::HITS);
/// assert_eq!(reg.counter(my_metrics::HITS), 1);
/// ```
#[macro_export]
macro_rules! metric_defs {
    (
        counters { $($cid:ident => $cname:literal : $chelp:literal),* $(,)? }
        gauges { $($gid:ident => $gname:literal : $ghelp:literal),* $(,)? }
        hists { $($hid:ident => $hname:literal : $hhelp:literal),* $(,)? }
    ) => {
        #[allow(non_camel_case_types, dead_code, clippy::upper_case_acronyms)]
        enum __CounterIdx { $($cid),* }
        #[allow(non_camel_case_types, dead_code, clippy::upper_case_acronyms)]
        enum __GaugeIdx { $($gid),* }
        #[allow(non_camel_case_types, dead_code, clippy::upper_case_acronyms)]
        enum __HistIdx { $($hid),* }

        $(
            #[doc = $chelp]
            pub const $cid: $crate::metrics::CounterId =
                $crate::metrics::CounterId::new(__CounterIdx::$cid as u32);
        )*
        $(
            #[doc = $ghelp]
            pub const $gid: $crate::metrics::GaugeId =
                $crate::metrics::GaugeId::new(__GaugeIdx::$gid as u32);
        )*
        $(
            #[doc = $hhelp]
            pub const $hid: $crate::metrics::HistId =
                $crate::metrics::HistId::new(__HistIdx::$hid as u32);
        )*

        /// Counter definitions, in registration order.
        pub const COUNTER_DEFS: &[$crate::metrics::MetricDef] = &[
            $($crate::metrics::MetricDef { name: $cname, help: $chelp }),*
        ];
        /// Gauge definitions, in registration order.
        pub const GAUGE_DEFS: &[$crate::metrics::MetricDef] = &[
            $($crate::metrics::MetricDef { name: $gname, help: $ghelp }),*
        ];
        /// Histogram definitions, in registration order.
        pub const HIST_DEFS: &[$crate::metrics::MetricDef] = &[
            $($crate::metrics::MetricDef { name: $hname, help: $hhelp }),*
        ];

        /// A fresh enabled registry over this metric set.
        pub fn registry() -> $crate::metrics::Registry {
            $crate::metrics::Registry::new(COUNTER_DEFS, GAUGE_DEFS, HIST_DEFS)
        }
    };
}

/// The engine's own metric set (`crates/sim` publishes here at the end of
/// every run; see `Outcome::metrics`).
pub mod engine {
    crate::metric_defs! {
        counters {
            HANDOFFS => "sim.handoffs": "Scheduler token grants, including fast-path self-resumes",
            EVENTS => "sim.events": "World events processed",
            FAST_RESUMES => "sim.fast_resumes": "Token passes short-circuited by the self-resume fast path",
            EVENTS_SCHEDULED => "sim.events_scheduled": "Events ever pushed on the event queue",
            COALESCE_ADVANCES => "sim.coalesce.advances": "advance() calls absorbed into deferred compute clocks",
            COALESCE_FLUSHES => "sim.coalesce.flushes": "Deferred compute stretches flushed as one authoritative advance",
            DIRECT_HANDOFFS => "sim.direct.handoffs": "Token grants performed inline by the yielding process",
            DIRECT_SELF => "sim.direct.self_resumes": "Inline decisions that returned the token to the caller after event processing",
            SM_POLLS => "sim.sm.polls": "Scheduling decisions taken by the state-machine backend's driver paths",
            SM_PARKS => "sim.sm.parks": "Fiber suspensions under the state-machine backend",
            SM_RESUMES => "sim.sm.resumes": "Fiber activations (first starts and resumes) under the state-machine backend",
            WHEEL_DUE => "sim.wheel.push_due": "Events pushed straight into the due front-buffer heap",
            WHEEL_L0 => "sim.wheel.push_l0": "Events filed in a level-0 wheel slot",
            WHEEL_L1 => "sim.wheel.push_l1": "Events filed in a level-1 wheel slot",
            WHEEL_OVERFLOW => "sim.wheel.push_overflow": "Events parked in the far-future overflow heap",
            WHEEL_CASCADES => "sim.wheel.cascades": "Level-1/overflow slot cascades into level 0",
        }
        gauges {
            READY_PEAK => "sim.ready_peak": "Peak ready-heap depth",
            QUEUE_PEAK => "sim.queue_peak": "Peak event-queue occupancy",
            SM_RANK_MEM_PEAK => "sim.sm.rank_mem_peak": "Largest per-rank fiber stack usage in bytes (state-machine backend)",
        }
        hists {}
    }
}

/// Counters of the simcheck campaign engine (seed sweeps, coverage-directed
/// exploration, violation shrinking). Summed across shards into the campaign
/// summary JSON.
pub mod campaign {
    crate::metric_defs! {
        counters {
            SEEDS_RUN => "sim.campaign.seeds_run": "Scenario keys executed (roots, children and shrink probes)",
            COVERAGE_SIGNATURES => "sim.campaign.coverage_signatures": "Distinct coverage signatures in the cumulative map",
            DERIVED_SEEDS => "sim.campaign.derived_seeds": "Child keys spawned from rare-signature hits",
            SHRINK_STEPS => "sim.campaign.shrink_steps": "Shrink candidate runs attempted while minimizing violations",
            VIOLATIONS => "sim.campaign.violations": "Violating scenario keys found (pre-shrink)",
        }
        gauges {}
        hists {}
    }
}

/// One log₂-bucket histogram: `buckets[i]` counts observations whose value
/// has `i` significant bits (bucket 0 holds zeros).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Log₂ buckets (65 covers the full `u64` range).
    pub buckets: [u64; 65],
}

impl Hist {
    fn new() -> Self {
        Hist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; 65],
        }
    }

    #[inline]
    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }
}

/// An index-addressed store of one layer's metrics.
///
/// Built from the static definition tables of a [`metric_defs!`] set;
/// updates go through the typed handles the same macro produced. A
/// disabled registry ([`Registry::disabled`]) allocates nothing and makes
/// every update a no-op.
#[derive(Debug, Clone)]
pub struct Registry {
    enabled: bool,
    counter_defs: &'static [MetricDef],
    gauge_defs: &'static [MetricDef],
    hist_defs: &'static [MetricDef],
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hists: Vec<Hist>,
}

impl Registry {
    /// An enabled registry with one slot per definition, all zero.
    pub fn new(
        counter_defs: &'static [MetricDef],
        gauge_defs: &'static [MetricDef],
        hist_defs: &'static [MetricDef],
    ) -> Self {
        Registry {
            enabled: true,
            counter_defs,
            gauge_defs,
            hist_defs,
            counters: vec![0; counter_defs.len()],
            gauges: vec![0; gauge_defs.len()],
            hists: hist_defs.iter().map(|_| Hist::new()).collect(),
        }
    }

    /// A disabled registry: no storage, every update an early-out no-op,
    /// every read zero, and an empty snapshot.
    pub fn disabled(
        counter_defs: &'static [MetricDef],
        gauge_defs: &'static [MetricDef],
        hist_defs: &'static [MetricDef],
    ) -> Self {
        Registry {
            enabled: false,
            counter_defs,
            gauge_defs,
            hist_defs,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Whether updates are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, c: CounterId) {
        self.add(c, 1);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&mut self, c: CounterId, n: u64) {
        if self.enabled {
            self.counters[c.0 as usize] += n;
        }
    }

    /// Current counter value (zero when disabled).
    #[inline]
    pub fn counter(&self, c: CounterId) -> u64 {
        if self.enabled {
            self.counters[c.0 as usize]
        } else {
            0
        }
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn gauge_set(&mut self, g: GaugeId, v: u64) {
        if self.enabled {
            self.gauges[g.0 as usize] = v;
        }
    }

    /// Add `n` to a gauge.
    #[inline]
    pub fn gauge_add(&mut self, g: GaugeId, n: u64) {
        if self.enabled {
            self.gauges[g.0 as usize] += n;
        }
    }

    /// Subtract `n` from a gauge.
    #[inline]
    pub fn gauge_sub(&mut self, g: GaugeId, n: u64) {
        if self.enabled {
            self.gauges[g.0 as usize] -= n;
        }
    }

    /// Raise a gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn gauge_max(&mut self, g: GaugeId, v: u64) {
        if self.enabled {
            let slot = &mut self.gauges[g.0 as usize];
            if v > *slot {
                *slot = v;
            }
        }
    }

    /// Current gauge value (zero when disabled).
    #[inline]
    pub fn gauge(&self, g: GaugeId) -> u64 {
        if self.enabled {
            self.gauges[g.0 as usize]
        } else {
            0
        }
    }

    /// Record one observation in a histogram.
    #[inline]
    pub fn observe(&mut self, h: HistId, v: u64) {
        if self.enabled {
            self.hists[h.0 as usize].observe(v);
        }
    }

    /// The histogram behind a handle (`None` when disabled).
    pub fn hist(&self, h: HistId) -> Option<&Hist> {
        if self.enabled {
            Some(&self.hists[h.0 as usize])
        } else {
            None
        }
    }

    /// Flatten the registry into a snapshot, in registration order.
    /// Counters merge by sum; gauges (high-water marks and point-in-time
    /// values) merge by max; a histogram flattens to `_count`/`_sum`
    /// (summed) and `_max` (maxed) entries.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries = Vec::new();
        if !self.enabled {
            return MetricsSnapshot { entries };
        }
        for (def, &v) in self.counter_defs.iter().zip(&self.counters) {
            entries.push(MetricEntry {
                name: def.name.to_string(),
                op: MergeOp::Add,
                value: v,
            });
        }
        for (def, &v) in self.gauge_defs.iter().zip(&self.gauges) {
            entries.push(MetricEntry {
                name: def.name.to_string(),
                op: MergeOp::Max,
                value: v,
            });
        }
        for (def, h) in self.hist_defs.iter().zip(&self.hists) {
            entries.push(MetricEntry {
                name: format!("{}_count", def.name),
                op: MergeOp::Add,
                value: h.count,
            });
            entries.push(MetricEntry {
                name: format!("{}_sum", def.name),
                op: MergeOp::Add,
                value: h.sum,
            });
            entries.push(MetricEntry {
                name: format!("{}_max", def.name),
                op: MergeOp::Max,
                value: h.max,
            });
        }
        MetricsSnapshot { entries }
    }
}

/// How an entry combines with the same-named entry of another snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// Sum the values (monotone counters).
    Add,
    /// Keep the larger value (gauges, high-water marks).
    Max,
}

/// One flattened metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Dotted metric name.
    pub name: String,
    /// Cross-snapshot merge rule.
    pub op: MergeOp,
    /// The value.
    pub value: u64,
}

impl MetricEntry {
    /// A sum-merged entry (counter semantics).
    pub fn add(name: impl Into<String>, value: u64) -> Self {
        MetricEntry {
            name: name.into(),
            op: MergeOp::Add,
            value,
        }
    }

    /// A max-merged entry (gauge semantics).
    pub fn max(name: impl Into<String>, value: u64) -> Self {
        MetricEntry {
            name: name.into(),
            op: MergeOp::Max,
            value,
        }
    }
}

/// A flat, ordered collection of metric values — the exportable form of
/// one or many [`Registry`]s. Entry order is registration order and is
/// stable across runs, so [`MetricsSnapshot::render`] output is
/// byte-comparable between runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// The entries, in registration/merge order.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self`: same-named entries combine under their
    /// [`MergeOp`]; names new to `self` are appended in `other`'s order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for e in &other.entries {
            match self.entries.iter_mut().find(|m| m.name == e.name) {
                Some(m) => match m.op {
                    MergeOp::Add => m.value += e.value,
                    MergeOp::Max => m.value = m.value.max(e.value),
                },
                None => self.entries.push(e.clone()),
            }
        }
    }

    /// Value of the named entry, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    /// Deterministic text rendering: one `name value` line per entry, in
    /// snapshot order (byte-identical for equal snapshots).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(out, "{:<width$}  {}", e.name, e.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod demo {
        crate::metric_defs! {
            counters {
                HITS => "demo.hits": "Times something happened",
                BYTES => "demo.bytes": "Bytes moved",
            }
            gauges {
                DEPTH => "demo.depth": "Current depth",
                PEAK => "demo.peak": "Peak depth",
            }
            hists {
                SIZE => "demo.size": "Size distribution",
            }
        }
    }

    #[test]
    fn register_increment_snapshot() {
        let mut r = demo::registry();
        r.inc(demo::HITS);
        r.inc(demo::HITS);
        r.add(demo::BYTES, 100);
        r.gauge_add(demo::DEPTH, 3);
        r.gauge_sub(demo::DEPTH, 1);
        r.gauge_max(demo::PEAK, 3);
        r.gauge_max(demo::PEAK, 2);
        r.observe(demo::SIZE, 0);
        r.observe(demo::SIZE, 9);
        assert_eq!(r.counter(demo::HITS), 2);
        assert_eq!(r.counter(demo::BYTES), 100);
        assert_eq!(r.gauge(demo::DEPTH), 2);
        assert_eq!(r.gauge(demo::PEAK), 3);
        let h = r.hist(demo::SIZE).unwrap();
        assert_eq!((h.count, h.sum, h.max), (2, 9, 9));
        assert_eq!(h.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(h.buckets[4], 1, "9 has 4 significant bits");

        let s = r.snapshot();
        assert_eq!(s.get("demo.hits"), Some(2));
        assert_eq!(s.get("demo.bytes"), Some(100));
        assert_eq!(s.get("demo.depth"), Some(2));
        assert_eq!(s.get("demo.peak"), Some(3));
        assert_eq!(s.get("demo.size_count"), Some(2));
        assert_eq!(s.get("demo.size_sum"), Some(9));
        assert_eq!(s.get("demo.size_max"), Some(9));
        assert_eq!(s.get("demo.missing"), None);
    }

    #[test]
    fn handles_index_their_registration_order() {
        assert_eq!(demo::COUNTER_DEFS.len(), 2);
        assert_eq!(demo::COUNTER_DEFS[0].name, "demo.hits");
        assert_eq!(demo::COUNTER_DEFS[1].name, "demo.bytes");
        assert_eq!(demo::GAUGE_DEFS[1].name, "demo.peak");
        assert_eq!(demo::HIST_DEFS[0].name, "demo.size");
    }

    #[test]
    fn disabled_registry_is_a_no_op_without_storage() {
        let mut r = Registry::disabled(demo::COUNTER_DEFS, demo::GAUGE_DEFS, demo::HIST_DEFS);
        assert!(!r.is_enabled());
        r.inc(demo::HITS);
        r.add(demo::BYTES, 1 << 40);
        r.gauge_add(demo::DEPTH, 5);
        r.gauge_max(demo::PEAK, 5);
        r.observe(demo::SIZE, 12345);
        assert_eq!(r.counter(demo::HITS), 0);
        assert_eq!(r.gauge(demo::DEPTH), 0);
        assert!(r.hist(demo::SIZE).is_none());
        assert_eq!(r.snapshot().entries.len(), 0);
        // No storage was ever allocated for the disabled registry.
        assert_eq!(r.counters.capacity(), 0);
        assert_eq!(r.gauges.capacity(), 0);
        assert_eq!(r.hists.capacity(), 0);
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let snap = |hits: u64, peak: u64| {
            let mut r = demo::registry();
            r.add(demo::HITS, hits);
            r.gauge_max(demo::PEAK, peak);
            r.snapshot()
        };
        let mut a = snap(3, 10);
        let b = snap(4, 7);
        a.merge(&b);
        assert_eq!(a.get("demo.hits"), Some(7));
        assert_eq!(a.get("demo.peak"), Some(10));
        // Foreign names append in the other snapshot's order.
        let mut c = a.clone();
        c.merge(&MetricsSnapshot {
            entries: vec![MetricEntry::add("other.thing", 1)],
        });
        assert_eq!(c.get("other.thing"), Some(1));
        assert_eq!(c.entries.last().unwrap().name, "other.thing");
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let mut r = demo::registry();
        r.inc(demo::HITS);
        let a = r.snapshot().render();
        let b = r.snapshot().render();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].starts_with("demo.hits"));
        assert!(lines[0].ends_with(" 1"), "{a}");
    }

    #[test]
    fn engine_metric_set_is_well_formed() {
        let mut r = engine::registry();
        r.add(engine::EVENTS, 2);
        r.gauge_max(engine::QUEUE_PEAK, 5);
        let s = r.snapshot();
        assert_eq!(s.get("sim.events"), Some(2));
        assert_eq!(s.get("sim.queue_peak"), Some(5));
        assert_eq!(
            s.entries.len(),
            engine::COUNTER_DEFS.len() + engine::GAUGE_DEFS.len()
        );
    }
}
