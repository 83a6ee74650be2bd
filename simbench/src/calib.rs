//! Host-speed probe: a fixed kernel that owes nothing to the simulator,
//! timed between simulations so that host time can be expressed on a host
//! of constant speed.
//!
//! A shared host's single-thread speed drifts by tens of percent over
//! tens of seconds (other tenants on the same cores and caches, frequency
//! changes). A simulation timed in one regime and its repeat timed in
//! another differ by that much with no change to the code. The probe runs
//! a mix of the work the simulator does — pointer chasing through a table
//! larger than the private caches, integer mixing, branchy sorting, heap
//! traffic, small allocations and a floating-point stream — so it slows
//! down with the host the way the simulator does, and not at all when the
//! simulator's own code gets slower or faster.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Seconds each component takes on the reference host (the 2-vCPU
/// x86_64 VM of the README's first numbers, median over 500 probes).
const REFERENCE_S: [f64; 6] = [2.45e-3, 0.95e-3, 0.79e-3, 0.86e-3, 4.55e-3, 4.10e-3];

/// How much more the simulator's host time moves than the probe's: a
/// host whose probe runs `x` times slower runs the simulator `x^1.5`
/// times slower. Fitted on the reference host from 185 probe/simulation
/// pairs (barrier, CG, IS, CG exchange and `MPI_Init` simulations over
/// 200 s of drifting host speed, with a larger variant of this probe):
/// the simulator's log-slowdown regressed on the probe's gave slopes of
/// 1.4–1.6, and dividing by `x^1.5` left the smallest spread between
/// 15-second windows. Every simulation timed on
/// the same host is divided by the same power, so a change in the
/// simulator's own speed shows in full whatever the exponent.
const EXPONENT: f64 = 1.5;

/// No probe starts sooner than this after the previous one ended, so
/// short simulations do not pay for one each.
const GAP_S: f64 = 0.2;

const TABLE_LEN: usize = 1 << 20;
const CHASE_STEPS: usize = 20_000;
const MIX_STEPS: u64 = 200_000;
const SORT_LEN: u64 = 32_768;
const HEAP_LEN: u64 = 16_384;
const ALLOCS: u64 = 20_000;
const STREAM_LEN: usize = 1 << 18;

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A random single-cycle permutation of the table indices (Sattolo), so
/// the chase visits every slot before it repeats.
fn table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut v: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut x = 7u64;
        for i in (1..TABLE_LEN).rev() {
            x = mix(x);
            v.swap(i, (x % i as u64) as usize);
        }
        v
    })
}

fn chase(s: u64) -> u64 {
    let t = table();
    let mut at = s as usize % TABLE_LEN;
    for _ in 0..CHASE_STEPS {
        at = t[at] as usize;
    }
    at as u64
}

fn alu(s: u64) -> u64 {
    (0..MIX_STEPS).fold(s, |x, _| mix(x))
}

fn sort(s: u64) -> u64 {
    let mut k: Vec<u64> = (0..SORT_LEN).map(|i| mix(s ^ i)).collect();
    k.sort_unstable();
    k[k.len() / 2]
}

fn heap(s: u64) -> u64 {
    let mut h: BinaryHeap<u64> = (0..HEAP_LEN).map(|i| mix(s ^ i)).collect();
    let mut acc = 0u64;
    while let Some(x) = h.pop() {
        acc = acc.wrapping_add(x);
    }
    acc
}

fn alloc(s: u64) -> u64 {
    let v: Vec<Vec<u8>> = (0..ALLOCS)
        .map(|i| vec![(s ^ i) as u8; 64 + (i as usize % 512)])
        .collect();
    v.iter().map(|x| u64::from(x[0])).sum()
}

fn stream(s: u64) -> u64 {
    let a: Vec<f64> = (0..STREAM_LEN).map(|i| (i as u64 ^ s) as f64).collect();
    let mut b = vec![1.0f64; STREAM_LEN];
    for _ in 0..2 {
        for (bi, ai) in b.iter_mut().zip(&a) {
            *bi = bi.mul_add(0.999, *ai * 1e-3);
        }
    }
    b[STREAM_LEN / 2].to_bits()
}

const COMPONENTS: [fn(u64) -> u64; 6] = [chase, alu, sort, heap, alloc, stream];

/// Host-speed samples taken during a run. A sample is the host's
/// *slowness*: the mean over the components of measured / reference
/// seconds, raised to [`EXPONENT`] — 1.0 on the reference host, and the
/// factor by which a simulation runs slower than there otherwise.
#[derive(Default)]
pub struct Probe {
    samples: Vec<f64>,
    salt: u64,
    last: Option<Instant>,
}

impl Probe {
    /// Take a sample if the previous one ended at least [`GAP_S`] ago.
    pub fn maybe_sample(&mut self) {
        if self.last.is_none_or(|t| t.elapsed().as_secs_f64() >= GAP_S) {
            self.sample();
        }
    }

    /// Time one pass of every component; keep and return the slowness.
    pub fn sample(&mut self) -> f64 {
        table();
        let mut sum = 0.0;
        for (f, r) in COMPONENTS.iter().zip(REFERENCE_S) {
            self.salt += 1;
            let t0 = Instant::now();
            black_box(f(black_box(self.salt)));
            sum += t0.elapsed().as_secs_f64() / r;
        }
        let slowness = (sum / COMPONENTS.len() as f64).powf(EXPONENT);
        self.samples.push(slowness);
        self.last = Some(Instant::now());
        slowness
    }

    /// Every sample so far, in order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_sane() {
        let mut p = Probe::default();
        let v: Vec<f64> = (0..9).map(|_| p.sample()).collect();
        let m = crate::stats::median(&v);
        // Debug builds and very different hosts land far off; only sanity
        // is checked here: positive, finite, and not absurd.
        assert!(m.is_finite() && m > 0.01 && m < 1000.0, "slowness {m}");
        assert_eq!(p.samples().len(), 9);
    }
}
