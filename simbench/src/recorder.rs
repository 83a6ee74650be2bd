//! Host-time recording around the benchmark's own calls into the simulator.
//!
//! Under the `sm` engine backend every rank of a simulation runs as a fiber
//! on the one OS thread that called `Universe::run`, and a fiber only
//! switches away inside a call into `Mpi` (or into a `viampi_npb` routine
//! that calls `Mpi`). So at any instant the thread is either running
//! benchmark-owned body code or stack code, and which one is fixed by the
//! most recent boundary the recorder saw: after a rank enters its body or
//! returns from a call the thread runs body code; after a rank enters a
//! call it runs that call's stack (plus whatever the engine and other
//! ranks do before the next boundary); after a rank leaves its body it
//! runs `MPI_Finalize`. Self times computed this way partition the body
//! phase exactly, in whole nanoseconds.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Call kind charged for the stack time after a rank leaves its body
/// (the universe runs `MPI_Finalize` there).
pub const FINALIZE: &str = "finalize";

/// Call kinds that enter `viampi_npb` rather than `Mpi`.
pub const NPB_KERNEL: &str = "npb.kernel";
/// `patterns::cg_rank`, the CG partner-set generator.
pub const NPB_CG_RANK: &str = "npb.cg_rank";

/// Is `kind` a call into `viampi_npb` (as opposed to `Mpi`)?
pub fn is_npb(kind: &str) -> bool {
    kind.starts_with("npb.")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mark {
    Enter,
    Exit,
    CallIn(&'static str),
    CallOut(&'static str),
}

#[derive(Clone, Copy, Debug)]
struct Boundary {
    ns: u64,
    rank: u32,
    mark: Mark,
}

#[derive(Default)]
struct State {
    last_enter: u64,
    last_exit: u64,
    log: Vec<Boundary>,
}

/// Collects body-entry/exit times (always) and call boundaries (when
/// traced) for one simulation. Time zero is the moment it is created,
/// which the caller makes the `Universe::run` entry.
pub struct Recorder {
    traced: bool,
    origin: Instant,
    state: Mutex<State>,
}

/// One benchmark-issued call, entry to return on its rank.
#[derive(Clone, Debug)]
pub struct CallSpan {
    /// Rank that made the call.
    pub rank: u32,
    /// Call kind (`barrier`, `send`, `npb.kernel`, ...).
    pub kind: &'static str,
    /// Entry, ns since the simulation started.
    pub start_ns: u64,
    /// Return, ns since the simulation started.
    pub end_ns: u64,
}

/// Call-level breakdown of a traced simulation.
#[derive(Clone, Debug, Default)]
pub struct CallTrace {
    /// Body-phase time spent in benchmark-owned body code.
    pub body_self_ns: u64,
    /// Body-phase stack time per call kind (including [`FINALIZE`]).
    pub call_self_ns: BTreeMap<&'static str, u64>,
    /// Every call, in entry order.
    pub calls: Vec<CallSpan>,
}

/// Host-time phases of one simulation. `setup + body + teardown == span`.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// `Universe::run` entry to return.
    pub span_ns: u64,
    /// Run entry to the moment the last rank entered its body: world
    /// construction plus `MPI_Init`.
    pub setup_ns: u64,
    /// Last body entry to last body exit.
    pub body_ns: u64,
    /// Last body exit to run return: finalize and report collection.
    pub teardown_ns: u64,
    /// Call breakdown (traced runs only).
    pub trace: Option<CallTrace>,
}

impl Recorder {
    /// Start the clock.
    pub fn start(traced: bool) -> Recorder {
        Recorder {
            traced,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Nanoseconds since [`Recorder::start`].
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn mark(&self, rank: usize, mark: Mark) {
        let ns = self.now_ns();
        let mut st = self.state.lock().expect("recorder lock poisoned");
        match mark {
            Mark::Enter => st.last_enter = st.last_enter.max(ns),
            Mark::Exit => st.last_exit = st.last_exit.max(ns),
            _ => {}
        }
        if self.traced {
            st.log.push(Boundary {
                ns,
                rank: rank as u32,
                mark,
            });
        }
    }

    /// A rank starts its body.
    pub fn enter(&self, rank: usize) {
        self.mark(rank, Mark::Enter);
    }

    /// A rank finishes its body.
    pub fn exit(&self, rank: usize) {
        self.mark(rank, Mark::Exit);
    }

    /// Run one call on behalf of `rank`, bracketed when traced.
    pub fn call<R>(&self, rank: usize, kind: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        self.mark(rank, Mark::CallIn(kind));
        let r = f();
        self.mark(rank, Mark::CallOut(kind));
        r
    }

    /// Close the simulation at `span_ns` and derive its timeline.
    pub fn finish(&self, span_ns: u64) -> Timeline {
        let st = std::mem::take(&mut *self.state.lock().expect("recorder lock poisoned"));
        let enter = st.last_enter.min(span_ns);
        let exit = st.last_exit.clamp(enter, span_ns);
        Timeline {
            span_ns,
            setup_ns: enter,
            body_ns: exit - enter,
            teardown_ns: span_ns - exit,
            trace: self.traced.then(|| call_trace(&st.log, enter, exit)),
        }
    }
}

/// Attribute every nanosecond of the body phase `[enter, exit]` to body
/// code or to a call kind by the boundary that precedes it.
fn call_trace(log: &[Boundary], enter: u64, exit: u64) -> CallTrace {
    let mut out = CallTrace::default();
    let mut open: BTreeMap<u32, (&'static str, u64)> = BTreeMap::new();
    for (i, b) in log.iter().enumerate() {
        match b.mark {
            Mark::CallIn(kind) => {
                open.insert(b.rank, (kind, b.ns));
            }
            Mark::CallOut(_) => {
                if let Some((kind, start_ns)) = open.remove(&b.rank) {
                    out.calls.push(CallSpan {
                        rank: b.rank,
                        kind,
                        start_ns,
                        end_ns: b.ns,
                    });
                }
            }
            Mark::Enter | Mark::Exit => {}
        }
        let next = log.get(i + 1).map_or(exit, |n| n.ns);
        let (lo, hi) = (b.ns.max(enter), next.min(exit));
        if hi <= lo {
            continue;
        }
        match b.mark {
            Mark::Enter | Mark::CallOut(_) => out.body_self_ns += hi - lo,
            Mark::CallIn(kind) => *out.call_self_ns.entry(kind).or_default() += hi - lo,
            Mark::Exit => *out.call_self_ns.entry(FINALIZE).or_default() += hi - lo,
        }
    }
    out.calls.sort_by_key(|c| (c.start_ns, c.rank));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(ns: u64, rank: u32, mark: Mark) -> Boundary {
        Boundary { ns, rank, mark }
    }

    #[test]
    fn self_times_partition_the_body_phase() {
        // Rank 0 enters at 10, rank 1 at 20 (body phase starts), rank 0
        // calls at 25, rank 1 calls at 30, rank 0 returns at 40, exits at
        // 50; rank 1 returns at 60 and exits at 70 (body phase ends).
        let log = [
            b(10, 0, Mark::Enter),
            b(20, 1, Mark::Enter),
            b(25, 0, Mark::CallIn("barrier")),
            b(30, 1, Mark::CallIn("barrier")),
            b(40, 0, Mark::CallOut("barrier")),
            b(50, 0, Mark::Exit),
            b(60, 1, Mark::CallOut("barrier")),
            b(70, 1, Mark::Exit),
        ];
        let t = call_trace(&log, 20, 70);
        assert_eq!(t.body_self_ns, 5 + 10 + 10);
        assert_eq!(t.call_self_ns["barrier"], 5 + 10);
        assert_eq!(t.call_self_ns[FINALIZE], 10);
        let total: u64 = t.body_self_ns + t.call_self_ns.values().sum::<u64>();
        assert_eq!(total, 50);
        assert_eq!(t.calls.len(), 2);
        assert_eq!((t.calls[0].start_ns, t.calls[0].end_ns), (25, 40));
        assert_eq!((t.calls[1].start_ns, t.calls[1].end_ns), (30, 60));
    }
}
