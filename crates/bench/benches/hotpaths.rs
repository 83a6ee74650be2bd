//! Microbenchmarks of the protocol hot paths: wire-header codec, matching
//! queues, the event heap, and the engine's context-switch cost. The
//! engine benches are the before/after yardstick for the self-resume fast
//! path: run once normally and once with `VIAMPI_NO_FASTPATH=1` to see
//! the scheduler round trip it removes.

use viampi_bench::micro;
use viampi_bench::minibench::{black_box, Bench};
use viampi_core::matching::{MatchEngine, PostedRecv, Unexpected, UnexpectedBody};
use viampi_core::protocol::{Header, MsgKind};
use viampi_core::{ConnMode, Device, WaitPolicy};
use viampi_sim::{Engine, EventQueue, SimDuration, SimTime, SplitMix64};

fn bench_header_codec(b: &mut Bench) {
    let h = Header {
        kind: MsgKind::Eager,
        credits: 3,
        context: 1,
        src: 17,
        tag: 42,
        aux1: 0xABCD,
        aux2: 0x1234_5678,
        len: 4096,
    };
    b.run("header_encode", || {
        let mut buf = [0u8; 32];
        h.encode(black_box(&mut buf));
        buf
    });
    let bytes = h.to_bytes();
    b.run("header_decode", || {
        Header::decode(black_box(&bytes)).unwrap()
    });
}

fn bench_matching(b: &mut Bench) {
    b.run("match_post_and_consume_64", || {
        let mut m = MatchEngine::new();
        for i in 0..64u64 {
            m.post_recv(PostedRecv {
                req: i,
                context: 0,
                src: Some((i % 8) as u32),
                tag: Some(i as i32),
            });
        }
        for i in 0..64u64 {
            black_box(m.incoming(0, (i % 8) as u32, i as i32));
        }
    });
    b.run("match_unexpected_scan_64", || {
        let mut m = MatchEngine::new();
        for i in 0..64u32 {
            m.push_unexpected(Unexpected {
                context: 0,
                src: i % 8,
                tag: i as i32,
                body: UnexpectedBody::Eager(vec![0u8; 16].into()),
            });
        }
        for i in (0..64u64).rev() {
            black_box(m.post_recv(PostedRecv {
                req: i,
                context: 0,
                src: Some((i % 8) as u32),
                tag: Some(i as i32),
            }));
        }
    });
}

fn bench_event_queue(b: &mut Bench) {
    b.run("event_queue_push_pop_1k", || {
        let mut rng = SplitMix64::new(7);
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime(rng.next_below(1_000_000)), i);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });
    b.run("event_queue_reused_push_pop_1k", || {
        // Capacity-reuse path: one long-lived queue, drained each round.
        let mut rng = SplitMix64::new(7);
        let mut q = EventQueue::with_capacity(1024);
        for _ in 0..4 {
            for i in 0..1000u64 {
                q.push(SimTime(rng.next_below(1_000_000)), i);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        }
    });
    b.run("queue_wheel_1k", || {
        // Spread pushes across every wheel level (due buffer, level 0,
        // level 1, far-future overflow) with interleaved pops — the
        // cascade-heavy pattern the timing wheel's advance() pays for.
        let mut rng = SplitMix64::new(0x51ED);
        let mut q = EventQueue::with_capacity(1024);
        let mut popped = 0u64;
        for i in 0..1000u64 {
            let scale = [11u32, 17, 22, 34][(i % 4) as usize];
            q.push(SimTime(rng.next_below(1u64 << scale)), i);
            if i % 3 == 0 {
                if let Some(e) = q.pop() {
                    black_box(e);
                    popped += 1;
                }
            }
        }
        while let Some(e) = q.pop() {
            black_box(e);
            popped += 1;
        }
        popped
    });
    b.run("queue_due_burst_4k", || {
        // The conn_scale pattern: thousands of ranks schedule events into
        // the ~1 µs slot the cursor is draining (half at one shared
        // instant, half spread over the slot), with interleaved pops —
        // every push lands in the front buffer.
        let mut rng = SplitMix64::new(0xB0_0575);
        let mut q = EventQueue::with_capacity(4096);
        q.push(SimTime(0), 0u64);
        black_box(q.pop());
        let mut popped = 0u64;
        for i in 1..=4096u64 {
            let at = if i % 2 == 0 {
                SimTime(512)
            } else {
                SimTime(rng.next_below(1024))
            };
            q.push(at, i);
            if i % 4 == 0 {
                if let Some(e) = q.pop() {
                    black_box(e);
                    popped += 1;
                }
            }
        }
        while let Some(e) = q.pop() {
            black_box(e);
            popped += 1;
        }
        popped
    });
}

fn bench_data_plane(b: &mut Bench) {
    // Host wall-clock of a full 2-rank eager ping-pong simulation: pooled
    // frame alloc, the single staging copy, by-reference delivery, recycle
    // on drop. Virtual-time results are pinned by the figure JSON; this
    // guards the real-time cost of the data plane.
    b.run("eager_pingpong_pooled", || {
        micro::pingpong_latency(
            Device::Clan,
            ConnMode::OnDemand,
            WaitPolicy::Polling,
            256,
            32,
        )
    });
}

struct Nop;
impl viampi_sim::World for Nop {
    type Event = ();
    fn handle_event(&mut self, _: (), _: &mut viampi_sim::Api<'_, ()>) {}
}

fn bench_engine(b: &mut Bench) {
    // Cost of one advance() through the scheduler. With the fast path a
    // lone process self-resumes; with VIAMPI_NO_FASTPATH=1 every advance
    // is a full notify/park/unpark round trip.
    b.run("engine_1k_advances", || {
        let mut eng = Engine::new(Nop);
        eng.spawn("p", |ctx| {
            for _ in 0..1000 {
                ctx.advance(SimDuration::nanos(10));
            }
        });
        eng.run().unwrap()
    });
    // Token passing between two runnable processes: the fast path cannot
    // apply (the peer is always earlier), so this isolates the true
    // cross-thread handoff cost that repro_all pays inside every
    // multi-rank simulation.
    b.run("engine_1k_token_passes", || {
        let mut eng = Engine::new(Nop);
        for p in 0..2 {
            eng.spawn(format!("p{p}"), |ctx| {
                for _ in 0..500 {
                    ctx.advance(SimDuration::nanos(10));
                }
            });
        }
        eng.run().unwrap()
    });
    // A 1M-step pure-compute stretch. With coalescing (default) each
    // advance is two relaxed atomic adds and the engine sees a single
    // authoritative flush; with VIAMPI_NO_COALESCE=1 each one is a
    // scheduler interaction. This is the fig6 NPB kernel inner loop in
    // miniature.
    b.run("compute_coalesce_1m", || {
        let mut eng = Engine::new(Nop);
        eng.spawn("p", |ctx| {
            for _ in 0..1_000_000u32 {
                ctx.advance(SimDuration::nanos(3));
            }
        });
        eng.run().unwrap()
    });
    // An 8-process compute+token ring under the conservative parallel
    // mode (VIAMPI_PAR=8 equivalent): guards the pre-release/promotion
    // overhead against the serial schedule it must reproduce exactly.
    b.run("par_ring_np8", || {
        let mut eng = Engine::new(Nop);
        eng.set_par(Some(8));
        eng.set_lookahead(SimDuration::micros(2));
        for p in 0..8 {
            eng.spawn(format!("p{p}"), |ctx| {
                for _ in 0..200 {
                    for _ in 0..16 {
                        ctx.advance(SimDuration::nanos(40));
                    }
                    ctx.yield_now();
                }
            });
        }
        eng.run().unwrap()
    });
    // A 64-process compute+token ring partitioned across 4 shards: guards
    // the sharded scheduler's drain/merge/grant path (per-shard wheels and
    // ready heaps merged in global (time, seq) order) against the serial
    // schedule it must reproduce byte-for-byte.
    b.run("shard_ring_np64", || {
        let mut eng = Engine::new(Nop);
        eng.set_shards(Some(4));
        eng.set_lookahead(SimDuration::micros(2));
        for p in 0..64 {
            eng.spawn(format!("p{p}"), |ctx| {
                for _ in 0..25 {
                    for _ in 0..16 {
                        ctx.advance(SimDuration::nanos(40));
                    }
                    ctx.yield_now();
                }
            });
        }
        eng.run().unwrap()
    });
    // Worst-case LBTS merge: one process per shard, so every grant scans
    // all W wheel heads and ready heaps for the global minimum — the
    // per-round cost of the conservative merge, isolated from any real
    // workload.
    b.run("shard_lbts_round", || {
        let mut eng = Engine::new(Nop);
        eng.set_shards(Some(8));
        eng.set_lookahead(SimDuration::micros(2));
        for p in 0..8 {
            eng.spawn(format!("p{p}"), |ctx| {
                for _ in 0..250 {
                    ctx.advance(SimDuration::nanos(20));
                    ctx.yield_now();
                }
            });
        }
        eng.run().unwrap()
    });
}

fn main() {
    let mut b = Bench::from_args();
    bench_header_codec(&mut b);
    bench_matching(&mut b);
    bench_event_queue(&mut b);
    bench_data_plane(&mut b);
    bench_engine(&mut b);
    b.finish("bench_hotpaths");
}
