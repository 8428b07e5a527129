//! Property tests for the stream/event/link fabric: arbitrary op soups must
//! preserve CUDA semantics (per-stream FIFO, event ordering, byte
//! conservation) and always drain.

use std::collections::VecDeque;

use proptest::prelude::*;

use aegaeon_gpu::{Completion, Fabric, FabricEvent, StreamOp};
use aegaeon_sim::{EventQueue, SimDur, SimTime};

#[derive(Debug, Clone)]
enum GenOp {
    Compute { us: u64 },
    Copy { kb: u64 },
    RecordWait { producer: usize },
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (1u64..5_000).prop_map(|us| GenOp::Compute { us }),
        (1u64..50_000).prop_map(|kb| GenOp::Copy { kb }),
        (0usize..4).prop_map(|producer| GenOp::RecordWait { producer }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any submission order drains; per-stream completions are FIFO.
    #[test]
    fn fabric_always_drains_in_fifo_order(
        ops in prop::collection::vec((0usize..4, op_strategy()), 1..80)
    ) {
        let mut fabric: Fabric<(usize, usize)> = Fabric::new();
        let mut q: EventQueue<FabricEvent> = EventQueue::new();
        let link = fabric.add_link("l", 1e9);
        let streams: Vec<_> = (0..4).map(|i| fabric.add_stream(format!("s{i}"))).collect();
        let mut submitted = [0usize; 4];
        // Every call appends its completions here, in release order.
        let mut cs: VecDeque<Completion<(usize, usize)>> = VecDeque::new();
        for (si, op) in &ops {
            let seq = submitted[*si];
            submitted[*si] += 1;
            match op {
                GenOp::Compute { us } => {
                    fabric.submit(
                        streams[*si],
                        StreamOp::Compute { dur: SimDur::from_micros(*us), tag: (*si, seq) },
                        &mut q,
                        &mut cs,
                    );
                }
                GenOp::Copy { kb } => {
                    fabric.submit(
                        streams[*si],
                        StreamOp::Copy { link, bytes: kb * 1024, tag: (*si, seq) },
                        &mut q,
                        &mut cs,
                    );
                }
                GenOp::RecordWait { producer } => {
                    // Record on the producer, wait on this stream, then mark.
                    let ev = fabric.record_event(streams[*producer], &mut q, &mut cs);
                    fabric.wait_event(streams[*si], ev, &mut q, &mut cs);
                    fabric.submit(
                        streams[*si],
                        StreamOp::Marker { tag: (*si, seq) },
                        &mut q,
                        &mut cs,
                    );
                }
            }
        }
        let mut last_t = SimTime::ZERO;
        while let Some((t, ev)) = q.pop() {
            prop_assert!(t >= last_t);
            last_t = t;
            fabric.advance(ev, &mut q, &mut cs);
        }
        let done: Vec<(usize, usize)> = cs
            .into_iter()
            .filter_map(|c| match c {
                Completion::Op { tag, .. } => Some(tag),
                Completion::Event { .. } => None,
            })
            .collect();
        // Everything completed exactly once…
        prop_assert_eq!(done.len(), ops.len(), "all ops completed");
        // …and per-stream order is FIFO.
        for si in 0..4 {
            let seqs: Vec<usize> = done.iter().filter(|(s, _)| *s == si).map(|(_, k)| *k).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(seqs, sorted, "stream {} must complete FIFO", si);
        }
        // Streams end idle.
        for s in &streams {
            prop_assert!(fabric.stream_idle(*s));
        }
    }

    /// Fair-share links deliver every byte: total busy time is at least
    /// total bytes / bandwidth.
    #[test]
    fn link_conserves_bytes(sizes in prop::collection::vec(1u64..10_000_000, 1..40)) {
        let mut fabric: Fabric<usize> = Fabric::new();
        let mut q: EventQueue<FabricEvent> = EventQueue::new();
        let bw = 1e9;
        let link = fabric.add_link("l", bw);
        let s: Vec<_> = (0..sizes.len()).map(|i| fabric.add_stream(format!("s{i}"))).collect();
        let mut cs = VecDeque::new();
        for (i, bytes) in sizes.iter().enumerate() {
            fabric.submit(s[i], StreamOp::Copy { link, bytes: *bytes, tag: i }, &mut q, &mut cs);
        }
        let mut end = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, ev)) = q.pop() {
            end = t;
            fabric.advance(ev, &mut q, &mut cs);
            count += cs.drain(..).filter(|c| matches!(c, Completion::Op { .. })).count();
        }
        prop_assert_eq!(count, sizes.len());
        let total: u64 = sizes.iter().sum();
        let min_secs = total as f64 / bw;
        prop_assert!(end.as_secs_f64() >= min_secs - 1e-6,
            "finished at {} but needs at least {}", end.as_secs_f64(), min_secs);
        prop_assert!((fabric.link(link).bytes_delivered() - total as f64).abs() < sizes.len() as f64,
            "delivered {} of {}", fabric.link(link).bytes_delivered(), total);
    }
}
