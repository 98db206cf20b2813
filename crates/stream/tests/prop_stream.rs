//! Convergence property: for any drained session, the streaming
//! classification of every instance equals the post-mortem
//! [`Dsspy::analyze_capture`] result.
//!
//! Two routes into the fold path are exercised:
//!
//! * **replay** — a synthetic multi-instance capture streamed through
//!   [`StreamingAnalyzer::register_instance`],
//!   [`StreamingAnalyzer::fold_batch`] at arbitrary batch sizes and
//!   [`StreamingAnalyzer::finish_replay`] (the calls `dsspy watch` makes)
//!   must serialize byte-for-byte like the post-mortem report;
//! * **live** — the same operation sequences recorded through a real
//!   [`Session`] with the analyzer attached as a collector tap, compared on
//!   the serialized instance reports (classifications, metrics, patterns,
//!   advisories, recommended actions) once the session drains.

use dsspy_collect::{Capture, CaptureRecorder, CollectorStats, Session, SessionConfig, TapFanout};
use dsspy_core::Dsspy;
use dsspy_events::{
    AccessEvent, AccessKind, AllocationSite, DsKind, InstanceId, InstanceInfo, RuntimeProfile,
    Target, ThreadTag,
};
use dsspy_stream::{StreamConfig, StreamingAnalyzer};
use proptest::prelude::*;

const INSTANCES: usize = 3;

/// One generated operation: which instance it hits, what it does, and a
/// pick that resolves to an index once the instance's length is known.
type Op = (usize, AccessKind, u32);

fn arb_kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::Insert),
        Just(AccessKind::Delete),
        Just(AccessKind::Search),
        Just(AccessKind::Sort),
        Just(AccessKind::Clear),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0..INSTANCES, arb_kind(), any::<u32>()), 0..400)
}

/// Resolve the generated ops into per-instance `(kind, target, len)`
/// triples with internally consistent lengths — the shape both the
/// synthetic capture and the live session replay.
fn resolve(ops: &[Op]) -> Vec<Vec<(AccessKind, Target, u32)>> {
    let mut lens = [0u32; INSTANCES];
    let mut per_instance: Vec<Vec<(AccessKind, Target, u32)>> = vec![Vec::new(); INSTANCES];
    for &(inst, kind, pick) in ops {
        let len = &mut lens[inst];
        let resolved = match kind {
            AccessKind::Insert => {
                let idx = pick % (*len + 1);
                *len += 1;
                Some((kind, Target::Index(idx), *len))
            }
            AccessKind::Delete => {
                if *len == 0 {
                    None
                } else {
                    let idx = pick % *len;
                    *len -= 1;
                    Some((kind, Target::Index(idx), *len))
                }
            }
            AccessKind::Read | AccessKind::Write => {
                if *len == 0 {
                    None
                } else {
                    Some((kind, Target::Index(pick % *len), *len))
                }
            }
            AccessKind::Search => Some((
                kind,
                Target::Range {
                    start: 0,
                    end: pick % (*len + 1),
                },
                *len,
            )),
            AccessKind::Sort => Some((kind, Target::Whole, *len)),
            AccessKind::Clear => {
                *len = 0;
                Some((kind, Target::Whole, 0))
            }
            _ => unreachable!("generator emits only the kinds above"),
        };
        if let Some(triple) = resolved {
            per_instance[inst].push(triple);
        }
    }
    per_instance
}

/// A synthetic capture with globally unique seqs, as a real session
/// produces.
fn synthetic_capture(per_instance: &[Vec<(AccessKind, Target, u32)>]) -> Capture {
    let mut seq = 0u64;
    let mut order: Vec<(usize, usize)> = Vec::new();
    for (inst, ops) in per_instance.iter().enumerate() {
        for i in 0..ops.len() {
            order.push((inst, i));
        }
    }
    // Interleave round-robin-ish by original op position to mimic the
    // generated global order: sort by op index, then instance.
    order.sort_by_key(|&(inst, i)| (i, inst));
    let mut events: Vec<Vec<AccessEvent>> = vec![Vec::new(); per_instance.len()];
    for (inst, i) in order {
        let (kind, target, len) = per_instance[inst][i];
        events[inst].push(AccessEvent {
            seq,
            kind,
            target,
            len,
            thread: ThreadTag::MAIN,
        });
        seq += 1;
    }
    let profiles: Vec<RuntimeProfile> = events
        .into_iter()
        .enumerate()
        .map(|(i, evs)| {
            RuntimeProfile::new(
                InstanceInfo::new(
                    InstanceId(i as u64),
                    AllocationSite::new("Prop", "stream", i as u32),
                    DsKind::List,
                    "i64",
                ),
                evs,
            )
        })
        .collect();
    let total: u64 = profiles.iter().map(|p| p.len() as u64).sum();
    Capture::new(
        profiles,
        CollectorStats {
            events: total,
            batches: 1,
            dropped: 0,
        },
        seq,
    )
}

/// Issue the resolved ops through live handles in their generated global
/// order (no-op ops, e.g. delete on empty, were dropped by `resolve`).
fn drive(session: &Session, ops: &[Op]) {
    let mut handles: Vec<_> = (0..INSTANCES)
        .map(|i| {
            session.register(
                AllocationSite::new("Prop", "live", i as u32),
                DsKind::List,
                "i64",
            )
        })
        .collect();
    let mut cursors = [0usize; INSTANCES];
    let per_instance = resolve(ops);
    for &(inst, _, _) in ops {
        let i = cursors[inst];
        if i >= per_instance[inst].len() {
            continue;
        }
        let (kind, target, len) = per_instance[inst][i];
        handles[inst].record(kind, target, len);
        cursors[inst] += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replayed_stream_equals_post_mortem_byte_for_byte(
        ops in arb_ops(),
        batch in 1usize..128,
    ) {
        let capture = synthetic_capture(&resolve(&ops));
        let dsspy = Dsspy::new().with_threads(1);
        let streaming = StreamingAnalyzer::new(dsspy, StreamConfig::default());
        for profile in &capture.profiles {
            streaming.register_instance(profile.instance.clone());
        }
        for profile in &capture.profiles {
            for chunk in profile.events.chunks(batch) {
                streaming.fold_batch(profile.instance.id, chunk, 0);
            }
        }
        streaming.finish_replay(&capture.stats, capture.session_nanos);
        let live = streaming.latest_report().expect("final snapshot on finish");
        let post = dsspy.analyze_capture(&capture);
        prop_assert_eq!(
            serde_json::to_string(&*live).unwrap(),
            serde_json::to_string(&post).unwrap()
        );
    }

    #[test]
    fn live_tapped_session_equals_post_mortem(
        ops in arb_ops(),
        batch_size in 1usize..64,
    ) {
        let dsspy = Dsspy {
            session: SessionConfig { batch_size, channel_capacity: None },
            ..Dsspy::new()
        }
        .with_threads(1);
        let streaming = StreamingAnalyzer::new(dsspy, StreamConfig::default());
        let session = streaming.attach(Vec::new());
        drive(&session, &ops);
        let capture = session.finish();
        let live = streaming.latest_report().expect("final snapshot");
        let post = dsspy.analyze_capture(&capture);
        prop_assert_eq!(
            serde_json::to_string(&live.instances).unwrap(),
            serde_json::to_string(&post.instances).unwrap()
        );
        prop_assert_eq!(live.stats, post.stats);
        prop_assert_eq!(live.session_nanos, post.session_nanos);
    }

    /// The fan-out convergence property behind `--live`/`--follow`: with K
    /// analyzers and a capture recorder multiplexed onto one session, every
    /// analyzer's final report — and the post-mortem analysis of the
    /// recorder's rebuilt capture — serializes byte-for-byte like
    /// `analyze_capture` of the session's own capture, for any subscriber
    /// count and batch size.
    #[test]
    fn every_fanout_subscriber_equals_post_mortem(
        ops in arb_ops(),
        batch_size in 1usize..64,
        subscribers in 1usize..5,
    ) {
        let dsspy = Dsspy {
            session: SessionConfig { batch_size, channel_capacity: None },
            ..Dsspy::new()
        }
        .with_threads(1);
        let analyzers: Vec<StreamingAnalyzer> = (0..subscribers)
            .map(|_| StreamingAnalyzer::new(dsspy, StreamConfig::default()))
            .collect();
        let recorder = CaptureRecorder::new();
        let mut fanout = TapFanout::new();
        for (i, a) in analyzers.iter().enumerate() {
            fanout.subscribe(&format!("analyzer{i}"), a.tap());
        }
        fanout.subscribe("recorder", recorder.tap());
        let session = Session::builder()
            .config(dsspy.session)
            .tap(Box::new(fanout))
            .start();
        for a in &analyzers {
            a.bind_registry(session.registry_handle());
        }
        drive(&session, &ops);
        let capture = session.finish();
        let post = dsspy.analyze_capture(&capture);
        let post_instances = serde_json::to_string(&post.instances).unwrap();
        for a in &analyzers {
            let live = a.latest_report().expect("final snapshot");
            prop_assert_eq!(
                &serde_json::to_string(&live.instances).unwrap(),
                &post_instances
            );
            prop_assert_eq!(live.stats, post.stats);
            prop_assert_eq!(live.session_nanos, post.session_nanos);
        }
        let infos: Vec<_> = capture.profiles.iter().map(|p| p.instance.clone()).collect();
        let rebuilt = recorder.capture(infos).expect("on_stop delivered");
        let re_analyzed = dsspy.analyze_capture(&rebuilt);
        prop_assert_eq!(
            &serde_json::to_string(&re_analyzed.instances).unwrap(),
            &post_instances
        );
        prop_assert_eq!(re_analyzed.stats, post.stats);
    }
}
