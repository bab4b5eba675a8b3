//! Behaviour only the streaming close has: a stalled shard stays isolated
//! (the barrier couples everyone to it), empty shards fold into the round
//! like the barrier's, a full ring pushes back, staggered births close in
//! separate micro-batches, and a queued frame ends with the association
//! that sent it. (That streaming serves what the barrier serves is
//! `close_matrix.rs` and the `event_serving.rs` table.)

use splitbeam_repro::prelude::*;
use splitbeam_repro::serve::{RoundSummary, ServeError};
use splitbeam_repro::splitbeam::wire::encode_feedback_with_seq;
use splitbeam_testkit::{small_model as model, station_frame, station_payload};

fn shards_with_traffic(server: &ApServer) -> usize {
    server
        .shard_round_stats()
        .iter()
        .filter(|s| s.had_traffic)
        .count()
}

/// The field-wise sum of the server's shard summaries (the worst delay is
/// their maximum), stamped with `round`: what the server's own summary of
/// that close must be.
fn sum_of_shards(server: &ApServer, round: u64) -> RoundSummary {
    let mut sum = RoundSummary {
        round,
        ..RoundSummary::default()
    };
    for s in server.shard_round_stats().iter().map(|s| &s.summary) {
        sum.served += s.served;
        sum.stale += s.stale;
        sum.awaiting_first_report += s.awaiting_first_report;
        sum.batches += s.batches;
        sum.on_time += s.on_time;
        sum.late += s.late;
        sum.expired += s.expired;
        sum.discarded += s.discarded;
        sum.delay.head_ns += s.delay.head_ns;
        sum.delay.queue_ns += s.delay.queue_ns;
        sum.delay.air_ns += s.delay.air_ns;
        sum.delay.tail_ns += s.delay.tail_ns;
        sum.delay.worst_e2e_ns = sum.delay.worst_e2e_ns.max(s.delay.worst_e2e_ns);
        sum.lost += s.lost;
        sum.corrupt += s.corrupt;
        sum.retransmitted += s.retransmitted;
        sum.stale_served += s.stale_served;
    }
    sum
}

/// The headline property of killing the barrier: a deliberately stalled
/// shard leaves every *other* shard's deadline-hit rate untouched under
/// streaming closes, while the barrier close drags every shard down with
/// the slowest one.
#[test]
fn stalled_shard_does_not_degrade_other_shards_under_streaming() {
    let m = model(201);
    let bits = 6u8;
    let stations = 8u64;
    let policy = DeadlinePolicy::eq7d();
    // 15 ms of close lag on a 10 ms budget + 10 ms grace: stalled reports
    // classify late, not expired.
    let stall_ns = 15_000_000u64;

    let build = |streaming: bool, stall: bool| {
        let mut server = ApServer::with_shards(4);
        let key = server.register_model(m.clone());
        for id in 0..stations {
            server.register_station(id, key, bits).unwrap();
        }
        server.set_streaming(streaming);
        if stall {
            server.set_shard_stall_ns(0, stall_ns);
        }
        for id in 0..stations {
            let frame = station_frame(&m, 4000 + id, bits);
            server
                .ingest_wire_at(id, &frame, FrameStamp::default())
                .unwrap();
        }
        server
    };

    // Barrier, stalled shard 0: the whole round waits for the slowest shard,
    // so every report on every shard pays the 15 ms lag and lands late.
    let mut barrier = build(false, true);
    let summary = barrier.close(Some(policy)).unwrap();
    assert_eq!(summary.served, stations as usize);
    assert_eq!(
        (summary.on_time, summary.late),
        (0, stations as usize),
        "the barrier must couple every shard to the stalled one"
    );
    for stats in barrier.shard_round_stats() {
        assert_eq!(stats.summary.on_time, 0);
    }
    assert_eq!(summary, sum_of_shards(&barrier, 0));

    // Streaming, stalled shard 0: only shard 0's own reports pay its stall.
    let mut streaming = build(true, true);
    let summary = streaming.close(Some(policy)).unwrap();
    assert_eq!(summary.served, stations as usize);
    assert_eq!((summary.on_time, summary.late), (6, 2));
    assert_eq!(summary, sum_of_shards(&streaming, 0));
    let stats = streaming.shard_round_stats();
    let stalled = &stats[0].summary;
    assert_eq!((stalled.on_time, stalled.late), (0, 2), "stalled shard");
    for (idx, s) in stats.iter().enumerate().skip(1) {
        assert_eq!(
            (s.summary.on_time, s.summary.late),
            (2, 0),
            "healthy shard {idx}"
        );
    }

    // The unstalled streaming run is the reference: healthy shards in the
    // stalled run match it exactly.
    let mut clean = build(true, false);
    let clean_summary = clean.close(Some(policy)).unwrap();
    assert_eq!(clean_summary.on_time, stations as usize);
    for (idx, s) in clean.shard_round_stats().iter().enumerate().skip(1) {
        assert_eq!(*s, stats[idx]);
    }

    // Feedback bytes are identical across all three runs — lateness is an
    // accounting outcome, not a content change.
    for id in 0..stations {
        assert_eq!(streaming.feedback_of(id), barrier.feedback_of(id));
        assert_eq!(streaming.feedback_of(id), clean.feedback_of(id));
    }
}

/// Satellite regression: shards with zero pending frames (an empty
/// micro-batch round) contribute their true `awaiting_first_report` count —
/// identical to the barrier close — even when other shards micro-closed
/// mid-round. No phantom counts from the incremental fold.
#[test]
fn empty_shard_micro_batches_do_not_inflate_awaiting_counts() {
    let m = model(301);
    let bits = 5u8;
    let policy = DeadlinePolicy::eq7d();

    let build = |streaming: bool| {
        let mut server = ApServer::with_shards(4);
        let key = server.register_model(m.clone());
        for id in 0..8u64 {
            server.register_station(id, key, bits).unwrap();
        }
        server.set_streaming(streaming);
        // Traffic only for shards 0 and 1 (ids 0,1,4,5); shards 2 and 3 stay
        // silent, each holding two never-reported stations.
        for id in [0u64, 1, 4, 5] {
            let frame = station_frame(&m, 5000 + id, bits);
            let stamp = FrameStamp {
                arrival_ns: 1_000_000,
                ..FrameStamp::default()
            };
            server.ingest_wire_at(id, &frame, stamp).unwrap();
        }
        server
    };

    let mut barrier = build(false);
    let want = barrier.close(Some(policy)).unwrap();
    assert_eq!(want.awaiting_first_report, 4);
    assert_eq!(shards_with_traffic(&barrier), 2);

    let mut streaming = build(true);
    // Mid-round watermark: arrival 1 ms -> service deadline 11 ms, so the
    // 11 ms watermark (step 1 ms) micro-closes shards 0 and 1; shards 2 and
    // 3 see an empty micro-batch check every tick.
    for tick in 1..=11u64 {
        streaming.advance_watermark(tick * 1_000_000, 1_000_000, Some(policy));
    }
    let got = streaming.close(Some(policy)).unwrap();
    assert_eq!(got.served, want.served);
    assert_eq!(got.awaiting_first_report, want.awaiting_first_report);
    assert_eq!(got.stale, want.stale);
    assert_eq!(
        shards_with_traffic(&streaming),
        shards_with_traffic(&barrier)
    );
    let stats = streaming.shard_round_stats();
    assert!(
        stats[0].micro_closes >= 1 && stats[1].micro_closes >= 1,
        "traffic shards must have micro-closed mid-round: {stats:?}"
    );
    assert_eq!(stats[2].micro_closes, 0);
    assert_eq!(stats[3].micro_closes, 0);
}

/// A full streaming ring rejects ingest with `ServeError::Backpressure`
/// instead of silently overwriting queued feedback, and the failed ingest
/// leaves session state untouched.
#[test]
fn full_ring_rejects_with_backpressure() {
    let m = model(401);
    let bits = 4u8;
    let mut server = ApServer::new();
    let key = server.register_model(m.clone());
    server.register_station(7, key, bits).unwrap();
    server.set_streaming(true);
    server.set_stream_capacity(2);

    for seed in 0..2u64 {
        let frame = station_frame(&m, 6000 + seed, bits);
        server.ingest_wire(7, &frame).unwrap();
    }
    assert_eq!(server.session(7).unwrap().stream_inflight(), 2);
    let overflow = station_frame(&m, 6002, bits);
    assert_eq!(
        server.ingest_wire(7, &overflow),
        Err(ServeError::Backpressure(7, 2))
    );
    assert_eq!(
        server.session(7).unwrap().stream_inflight(),
        2,
        "a rejected ingest must not touch session counters"
    );

    // The queued frames still serve normally, committed in arrival order:
    // the later one wins, as it does under lockstep ingest.
    let summary = server.close(None).unwrap();
    assert_eq!(summary.served, 1);
    assert_eq!(server.session(7).unwrap().stream_inflight(), 0);
    let mut lockstep = ApServer::new();
    let key = lockstep.register_model(m.clone());
    lockstep.register_station(7, key, bits).unwrap();
    let later = station_frame(&m, 6001, bits);
    lockstep.ingest_wire(7, &later).unwrap();
    lockstep.process_round().unwrap();
    assert_eq!(server.feedback_of(7), lockstep.feedback_of(7));
}

/// A genuinely streaming round: two reports with staggered births close in
/// two separate watermark-triggered micro-batches, and the round summary
/// still folds up correctly.
#[test]
fn staggered_births_close_in_multiple_micro_batches() {
    let m = model(501);
    let bits = 6u8;
    let policy = DeadlinePolicy::eq7d();
    let mut server = ApServer::new();
    let key = server.register_model(m.clone());
    server.register_station(0, key, bits).unwrap();
    server.register_station(1, key, bits).unwrap();
    server.set_streaming(true);

    // Station 0 born at 1 ms (service deadline 11 ms), station 1 born at
    // 14 ms (service deadline 24 ms).
    let early = FrameStamp {
        arrival_ns: 1_000_000,
        ..FrameStamp::default()
    };
    let late = FrameStamp {
        arrival_ns: 14_000_000,
        ..FrameStamp::default()
    };
    server
        .ingest_wire_at(0, &station_frame(&m, 7000, bits), early)
        .unwrap();
    server
        .ingest_wire_at(1, &station_frame(&m, 7001, bits), late)
        .unwrap();

    for tick in 1..=25u64 {
        server.advance_watermark(tick * 1_000_000, 1_000_000, Some(policy));
    }
    // Station 0 was served by the 11 ms watermark — its feedback is already
    // visible mid-round, before the round close.
    assert!(server.feedback_of(0).is_some());
    let summary = server.close(Some(policy)).unwrap();
    assert_eq!(
        server.shard_round_stats()[0].micro_closes,
        2,
        "two separate micro-closes"
    );
    assert_eq!(summary.served, 2);
    assert_eq!(summary.batches, 2);
    assert_eq!(summary.on_time, 2);
    assert!(server.feedback_of(1).is_some());
}

/// A frame still queued when its station deregisters goes with the session:
/// the id's next association starts blank under streaming exactly as it does
/// under the barrier, instead of being served the old association's report.
#[test]
fn reregistration_does_not_inherit_the_old_associations_queued_frame() {
    let m = model(601);
    let bits = 4u8;
    let stamp = FrameStamp {
        arrival_ns: 1_000_000,
        ..FrameStamp::default()
    };
    for streaming in [false, true] {
        let mut server = ApServer::with_shards(2);
        let key = server.register_model(m.clone());
        server.set_streaming(streaming);
        for id in [5u64, 7] {
            server.register_station(id, key, bits).unwrap();
            let frame = station_frame(&m, 8000 + id, bits);
            server.ingest_wire_at(id, &frame, stamp).unwrap();
        }
        server.deregister_station(5).unwrap();
        server.register_station(5, key, bits).unwrap();
        server.advance_watermark(2_000_000, 1_000_000, None);

        // Station 7 (same shard, queued behind 5's frame) is untouched.
        assert_eq!(server.pending_count(), 1, "streaming={streaming}");
        let session = server.session(5).unwrap();
        assert!(!session.has_pending(), "streaming={streaming}");
        assert_eq!(session.payloads_ingested(), 0);
        assert_eq!(session.stream_inflight(), 0);
        let summary = server.close(None).unwrap();
        assert_eq!(
            (summary.served, summary.awaiting_first_report),
            (1, 1),
            "streaming={streaming}"
        );
        assert!(server.feedback_of(5).is_none());
        assert!(server.feedback_of(7).is_some());
    }
}

/// A session released for a handoff leaves its queued frame behind and
/// carries no in-flight count for it, so the station's retransmission of
/// that sequence number is accepted — and served — at the adopting AP.
#[test]
fn handoff_retransmission_of_a_queued_frame_is_accepted_at_the_target() {
    let m = model(701);
    let bits = 4u8;
    let frame = encode_feedback_with_seq(&station_payload(&m, 9000, bits), 7).unwrap();
    let [mut source, mut target] = [(); 2].map(|()| {
        let mut server = ApServer::new();
        server.register_model(m.clone());
        server.set_streaming(true);
        server
    });
    source.register_station(9, 0, bits).unwrap();
    source.ingest_wire(9, &frame).unwrap();
    assert_eq!(
        source.ingest_wire(9, &frame),
        Err(ServeError::DuplicateFrame(9, 7)),
        "queued, so a duplicate at the source"
    );

    let session = source.release_station(9).unwrap();
    assert_eq!(session.stream_inflight(), 0);
    assert!(!session.has_pending());
    target
        .adopt_station(session, 0)
        .map_err(|(_, e)| e)
        .unwrap();
    assert_eq!(target.ingest_wire(9, &frame), Ok(frame.len()));
    assert_eq!(target.close(None).unwrap().served, 1);
    assert!(target.feedback_of(9).is_some());
    // Nothing of station 9 stayed behind on the source's lane.
    assert_eq!(source.close(None).unwrap().served, 0);
    assert!(!source.shard_round_stats()[0].had_traffic);
}

/// Stalls are caller-chosen `u64`s: a shard stalled to the end of time
/// serves its reports with a saturated delay, it does not overflow it.
#[test]
fn an_endless_stall_saturates_the_delay_books() {
    let m = model(801);
    let bits = 4u8;
    let mut server = ApServer::with_shards(2);
    let key = server.register_model(m.clone());
    let stamp = FrameStamp {
        arrival_ns: 4_000_000,
        head_ns: 1_000_000,
        queue_ns: 1_000_000,
        air_ns: 1_000_000,
        tail_ns: 500_000,
    };
    // Two reports on the stalled shard, one on the other: under the barrier
    // all three pay the stall, so both the per-shard sums and their merge
    // run past `u64::MAX`.
    for id in 0..3u64 {
        server.register_station(id, key, bits).unwrap();
        let frame = station_frame(&m, 8100 + id, bits);
        server.ingest_wire_at(id, &frame, stamp).unwrap();
    }
    server.set_shard_stall_ns(0, u64::MAX);
    let summary = server.close(None).unwrap();
    assert_eq!((summary.served, summary.on_time), (3, 3));
    assert_eq!(summary.delay.head_ns, 3_000_000);
    assert_eq!(summary.delay.queue_ns, u64::MAX);
    assert_eq!(summary.delay.worst_e2e_ns, u64::MAX);
    assert_eq!(summary.delay.total_ns(), u64::MAX);
}
