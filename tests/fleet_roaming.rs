//! Roaming handoff edge cases, and the fleet's books.
//!
//! A fleet handoff moves a station's *entire* [`StationSession`] between APs
//! — pending payloads, reconstructed feedback, health state, staleness
//! clocks. These tests pin the contract at the [`ApServer`] level against a
//! never-roamed control server running the identical schedule: with the same
//! model weights registered on every AP, roaming must be invisible in the
//! served bits. The last test is the fleet's own cell: two BSSs on one
//! channel, run twice, with the medium's wait accounted frame by frame.

use splitbeam::model::SplitBeamModel;
use splitbeam::TailWeights;
use splitbeam_serve::server::ApServer;
use splitbeam_serve::{
    DeadlinePolicy, Fleet, FleetConfig, FrameStamp, ServeError, SessionHealth, StationSession,
};
use splitbeam_testkit::{small_model as model, station_frame};

/// Two APs with the same model, plus a never-roamed control. All three tick
/// rounds in lockstep (a fleet closes every AP's round together), so session
/// clocks stay comparable.
struct Roamnet {
    a: ApServer,
    b: ApServer,
    control: ApServer,
    key: usize,
}

impl Roamnet {
    fn new(m: &SplitBeamModel) -> Self {
        Self::with_tail(m, TailWeights::F32)
    }

    fn with_tail(m: &SplitBeamModel, weights: TailWeights) -> Self {
        let [mut a, mut b, mut control] = [(); 3].map(|()| {
            let mut server = ApServer::new();
            server.set_tail_weights(weights);
            server
        });
        let key = a.register_model(m.clone());
        assert_eq!(b.register_model(m.clone()), key);
        assert_eq!(control.register_model(m.clone()), key);
        Self { a, b, control, key }
    }

    fn close_round(&mut self) {
        self.a.process_round().unwrap();
        self.b.process_round().unwrap();
        self.control.process_round().unwrap();
    }

    fn handoff(from: &mut ApServer, to: &mut ApServer, id: u64, key: usize) {
        let session = from.release_station(id).unwrap();
        to.adopt_station(session, key).map_err(|(_, e)| e).unwrap();
    }

    fn assert_session_matches_control(&self, roamed: &ApServer, id: u64) {
        let s = roamed.session(id).unwrap();
        let c = self.control.session(id).unwrap();
        assert_eq!(s.feedback(), c.feedback(), "served bits diverged");
        assert_eq!(s.last_round(), c.last_round());
        assert_eq!(s.payloads_ingested(), c.payloads_ingested());
        assert_eq!(s.health(), c.health());
        assert_eq!(s.has_pending(), c.has_pending());
    }
}

#[test]
fn mid_round_pending_payload_travels_with_the_handoff() {
    let m = model(31);
    let mut net = Roamnet::new(&m);
    net.a.register_station(1, net.key, 4).unwrap();
    net.control.register_station(1, net.key, 4).unwrap();

    // The station reports mid-round, then roams BEFORE the round closes:
    // the pending payload must be served by the target AP, not dropped.
    let frame = station_frame(&m, 70, 4);
    net.a.ingest_wire(1, &frame).unwrap();
    net.control.ingest_wire(1, &frame).unwrap();
    Roamnet::handoff(&mut net.a, &mut net.b, 1, net.key);
    assert!(net.b.session(1).unwrap().has_pending());

    net.close_round();
    assert_eq!(net.b.feedback_of(1).unwrap().len(), 224);
    net.assert_session_matches_control(&net.b, 1);
}

#[test]
fn quarantine_travels_and_keeps_rejecting_at_the_target() {
    let m = model(33);
    let mut net = Roamnet::new(&m);
    net.a.register_station(1, net.key, 4).unwrap();
    net.control.register_station(1, net.key, 4).unwrap();

    let good = station_frame(&m, 71, 4);
    let mut bad = good.clone();
    bad[20] ^= 0x10;
    let threshold = net.a.health_policy().quarantine_after_corrupt;
    for _ in 0..threshold {
        assert!(matches!(
            net.a.ingest_wire(1, &bad),
            Err(ServeError::Corrupt(1, _))
        ));
        assert!(matches!(
            net.control.ingest_wire(1, &bad),
            Err(ServeError::Corrupt(1, _))
        ));
    }
    assert_eq!(
        net.a.session(1).unwrap().health(),
        SessionHealth::Quarantined
    );

    // Roaming does not launder a quarantine: the target rejects even
    // pristine frames until the quarantine expires.
    Roamnet::handoff(&mut net.a, &mut net.b, 1, net.key);
    assert_eq!(
        net.b.session(1).unwrap().health(),
        SessionHealth::Quarantined
    );
    assert_eq!(net.b.ingest_wire(1, &good), Err(ServeError::Quarantined(1)));
    net.close_round();
    net.assert_session_matches_control(&net.b, 1);

    // After the quarantine expires (in lockstep on both sides) the station
    // reports normally at its new AP.
    let rounds = net.a.health_policy().quarantine_rounds;
    for _ in 1..rounds {
        assert_eq!(net.b.ingest_wire(1, &good), Err(ServeError::Quarantined(1)));
        assert_eq!(
            net.control.ingest_wire(1, &good),
            Err(ServeError::Quarantined(1))
        );
        net.close_round();
    }
    net.b.ingest_wire(1, &good).unwrap();
    net.control.ingest_wire(1, &good).unwrap();
    net.close_round();
    assert_eq!(net.b.session(1).unwrap().health(), SessionHealth::Healthy);
    net.assert_session_matches_control(&net.b, 1);
}

#[test]
fn degraded_health_and_miss_streak_travel() {
    let m = model(35);
    let mut net = Roamnet::new(&m);
    // Station 1 goes silent; station 2 keeps the rounds non-empty so the
    // health pass actually runs.
    for server in [&mut net.a, &mut net.control] {
        server.register_station(1, net.key, 4).unwrap();
        server.register_station(2, net.key, 4).unwrap();
    }

    let f1 = station_frame(&m, 72, 4);
    net.a.ingest_wire(1, &f1).unwrap();
    net.control.ingest_wire(1, &f1).unwrap();
    let mut round = 0u64;
    let misses = net.a.health_policy().degrade_after_misses;
    loop {
        let keeper = station_frame(&m, 80 + round, 4);
        net.a.ingest_wire(2, &keeper).unwrap();
        net.control.ingest_wire(2, &keeper).unwrap();
        net.close_round();
        round += 1;
        if round > u64::from(misses) {
            break;
        }
    }
    assert_eq!(net.a.session(1).unwrap().health(), SessionHealth::Degraded);

    Roamnet::handoff(&mut net.a, &mut net.b, 1, net.key);
    let roamed = net.b.session(1).unwrap();
    assert_eq!(roamed.health(), SessionHealth::Degraded);
    assert_eq!(
        roamed.miss_streak(),
        net.control.session(1).unwrap().miss_streak()
    );
    net.assert_session_matches_control(&net.b, 1);
}

/// Under both tail precisions: the int8 tail a session is served from is the
/// one bound at whichever AP holds it that round.
#[test]
fn double_handoff_back_to_origin_is_bit_exact_with_never_roamed() {
    for weights in [TailWeights::F32, TailWeights::Int8] {
        double_handoff_back_to_origin(weights);
    }
}

fn double_handoff_back_to_origin(weights: TailWeights) {
    let m = model(37);
    let mut net = Roamnet::with_tail(&m, weights);
    net.a.register_station(1, net.key, 4).unwrap();
    net.control.register_station(1, net.key, 4).unwrap();

    // Round 0 at home.
    let f0 = station_frame(&m, 90, 4);
    net.a.ingest_wire(1, &f0).unwrap();
    net.control.ingest_wire(1, &f0).unwrap();
    net.close_round();

    // Roam to B; round 1 served there.
    Roamnet::handoff(&mut net.a, &mut net.b, 1, net.key);
    let f1 = station_frame(&m, 91, 4);
    net.b.ingest_wire(1, &f1).unwrap();
    net.control.ingest_wire(1, &f1).unwrap();
    net.close_round();

    // Roam home again; round 2 served at the origin.
    Roamnet::handoff(&mut net.b, &mut net.a, 1, net.key);
    let f2 = station_frame(&m, 92, 4);
    net.a.ingest_wire(1, &f2).unwrap();
    net.control.ingest_wire(1, &f2).unwrap();
    net.close_round();

    net.assert_session_matches_control(&net.a, 1);
    assert_eq!(
        net.a.feedback_of(1).unwrap(),
        net.control.feedback_of(1).unwrap()
    );
    // The round trip left no ghost at B.
    assert_eq!(net.b.num_stations(), 0);
}

/// Every way an adoption can be refused — a model key the target does not
/// have, the id already associated there, the target at its station cap —
/// reports its error and hands back the session exactly as it was released
/// (pending payload, feedback, health, stamps: every field, by its `Debug`
/// form), so restoring it at the source leaves no trace of the attempt.
#[test]
fn failed_adoption_returns_the_session_for_restore() {
    let m = model(39);
    let policy = Some(DeadlinePolicy::eq7d());
    let stamp = FrameStamp {
        arrival_ns: 3_000_000,
        head_ns: 1_000_000,
        queue_ns: 500_000,
        air_ns: 250_000,
        tail_ns: 125_000,
    };
    let with_model = || {
        let mut server = ApServer::new();
        server.register_model(m.clone());
        server
    };
    let targets: [(&str, ApServer, ServeError); 3] = [
        (
            "unknown model key",
            ApServer::new(),
            ServeError::UnknownModel(0),
        ),
        (
            "duplicate id",
            {
                let mut target = with_model();
                target.register_station(1, 0, 4).unwrap();
                target
            },
            ServeError::DuplicateStation(1),
        ),
        (
            "at capacity",
            {
                let mut target = with_model();
                target.register_station(2, 0, 4).unwrap();
                target.set_capacity(Some(1));
                target
            },
            ServeError::CapacityExceeded(1, 1),
        ),
    ];
    for (row, mut target, want) in targets {
        // A session with something in every corner: served once under a
        // policy (feedback + its stamp), one corrupt frame on its health
        // record, and a stamped payload pending for the open round.
        let [mut a, mut control] = [with_model(), with_model()];
        let mut damaged = station_frame(&m, 95, 4);
        damaged[20] ^= 0x10;
        for server in [&mut a, &mut control] {
            server.register_station(1, 0, 4).unwrap();
            let first = station_frame(&m, 95, 4);
            server.ingest_wire_at(1, &first, stamp).unwrap();
            server.close(policy).unwrap();
            assert!(server.ingest_wire(1, &damaged).is_err());
            let second = station_frame(&m, 96, 4);
            server.ingest_wire_at(1, &second, stamp).unwrap();
        }

        let session = a.release_station(1).unwrap();
        let released = format!("{session:?}");
        let stations_at_target = target.station_ids();
        let (session, err): (StationSession, ServeError) =
            target.adopt_station(session, 0).unwrap_err();
        assert_eq!(err, want, "{row}");
        assert_eq!(format!("{session:?}"), released, "{row}");
        assert_eq!(target.station_ids(), stations_at_target, "{row}");

        // Restore at the source: indistinguishable from never having left.
        a.adopt_station(session, 0).map_err(|(_, e)| e).unwrap();
        assert_eq!(
            format!("{:?}", a.session(1).unwrap()),
            format!("{:?}", control.session(1).unwrap()),
            "{row}"
        );
        assert_eq!(a.close(policy), control.close(policy), "{row}");
        assert_eq!(a.feedback_of(1), control.feedback_of(1), "{row}");
    }
}

/// The fleet cell: two BSSs on ONE channel, every frame ready at the round
/// start. Same seed, same run; and the books close — the queueing stamped on
/// the frames is exactly the wait the medium charged, cross-BSS wait is a
/// part of it, and `N` co-ready frames of one size wait `N(N-1)/2` airtimes
/// in total (a mean of `(N-1)/2`: what the 512-station contention run's
/// "wait ≈ 127x air" on 256 stations a channel was).
#[test]
fn co_channel_fleet_is_deterministic_and_its_wait_is_the_mediums() {
    const STATIONS: u64 = 12;
    let m = model(41);
    let run = || {
        let mut fleet = Fleet::new(FleetConfig {
            aps: 2,
            channels: 1,
            rate_mbps: Some(24.0),
            jitter_ns: 0,
            ..FleetConfig::default()
        });
        let key = fleet.register_model(&m);
        for id in 0..STATIONS {
            fleet
                .register_station(id, (id % 2) as usize, key, 4)
                .unwrap();
        }
        let mut stamped_queue_ns = 0;
        let mut summaries = Vec::new();
        for round in 0..3u64 {
            for id in 0..STATIONS {
                fleet
                    .offer_frame(id, station_frame(&m, 100 + id * 7 + round, 4))
                    .unwrap();
            }
            summaries.push(fleet.close_round().unwrap());
            for id in 0..STATIONS {
                let session = fleet.ap((id % 2) as usize).session(id).unwrap();
                stamped_queue_ns += session.last_stamp().unwrap().queue_ns;
            }
        }
        let feedback: Vec<Vec<f32>> = (0..STATIONS)
            .map(|id| fleet.feedback_of(id).unwrap().to_vec())
            .collect();
        (summaries, feedback, fleet.stats(), stamped_queue_ns)
    };
    let (summaries, feedback, stats, stamped_queue_ns) = run();
    assert_eq!(run(), (summaries, feedback, stats, stamped_queue_ns));
    assert_eq!((stats.served, stats.on_time), (3 * STATIONS, 3 * STATIONS));
    assert_eq!(stamped_queue_ns, stats.wait_ns);
    assert!(0 < stats.cross_bss_wait_ns && stats.cross_bss_wait_ns <= stats.wait_ns);
    let air_ns = stats.air_ns / (3 * STATIONS);
    assert_eq!(stats.wait_ns, 3 * air_ns * STATIONS * (STATIONS - 1) / 2);
}
