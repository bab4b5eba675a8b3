//! Roaming handoff edge cases, and the fleet's books.
//!
//! A fleet handoff moves a station's *entire* [`StationSession`] between APs
//! — pending payloads, reconstructed feedback, health state, staleness
//! clocks. These tests pin the contract at the [`ApServer`] level against a
//! never-roamed control server running the identical schedule: with the same
//! model weights registered on every AP, roaming must be invisible in the
//! served bits — and so must a fleet handoff across channels with the
//! station's report in flight, at every pool width. Then the fleet's own
//! cell: two BSSs on one channel, run twice, with the medium's wait
//! accounted frame by frame. The last test holds the
//! fleet's channel-parallel round close to the serial loop it replaced, at
//! every pool width.

use splitbeam::model::SplitBeamModel;
use splitbeam::TailWeights;
use splitbeam_hwsim::{SeededJitter, SharedMedium};
use splitbeam_serve::server::ApServer;
use splitbeam_serve::{
    DeadlinePolicy, Fleet, FleetConfig, FleetRoundSummary, FleetStats, FrameStamp, HealthPolicy,
    RoundSummary, ServeError, SessionHealth, StationSession,
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
    let threshold = HealthPolicy::default().quarantine_after_corrupt;
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
    let rounds = HealthPolicy::default().quarantine_rounds;
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
    let misses = HealthPolicy::default().degrade_after_misses;
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
        let stations = |ap: &ApServer| ap.sessions().map(StationSession::id).collect::<Vec<_>>();
        let stations_at_target = stations(&target);
        let (session, err): (StationSession, ServeError) =
            target.adopt_station(session, 0).unwrap_err();
        assert_eq!(err, want, "{row}");
        assert_eq!(format!("{session:?}"), released, "{row}");
        assert_eq!(stations(&target), stations_at_target, "{row}");

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

/// A report offered before its station roams to an AP on another channel
/// is ingested into the target AP's code arena and served there, bit for
/// bit what a never-roamed control fleet serves — at pool widths 1, 2 and
/// 3. Station 5 roams from AP 1 (channel 1) to AP 2 (channel 0) with its
/// round-1 report in flight, and back again with its round-2 report; every
/// other station's feedback matches the control's too, so seating the
/// roamer in a slot of the target (a freed one, the second time) disturbs
/// no other row.
#[test]
fn a_pending_report_survives_a_cross_channel_fleet_handoff_at_every_pool_width() {
    const STATIONS: u64 = 24;
    let m = model(47);
    let cfg = FleetConfig {
        aps: 4,
        channels: 2,
        rate_mbps: Some(240.0),
        round_ns: 20_000_000,
        jitter_ns: 200_000,
        seed: 9,
        policy: Some(DeadlinePolicy::eq7d()),
    };
    let run = |roam: bool| {
        let mut fleet = Fleet::new(cfg.clone());
        let key = fleet.register_model(&m);
        for id in 0..STATIONS {
            fleet.register_station(id, id as usize % 4, key, 4).unwrap();
        }
        let mut feedback = Vec::new();
        for round in 0..4u64 {
            for id in 0..STATIONS {
                let frame = station_frame(&m, 500 + 31 * round + id, 4);
                fleet.offer_frame(id, frame).unwrap();
            }
            if roam && (round == 1 || round == 2) {
                fleet.handoff(5, if round == 1 { 2 } else { 1 }).unwrap();
            }
            let summary = fleet.close_round().unwrap();
            assert_eq!(summary.served as u64, STATIONS, "round {round}");
            let bits = |id: u64| -> Vec<u32> {
                let served = fleet.feedback_of(id).expect("every station is served");
                served.iter().map(|v| v.to_bits()).collect()
            };
            feedback.push((0..STATIONS).map(bits).collect::<Vec<_>>());
            for ap in 0..4 {
                assert_eq!(fleet.ap(ap).pending_count(), 0, "round {round}, AP {ap}");
            }
        }
        let home = fleet.home_ap(5);
        (feedback, home)
    };
    for width in 1..=3 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap();
        let ((roamed, roamed_home), (control, control_home)) =
            pool.install(|| (run(true), run(false)));
        assert_eq!((roamed_home, control_home), (Some(1), Some(1)));
        for (round, (got, want)) in roamed.iter().zip(&control).enumerate() {
            for (id, (got, want)) in got.iter().zip(want).enumerate() {
                assert!(got == want, "width {width}, round {round}, station {id}");
            }
        }
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

/// What a scripted fleet run leaves behind that does not depend on who ran
/// it: compared between the serial reference and `Fleet` at every width.
#[derive(Debug, PartialEq)]
struct Served {
    /// Per round: every AP's summary in AP order, and the frames rejected.
    rounds: Vec<(Vec<RoundSummary>, usize)>,
    /// Per station: home AP, feedback bits, the stamp it was last served at.
    stations: Vec<(usize, Option<Vec<u32>>, Option<FrameStamp>)>,
    /// Station 3's feedback bits after round 0, where it offers twice.
    double_offer: Option<Vec<u32>>,
    cross_bss_wait_ns: Vec<u64>,
    air_ns: u64,
    wait_ns: u64,
}

/// The two sides of the width-parity test, driven by one script.
trait FleetCell {
    fn register(&mut self, id: u64, ap: usize);
    fn offer(&mut self, id: u64, frame: Vec<u8>);
    fn handoff(&mut self, id: u64, to_ap: usize);
    /// Closes the round: per-AP summaries in AP order, frames rejected.
    fn close(&mut self) -> (Vec<RoundSummary>, usize);
    fn home(&self, id: u64) -> usize;
    fn ap(&self, ap: usize) -> &ApServer;
    /// Cross-BSS wait per AP, then the media's total airtime and wait.
    fn books(&self) -> (Vec<u64>, u64, u64);
}

/// `Fleet` itself, keeping what only it reports for the width-to-width
/// comparison.
struct Pooled {
    fleet: Fleet,
    key: usize,
    summaries: Vec<FleetRoundSummary>,
}

impl FleetCell for Pooled {
    fn register(&mut self, id: u64, ap: usize) {
        self.fleet.register_station(id, ap, self.key, 4).unwrap();
    }
    fn offer(&mut self, id: u64, frame: Vec<u8>) {
        self.fleet.offer_frame(id, frame).unwrap();
    }
    fn handoff(&mut self, id: u64, to_ap: usize) {
        self.fleet.handoff(id, to_ap).unwrap();
    }
    fn close(&mut self) -> (Vec<RoundSummary>, usize) {
        let summary = self.fleet.close_round().unwrap();
        let round = (summary.per_ap.clone(), summary.rejected);
        self.summaries.push(summary);
        round
    }
    fn home(&self, id: u64) -> usize {
        self.fleet.home_ap(id).unwrap()
    }
    fn ap(&self, ap: usize) -> &ApServer {
        self.fleet.ap(ap)
    }
    fn books(&self) -> (Vec<u64>, u64, u64) {
        let stats = self.fleet.stats();
        let cross = (0..self.fleet.num_aps()).map(|ap| self.fleet.cross_bss_wait_of(ap));
        (cross.collect(), stats.air_ns, stats.wait_ns)
    }
}

/// The reference: the fleet round as one serial loop over public parts —
/// offers sorted by `(ready, station, offer order)`, each transmitted on the
/// medium of its drain-time home's channel and ingested with the stamp that
/// grant gives it, then every AP closed in AP order.
struct Serial {
    cfg: FleetConfig,
    aps: Vec<ApServer>,
    key: usize,
    media: Vec<SharedMedium>,
    owner: Vec<Option<usize>>,
    cross_bss_wait_ns: Vec<u64>,
    jitter: SeededJitter,
    home: std::collections::BTreeMap<u64, usize>,
    /// `(ready_ns, station, offer order, head_ns, frame)`.
    offers: Vec<(u64, u64, usize, u64, Vec<u8>)>,
    now_ns: u64,
}

impl Serial {
    fn new(cfg: &FleetConfig, m: &SplitBeamModel) -> Self {
        let mut aps: Vec<ApServer> = (0..cfg.aps).map(|_| ApServer::new()).collect();
        let mut key = 0;
        for ap in &mut aps {
            key = ap.register_model(m.clone());
        }
        Self {
            aps,
            key,
            media: vec![SharedMedium::new(cfg.rate_mbps.unwrap()); cfg.channels],
            owner: vec![None; cfg.channels],
            cross_bss_wait_ns: vec![0; cfg.aps],
            jitter: SeededJitter::new(cfg.jitter_ns, cfg.seed),
            home: Default::default(),
            offers: Vec::new(),
            now_ns: 0,
            cfg: cfg.clone(),
        }
    }
}

impl FleetCell for Serial {
    fn register(&mut self, id: u64, ap: usize) {
        self.aps[ap].register_station(id, self.key, 4).unwrap();
        self.home.insert(id, ap);
    }
    fn offer(&mut self, id: u64, frame: Vec<u8>) {
        let head_ns = self.jitter.draw();
        let order = self.offers.len();
        self.offers
            .push((self.now_ns + head_ns, id, order, head_ns, frame));
    }
    fn handoff(&mut self, id: u64, to_ap: usize) {
        let from = self.home.insert(id, to_ap).unwrap();
        let [source, target] = self.aps.get_disjoint_mut([from, to_ap]).unwrap();
        Roamnet::handoff(source, target, id, self.key);
    }
    fn close(&mut self) -> (Vec<RoundSummary>, usize) {
        self.offers
            .sort_by_key(|&(ready, id, order, ..)| (ready, id, order));
        let mut rejected = 0;
        for (ready_ns, id, _, head_ns, frame) in self.offers.drain(..) {
            let ap = self.home[&id];
            let ch = ap % self.cfg.channels;
            let busy_until = self.media[ch].busy_until_ns();
            if ready_ns < busy_until && self.owner[ch].is_some_and(|owner| owner != ap) {
                self.cross_bss_wait_ns[ap] += busy_until - ready_ns;
            }
            let grant = self.media[ch].transmit(ready_ns, frame.len() * 8);
            self.owner[ch] = Some(ap);
            let stamp = FrameStamp {
                arrival_ns: grant.end_ns,
                head_ns,
                queue_ns: grant.wait_ns,
                air_ns: grant.air_ns,
                tail_ns: 0,
            };
            if self.aps[ap].ingest_wire_at(id, &frame, stamp).is_err() {
                rejected += 1;
            }
        }
        self.now_ns += self.cfg.round_ns;
        let policy = self.cfg.policy;
        let per_ap = self.aps.iter_mut().map(|ap| ap.close(policy).unwrap());
        (per_ap.collect(), rejected)
    }
    fn home(&self, id: u64) -> usize {
        self.home[&id]
    }
    fn ap(&self, ap: usize) -> &ApServer {
        &self.aps[ap]
    }
    fn books(&self) -> (Vec<u64>, u64, u64) {
        (
            self.cross_bss_wait_ns.clone(),
            self.media.iter().map(SharedMedium::total_air_ns).sum(),
            self.media.iter().map(SharedMedium::total_wait_ns).sum(),
        )
    }
}

/// Three rounds of one offer a station (AP 0 carries a double share, so
/// the summaries tell the APs apart): a damaged frame in round 1, station 0
/// handed off to AP 1 — another channel wherever there is one — *between*
/// its round-1 offer and the close, and back home before round 2's offers.
/// Round 0 also carries what only a shared frame arena and a drain that
/// looks ahead of itself can get wrong: station 3 offers twice (its session
/// is looked up ahead while its earlier frame is being ingested; the later
/// frame wins) and station 4 offers an empty frame before its real one (a
/// zero-length slice of the arena between two neighbours: refused, and the
/// neighbours served whole). A fourth, sparse round has channel 1 carry a
/// single frame — shorter than any look-ahead — while the others carry
/// their full share, offered in descending station order: where offers tie
/// on their instant, station order and offer order then disagree.
fn scripted_run(
    cell: &mut impl FleetCell,
    (aps, channels): (usize, usize),
    stations: u64,
    frames: &[Vec<u8>],
) -> Served {
    for id in 0..stations {
        cell.register(id, id as usize % (aps + 1) % aps);
    }
    let frame_of =
        |id: u64, round: u64| frames[((id + round) % frames.len() as u64) as usize].clone();
    let bits = |feedback: &[f32]| feedback.iter().map(|v| v.to_bits()).collect();
    let mut rounds = Vec::new();
    let mut double_offer = None;
    for round in 0..3u64 {
        if round == 2 {
            cell.handoff(0, 0);
        }
        for id in 0..stations {
            let mut frame = frame_of(id, round);
            if (round, id) == (1, 5) {
                frame[20] ^= 0x10;
            }
            if (round, id) == (0, 4) {
                cell.offer(id, Vec::new());
            }
            cell.offer(id, frame);
            if (round, id) == (0, 3) {
                cell.offer(id, frame_of(id, 7));
            }
        }
        if round == 1 {
            cell.handoff(0, 1);
        }
        rounds.push(cell.close());
        if round == 0 {
            double_offer = cell.ap(cell.home(3)).feedback_of(3).map(bits);
        }
    }
    let mut channel_1_offered = false;
    for id in (0..stations).rev() {
        let on_channel_1 = cell.home(id) % channels == 1;
        if !(on_channel_1 && channel_1_offered) {
            cell.offer(id, frame_of(id, 3));
            channel_1_offered |= on_channel_1;
        }
    }
    rounds.push(cell.close());
    let stations = (0..stations)
        .map(|id| {
            let home = cell.home(id);
            let session = cell.ap(home).session(id).unwrap();
            (
                home,
                cell.ap(home).feedback_of(id).map(bits),
                session.last_stamp().copied(),
            )
        })
        .collect();
    let (cross_bss_wait_ns, air_ns, wait_ns) = cell.books();
    Served {
        rounds,
        stations,
        double_offer,
        cross_bss_wait_ns,
        air_ns,
        wait_ns,
    }
}

/// A fleet round hands its channels out over the pool, and what comes back
/// may depend neither on how many threads claimed them nor on when: at pool
/// widths 1 (plain loops), 2 and 3 a scripted run equals the serial
/// reference above in every AP's summaries, every station's feedback bits,
/// home and last stamp and the media's books, and the widths agree on every
/// `FleetRoundSummary` and on `FleetStats`. Contended media (60 us of
/// overhead a frame against a 10 ms budget); the shapes are four channels of
/// two APs with over 16 Ki offers a round (the sort far past its small-slice
/// path, every channel's run thousands of frames long), three APs unevenly
/// on two channels, and four APs on one channel (one channel's APs handed
/// out on their own), all with jittered offers; and the three APs again with
/// none: there every offer of a round lands at one instant, so station
/// id and offer order alone decide each channel's air order and queue waits,
/// and station 3's double offer is won by its later frame.
#[test]
fn a_fleet_round_is_the_serial_loop_at_every_pool_width() {
    let m = model(43);
    let frames: Vec<Vec<u8>> = (0..16)
        .map(|seed| station_frame(&m, 200 + seed, 4))
        .collect();
    // Station 3's feedback had only its frame `at` been served in round 0.
    let alone = |at: usize| {
        let mut ap = ApServer::new();
        let key = ap.register_model(m.clone());
        ap.register_station(3, key, 4).unwrap();
        ap.ingest_wire(3, &frames[at]).unwrap();
        ap.process_round().unwrap();
        let feedback = ap.feedback_of(3).unwrap();
        Some(feedback.iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
    };
    // The wide shape's channels carry ~4k frames a round, 250 ms of air:
    // its rounds are long enough for the media to clear in between.
    for (aps, channels, stations, round_ns, jitter_ns) in [
        (8, 4, 16 * 1024 + 600, 400_000_000, 200_000),
        (3, 2, 40, 20_000_000, 200_000),
        (4, 1, 40, 20_000_000, 200_000),
        (3, 2, 40, 20_000_000, 0),
    ] {
        let shape = format!("{aps} APs / {channels} channels, {jitter_ns} ns jitter");
        let cfg = FleetConfig {
            aps,
            channels,
            rate_mbps: Some(240.0),
            round_ns,
            jitter_ns,
            seed: 11,
            policy: Some(DeadlinePolicy::eq7d()),
        };
        let shape_of = (aps, channels);
        let reference = scripted_run(&mut Serial::new(&cfg, &m), shape_of, stations, &frames);
        let served: usize = reference
            .rounds
            .iter()
            .flat_map(|(per_ap, _)| per_ap)
            .map(|s| s.served)
            .sum();
        let rejected: usize = reference.rounds.iter().map(|(_, rejected)| rejected).sum();
        assert!(
            served > 0 && rejected == 2,
            "{shape}: {served} served, {rejected} rejected (the empty and the damaged frame)"
        );
        // The sparse round: what each channel carried is what its APs found
        // pending. One frame on channel 1, and more than three look-ahead
        // distances (3 x 8 frames) on channel 0.
        let carried_on = |channel: usize| -> usize {
            let (per_ap, _) = &reference.rounds[3];
            let of_channel = per_ap.iter().skip(channel).step_by(channels);
            of_channel.map(|s| s.served + s.expired).sum()
        };
        assert!(carried_on(0) > 24, "{shape}: {}", carried_on(0));
        assert!(
            channels == 1 || carried_on(1) == 1,
            "{shape}: {}",
            carried_on(1)
        );
        assert!(
            reference.cross_bss_wait_ns.iter().any(|&ns| ns > 0),
            "{shape}"
        );
        assert_eq!(reference.stations[0].0, 0, "{shape}: station 0 roamed home");
        if jitter_ns == 0 {
            // Offers 3 and 4 of round 0 are station 3's: frames 3, then 10.
            assert_eq!(
                reference.double_offer,
                alone(10),
                "{shape}: the later frame wins"
            );
            assert_ne!(alone(10), alone(3), "{shape}: the frames tell apart");
        }

        let mut fleet_books: Option<(Vec<FleetRoundSummary>, FleetStats)> = None;
        for width in 1..=3 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let (run, summaries, stats) = pool.install(|| {
                let mut fleet = Fleet::new(cfg.clone());
                let key = fleet.register_model(&m);
                let mut cell = Pooled {
                    fleet,
                    key,
                    summaries: Vec::new(),
                };
                let run = scripted_run(&mut cell, shape_of, stations, &frames);
                (run, cell.summaries, cell.fleet.stats())
            });
            for (round, (got, want)) in run.rounds.iter().zip(&reference.rounds).enumerate() {
                assert_eq!(got, want, "{shape}, width {width}, round {round}");
            }
            // Thousands of stations: say where, not what.
            if let Some(at) =
                (0..run.stations.len()).find(|&i| run.stations[i] != reference.stations[i])
            {
                panic!(
                    "{shape}, width {width}, station {at}: {:?} != {:?}",
                    run.stations[at], reference.stations[at]
                );
            }
            assert_eq!(
                run.double_offer, reference.double_offer,
                "{shape}, width {width}"
            );
            assert_eq!(
                (&run.cross_bss_wait_ns, run.air_ns, run.wait_ns),
                (
                    &reference.cross_bss_wait_ns,
                    reference.air_ns,
                    reference.wait_ns
                ),
                "{shape}, width {width}"
            );
            // Both roams settle where the roamer is served in the round it
            // roams in; on the wide shape's crowded air its frames expire.
            let settled = if stations == 40 { 2 } else { 0 };
            assert_eq!(
                (stats.handoffs, stats.handoffs_settled),
                (2, settled),
                "{shape}, width {width}"
            );
            let books = (summaries, stats);
            let first = fleet_books.get_or_insert_with(|| books.clone());
            assert_eq!(*first, books, "{shape}: width {width} against width 1");
        }
    }
}
