//! Virtual-time frame stamps and the Eq. 7d deadline policy.
//!
//! The event-driven simulation core ([`crate::event`]) timestamps every wire
//! frame with its per-leg delay breakdown (head compute → medium queueing →
//! airtime → tail compute). The deadline-aware round closer in
//! [`crate::server`] classifies each stamped frame against the 10 ms Eq. 7d
//! budget **at round close** — on-time, late-but-usable, or past-budget — so
//! deadline violations are enforced where serving happens, not measured after
//! the fact.
//!
//! Everything here is integer nanoseconds ([`VirtualNs`]): summaries carrying
//! these stay `Eq`-comparable, which is what the lockstep bit-exactness
//! anchor (event driver with zero delays ≡ legacy drivers) relies on.

use splitbeam_hwsim::delay::DelayBudget;
use splitbeam_hwsim::event::{ns_to_s, s_to_ns, VirtualNs};

/// Virtual-time record of one ingested wire frame: when it reached the AP and
/// how long each leg of the trip took. The tail leg is the AP-side compute the
/// round closer will spend *after* the close — it is part of the Eq. 7d total
/// even though it has not happened yet at classification time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameStamp {
    /// Virtual arrival time at the AP (last bit off the air).
    pub arrival_ns: VirtualNs,
    /// Station-side head compute time.
    pub head_ns: u64,
    /// Time spent queueing for the shared medium.
    pub queue_ns: u64,
    /// On-air time of the frame.
    pub air_ns: u64,
    /// AP-side tail compute time (spent at round close).
    pub tail_ns: u64,
}

impl FrameStamp {
    /// The legs that already happened when the frame arrived, saturating:
    /// the legs are caller-chosen `u64`s (a jitter draw, a stall).
    fn past_legs_ns(&self) -> u64 {
        self.head_ns
            .saturating_add(self.queue_ns)
            .saturating_add(self.air_ns)
    }

    /// Total end-to-end delay of this report: head + queue + air + tail,
    /// saturating at `u64::MAX` (which every policy classifies expired).
    pub fn total_ns(&self) -> u64 {
        self.past_legs_ns().saturating_add(self.tail_ns)
    }

    /// Virtual time the report's sounding was born: arrival minus every leg
    /// that already happened (head, queue, air). Retransmissions inflate the
    /// queue leg by exactly their extra arrival delay, so the birth instant is
    /// stable across delivery attempts — the streaming watermark closer keys
    /// its per-frame deadline off this.
    pub fn birth_ns(&self) -> VirtualNs {
        self.arrival_ns.saturating_sub(self.past_legs_ns())
    }

    /// The stamp with `extra` nanoseconds of additional queueing (e.g. a
    /// stalled shard sitting on the frame before serving it), saturating.
    /// Identity at 0.
    pub fn with_extra_queue(&self, extra: u64) -> Self {
        Self {
            queue_ns: self.queue_ns.saturating_add(extra),
            ..*self
        }
    }
}

/// How the deadline-aware round closer classified one station's feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// End-to-end delay within the Eq. 7d budget (inclusive) — served fresh.
    OnTime,
    /// Budget exceeded, but still inside the grace window: the report is the
    /// freshest the AP will get, so it is reconstructed and stored, but
    /// counted late — never silently as fresh.
    Late,
    /// Budget exceeded beyond the grace window: the report is useless by the
    /// time it could be served. Consumed without reconstruction.
    Expired,
}

/// The round closer's deadline: the Eq. 7d budget plus a grace window for
/// late-but-usable reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// The Eq. 7d end-to-end budget (10 ms by default), in virtual ns.
    pub budget_ns: u64,
    /// How far past the budget a report is still worth reconstructing. One
    /// sounding interval is the natural choice: beyond it the next report
    /// supersedes this one anyway.
    pub grace_ns: u64,
}

impl DeadlinePolicy {
    /// Policy from a [`DelayBudget`] and a grace window in seconds.
    pub fn new(budget: &DelayBudget, grace_s: f64) -> Self {
        Self {
            budget_ns: s_to_ns(budget.max_delay_s),
            grace_ns: s_to_ns(grace_s),
        }
    }

    /// The default Eq. 7d policy: 10 ms budget, one 10 ms sounding interval
    /// of grace.
    pub fn eq7d() -> Self {
        Self::new(&DelayBudget::default(), 0.01)
    }

    /// Classifies a report by its total end-to-end delay. The budget boundary
    /// is inclusive on both cuts, matching
    /// [`DelayBudget::max_delay_s`](splitbeam_hwsim::delay::DelayBudget::max_delay_s):
    /// a report landing exactly on the deadline is on time.
    pub fn classify(&self, total_ns: u64) -> FrameClass {
        if total_ns <= self.budget_ns {
            FrameClass::OnTime
        } else if total_ns <= self.budget_ns.saturating_add(self.grace_ns) {
            FrameClass::Late
        } else {
            FrameClass::Expired
        }
    }

    /// Absolute virtual instant by which a stamped report must be *served* to
    /// stay within the Eq. 7d budget: its sounding birth plus the budget. The
    /// streaming closer fires a micro-batch when its watermark can no longer
    /// wait past the oldest pending frame's service deadline.
    pub fn service_deadline_ns(&self, stamp: &FrameStamp) -> VirtualNs {
        stamp.birth_ns().saturating_add(self.budget_ns)
    }
}

/// Aggregate virtual-delay accounting of one closed round, summed over every
/// report that was reconstructed (on-time and late). Integer nanoseconds keep
/// round summaries `Eq`; the legacy lockstep drivers report all zeros (their
/// frames carry no timing), which is exactly what the zero-delay event driver
/// produces — the parity anchor extends to the delay fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundDelayStats {
    /// Summed head compute across served reports.
    pub head_ns: u64,
    /// Summed medium queueing across served reports.
    pub queue_ns: u64,
    /// Summed airtime across served reports.
    pub air_ns: u64,
    /// Summed tail compute across served reports.
    pub tail_ns: u64,
    /// Worst single-report end-to-end delay this round.
    pub worst_e2e_ns: u64,
}

impl RoundDelayStats {
    /// Counts one served report's stamp into the stats: the merge of that
    /// one report's stats.
    pub fn record(&mut self, stamp: &FrameStamp) {
        self.merge(&RoundDelayStats {
            head_ns: stamp.head_ns,
            queue_ns: stamp.queue_ns,
            air_ns: stamp.air_ns,
            tail_ns: stamp.tail_ns,
            worst_e2e_ns: stamp.total_ns(),
        });
    }

    /// Merges other stats (another shard's, or one report's) into these.
    /// The sums saturate, like a stamp's own.
    pub fn merge(&mut self, other: &RoundDelayStats) {
        self.head_ns = self.head_ns.saturating_add(other.head_ns);
        self.queue_ns = self.queue_ns.saturating_add(other.queue_ns);
        self.air_ns = self.air_ns.saturating_add(other.air_ns);
        self.tail_ns = self.tail_ns.saturating_add(other.tail_ns);
        self.worst_e2e_ns = self.worst_e2e_ns.max(other.worst_e2e_ns);
    }

    /// Summed total delay across all legs.
    pub fn total_ns(&self) -> u64 {
        self.head_ns
            .saturating_add(self.queue_ns)
            .saturating_add(self.air_ns)
            .saturating_add(self.tail_ns)
    }

    /// Mean end-to-end delay in seconds over `served` reports (0 when none).
    pub fn mean_e2e_s(&self, served: usize) -> f64 {
        if served == 0 {
            0.0
        } else {
            ns_to_s(self.total_ns()) / served as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_total_sums_the_four_stages() {
        let stamp = FrameStamp {
            arrival_ns: 9_000_000,
            head_ns: 1_000_000,
            queue_ns: 2_000_000,
            air_ns: 3_000_000,
            tail_ns: 4_000_000,
        };
        assert_eq!(stamp.total_ns(), 10_000_000);
        assert_eq!(FrameStamp::default().total_ns(), 0);
    }

    /// The budget boundary is inclusive at both cuts, matching the Eq. 7d
    /// `DelayBudget`.
    #[test]
    fn classification_boundaries_are_inclusive() {
        let policy = DeadlinePolicy {
            budget_ns: 10_000_000,
            grace_ns: 5_000_000,
        };
        assert_eq!(policy.classify(0), FrameClass::OnTime);
        assert_eq!(policy.classify(10_000_000), FrameClass::OnTime);
        assert_eq!(policy.classify(10_000_001), FrameClass::Late);
        assert_eq!(policy.classify(15_000_000), FrameClass::Late);
        assert_eq!(policy.classify(15_000_001), FrameClass::Expired);
        assert_eq!(policy.classify(u64::MAX), FrameClass::Expired);
    }

    #[test]
    fn eq7d_policy_matches_the_paper_budget() {
        let policy = DeadlinePolicy::eq7d();
        assert_eq!(policy.budget_ns, 10_000_000);
        assert_eq!(policy.grace_ns, 10_000_000);
        assert_eq!(policy.classify(10_000_000), FrameClass::OnTime);
        assert_eq!(policy.classify(20_000_001), FrameClass::Expired);
    }

    /// `birth_ns` is invariant across retransmissions: a retry delivers later
    /// but the extra wait lands in the queue leg, so arrival − legs is stable.
    #[test]
    fn birth_is_stable_across_retransmissions() {
        let first = FrameStamp {
            arrival_ns: 6_000_000,
            head_ns: 1_000_000,
            queue_ns: 2_000_000,
            air_ns: 500_000,
            tail_ns: 100_000,
        };
        let retry = FrameStamp {
            arrival_ns: 9_500_000,
            queue_ns: first.queue_ns + 3_500_000,
            ..first
        };
        assert_eq!(first.birth_ns(), 2_500_000);
        assert_eq!(retry.birth_ns(), first.birth_ns());
        // Underflow saturates instead of wrapping.
        let degenerate = FrameStamp {
            arrival_ns: 1,
            head_ns: 5,
            ..FrameStamp::default()
        };
        assert_eq!(degenerate.birth_ns(), 0);
    }

    #[test]
    fn extra_queue_shifts_total_and_deadline_classification() {
        let policy = DeadlinePolicy::eq7d();
        let stamp = FrameStamp {
            arrival_ns: 4_000_000,
            head_ns: 2_000_000,
            queue_ns: 1_000_000,
            air_ns: 1_000_000,
            tail_ns: 500_000,
        };
        assert_eq!(stamp.with_extra_queue(0), stamp);
        let lagged = stamp.with_extra_queue(7_000_000);
        assert_eq!(lagged.total_ns(), stamp.total_ns() + 7_000_000);
        assert_eq!(policy.classify(stamp.total_ns()), FrameClass::OnTime);
        assert_eq!(policy.classify(lagged.total_ns()), FrameClass::Late);
        // Service deadline: birth (arrival − past legs) + budget.
        assert_eq!(policy.service_deadline_ns(&stamp), 10_000_000);
    }

    /// The legs are caller-chosen `u64`s: every sum over them saturates at
    /// the end of time (and is the plain sum below it — the other tests).
    #[test]
    fn stamp_and_stats_sums_saturate() {
        const MAX: u64 = u64::MAX;
        // (head, queue, air, tail, extra queue) -> (total, birth from MAX)
        let rows = [
            ([MAX, 0, 0, 1], 0, MAX, 0),
            ([1, MAX, 0, 0], 0, MAX, 0),
            ([MAX / 2, MAX / 2, 2, 0], 0, MAX, 0),
            ([1, 2, 3, MAX], 0, MAX, MAX - 6),
            ([1, 2, 3, 4], MAX, MAX, 0),
            ([1, 2, 3, 4], MAX - 10, MAX, 4),
            ([1, 2, 3, 4], MAX - 11, MAX - 1, 5),
            ([1, 2, 3, 4], 5, 15, MAX - 11),
        ];
        let mut stats = RoundDelayStats::default();
        for ([head_ns, queue_ns, air_ns, tail_ns], extra, total, birth) in rows {
            let stamp = FrameStamp {
                arrival_ns: MAX,
                head_ns,
                queue_ns,
                air_ns,
                tail_ns,
            }
            .with_extra_queue(extra);
            assert_eq!((stamp.total_ns(), stamp.birth_ns()), (total, birth));
            stats.record(&stamp);
        }
        let mut merged = stats;
        merged.merge(&stats);
        for s in [stats, merged] {
            assert_eq!((s.head_ns, s.queue_ns, s.worst_e2e_ns), (MAX, MAX, MAX));
            assert_eq!(s.total_ns(), MAX);
        }
    }

    #[test]
    fn delay_stats_record_and_merge() {
        let mut a = RoundDelayStats::default();
        a.record(&FrameStamp {
            arrival_ns: 0,
            head_ns: 10,
            queue_ns: 20,
            air_ns: 30,
            tail_ns: 40,
        });
        a.record(&FrameStamp {
            arrival_ns: 0,
            head_ns: 1,
            queue_ns: 2,
            air_ns: 3,
            tail_ns: 4,
        });
        assert_eq!(
            (a.head_ns, a.queue_ns, a.air_ns, a.tail_ns),
            (11, 22, 33, 44)
        );
        assert_eq!(a.worst_e2e_ns, 100);
        assert_eq!(a.total_ns(), 110);
        let mut b = RoundDelayStats {
            worst_e2e_ns: 500,
            ..RoundDelayStats::default()
        };
        b.merge(&a);
        assert_eq!(b.worst_e2e_ns, 500);
        assert_eq!(b.total_ns(), 110);
        assert!((a.mean_e2e_s(2) - 55e-9).abs() < 1e-18);
        assert_eq!(RoundDelayStats::default().mean_e2e_s(0), 0.0);
    }
}
