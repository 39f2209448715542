//! Run outcomes, their digests and the per-rep correctness checks.

use picocube_telemetry::{keys, Metric, Metrics};

/// What one rep of a workload produced, in engine-neutral terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Transmissions put on the air (every copy, for the mesh sink).
    pub offered: usize,
    /// Transmissions decoded at the receiver or sink.
    pub delivered: usize,
    /// Transmissions lost to collisions.
    pub collided: usize,
    /// Transmissions lost to the channel.
    pub channel_losses: usize,
    /// Nodes that latched a fault.
    pub faulted: usize,
    /// Distinct packets originated (equals `offered` outside the mesh).
    pub unique_offered: usize,
    /// Distinct packets delivered (equals `delivered` outside the mesh).
    pub unique_delivered: usize,
    /// Mesh rebroadcasts on the air (0 outside the mesh).
    pub relays: usize,
    /// Telemetry events the run's sink received.
    pub events: u64,
    /// Order-sensitive digest of those events.
    pub event_digest: u64,
    /// The run's merged metric registry.
    pub metrics: Metrics,
}

impl Outcome {
    /// The sum of two runs' outcomes: counts add, metrics merge, event
    /// digests chain.
    pub fn plus(mut self, other: Outcome) -> Outcome {
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.collided += other.collided;
        self.channel_losses += other.channel_losses;
        self.faulted += other.faulted;
        self.unique_offered += other.unique_offered;
        self.unique_delivered += other.unique_delivered;
        self.relays += other.relays;
        self.events += other.events;
        self.event_digest = fnv1a_extend(self.event_digest, &other.event_digest.to_le_bytes());
        self.metrics.merge_from(&other.metrics);
        self
    }

    /// Simulated delivered / offered over distinct packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.unique_offered == 0 {
            0.0
        } else {
            self.unique_delivered as f64 / self.unique_offered as f64
        }
    }

    /// A digest of every field, metrics included. Float fields enter
    /// through their shortest round-trip text, so equal digests mean
    /// bit-equal outcomes (up to hash collisions).
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a digest with more bytes.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Relative tolerance between `power.total.uj` and the sum of the
/// per-load µJ: the two are accumulated in different orders.
const LEDGER_REL_TOL: f64 = 1e-9;

/// The invariants every rep must satisfy. Returns the names of the
/// checks that failed; an empty list means the rep is correct.
///
/// - `digest`: the rep's digest equals the first rep's;
/// - `conservation`: offered = delivered + collided + channel losses;
/// - `ledger`: `power.total.uj` equals the sum of the per-load µJ;
/// - `wakes`: `node.wakes` ≥ 2 × nodes, so the run is not boot plus sleep.
pub fn check_rep(outcome: &Outcome, first_digest: u64, nodes: usize) -> Vec<&'static str> {
    let mut failed = Vec::new();
    if outcome.digest() != first_digest {
        failed.push("digest");
    }
    if outcome.offered != outcome.delivered + outcome.collided + outcome.channel_losses {
        failed.push("conservation");
    }
    let total = outcome.metrics.gauge(keys::POWER_TOTAL_UJ);
    let loads = load_energy_uj(&outcome.metrics);
    if !(total > 0.0 && (total - loads).abs() <= LEDGER_REL_TOL * total) {
        failed.push("ledger");
    }
    if outcome.metrics.counter(keys::NODE_WAKES) < 2 * nodes as u64 {
        failed.push("wakes");
    }
    failed
}

/// Sum of the `power.load.<rail>.<load>.uj` gauges.
pub fn load_energy_uj(metrics: &Metrics) -> f64 {
    metrics
        .iter()
        .filter(|(name, _)| name.starts_with("power.load.") && name.ends_with(".uj"))
        .map(|(_, metric)| match metric {
            Metric::Gauge(v) => *v,
            _ => 0.0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nodes: usize) -> Outcome {
        let mut metrics = Metrics::new();
        metrics.add(&keys::power_load_uj("VBAT", "mcu"), 1.5);
        metrics.add(&keys::power_load_uj("VBAT", "radio"), 2.25);
        metrics.add(keys::POWER_TOTAL_UJ, 3.75);
        metrics.inc(keys::NODE_WAKES, 2 * nodes as u64);
        Outcome {
            offered: 10,
            delivered: 7,
            collided: 2,
            channel_losses: 1,
            faulted: 0,
            unique_offered: 10,
            unique_delivered: 7,
            relays: 0,
            events: 0,
            event_digest: 0,
            metrics,
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_extend(fnv1a(b"fo"), b"obar"), fnv1a(b"foobar"));
    }

    #[test]
    fn equal_outcomes_have_equal_digests() {
        assert_eq!(sample(4).digest(), sample(4).digest());
    }

    #[test]
    fn any_field_change_moves_the_digest() {
        let base = sample(4).digest();
        let mut fewer = sample(4);
        fewer.delivered -= 1;
        assert_ne!(fewer.digest(), base);
        let mut nudged = sample(4);
        nudged.metrics.add(keys::POWER_TOTAL_UJ, 1e-12);
        assert_ne!(nudged.digest(), base);
        let mut events = sample(4);
        events.event_digest = 1;
        assert_ne!(events.digest(), base);
    }

    #[test]
    fn sums_keep_every_invariant() {
        let two = sample(4).plus(sample(4));
        assert_eq!(
            (two.offered, two.delivered, two.unique_offered),
            (20, 14, 20)
        );
        assert!(check_rep(&two, two.digest(), 8).is_empty());
        assert!((two.metrics.gauge(keys::POWER_TOTAL_UJ) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn a_correct_rep_passes_every_check() {
        let outcome = sample(4);
        assert!(check_rep(&outcome, outcome.digest(), 4).is_empty());
        assert_eq!(outcome.delivery_ratio(), 0.7);
    }

    #[test]
    fn each_broken_invariant_is_named() {
        let good = sample(4);
        let first = good.digest();
        assert_eq!(check_rep(&good, first ^ 1, 4), ["digest"]);

        let mut leak = sample(4);
        leak.offered += 1;
        assert!(check_rep(&leak, first, 4).contains(&"conservation"));

        let mut ledger = sample(4);
        ledger.metrics.add(keys::POWER_TOTAL_UJ, 0.5);
        assert!(check_rep(&ledger, first, 4).contains(&"ledger"));

        // Wakes are checked against the node count: 8 wakes cover 4
        // nodes but not 5.
        assert!(check_rep(&good, first, 5).contains(&"wakes"));
    }
}
